#!/usr/bin/env python3
"""Compare two source trees of bigtg in one process, op by op.

Usage: ``python3 scripts/interleave.py OLD_SRC NEW_SRC [DRAWS] [SEED]``

Each of ``OLD_SRC`` and ``NEW_SRC`` is a directory that holds a ``bigtg``
package (``src`` of a checkout). Both are copied into a temporary
directory under distinct package names and loaded side by side. Each
draw is the ``roundtrip-small`` op of ``perfbench``: a random bigraph
through ``encode``, every checker, ``check_soundness`` and ``decode``.
Each tree runs the op on the draw its own generator makes from the same
seed, and the two trees take turns at going first, so that a slow
spell of the machine falls on both alike. The script prints, for each
tree, the sum and the median of its op times, then the new tree's ratios
to the old one: of the sums, of the medians, and the median and
quartiles of the per-op ratios. A tree compared with itself reads about
1. It exits 1 if any op of either tree gives a false verdict (a failing
check, or a decoded bigraph unequal to its draw).
"""

from __future__ import annotations

import importlib
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

#: The seed of ``perfbench``'s first round is ``seed * SEED_STRIDE``.
SEED_STRIDE = 1_000_003


def load(src: str, name: str, into: Path):
    """The ``bigtg`` package of ``src``, copied into ``into`` as ``name``
    (its modules import each other relatively) and imported."""
    shutil.copytree(Path(src) / "bigtg", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    for module in ("mapping", "typedgraph", "generators"):
        importlib.import_module(f"{name}.{module}")
    return sys.modules[name]


def roundtrip(tree, b) -> bool:
    """The ``roundtrip-small`` op on ``b``: whether every check passes and
    ``b`` decodes back to itself."""
    mapping, typedgraph = tree.mapping, tree.typedgraph
    g, emap = mapping.encode(b)
    tg = mapping.extend_for_signature(b.signature)
    reports = (
        typedgraph.check_typing(g, tg),
        typedgraph.check_validity(g, tg),
        typedgraph.check_multiplicities(g, tg),
        mapping.check_arity_rule(g, tg, b.signature),
        mapping.check_soundness(b, g, emap),
    )
    decoded, _ = mapping.decode(g, b.signature)
    return all(r.ok for r in reports) and decoded == b


def timed(tree, b) -> tuple[float, bool]:
    start = time.perf_counter()
    verdict = roundtrip(tree, b)
    return time.perf_counter() - start, verdict


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4, 5):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    draws = int(argv[3]) if len(argv) > 3 else 1000
    seed = int(argv[4]) if len(argv) > 4 else 13
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        trees = (load(argv[1], "bigtg_old", Path(tmp)), load(argv[2], "bigtg_new", Path(tmp)))
        times: tuple[list[float], list[float]] = ([], [])
        # One untimed op each loads what the ops load lazily (soundness).
        wrong = sum(not roundtrip(tree, tree.generators.random_bigraph(random.Random(-1))) for tree in trees)
        for i in range(draws):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for side in order:
                tree = trees[side]
                b = tree.generators.random_bigraph(random.Random(seed * SEED_STRIDE + i))
                seconds, verdict = timed(tree, b)
                times[side].append(seconds)
                wrong += not verdict
    old, new = times
    for label, column in (("old", old), ("new", new)):
        print(f"{label}: sum {sum(column):.3f} s, median {statistics.median(column) * 1e6:.1f} us over {len(column)} ops")
    ratios = sorted(n / o for o, n in zip(old, new))
    q1, q2, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"new/old: sum {sum(new) / sum(old):.3f}, median {statistics.median(new) / statistics.median(old):.3f}")
    print(f"per-op new/old: median {q2:.3f}, quartiles {q1:.3f} to {q3:.3f}")
    if wrong:
        print(f"{wrong} op(s) gave a false verdict", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
