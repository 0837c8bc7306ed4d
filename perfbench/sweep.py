#!/usr/bin/env python3
"""Layer scaling sweep on office models: a report, not a benchmark workload.

    PYTHONPATH=src python3 perfbench/sweep.py [--json FILE]

Times every layer of the bridge on seeded office models at four sizes
(about 600, 1,050, 1,650 and 2,400 instance nodes, which bracket the
scaling table in ROADMAP.md) and prints, per layer, the median of three
times at each size and the log-log slope of time against instance nodes
(least squares). A slope near 1 means linear scaling, near 2 quadratic.
``--json`` also writes the medians, interquartile ranges, slopes, Python
version and git revision.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import office

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
ROOMS = (36, 64, 100, 146)
REPEATS = 3


def layers(work: Path, model: office.OfficeModel):
    """``(name, thunk)`` pairs, one per layer, on one model."""
    from bigtg import constraints, fileio, mapping, typedgraph, variability

    bg_path, ig_path = work / "m.bg.json", work / "m.ig.json"
    bg_path.write_text(json.dumps(office.envelope("bigraph", model.bigraph)), encoding="utf-8")
    ig_path.write_text(json.dumps(office.envelope("instancegraph", model.encoding)), encoding="utf-8")
    b = fileio.load_bigraph(str(bg_path))
    sig = b.signature
    g, emap = mapping.encode(b)
    tg = mapping.extend_for_signature(sig)
    doc = constraints.parse_constraints((ROOT / "fixtures" / "office.bgc").read_text(encoding="utf-8"))
    weak = variability.FeatureConfig(frozenset({"WT", "ER", "RI", "ES", "SI", "EP", "PI"}))
    implicit = variability.FeatureConfig(frozenset({"ST", "ER", "RI", "ES", "SI"}))
    out = str(work / "out.ig.json")
    return [
        ("encode", lambda: mapping.encode(b)),
        ("check_typing", lambda: typedgraph.check_typing(g, tg)),
        ("check_validity", lambda: typedgraph.check_validity(g, tg)),
        ("check_multiplicities", lambda: typedgraph.check_multiplicities(g, tg)),
        ("check_arity_rule", lambda: mapping.check_arity_rule(g, tg, sig)),
        ("check_soundness", lambda: mapping.check_soundness(b, g, emap)),
        ("decode", lambda: mapping.decode(g, sig)),
        ("apply_deltas.weak-typing", lambda: variability.apply_deltas(g, weak, sig)),
        ("apply_deltas.implicit-ports", lambda: variability.apply_deltas(g, implicit, sig)),
        ("evaluate", lambda: constraints.evaluate(doc, g, tg)),
        ("fileio.save", lambda: fileio.save(g, out)),
        ("fileio.load", lambda: fileio.load_instance_graph(str(ig_path))),
    ]


def slope(xs: list[float], ys: list[float]) -> float:
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def git_revision() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Time every layer at several model sizes.")
    parser.add_argument("--json", help="also write the results to this file")
    args = parser.parse_args(argv)

    sig_doc = json.loads((ROOT / "fixtures" / "printer.sig.json").read_text(encoding="utf-8"))
    work = ROOT / "perfbench" / ".work" / "sweep"
    work.mkdir(parents=True, exist_ok=True)
    sizes, times = [], {}
    try:
        for rooms in ROOMS:
            model = office.office_model(SEED, rooms, round(4.2 * rooms), max(1, rooms // 3), sig_doc)
            sizes.append({"rooms": rooms, "nodes": model.counts["nodes"], "edges": model.counts["edges"]})
            for name, thunk in layers(work, model):
                samples = []
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    thunk()
                    samples.append(time.perf_counter() - t0)
                times.setdefault(name, []).append(samples)
            print(f"rooms {rooms}: {model.counts['nodes']} nodes done", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    nodes = [s["nodes"] for s in sizes]
    print(f"{'layer':<28}" + "".join(f"{n:>10}" for n in nodes) + f"{'slope':>8}")
    report = []
    for name, per_size in times.items():
        medians = [statistics.median(s) for s in per_size]
        quartiles = [statistics.quantiles(s, n=4) if len(s) > 1 else [s[0]] * 3 for s in per_size]
        k = slope(nodes, medians)
        print(f"{name:<28}" + "".join(f"{m:>10.4f}" for m in medians) + f"{k:>8.2f}")
        report.append({
            "stage": name,
            "slope": k,
            "sizes": [
                {**size, "median_s": m, "iqr_s": q[2] - q[0], "repeats": len(s)}
                for size, m, q, s in zip(sizes, medians, quartiles, per_size)
            ],
        })
    if args.json:
        doc = {
            "git": git_revision(),
            "python": sys.version.split()[0],
            "machine": platform.machine(),
            "seed": SEED,
            "layers": report,
        }
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
