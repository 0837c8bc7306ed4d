#!/usr/bin/env python3
"""Run one bigtg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli-large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload runs in a fresh interpreter
(``perfbench/workloads.py``) against the checkout's own ``src``. With
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are reported;
with ``--trace 1`` the per-layer metrics of a separate traced run. Each
metric is printed by name with its unit, and the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 1 when any op raised, exited with the wrong code or gave a
wrong verdict, and 2 when the checkout lacks the program or its fixtures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NEEDED = (
    "BENCHMARK.json",
    "src/bigtg/cli.py",
    "fixtures/printer.sig.json",
    "fixtures/printer.tg.json",
    "fixtures/weak.cfg.json",
    "fixtures/office.bgc",
)

#: A workload run must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile (to 0.1) with at least ten samples beyond it,
    by nearest rank: ``(value, percentile, samples beyond)``."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    p = math.floor(1000 * (n - 10) / n) / 10
    rank = math.ceil(round(p / 100 * n, 9))
    return xs[rank - 1], p, n - rank


def end_to_end_metrics(raw: dict) -> tuple[dict[str, float], dict[str, str]]:
    verdict_ms = [s * 1e3 for s in raw["verdict_s"]]
    tail_ms, p, beyond = tail(verdict_ms)
    metrics = {
        "setup_s": raw["setup_s"],
        "wall_s": raw["wall_s"],
        "ops_per_s": raw["attempted"] / raw["wall_s"],
        "verdict_ms.p50": statistics.median(verdict_ms),
        "verdict_ms.tail": tail_ms,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    notes = {
        "wall_s": f"at reference speed; {raw['measured_wall_s']:.2f} s as measured",
        "verdict_ms.tail": f"p{p:g} of {len(verdict_ms)} ops, {beyond} beyond it",
    }
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one bigtg benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"run.py: not a bigtg checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True
        )
    except subprocess.TimeoutExpired:
        print(f"run.py: workload did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"run.py: workload exited with {proc.returncode}", file=sys.stderr)
        return 3
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        values, notes, wanted = raw["layers"], {}, spec["per_layer"]
    else:
        values, notes = end_to_end_metrics(raw)
        wanted = spec["end_to_end"]
    attempted, failed = raw["attempted"], raw["failed"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':<48} {failed / attempted:>16.6g}  ({failed} of {attempted} ops failed)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
