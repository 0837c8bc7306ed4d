#!/usr/bin/env python3
"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cli-large --seeds 10

Runs ``run.py`` once per seed (1, 2, ...), one run at a time, and prints for every
end-to-end metric the median, the quartiles (``statistics.quantiles``,
n=4) and their distance as a share of the median, next to the metric's
bound in ``BENCHMARK.json``. A spread under a third of the bound is steady
enough to compare two commits. With ``--trace 1`` it instead makes
two traced runs of seed 1 and checks that every count
(calls, raises, spans, bytes) is identical in all of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = ("count", "bytes")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed ({proc.returncode})")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Spread of a workload's metrics over seeds.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    if args.trace:
        runs = [run(args.workload, 1, seconds, 1) for _ in range(2)]
        exact = {
            m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS
        }
        differ = [
            name for name in sorted(exact)
            if len({r["metrics"][name]["value"] for r in runs}) != 1
        ]
        for name in sorted(exact):
            print(f"{name:<48} {[r['metrics'][name]['value'] for r in runs]}")
        print(f"{len(exact) - len(differ)} of {len(exact)} counts identical across {len(runs)} traced runs")
        status = 1 if differ else 0
    else:
        results = []
        for seed in range(1, args.seeds + 1):
            t0 = time.perf_counter()
            results.append(run(args.workload, seed, seconds, 0))
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in results[-1]["metrics"].items())
            print(f"seed {seed} ({time.perf_counter() - t0:.0f} s): {values}", file=sys.stderr)
        status = 0
        print(f"{'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            steady = share < m["bound"] / 3
            if not steady and m["name"] != "setup_s":
                status = 1
            print(f"{m['name']:<20}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{share:>9.3f}{m['bound']:>8}"
                  f"{'' if steady else '  above a third of the bound'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
