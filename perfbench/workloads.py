"""Run one benchmark workload in this interpreter and print its result.

``run.py`` starts this file in a fresh interpreter per run, with
``PYTHONHASHSEED`` pinned and ``PYTHONPATH`` set to the checkout's
``src``, so peak RSS belongs to this workload alone and set iteration
order (and with it every call count) repeats between runs. The last line
of standard output is one JSON object with the raw measurements and the
counts of ops attempted and failed.

Load is closed loop from this one thread: the next op starts when the last
one has its verdict. A run is ``ROUNDS`` rounds, each after its own set-up:
``variants`` repeats the same 54 configurations, ``roundtrip-small``
makes new draws, ``cli-large`` runs the same eight ops on another model of
identical size.

Times are reported at reference speed. A shared 2-vCPU Xeon VM runs the
same code between 1x and 1.8x slower from one second to the next, and CPU
time slows exactly as wall time does, so neither is steady. A fixed
integer loop (``reference_s``) is timed before the first op and after
every op, and each op's time is scaled by ``REFERENCE_S`` over the mean of
the loop times on either side of it: the time the op would have taken had
the loop run at ``REFERENCE_S``. An optimisation of ``bigtg`` shortens the
op and leaves the loop unchanged, so it shows in full.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import office

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SIG = FIXTURES / "printer.sig.json"
TG = FIXTURES / "printer.tg.json"
WEAK = FIXTURES / "weak.cfg.json"
BGC = FIXTURES / "office.bgc"

#: Rounds per run.
ROUNDS = 3

#: Iterations of the reference loop, and the time it takes in the fast
#: spells of a 2-vCPU Xeon VM; every reported time is scaled to it.
REFERENCE_LOOPS = 100_000
REFERENCE_S = 0.004

#: Set-ups timed after the rounds, on top of one per round; ``setup_s`` is
#: the median of them all.
EXTRA_SETUPS = 2

#: Subprocess runs of ``bigtg.cli configs`` behind ``cli.startup_ms``.
STARTUP_REPEATS = 5

CLI_SUBCOMMANDS = ("metamodel", "encode", "validate", "decode", "configure", "check")


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def warm_import() -> None:
    """Import the package in a child interpreter, as every CLI call does."""
    subprocess.run([sys.executable, "-c", "import bigtg.cli"], env=cli_env(), check=True)


def reference_s() -> float:
    """Wall time of a fixed integer loop that no change to ``bigtg`` touches."""
    t0 = time.perf_counter()
    x = 0
    for i in range(REFERENCE_LOOPS):
        x += i
    return time.perf_counter() - t0


class ReferenceClock:
    """Times calls at reference speed, sharing each loop timing between the
    call before it and the call after it."""

    def __init__(self) -> None:
        self.last = reference_s()
        self.measured_s = 0.0

    def measure(self, fn, *args, **kwargs):
        """``(return value, seconds at reference speed)`` of the call."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        after = reference_s()
        scaled = elapsed * 2 * REFERENCE_S / (self.last + after)
        self.last = after
        self.measured_s += elapsed
        return result, scaled


def read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


class Workload:
    """Rounds of ops over inputs made from the seed.

    The op list is fixed once ``--seed`` and ``--seconds`` are known, so a
    parent commit and a change do identical work.
    """

    def __init__(self, seed: int, seconds: int, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.work = work

    def setup(self, r: int) -> None:
        """Make round ``r``'s inputs and write its input files."""
        raise NotImplementedError

    def ops(self, r: int) -> list:
        raise NotImplementedError

    def trace_ops(self) -> list:
        """The ops of the traced run, from round 0."""
        return self.ops(0)

    def run(self, op, dest: Path):
        """Execute one op, writing any output file to ``dest`` plus a
        suffix; the return value is checked later by ``verify``."""
        raise NotImplementedError

    def verify(self, op, result) -> bool:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        """Peak RSS of the ops' process: this fresh interpreter."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        """Stop any helper process."""


# ---------------------------------------------------------------------------
# roundtrip-small


class RoundtripSmall(Workload):
    """Random small bigraphs through encode, every checker and decode."""

    #: Draws per round per second of ``--seconds``; every round draws anew,
    #: because the cost of a draw grows with the square of its size and one
    #: round's sum of squares still varies by about 8% from seed to seed.
    DRAWS_PER_SECOND = 20
    #: Draws of the traced run, which keeps every span in memory.
    TRACE_DRAWS = 200

    def setup(self, r: int) -> None:
        from bigtg import generators

        n = self.DRAWS_PER_SECOND * self.seconds
        first = self.seed * 1_000_003 + r * n
        self.bigraphs = [generators.random_bigraph(random.Random(first + i)) for i in range(n)]

    def ops(self, r: int) -> list:
        return self.bigraphs

    def trace_ops(self) -> list:
        return self.bigraphs[: self.TRACE_DRAWS]

    def run(self, b, dest: Path):
        from bigtg import mapping, typedgraph

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

    def verify(self, b, result) -> bool:
        return result is True


# ---------------------------------------------------------------------------
# variants


class Variants(Workload):
    """All 54 configurations of the product line on one mid-size model."""

    ROOMS, JOBS, LINKS = 27, 115, 9  # 446 instance nodes

    def setup(self, r: int) -> None:
        from bigtg import fileio

        sig_doc = read_json(SIG)
        self.model = office.office_model(self.seed, self.ROOMS, self.JOBS, self.LINKS, sig_doc)
        path = self.work / "variants.ig.json"
        write_json(path, office.envelope("instancegraph", self.model.encoding))
        self.graph = fileio.load_instance_graph(str(path))
        self.sig = fileio.load_signature(str(SIG))

    def ops(self, r: int) -> list:
        from bigtg import variability

        return variability.enumerate_configs()

    def run(self, cfg, dest: Path):
        from bigtg import fileio, mapping, typedgraph, variability

        tg = variability.derive_type_graph(
            variability.annotate_150(mapping.extend_for_signature(self.sig)), cfg
        )
        variant = variability.apply_deltas(self.graph, cfg, self.sig)
        reports = (
            typedgraph.check_typing(variant, tg),
            typedgraph.check_validity(variant, tg),
            typedgraph.check_multiplicities(variant, tg),
        )
        ig_path, tg_path = Path(f"{dest}.ig.json"), Path(f"{dest}.tg.json")
        fileio.save(variant, str(ig_path))
        fileio.save(tg, str(tg_path))
        return all(r.ok for r in reports), ig_path, tg_path

    def verify(self, cfg, result) -> bool:
        """Check the saved files against counts derived from the model and
        the feature semantics, independently of ``bigtg``."""
        ok, ig_path, tg_path = result
        sel = cfg.selected
        ig, tg = read_json(ig_path), read_json(tg_path)
        if not ok or ig["kind"] != "instancegraph" or tg["kind"] != "typegraph":
            return False
        enc = self.model.encoding
        by_type = self.model.counts["by_type"]
        roots, sites, ports = by_type["BRoot"], by_type["BSite"], by_type["BPort"]
        root_children = sum(1 for e in enc["edges"] if e["type"] == "bPrnt" and e["tgt"].startswith("r:"))
        controls = sum(by_type.get(c, 0) for c in office.PRINTER_ARITIES)
        dropped = {"BRoot": "ER" not in sel, "BSite": "ES" not in sel, "BPort": "EP" not in sel}
        want_nodes = len(enc["nodes"]) - roots * dropped["BRoot"] - sites * dropped["BSite"] - ports * dropped["BPort"]
        # A dropped root takes its children's nesting pairs, a dropped site
        # its own, a dropped port its ownership pair; links are rewired.
        want_edges = len(enc["edges"]) - 2 * (
            root_children * dropped["BRoot"] + sites * dropped["BSite"] + ports * dropped["BPort"]
        )
        want_index = (
            roots * ("ER" in sel and "RI" in sel)
            + sites * ("ES" in sel and "SI" in sel)
            + ports * ("EP" in sel and "PI" in sel)
        )
        nodes = ig["payload"]["nodes"]
        want_types = {t for t in office.BASE_TYPES if not dropped.get(t)}
        if "ST" in sel:
            want_types |= set(office.PRINTER_ARITIES)
        return (
            len(nodes) == want_nodes
            and len(ig["payload"]["edges"]) == want_edges
            and sum(1 for n in nodes if "index" in n["attrs"]) == want_index
            and sum(1 for n in nodes if n["type"] == "BNode" and "control" in n["attrs"])
            == controls * ("WT" in sel)
            and {t["name"] for t in tg["payload"]["nodeTypes"]} == want_types
        )


# ---------------------------------------------------------------------------
# cli-large


class CliLarge(Workload):
    """Every CLI subcommand on large office models, one child at a time."""

    ROOMS, JOBS, LINKS = 90, 380, 30  # 1,491 instance nodes
    spawner: subprocess.Popen | None = None

    def setup(self, r: int) -> None:
        if r == 0:
            self.models = {}
            self.kind = random.Random(self.seed).choice(sorted(office.MUTATIONS))
            self.tg_doc = read_json(TG)
        model = office.office_model(
            self.seed * 97 + r, self.ROOMS, self.JOBS, self.LINKS, read_json(SIG), self.kind
        )
        write_json(self.work / f"m{r}.bg.json", office.envelope("bigraph", model.bigraph))
        write_json(self.work / f"m{r}.ig.json", office.envelope("instancegraph", model.encoding))
        write_json(self.work / f"m{r}.mut.ig.json", office.envelope("instancegraph", model.mutated))
        self.models[r] = model

    def ops(self, r: int) -> list:
        ig, mut = str(self.work / f"m{r}.ig.json"), str(self.work / f"m{r}.mut.ig.json")
        sig, tg, bgc, weak = str(SIG), str(TG), str(BGC), str(WEAK)
        return [
            (r, "metamodel", [sig], ".tg.json"),
            (r, "encode", [str(self.work / f"m{r}.bg.json")], ".ig.json"),
            (r, "validate", [ig, "--sig", sig], None),
            (r, "decode", [ig, "--sig", sig], ".bg.json"),
            (r, "configure", [ig, "--sig", sig, "--features", weak], ".ig.json"),
            (r, "check", [ig, "--tg", tg, "--constraints", bgc], None),
            (r, "validate", [mut, "--sig", sig], None),
            (r, "check", [mut, "--tg", tg, "--constraints", bgc], None),
        ]

    @staticmethod
    def argv(op, dest: Path) -> tuple[list[str], Path | None]:
        _, sub, args, suffix = op
        if suffix is None:
            return [sub, *args], None
        path = Path(f"{dest}{suffix}")
        return [sub, *args, "-o", str(path)], path

    def run(self, op, dest: Path):
        """One CLI child, waited for before the next op starts."""
        if self.spawner is None:
            self.spawner = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("spawner.py"))],
                env=cli_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        argv, path = self.argv(op, dest)
        self.spawner.stdin.write(json.dumps([sys.executable, "-m", "bigtg.cli", *argv]) + "\n")
        self.spawner.stdin.flush()
        code, err = json.loads(self.spawner.stdout.readline())
        return code, err, path

    def peak_rss_kb(self) -> int:
        """Peak RSS of the largest CLI child."""
        self.spawner.stdin.close()
        peak = int(self.spawner.stdout.readline())
        self.close()
        return peak

    def close(self) -> None:
        if self.spawner is not None:
            self.spawner.stdin.close()
            self.spawner.wait()
            self.spawner.stdout.close()
            self.spawner = None

    def run_in_process(self, op, dest: Path):
        """The same op through ``bigtg.cli.main`` in this interpreter."""
        from bigtg import cli

        argv, path = self.argv(op, dest)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, err.getvalue(), path

    def verify(self, op, result) -> bool:
        """Exit codes, finding codes and output files against the known
        answers of the generator, parsed with ``json`` only."""
        r, sub, args, _ = op
        code, err, path = result
        model = self.models[r]
        if args[0].endswith(".mut.ig.json"):
            codes = sorted({line.split()[1] for line in err.splitlines() if line.strip()})
            return code == model.mutation_exit and codes == model.mutation_codes
        if sub == "check":
            return (code == 0 and not err) == all(model.invariants.values())
        if code != 0 or err:
            return False
        if sub == "metamodel":
            return read_json(path) == self.tg_doc
        if sub == "encode":
            return office.normalized(read_json(path)) == office.envelope("instancegraph", model.encoding)
        if sub == "decode":
            want = office.normalized(office.envelope("bigraph", model.bigraph))
            return office.normalized(read_json(path)) == want
        if sub == "configure":
            controls = sorted(office.PRINTER_ARITIES)
            weak = office.envelope("instancegraph", office.weak_typed(model.encoding, controls))
            tg = read_json(Path(str(path)[: -len(".ig.json")] + ".tg.json"))
            return (
                office.normalized(read_json(path)) == weak
                and tg["kind"] == "typegraph"
                and {t["name"] for t in tg["payload"]["nodeTypes"]} == set(office.BASE_TYPES)
            )
        return True  # validate: a clean model passes every checker


WORKLOADS = {"roundtrip-small": RoundtripSmall, "variants": Variants, "cli-large": CliLarge}


# ---------------------------------------------------------------------------
# Measurement


def timed_round(ops: list, out: Path, runner, clock: ReferenceClock) -> tuple[list, list]:
    """Run ops back to back; return per-op times at reference speed and
    the results."""
    out.mkdir(parents=True, exist_ok=True)

    def attempt(op, dest: Path):
        try:
            return runner(op, dest)
        except Exception as exc:  # a raising op is a failed op, not a crash
            return exc

    durations, results = [], []
    for index, op in enumerate(ops):
        result, seconds = clock.measure(attempt, op, out / str(index))
        durations.append(seconds)
        results.append(result)
    return durations, results


def count_failures(workload: Workload, ops: list, results: list) -> int:
    failed = 0
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            print(f"op failed: {op!r}: {result!r}", file=sys.stderr)
            failed += 1
        elif not workload.verify(op, result):
            print(f"wrong verdict or output: {op!r}", file=sys.stderr)
            failed += 1
    return failed


def cli_startup_ms(clock: ReferenceClock) -> float:
    argv = [sys.executable, "-m", "bigtg.cli", "configs"]
    samples = [
        clock.measure(subprocess.run, argv, env=cli_env(), stdout=subprocess.DEVNULL, check=True)[1] * 1e3
        for _ in range(STARTUP_REPEATS)
    ]
    return statistics.median(samples)


def end_to_end(name: str, seed: int, seconds: int, work: Path) -> dict:
    workload = WORKLOADS[name](seed, seconds, work)

    def setup(r: int) -> None:
        workload.setup(r)
        warm_import()

    clock = ReferenceClock()
    setups, verdicts, attempted, failed, measured_s = [], [], 0, 0, 0.0
    try:
        for r in range(ROUNDS):
            setups.append(clock.measure(setup, r)[1])
            ops = workload.ops(r)
            before = clock.measured_s
            durations, results = timed_round(ops, work / f"round{r}", workload.run, clock)
            measured_s += clock.measured_s - before
            failed += count_failures(workload, ops, results)
            shutil.rmtree(work / f"round{r}")
            attempted += len(ops)
            verdicts += durations
        setups += [clock.measure(setup, 0)[1] for _ in range(EXTRA_SETUPS)]
        peak_kb = workload.peak_rss_kb()
    finally:
        workload.close()
    return {
        "attempted": attempted,
        "failed": failed,
        "setup_s": statistics.median(setups),
        "verdict_s": verdicts,
        "wall_s": sum(verdicts),
        "measured_wall_s": measured_s,
        "peak_rss_mb": peak_kb / 1024,
    }


def traced(name: str, seed: int, seconds: int, work: Path, spans_path: Path) -> dict:
    """Run round 0's ops plain, then again with the tracer installed."""
    from tracing import Tracer

    workload = WORKLOADS[name](seed, seconds, work)
    workload.setup(0)
    ops = workload.trace_ops()
    is_cli = isinstance(workload, CliLarge)
    runner = workload.run_in_process if is_cli else workload.run
    clock = ReferenceClock()
    plain, results = timed_round(ops, work / "plain", runner, clock)
    failed = count_failures(workload, ops, results)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, results = timed_round(ops, work / "traced", runner, clock)
    finally:
        tracer.uninstall()
    failed += count_failures(workload, ops, results)

    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = sum(traced_s) - sum(plain)
    metrics["trace.spans"] = len(tracer.func)
    metrics["cli.startup_ms"] = cli_startup_ms(clock)
    for sub in CLI_SUBCOMMANDS:
        samples = [d * 1e3 for op, d in zip(ops, plain) if is_cli and op[1] == sub]
        metrics[f"cli.{sub}.verdict_ms.p50"] = statistics.median(samples) if samples else 0.0
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)
    return {"attempted": 2 * len(ops), "failed": failed, "layers": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import bigtg.cli  # noqa: F401  (loads every layer before any timing)

    work = ROOT / "perfbench" / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            spans = ROOT / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            result = traced(args.workload, args.seed, args.seconds, work, spans)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
