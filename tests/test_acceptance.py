"""Acceptance suite: golden values for the printer example, round-trip
and mutation properties, the configuration space, delta spot checks,
constraint scenarios, and I/O determinism. One PASS/FAIL line is printed
per criterion."""

from __future__ import annotations

import random
import time

from bigtg import (
    FeatureConfig,
    annotate_150,
    apply_deltas,
    check_arity_rule,
    check_multiplicities,
    check_soundness,
    check_type_graph,
    check_typing,
    check_validity,
    conformance,
    decode,
    derive_type_graph,
    encode,
    enumerate_configs,
    evaluate,
    extend_for_signature,
    fileio,
    parse_constraints,
    replace,
    validate_config,
)
from bigtg.cli import main as cli_main
from bigtg.generators import random_bigraph
from bigtg.typedgraph import node_attrs

import helpers


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _checker_reports(b, g, emap, tg, sig) -> dict[str, bool]:
    return {
        "typing": check_typing(g, tg).ok,
        "validity": check_validity(g, tg).ok,
        "multiplicities": check_multiplicities(g, tg).ok,
        "arity": check_arity_rule(g, tg, sig).ok,
        "soundness": check_soundness(b, g, emap).ok,
    }


def test_criterion_1_printer_golden(b1, sig1, tg_sigma1):
    start = time.perf_counter()
    g, emap = encode(b1)
    checks = _checker_reports(b1, g, emap, tg_sigma1, sig1)
    elapsed = time.perf_counter() - start
    ok = (
        len(g.graph.nodes) == 21
        and len(g.graph.edges) == 46
        and all(checks.values())
        and elapsed < 1.0
    )
    _verdict(
        1,
        ok,
        f"encode B1 -> {len(g.graph.nodes)} nodes, {len(g.graph.edges)} edges, "
        f"checkers {checks}, {elapsed:.3f}s (< 1s)",
    )


def test_criterion_2_roundtrip_1000():
    start = time.perf_counter()
    count = 1000
    for seed in range(count):
        b = random_bigraph(random.Random(seed))
        g, emap = encode(b)
        tg = extend_for_signature(b.signature)
        assert conformance(g, tg, b.signature).ok
        assert check_soundness(b, g, emap).ok
        decoded, _ = decode(g, b.signature)
        assert decoded == b
    elapsed = time.perf_counter() - start
    _verdict(2, elapsed < 30.0, f"{count} random round trips + checkers in {elapsed:.2f}s (< 30s)")


def _mutations(g):
    """The fixed 12-mutation suite over the encoded printer fixture."""
    bprnt = {e: (g.graph.src[e], g.graph.tgt[e]) for e in helpers.edges_of_type(g, "bPrnt")}
    bchld = {e: (g.graph.src[e], g.graph.tgt[e]) for e in helpers.edges_of_type(g, "bChld")}
    prnt_v0 = next(e for e, (s, _) in bprnt.items() if s == "n:v0")
    chld_v0 = next(e for e, (_, t) in bchld.items() if t == "n:v0")
    chld_v3 = next(e for e, (_, t) in bchld.items() if t == "n:v3")

    def delete_bprnt(graph):
        return helpers.drop_edge(graph, prnt_v0)

    def delete_opposite_only(graph):
        return helpers.drop_edge(graph, chld_v0)

    def retype_printer_generic(graph):
        return helpers.retype_node(graph, "n:v1", "BNode")

    def root_index(graph):
        return helpers.set_attr(graph, "r:0", "index", 1)

    def site_index(graph):
        return helpers.set_attr(graph, "s:0", "index", 7)

    def port_index(graph):
        return helpers.set_attr(graph, "p:v1:0", "index", 1)

    def drop_printer_port(graph):
        return helpers.drop_node(graph, "p:v1:0")

    def second_container(graph):
        graph = helpers.add_edge(graph, "x1", "bChld", "r:0", "n:v1")
        return helpers.add_edge(graph, "x2", "bPrnt", "n:v1", "r:0")

    def containment_cycle(graph):
        # Reparent the left room under the printer it contains.
        room_prnt = next(e for e, (s, _) in bprnt.items() if s == "n:v0")
        room_chld = next(e for e, (_, t) in bchld.items() if t == "n:v0")
        graph = helpers.retarget_edge(graph, room_prnt, tgt="n:v1")
        return helpers.retarget_edge(graph, room_chld, src="n:v1")

    def second_blink(graph):
        graph = helpers.add_edge(graph, "x3", "bLink", "p:v5:0", "e:e0")
        return helpers.add_edge(graph, "x4", "bPoints", "e:e0", "p:v5:0")

    def delete_root(graph):
        return helpers.drop_node(graph, "r:0")

    def desync_opposites(graph):
        return helpers.retarget_edge(graph, chld_v3, tgt="n:v1")

    return [
        ("delete a nesting edge", delete_bprnt, {"validity", "soundness"}),
        ("delete only its opposite", delete_opposite_only, {"validity"}),
        ("retype Printer to the generic node type", retype_printer_generic, {"soundness"}),
        ("change root index 0 to 1", root_index, {"soundness"}),
        ("change a site index", site_index, {"soundness"}),
        ("change a port index", port_index, {"soundness"}),
        ("drop one Printer port", drop_printer_port, {"arity"}),
        ("add a second container", second_container, {"validity", "multiplicities"}),
        ("create a containment cycle", containment_cycle, {"validity"}),
        ("point a port at a second link", second_blink, {"multiplicities"}),
        ("delete the root with dangling children", delete_root, {"soundness"}),
        ("desynchronize an opposite pair", desync_opposites, {"validity"}),
    ]


def test_criterion_3_mutation_kill(b1, g1, emap1, tg_sigma1, sig1):
    assert all(_checker_reports(b1, g1, emap1, tg_sigma1, sig1).values())
    caught = []
    for name, mutate, expected_checkers in _mutations(g1):
        mutated = mutate(g1)
        results = _checker_reports(b1, mutated, emap1, tg_sigma1, sig1)
        failing = {checker for checker, ok in results.items() if not ok}
        assert failing, f"mutation not caught: {name}"
        assert failing & expected_checkers, (
            f"mutation {name!r} caught by {failing}, expected {expected_checkers}"
        )
        caught.append((name, sorted(failing)))
    _verdict(3, len(caught) == 12, f"12/12 mutations caught: {caught}")


def test_criterion_4_configuration_space(g1, sig1, tg_sigma1):
    start = time.perf_counter()
    configs = enumerate_configs()
    ok = len(configs) == 54 and all(validate_config(c).ok for c in configs)
    atg = annotate_150(tg_sigma1)
    for config in configs:
        derived = derive_type_graph(atg, config)
        assert check_type_graph(derived).ok
        configured = apply_deltas(g1, config, sig1)
        rep = conformance(configured, derived)
        assert rep.ok, (sorted(config.selected), [f.line() for f in rep.findings])
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _verdict(4, ok, f"54 configurations derived + conformant in {elapsed:.2f}s (< 10s)")


def test_criterion_5_delta_spot_checks(g1, sig1):
    no_roots = apply_deltas(g1, FeatureConfig(frozenset({"ST", "ES", "SI", "EP", "PI"})), sig1)
    roots_ok = (
        len(g1.graph.nodes) == 21
        and len(no_roots.graph.nodes) == 20
        and len(g1.graph.edges) - len(no_roots.graph.edges) == 6
    )
    weak = apply_deltas(g1, FeatureConfig(frozenset({"WT", "ER", "RI", "ES", "SI", "EP", "PI"})), sig1)
    retyped = sorted(n for n, t in weak.node_types.items() if t == "BNode")
    controls = sorted(node_attrs(weak, n)["control"] for n in retyped)
    weak_ok = (
        len(retyped) == 7
        and controls == ["Computer", "Job", "Printer", "Room", "Room", "Spool", "User"]
        and all(g1.node_types[n] == node_attrs(weak, n)["control"] for n in retyped)
    )
    _verdict(
        5,
        roots_ok and weak_ok,
        f"root removal 21->{len(no_roots.graph.nodes)} nodes (-6 edges); "
        f"{len(retyped)} nodes weakly retyped with controls {controls}",
    )


def test_criterion_6_constraints(office_bgc, b1, g1, tg_sigma1):
    from test_constraints import _spool_with_jobs

    start = time.perf_counter()
    doc = parse_constraints(office_bgc)
    base = evaluate(doc, g1, tg_sigma1)

    moved = replace(b1, prnt={**b1.prnt, "v5": "v3"})
    g_moved, _ = encode(moved)
    moved_failures = {(c.invariant, c.node) for c in evaluate(doc, g_moved, tg_sigma1).failures()}

    overfull, _ = encode(_spool_with_jobs(100, with_site=True))
    overfull_iv2 = [c for c in evaluate(doc, overfull, tg_sigma1).checks if c.invariant == "iv2"]
    full, _ = encode(_spool_with_jobs(100, with_site=False))
    full_iv2 = [c for c in evaluate(doc, full, tg_sigma1).checks if c.invariant == "iv2"]

    rewired = replace(b1, link={**b1.link, ("v0", 0): "jeff"})
    g_rewired, _ = encode(rewired)
    rewired_failures = {(c.invariant, c.node) for c in evaluate(doc, g_rewired, tg_sigma1).failures()}

    elapsed = time.perf_counter() - start
    ok = (
        base.all_passed
        and moved_failures == {("iv1", "n:v3")}
        and overfull_iv2 and not any(c.passed for c in overfull_iv2)
        and full_iv2 and all(c.passed for c in full_iv2)
        and ("iv3", "n:v0") in rewired_failures
        and elapsed < 1.0
    )
    _verdict(
        6,
        ok,
        "office invariants pass on the fixture; the three targeted mutations "
        f"fail iv1/iv2/iv3 as expected, in {elapsed:.3f}s (< 1s)",
    )


def test_criterion_7_io_determinism(fixtures_dir, tmp_path, capsys):
    stable = []
    for src in sorted(fixtures_dir.rglob("*.json")):
        kind, value = fileio.load_document(str(src))
        out = tmp_path / src.name
        fileio.save(value, str(out))
        stable.append(out.read_bytes() == src.read_bytes())

    corpus = [
        ("corpus/good.bg.json", (), 0),
        ("corpus/good.ig.json", ("--sig", str(fixtures_dir / "printer.sig.json")), 0),
        ("corpus/good.cfg.json", (), 0),
        ("corpus/bad.bg.json", (), 1),
        ("corpus/bad.ig.json", ("--sig", str(fixtures_dir / "printer.sig.json")), 1),
        ("corpus/bad.cfg.json", (), 1),
    ]
    exit_codes = []
    for name, extra, expected in corpus:
        code = cli_main(["validate", str(fixtures_dir / name), *extra])
        exit_codes.append(code == expected)
    capsys.readouterr()  # swallow corpus diagnostics

    ok = all(stable) and all(exit_codes)
    _verdict(
        7,
        ok,
        f"{sum(stable)}/{len(stable)} fixtures byte-stable; "
        f"{sum(exit_codes)}/6 corpus exit codes as expected",
    )
