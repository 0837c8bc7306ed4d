from __future__ import annotations

import gc
import itertools
import json
import random
import re
import sys
import weakref

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import bigtg.variability
from bigtg import (
    Control,
    FeatureConfig,
    Graph,
    InstanceGraph,
    InvalidBigraph,
    InvalidConfig,
    NotCanonical,
    ReservedControlName,
    Signature,
    annotate_150,
    apply_deltas,
    check_arity_rule,
    check_type_graph,
    check_typing,
    conformance,
    derive_type_graph,
    encode,
    enumerate_configs,
    extend_for_signature,
    fileio,
    replace,
    validate_config,
)
from bigtg.generators import random_bigraph
from bigtg.typedgraph import Multiplicity, node_attrs
from bigtg.variability import _GROUPS, FEATURE_LEAVES

from conftest import FIXTURES
from helpers import CONFIGS, arbitrary_bigraphs, type_graph_variants
from test_construction import _office
from test_index import encodings
from test_kept_reports import GRAPH_CHECKERS, signature_variants


def cfg(*features: str) -> FeatureConfig:
    return FeatureConfig(frozenset(features))


def test_canonical_config_is_valid():
    assert validate_config(cfg("ST", "ER", "RI", "ES", "SI", "EP", "PI")).ok


def test_requires_edges():
    rep = validate_config(cfg("WT", "RI"))
    assert "cfg-requires" in rep.codes()
    assert any("RI requires ER" in f.message for f in rep.findings)


def test_alternative_group_exactly_one():
    assert "cfg-alternative" in validate_config(cfg("ST", "WT", "ER")).codes()
    assert "cfg-alternative" in validate_config(cfg()).codes()


def test_unknown_feature_rejected():
    assert "cfg-unknown-feature" in validate_config(cfg("ST", "AS")).codes()


def test_enumerate_has_54_members():
    configs = enumerate_configs()
    assert len(configs) == 54
    assert len(set(configs)) == 54


def test_enumerate_agrees_with_brute_force():
    configs = set(enumerate_configs())
    for picks in itertools.product((False, True), repeat=len(FEATURE_LEAVES)):
        subset = FeatureConfig(
            frozenset(f for f, on in zip(FEATURE_LEAVES, picks) if on)
        )
        assert (subset in configs) == validate_config(subset).ok


def test_enumerate_contains_expected_members():
    configs = enumerate_configs()
    assert FeatureConfig.canonical() in configs
    assert cfg("WT") in configs


def test_annotated_base_has_150_additions(tg_sigma1):
    atg = annotate_150(tg_sigma1)
    assert ("BNode", "BPoint") in atg.base.inherits
    assert atg.base.attr_decls["BNode"]["control"] == "string"


def test_derive_canonical_restores_signature_type_graph(tg_sigma1):
    atg = annotate_150(tg_sigma1)
    assert derive_type_graph(atg, FeatureConfig.canonical()) == tg_sigma1


def test_derive_weak_drops_control_types(tg_sigma1):
    atg = annotate_150(tg_sigma1)
    tg = derive_type_graph(atg, cfg("WT", "ER", "RI", "ES", "SI", "EP", "PI"))
    assert len(tg.graph.nodes) == 10
    assert tg.attr_decls["BNode"]["control"] == "string"
    assert "Spool" not in tg.graph.nodes


def test_derive_st_only_variant(tg_sigma1, sig1):
    atg = annotate_150(tg_sigma1)
    tg = derive_type_graph(atg, cfg("ST"))
    assert tg.graph.nodes == frozenset(
        {"BPlace", "BNode", "BPoint", "BLink", "BInnerName", "BEdge", "BOuterName"} | set(sig1.names)
    )
    assert ("BNode", "BPoint") in tg.inherits
    assert tg.mult["bLink"] == Multiplicity(0, None)
    assert "bPorts" not in tg.graph.edges


def test_derive_rejects_invalid_config(tg_sigma1):
    with pytest.raises(InvalidConfig):
        derive_type_graph(annotate_150(tg_sigma1), cfg("ST", "WT"))


def test_deltas_noop_for_canonical(g1, sig1):
    assert apply_deltas(g1, FeatureConfig.canonical(), sig1) is g1


def test_deltas_drop_root(g1, sig1):
    out = apply_deltas(g1, cfg("ST", "ES", "SI", "EP", "PI"), sig1)
    assert len(out.graph.nodes) == 20
    assert len(out.graph.edges) == len(g1.graph.edges) - 6
    assert all(t != "BRoot" for t in out.node_types.values())


def test_deltas_weak_typing_sets_control_attrs(g1, sig1):
    out = apply_deltas(g1, cfg("WT", "ER", "RI", "ES", "SI", "EP", "PI"), sig1)
    assert len(out.graph.nodes) == 21
    retyped = sorted(n for n, t in out.node_types.items() if t == "BNode")
    assert len(retyped) == 7
    controls = sorted(node_attrs(out, n)["control"] for n in retyped)
    assert controls == ["Computer", "Job", "Printer", "Room", "Room", "Spool", "User"]


def test_deltas_unset_indices_only(g1, sig1):
    out = apply_deltas(g1, cfg("ST", "ER", "ES", "EP"), sig1)
    assert out.graph.nodes == g1.graph.nodes
    assert not any(a == "index" for (_, a) in out.attrs)


def test_deltas_implicit_ports_rewire_links(g1, sig1):
    out = apply_deltas(g1, cfg("ST", "ER", "RI", "ES", "SI"), sig1)
    assert all(t != "BPort" for t in out.node_types.values())
    # Links survive, attached to the owning nodes.
    links = [e for e, t in out.edge_types.items() if t == "bLink"]
    assert len(links) == 7
    assert all(out.node_types[out.graph.src[e]] in sig1.names for e in links)


def test_deltas_invalid_config_rejected(g1, sig1):
    with pytest.raises(InvalidConfig):
        apply_deltas(g1, cfg("ST", "WT"), sig1)


def test_deltas_broken_port_raises_not_canonical(g1, sig1):
    # Strip one port's ownership edge so it cannot be rewired.
    port = sorted(n for n, t in g1.node_types.items() if t == "BPort")[0]
    own = [e for e in g1.graph.edges if g1.graph.src[e] == port and g1.edge_types[e] == "bNode"]
    from helpers import drop_edge

    broken = drop_edge(g1, own[0])
    with pytest.raises(NotCanonical):
        apply_deltas(broken, cfg("ST", "ER", "RI", "ES", "SI"), sig1)


def test_all_54_configs_conform(g1, sig1, tg_sigma1):
    atg = annotate_150(tg_sigma1)
    for config in enumerate_configs():
        derived = derive_type_graph(atg, config)
        assert check_type_graph(derived).ok, config
        configured = apply_deltas(g1, config, sig1)
        rep = conformance(configured, derived)
        assert rep.ok, (sorted(config.selected), [f.line() for f in rep.findings])


@given(st.integers(min_value=0, max_value=20_000), st.integers(min_value=0, max_value=53))
@settings(max_examples=50, deadline=None)
def test_deltas_idempotent_and_conformant_random(seed, config_index):
    rng = random.Random(seed)
    b = random_bigraph(rng)
    g, _ = encode(b)
    config = enumerate_configs()[config_index]
    sig = b.signature
    once = apply_deltas(g, config, sig)
    assert apply_deltas(once, config, sig) == once
    derived = derive_type_graph(annotate_150(extend_for_signature(sig)), config)
    rep = conformance(once, derived)
    assert rep.ok, [f.line() for f in rep.findings]


@given(arbitrary_bigraphs())
@settings(max_examples=100, deadline=None)
def test_deltas_idempotent_and_conformant_on_arbitrary_bigraphs(b):
    """Every variant of an encodable bigraph conforms to its derived type
    graph, and configuring it again changes nothing."""
    try:
        g, _ = encode(b)
    except InvalidBigraph:
        reject()  # an idle link, which encode refuses
    sig = b.signature
    atg = annotate_150(extend_for_signature(sig))
    for config in enumerate_configs():
        once = apply_deltas(g, config, sig)
        assert apply_deltas(once, config, sig) == once
        rep = conformance(once, derive_type_graph(atg, config))
        assert rep.ok, (sorted(config.selected), [f.line() for f in rep.findings])


@pytest.mark.parametrize("end", ["src", "tgt"])
def test_an_edge_without_an_end_is_refused_before_any_configuration(g1, end):
    """No configuration meets an edge without an end: its graph is refused
    where it is built, naming the smaller of two such edges."""
    first, second = sorted(g1.graph.edges)[3:5]
    ends = {e: v for e, v in getattr(g1.graph, end).items() if e not in (first, second)}
    with pytest.raises(ValueError, match=f"^Graph.{end} lacks {re.escape(repr(first))}, which is an edge$"):
        replace(g1.graph, **{end: ends})


# A variant of a conforming graph takes its family's verdict: from the
# second reconfiguration on, ``apply_deltas`` checks the input once per set
# of control names and, where it passes, fills the kept reports of the three
# checks that ``conformance`` runs without a signature, against the
# variant's derived type graph, with an empty one. Every report must still
# be the checker's own.


def _other_signature(sig, group, data):
    """Every other control of ``sig`` and one it lacks, in a drawn order;
    in about one draw of four also a control named after a group's node
    type, which ``extend_for_signature`` refuses. So most draws check the
    input against another set of control names."""
    names = data.draw(st.permutations((*sig.names[::2], "Other")))
    if data.draw(st.integers(0, 3)) == 0:
        names.append(group)
    return Signature(tuple(map(Control, names)), dict.fromkeys(names, 1))


#: A copy of the drawn graph, with each kind of signature: its own,
#: another (:func:`_other_signature`), and its own names with other
#: arities.
SIGNATURES = {
    "own": lambda g, sig, group, data: (replace(g), sig),
    "other": lambda g, sig, group, data: (replace(g), _other_signature(sig, group, data)),
    "arities": lambda g, sig, group, data: (replace(g), data.draw(signature_variants(sig))),
}


def _with_port(g, owner, link):
    """``g`` with one more port of ``owner``, linked to ``link`` (a new
    ``BEdge`` when ``g`` has no such node): a graph that conforms then
    breaks only the arity rule."""
    port = "p:extra"
    src, tgt, edge_types = dict(g.graph.src), dict(g.graph.tgt), dict(g.edge_types)
    for edge_type, a, z in (("bPorts", owner, port), ("bNode", port, owner), ("bLink", port, link), ("bPoints", link, port)):
        edge = f"{edge_type}:{a}:{z}"
        src[edge], tgt[edge], edge_types[edge] = a, z, edge_type
    index = sum(edge_types.get(e) == "bPorts" and src.get(e) == owner for e in g.graph.edges)
    return InstanceGraph(
        graph=Graph(g.graph.nodes | {port, link}, frozenset(src), src, tgt),
        node_types={link: "BEdge", **g.node_types, port: "BPort"},
        edge_types=edge_types,
        attrs={**g.attrs, (port, "index"): index},
    )


def _without_port(g, port):
    """``g`` without ``port``, its attributes and the edges at it."""
    src, tgt = g.graph.src, g.graph.tgt
    edges = frozenset(e for e in g.graph.edges if port not in (src.get(e), tgt.get(e)))
    return InstanceGraph(
        graph=Graph(g.graph.nodes - {port}, edges, {e: src[e] for e in edges if e in src}, {e: tgt[e] for e in edges if e in tgt}),
        node_types={n: t for n, t in g.node_types.items() if n != port},
        edge_types={e: t for e, t in g.edge_types.items() if e in edges},
        attrs={key: v for key, v in g.attrs.items() if key[0] != port},
    )


def _ports_edited(g, sig, edit, data):
    """``g`` with a port added to (``more``) or taken from (``fewer``) a
    drawn node of a control of ``sig``, or ``g`` itself. A port is taken
    from those whose link keeps another point, where there are any, so a
    graph that conforms then breaks only the arity rule."""
    names, src, tgt, types = list(sig.names), g.graph.src, g.graph.tgt, g.edge_types
    owners = sorted(n for n, t in g.node_types.items() if n in g.graph.nodes and t in names)
    if edit == "more" and owners:
        links = sorted(n for n, t in g.node_types.items() if n in g.graph.nodes and t in ("BEdge", "BOuterName"))
        return _with_port(g, data.draw(st.sampled_from(owners)), data.draw(st.sampled_from(links or ["e:extra"])))
    ports = sorted(tgt[e] for e in g.graph.edges if types.get(e) == "bPorts" and src.get(e) in owners and e in tgt)
    if edit != "fewer" or not ports:
        return g
    points = [src.get(e) for e in g.graph.edges if types.get(e) == "bPoints"]
    link_of = {src.get(e): tgt.get(e) for e in g.graph.edges if types.get(e) == "bLink"}
    shared = [p for p in ports if points.count(link_of.get(p)) > 1]
    return _without_port(g, data.draw(st.sampled_from(shared or ports)))


def _checked_family(g, sig, atg, configs, data):
    """Check every variant of ``g`` for ``configs`` against its derived
    type graph, an edit of it and an ``==`` twin of it, with the three
    checkers and the arity rule; each report must be the checker's own.
    Returns the variants other than ``g`` with their type graphs."""
    checked = []
    for cfg in configs:
        try:
            variant = apply_deltas(g, cfg, sig)
        except NotCanonical:
            continue
        derived = derive_type_graph(atg, cfg)
        tgs = (derived, data.draw(type_graph_variants(tg=derived)), replace(derived))
        for tg in tgs:
            for checker in GRAPH_CHECKERS:
                assert checker(variant, tg) == checker.__wrapped__(variant, tg), (checker.__name__, sorted(cfg.selected))
            assert check_arity_rule(variant, tg, sig) == check_arity_rule.__wrapped__(variant, tg, sig)
        if variant is not g:
            checked.append((variant, tgs))
    return checked


@given(
    encodings(),
    st.sampled_from(sorted(SIGNATURES)),
    st.sampled_from(("none", "more", "fewer")),
    st.sampled_from(("BRoot", "BSite", "BPort")),
    st.randoms(use_true_random=False),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_a_variant_gets_its_family_verdict_only_where_its_own_check_agrees(case, kind, edit, group, rnd, data):
    """All 54 configurations in a shuffled order, conforming input or not,
    with a port more or fewer than its arity or not: each report on a
    variant, answered by its family or not, equals the checker's own,
    also once the input is gone."""
    drawn, own = case
    g, sig = SIGNATURES[kind](drawn, own, group, data)
    g = _ports_edited(g, sig, edit, data)
    try:
        atg = annotate_150(extend_for_signature(sig))
    except ReservedControlName:  # the other signature: check against the graph's own type graphs
        atg = annotate_150(extend_for_signature(own))
    configs = enumerate_configs()
    rnd.shuffle(configs)
    checked = _checked_family(g, sig, atg, configs, data)
    held = weakref.ref(g)
    del g
    gc.collect()
    assert held() is None
    for variant, tgs in checked:
        for tg in map(replace, tgs):  # equal type graphs that no slot holds
            for checker in GRAPH_CHECKERS:
                assert checker(variant, tg) == checker.__wrapped__(variant, tg)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Control(5), "Control.name holds 5, which is not a str"),
        (lambda: Signature((Control("A"),), {5: 0}), "Signature.arities holds 5, which is not a str"),
        (lambda: Signature(5, {}), None),
        (lambda: Signature((1,), {}), "Signature.controls holds 1, which is not a Control"),
        (lambda: Signature((Control("A"),), None), None),
        (lambda: InstanceGraph(graph=Graph(nodes={"n:v"}), node_types={"n:v": 5}), "InstanceGraph.node_types holds 5, which is not a str"),
    ],
    ids=["control", "arity-key", "no-controls", "no-control", "no-arities", "node-type"],
)
def test_a_control_named_by_no_str_is_refused_at_construction(build, message):
    """Under weak typing a node of control ``5`` would get ``control = 5``,
    which is no string; neither such a signature nor a node typed ``5`` can
    be built, so every family verdict is about ``str`` controls."""
    with pytest.raises(TypeError) as refused:
        build()
    assert message is None or str(refused.value) == message


def _body_calls(run, functions=tuple(checker.__wrapped__ for checker in GRAPH_CHECKERS)):
    """``run()``, and the calls of ``functions`` that it made, by name: by
    default those of the three checkers' own bodies."""
    codes = {function.__code__ for function in functions}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


def test_the_canonical_configuration_takes_its_family_verdict(g1, sig1):
    """The canonical configuration returns the input itself, which then
    records its own origin: once a variant's check has reached the family
    verdict, the three checks of the input against its derived type graph
    run no checker body. A copy of the input, which has no origin, runs
    each of them."""
    g = replace(g1)
    atg = annotate_150(extend_for_signature(sig1))
    weak = cfg("WT")
    assert check_typing(apply_deltas(g, weak, sig1), derive_type_graph(atg, weak)).ok
    canonical = FeatureConfig.canonical()
    assert apply_deltas(g, canonical, sig1) is g
    tg = derive_type_graph(atg, canonical)
    reports, calls = _body_calls(lambda: [checker(g, tg) for checker in GRAPH_CHECKERS])
    assert calls == [] and all(report.ok for report in reports)
    copy = replace(g)
    reports, calls = _body_calls(lambda: [checker(copy, tg) for checker in GRAPH_CHECKERS])
    assert calls == [checker.__name__ for checker in GRAPH_CHECKERS] and all(report.ok for report in reports)


def test_a_signature_loaded_afresh_for_each_configuration_shares_one_verdict(fixtures_dir, monkeypatch):
    """The verdict is kept per set of control names, not per signature
    object: the 54 variants of one graph, each made and checked under a
    signature loaded anew, cost one ``conformance`` of the input, which
    keeps one verdict."""
    g = fileio.load_instance_graph(str(fixtures_dir / "printer.ig.json"))
    inputs = []

    def counted(h, *args):
        inputs.append(h)
        return conformance(h, *args)

    monkeypatch.setattr(bigtg.variability, "conformance", counted)
    for config in enumerate_configs():
        sig = fileio.load_signature(str(fixtures_dir / "printer.sig.json"))
        variant = apply_deltas(g, config, sig)
        tg = derive_type_graph(annotate_150(extend_for_signature(sig)), config)
        for checker in GRAPH_CHECKERS:
            report = checker(variant, tg)
            assert report.ok and report == checker.__wrapped__(variant, tg), (checker.__name__, config.ordered())
    assert len(inputs) == 1 and inputs[0] is g
    verdicts = [key for key in g._parts if type(key) is tuple and key[0] is bigtg.variability._verdict]
    assert len(verdicts) == 1


def test_controls_in_another_order_share_the_family_verdict(fixtures_dir):
    """The verdict is kept per set of control names, whatever their order:
    the printer graph reconfigured under its signature and then under one
    with the same controls reversed runs one ``conformance``, at the
    second reconfiguration, and the variant made under the reversed
    signature is born with the verdict."""
    g = fileio.load_instance_graph(str(fixtures_dir / "printer.ig.json"))
    sig = fileio.load_signature(str(fixtures_dir / "printer.sig.json"))
    reversed_sig = Signature(sig.controls[::-1], sig.arities)
    assert reversed_sig.names != sig.names
    first, second, third = enumerate_configs()[-3:]
    runs = [(first, sig), (second, sig), (third, reversed_sig)]
    variants, calls = _body_calls(lambda: [apply_deltas(g, *run) for run in runs], (conformance,))
    assert calls == ["conformance"]
    derived = derive_type_graph(annotate_150(extend_for_signature(reversed_sig)), third)
    reports, calls = _body_calls(lambda: [checker(variants[-1], derived) for checker in GRAPH_CHECKERS])
    assert calls == [] and all(report.ok for report in reports)


def test_an_input_that_breaks_only_the_arity_rule_decides_its_variants(g1, sig1):
    """Reconfiguration reads no arity, so the family verdict leaves the
    arity rule out: a port more than its control's arity still lets every
    variant take the verdict, running no checker body, and each report is
    the checker's own."""
    owner = next(n for n in sorted(g1.node_types) if g1.node_types[n] in sig1.names)
    link = next(n for n in sorted(g1.node_types) if g1.node_types[n] == "BEdge")
    g = _with_port(g1, owner, link)
    tg = extend_for_signature(sig1)
    assert conformance(g, tg).ok and check_arity_rule(g, tg, sig1).codes() == {"arity"}
    atg = annotate_150(tg)
    weak = cfg("WT")
    assert check_typing(apply_deltas(g, weak, sig1), derive_type_graph(atg, weak)).ok
    for config in enumerate_configs():
        variant, derived = apply_deltas(g, config, sig1), derive_type_graph(atg, config)
        reports, calls = _body_calls(lambda: [checker(variant, derived) for checker in GRAPH_CHECKERS])
        assert calls == [], config.ordered()
        assert reports == [checker.__wrapped__(variant, derived) for checker in GRAPH_CHECKERS]


def test_an_unchanged_input_that_does_not_conform_is_checked_once(fixtures_dir):
    """The canonical configuration returns its input, which records its
    own origin. Its first check asks the family, whose check of the input
    fills that very slot; the checker then does not run again."""
    g = fileio.load_instance_graph(str(fixtures_dir / "printer.ig.json"))
    sig = fileio.load_signature(str(fixtures_dir / "printer.sig.json"))
    g = replace(g, node_types={**g.node_types, "r:0": "BPlace"})
    assert apply_deltas(g, FeatureConfig.canonical(), sig) is g
    tg = extend_for_signature(sig)
    report, calls = _body_calls(lambda: check_typing(g, tg))
    assert calls.count("check_typing") == 1
    assert not report.ok and report == check_typing.__wrapped__(g, tg)


def test_a_variant_is_born_with_its_family_verdict(fixtures_dir, monkeypatch):
    """The first reconfiguration of a graph runs no checker body and builds
    no edge view. The second checks the input, by one ``conformance`` per
    set of control names. From then on each graph returned holds the
    verdict in its own kept reports, so its three checks against its
    derived type graph run no checker body, also once the input is gone;
    the first variant, made before the family, runs each of them."""
    g = fileio.load_instance_graph(str(fixtures_dir / "printer.ig.json"))
    sig = fileio.load_signature(str(fixtures_dir / "printer.sig.json"))
    inputs = []

    def counted(h, *args):
        inputs.append(h)
        return conformance(h, *args)

    monkeypatch.setattr(bigtg.variability, "conformance", counted)
    first, *rest = enumerate_configs()
    variant, calls = _body_calls(lambda: apply_deltas(g, first, sig))
    assert calls == [] and inputs == [] and "edge_view" not in vars(g)
    born = [(variant, first)]
    for config in rest:
        anew = fileio.load_signature(str(fixtures_dir / "printer.sig.json"))
        variant, calls = _body_calls(lambda: apply_deltas(g, config, anew))
        assert calls == ([checker.__name__ for checker in GRAPH_CHECKERS] if config is rest[0] else []), config.ordered()
        if variant is not g:
            born.append((variant, config))
    assert inputs == [g]
    fewer = Signature(sig.controls[1:], {c.name: sig.arities[c.name] for c in sig.controls[1:]})
    apply_deltas(g, first, fewer)
    apply_deltas(g, first, replace(fewer))
    assert inputs == [g, g]
    held = weakref.ref(g)
    del g, variant, inputs[:]
    gc.collect()
    assert held() is None
    atg = annotate_150(extend_for_signature(sig))
    for i, (variant, config) in enumerate(born):
        derived = derive_type_graph(atg, config)
        reports, calls = _body_calls(lambda: [checker(variant, derived) for checker in GRAPH_CHECKERS])
        assert calls == ([checker.__name__ for checker in GRAPH_CHECKERS] if i == 0 else []), config.ordered()
        assert reports == [checker.__wrapped__(variant, derived) for checker in GRAPH_CHECKERS]
        assert all(report.ok for report in reports)


def test_an_input_that_does_not_conform_gives_its_variants_no_verdict(fixtures_dir):
    """A root typed by the abstract ``BPlace`` fails ``check_typing`` in
    the input and in every variant: no variant is born with a verdict,
    and each report is the checker's own."""
    g = fileio.load_instance_graph(str(fixtures_dir / "printer.ig.json"))
    sig = fileio.load_signature(str(fixtures_dir / "printer.sig.json"))
    g = replace(g, node_types={**g.node_types, "r:0": "BPlace"})
    atg = annotate_150(extend_for_signature(sig))
    for config in enumerate_configs():
        variant, derived = apply_deltas(g, config, sig), derive_type_graph(atg, config)
        reports = [checker(variant, derived) for checker in GRAPH_CHECKERS]
        assert reports == [checker.__wrapped__(variant, derived) for checker in GRAPH_CHECKERS]
        assert "typing-abstract" in reports[0].codes(), config.ordered()


@pytest.mark.parametrize(
    "sig", [None, Signature((Control("BRoot"),), {"BRoot": 0})], ids=["none", "reserved"]
)
def test_a_variant_under_a_malformed_signature_is_checked_as_before(g1, tg_sigma1, sig):
    """Strong typing reads no signature, so ``apply_deltas`` takes any; a
    check of the variant then runs the checker and raises nothing."""
    strong = cfg("ST", "ES", "SI", "EP", "PI")
    variant = apply_deltas(replace(g1), strong, sig)
    tg = derive_type_graph(annotate_150(tg_sigma1), strong)
    for checker in GRAPH_CHECKERS:
        assert checker(variant, tg) == checker.__wrapped__(variant, tg)


#: The seven reconfiguration steps, each as the feature it turns off and
#: the one it turns on: weak typing, and dropping the index or the
#: explicit feature of each row of ``_GROUPS``.
STEPS = {"WT": ("ST", "WT")}
STEPS.update((f"no-{indexed}", (indexed, None)) for _, _, indexed in _GROUPS)
STEPS.update((f"no-{explicit}", (explicit, None)) for _, explicit, _ in _GROUPS)


def _stepped(config, step):
    """``config`` with ``step`` applied, or None when the step does not
    apply to it or gives no valid configuration."""
    off, on = step
    after = FeatureConfig(config.selected - {off} | ({on} if on else set()))
    return after if off in config.selected and validate_config(after).ok else None


@pytest.mark.parametrize("step", sorted(STEPS))
@given(encodings())
@settings(max_examples=25, deadline=None)
def test_each_reconfiguration_step_preserves_conformance(step, case):
    """A graph that conforms to the derived type graph of a configuration
    gives, reconfigured by one more step, a graph that conforms to the
    derived type graph of the configuration with that step applied. Each
    graph is checked as a copy (``replace``), which has no family."""
    g, sig = case
    atg = annotate_150(extend_for_signature(sig))
    for config in enumerate_configs():
        after = _stepped(config, STEPS[step])
        if after is None:
            continue
        try:
            before = replace(apply_deltas(g, config, sig))
        except NotCanonical:
            continue
        if not conformance(before, derive_type_graph(atg, config)).ok:
            continue
        stepped = replace(apply_deltas(before, after, sig))
        report = conformance(stepped, derive_type_graph(atg, after))
        assert report.ok, (sorted(config.selected), [f.line() for f in report.findings])


def _four_checkers_findings(g, tg, sig):
    """What ``conformance(g, tg, sig)`` gave before it ran the canonical
    rules: the findings of the four checkers' unkept bodies, in order."""
    reports = [check.__wrapped__(g, tg) for check in GRAPH_CHECKERS] + [check_arity_rule.__wrapped__(g, tg, sig)]
    return tuple(f for report in reports for f in report.findings)


@pytest.mark.parametrize("model", ["printer", "office"])
def test_the_canonical_rules_add_no_finding_to_any_variant(model, g1, sig1, tmp_path):
    """Each of the 54 variants of the printer model, and of a 1,491-node
    office model, gives under its derived type graph and the signature
    the findings of the four checkers alone: the canonical rules apply
    only where the derived type graph declares what they read (typing by
    controls, roots, sites, and each ``index``)."""
    g = g1
    if model == "office":
        office = _office()
        sig_doc = json.loads((FIXTURES / "printer.sig.json").read_text(encoding="utf-8"))
        path = tmp_path / "office.ig.json"
        encoding = office.office_model(11, 90, 380, 30, sig_doc).encoding
        path.write_text(json.dumps(office.envelope("instancegraph", encoding)), encoding="utf-8")
        g = fileio.load_instance_graph(str(path))
        assert len(g.graph.nodes) == 1491
    atg = annotate_150(extend_for_signature(sig1))
    verdicts = []
    for cfg in CONFIGS:
        variant, tg = replace(apply_deltas(g, cfg, sig1)), derive_type_graph(atg, cfg)
        findings = conformance(variant, tg, sig1).findings
        assert findings == _four_checkers_findings(variant, tg, sig1), cfg.ordered()
        verdicts.append(not findings)
    # Both outcomes occur: without explicit ports, strong typing breaks the arity rule.
    assert 0 < sum(verdicts) < len(CONFIGS)
