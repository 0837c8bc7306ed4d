from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from bigtg import (
    FeatureConfig,
    InvalidBigraph,
    InvalidConfig,
    NotCanonical,
    annotate_150,
    apply_deltas,
    check_type_graph,
    conformance,
    derive_type_graph,
    encode,
    enumerate_configs,
    extend_for_signature,
    replace,
    validate_config,
)
from bigtg.generators import random_bigraph
from bigtg.typedgraph import Multiplicity, node_attrs
from bigtg.variability import FEATURE_LEAVES

from helpers import arbitrary_bigraphs


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
def test_edge_without_an_end_is_not_canonical_in_every_config(g1, sig1, end):
    first, second = sorted(g1.graph.edges)[3:5]
    graph = g1.graph
    ends = {e: v for e, v in getattr(graph, end).items() if e not in (first, second)}
    g = replace(g1, graph=replace(graph, **{end: ends}))
    for config in enumerate_configs():
        with pytest.raises(NotCanonical, match=f"^edge {re.escape(first)} has no {end}$"):
            apply_deltas(g, config, sig1)
