from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigtg import (
    Bigraph,
    Interface,
    InvalidBigraph,
    NotCanonical,
    Signature,
    base_type_graph,
    check_arity_rule,
    check_multiplicities,
    check_soundness,
    check_type_graph,
    check_typing,
    check_validity,
    conformance,
    decode,
    encode,
    extend_for_signature,
    make_signature,
    ports_of,
    replace,
    validate_bigraph,
)
from bigtg.generators import random_bigraph
from bigtg import typedgraph
from bigtg.metamodel import _canonical_rules
from bigtg.typedgraph import Multiplicity

from helpers import (
    add_edge,
    arbitrary_bigraphs,
    drop_edge,
    drop_node,
    edges_of_type,
    retarget_edge,
    retype_node,
    set_attr,
)


def test_base_type_graph_shape():
    tg = base_type_graph()
    assert len(tg.graph.nodes) == 10
    assert len(tg.graph.edges) == 6
    assert tg.abstracts == {"BPlace", "BPoint", "BLink"}
    assert tg.containments == {"bChld", "bPorts"}
    assert tg.mult["bLink"] == Multiplicity(1, 1)
    assert tg.mult["bPoints"] == Multiplicity(1, None)
    assert tg.mult["bNode"] == Multiplicity(1, 1)
    assert tg.mult["bPrnt"] == Multiplicity(0, 1)
    assert tg.attr_decls == {
        "BRoot": {"index": "int"},
        "BSite": {"index": "int"},
        "BPort": {"index": "int"},
    }
    assert check_type_graph(tg).ok


def test_extend_for_signature_printer(sig1, tg_sigma1):
    assert len(tg_sigma1.graph.nodes) == 16
    for c in sig1.names:
        assert (c, "BNode") in tg_sigma1.inherits
    assert tg_sigma1.graph.edges == base_type_graph().graph.edges
    assert check_type_graph(tg_sigma1).ok


def test_extend_for_empty_signature_is_base():
    assert extend_for_signature(Signature()) == base_type_graph()


def test_extend_single_control():
    tg = extend_for_signature(make_signature([("A", 3)]))
    assert "A" in tg.graph.nodes
    assert ("A", "BNode") in tg.inherits
    assert len(tg.graph.nodes) == 11


def test_arity_rule_printer(g1, tg_sigma1, sig1):
    assert check_arity_rule(g1, tg_sigma1, sig1).ok


def test_arity_rule_missing_port(g1, tg_sigma1, sig1):
    bports_of_printer = [
        e for e in edges_of_type(g1, "bPorts") if g1.graph.src[e] == "n:v1"
    ]
    broken = drop_edge(g1, bports_of_printer[0])
    rep = check_arity_rule(broken, tg_sigma1, sig1)
    assert rep.codes() == {"arity"}
    assert any("'Printer'" in f.message for f in rep.findings)


def test_arity_findings_come_in_sorted_node_order(g1, tg_sigma1, sig1):
    """Rooms (arity 1) and the printer (arity 2) each lose a port on nodes
    whose ids interleave: the findings follow the nodes, not the arities."""
    broken = g1
    for n in ("n:v0", "n:v1", "n:v4"):
        broken = drop_edge(broken, min(e for e in edges_of_type(g1, "bPorts") if g1.graph.src[e] == n))
    rep = check_arity_rule(broken, tg_sigma1, sig1)
    assert [(f.code, f.location, f.message) for f in rep.findings] == [
        ("arity", "n:v0", "node of control 'Room' has 0 outgoing 'bPorts' edge(s), arity is 1"),
        ("arity", "n:v1", "node of control 'Printer' has 1 outgoing 'bPorts' edge(s), arity is 2"),
        ("arity", "n:v4", "node of control 'Room' has 0 outgoing 'bPorts' edge(s), arity is 1"),
    ]


def test_the_arities_share_one_count_of_the_port_edges(g1, tg_sigma1, sig1, monkeypatch):
    """The printer signature's arities 0, 1 and 2 are three bounds on
    ``bPorts``, whose sources repeat: one call counts them once, and a
    broken graph's walk reads that count."""
    made = []

    class Counting(Counter):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(typedgraph, "Counter", Counting)
    assert check_arity_rule.__wrapped__(g1, tg_sigma1, sig1).ok and len(made) == 1
    broken = drop_edge(g1, min(e for e in edges_of_type(g1, "bPorts") if g1.graph.src[e] == "n:v1"))
    assert check_arity_rule.__wrapped__(broken, tg_sigma1, sig1).codes() == {"arity"} and len(made) == 2


def test_arity_rule_zero_arity_needs_no_ports(g1, tg_sigma1, sig1):
    # The job node has arity 0 and no bPorts edges: no entry.
    assert not any(f.location == "n:v6" for f in check_arity_rule(g1, tg_sigma1, sig1).findings)


def test_encode_printer_counts(b1, g1):
    assert len(g1.graph.nodes) == 21  # 7 nodes + 3 edges + 7 ports + 2 sites + 1 root + 1 name
    assert len(g1.graph.edges) == 46
    by_type: dict[str, int] = {}
    for t in g1.node_types.values():
        by_type[t] = by_type.get(t, 0) + 1
    assert by_type["BRoot"] == 1
    assert by_type["BSite"] == 2
    assert by_type["BPort"] == 7
    assert by_type["BEdge"] == 3
    assert by_type["BOuterName"] == 1


def test_encode_printer_passes_every_checker(b1, g1, emap1, tg_sigma1, sig1):
    assert check_typing(g1, tg_sigma1).ok
    assert check_validity(g1, tg_sigma1).ok
    assert check_multiplicities(g1, tg_sigma1).ok
    assert check_arity_rule(g1, tg_sigma1, sig1).ok
    assert check_soundness(b1, g1, emap1).ok


def test_encode_empty_bigraph():
    g, emap = encode(Bigraph(Signature()))
    assert not g.graph.nodes and not g.graph.edges
    assert not emap.forward


def test_encode_bare_root():
    b = Bigraph(Signature(), outer=Interface(1))
    g, _ = encode(b)
    assert len(g.graph.nodes) == 1
    (n,) = g.graph.nodes
    assert g.node_types[n] == "BRoot"
    assert g.attrs[(n, "index")] == 0


def test_encode_rejects_invalid_bigraph():
    from bigtg import InvalidBigraph

    sig = make_signature([("A", 0)])
    bad = Bigraph(signature=sig, nodes={"v"}, ctrl={"v": "A"}, prnt={"v": "v"}, outer=Interface(1))
    with pytest.raises(InvalidBigraph):
        encode(bad)


def test_a_bool_site_key_is_refused_at_construction():
    """``True == 1``, but a ``bool`` is no place: ``encode`` only ever reads
    ``int`` sites."""
    sig = make_signature([("A", 0)])
    prnt = {"v": 0, 0: "v", True: "v"}
    with pytest.raises(TypeError, match="^Bigraph.prnt holds True, which is not an int or a str$"):
        Bigraph(sig, nodes={"v"}, ctrl={"v": "A"}, prnt=prnt, inner=Interface(2), outer=Interface(1))


def test_element_count_law(b1, g1):
    k, m = b1.inner.width, b1.outer.width
    p = len(ports_of(b1))
    x, y = len(b1.inner.names), len(b1.outer.names)
    assert len(g1.graph.nodes) == len(b1.nodes) + len(b1.edges) + p + k + m + x + y
    assert len(g1.graph.edges) == 2 * (len(b1.nodes) + k) + 2 * (x + p) + 2 * p


def test_decode_printer(b1, g1, sig1, emap1):
    b, emap = decode(g1, sig1)
    assert b == b1
    assert emap.forward == emap1.forward


def test_decode_rejects_index_gap(g1, sig1):
    shifted = set_attr(g1, "r:0", "index", 1)
    with pytest.raises(NotCanonical):
        decode(shifted, sig1)


def test_decode_rejects_generic_node_type(g1, sig1):
    with pytest.raises(NotCanonical) as err:
        decode(retype_node(g1, "n:v6", "BNode"), sig1)
    assert [f.line() for f in err.value.report.findings] == [
        "error untyped-control n:v6 node typed 'BNode' instead of a control type"
    ]


def test_decode_rejects_failed_checkers(g1, sig1):
    broken = drop_edge(g1, edges_of_type(g1, "bChld")[0])
    with pytest.raises(NotCanonical):
        decode(broken, sig1)


def test_decode_rejects_missing_indices(g1, sig1):
    from bigtg import FeatureConfig, apply_deltas

    index_free = apply_deltas(g1, FeatureConfig(frozenset({"ST", "ER", "ES", "EP"})), sig1)
    with pytest.raises(NotCanonical) as err:
        decode(index_free, sig1)
    findings = err.value.report.findings
    assert {f.code for f in findings} == {"canonical-index"}
    assert {f.location for f in findings} == {n for n, t in g1.node_types.items() if t in ("BRoot", "BSite", "BPort")}


def _two_roots():
    """A node under each of two roots, and the encoding with root 1 made a
    child of the node under root 0: no cycle, every multiplicity kept."""
    sig = make_signature([("K", 0)])
    b = Bigraph(sig, frozenset({"a", "b"}), ctrl={"a": "K", "b": "K"}, prnt={"a": 0, "b": 1}, outer=Interface(2))
    g, _ = encode(b)
    return add_edge(add_edge(g, "adopt", "bPrnt", "r:1", "n:a"), "adopted", "bChld", "n:a", "r:1"), sig


def _moved_pair(g, child, parent, new_parent):
    """``g`` with the nesting pair of ``child`` and ``parent`` moved to
    ``new_parent``."""
    g = retarget_edge(g, f"bPrnt:{child}:{parent}", tgt=new_parent)
    return retarget_edge(g, f"bChld:{parent}:{child}", src=new_parent)


def _dropped_pair(g, child, parent):
    return drop_edge(drop_edge(g, f"bPrnt:{child}:{parent}"), f"bChld:{parent}:{child}")


def _without_index(g, n):
    return replace(g, attrs={key: v for key, v in g.attrs.items() if key != (n, "index")})


#: One edit of the printer encoding per canonical rule, each leaving the
#: four checkers satisfied, and the one finding it gives.
CANONICAL_CASES = {
    "untyped": (
        lambda g: retype_node(g, "n:v6", "BNode"),
        "untyped-control n:v6 node typed 'BNode' instead of a control type",
    ),
    "root-parent": (None, "canonical-parent r:1 root has a parent"),
    "node-orphan": (lambda g: _dropped_pair(g, "n:v6", "n:v5"), "canonical-parent n:v6 node or site has no parent"),
    "site-orphan": (lambda g: _dropped_pair(g, "s:0", "n:v3"), "canonical-parent s:0 node or site has no parent"),
    "site-parent": (lambda g: _moved_pair(g, "n:v6", "n:v5", "s:0"), "canonical-parent s:0 site is a parent"),
    "no-index": (lambda g: _without_index(g, "p:v1:1"), "canonical-index p:v1:1 port has no 'index'"),
    "port-repeat": (
        lambda g: set_attr(g, "p:v1:1", "index", 0),
        "canonical-index n:v1 port indices [0, 0] are not the gap-free range 0..1",
    ),
    "site-gap": (
        lambda g: set_attr(g, "s:1", "index", 2),
        "canonical-index BSite site indices [0, 2] are not the gap-free range 0..1",
    ),
    "root-shift": (
        lambda g: set_attr(g, "r:0", "index", 1),
        "canonical-index BRoot root indices [1] are not the gap-free range 0..0",
    ),
}


@pytest.mark.parametrize("case", sorted(CANONICAL_CASES))
def test_each_canonical_rule_gives_its_one_finding_and_decode_refuses_it(case, g1, sig1):
    edit, line = CANONICAL_CASES[case]
    g, sig = _two_roots() if edit is None else (edit(g1), sig1)
    tg = extend_for_signature(sig)
    assert not any(check.__wrapped__(g, tg).findings for check in (check_typing, check_validity, check_multiplicities))
    assert check_arity_rule.__wrapped__(g, tg, sig).ok
    assert [f.line() for f in conformance(g, tg, sig).findings] == ["error " + line]
    with pytest.raises(NotCanonical) as err:
        decode(g, sig)
    assert err.value.report == conformance(g, tg, sig)


def test_soundness_printer(b1, g1, emap1):
    assert check_soundness(b1, g1, emap1).ok


def test_soundness_root_index_mutation(b1, g1, emap1):
    mutated = set_attr(g1, "r:0", "index", 1)
    rep = check_soundness(b1, mutated, emap1)
    assert "sound-root-index" in rep.codes()


def test_soundness_missing_nesting_edge(b1, g1, emap1):
    broken = drop_edge(g1, edges_of_type(g1, "bPrnt")[0])
    rep = check_soundness(b1, broken, emap1)
    assert "sound-nesting" in rep.codes()
    assert any("bigraph->graph" in f.message for f in rep.findings)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=100, deadline=None)
def test_roundtrip_random_bigraphs(seed):
    b = random_bigraph(random.Random(seed))
    g, emap = encode(b)
    decoded, emap2 = decode(g, b.signature)
    assert decoded == b
    assert emap2.forward == emap.forward
    assert check_soundness(b, g, emap).ok


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=60, deadline=None)
def test_element_count_law_random(seed):
    b = random_bigraph(random.Random(seed))
    g, _ = encode(b)
    k, m = b.inner.width, b.outer.width
    p = len(ports_of(b))
    assert len(g.graph.nodes) == len(b.nodes) + len(b.edges) + p + k + m + len(b.inner.names) + len(b.outer.names)
    assert len(g.graph.edges) == 2 * (len(b.nodes) + k) + 2 * (len(b.inner.names) + p) + 2 * p


def _all_checks(b, g, emap, tg, sig):
    return conformance(g, tg, sig).merged(check_soundness(b, g, emap))


def _mutate(data, g, tg):
    """One random single-element mutation of ``g``, or None if none applies."""
    kind = data.draw(st.sampled_from(["drop-node", "drop-edge", "bump-index", "retype"]))
    if kind == "drop-node":
        victim = data.draw(st.sampled_from(sorted(g.graph.nodes)))
        return drop_node(g, victim)
    if kind == "drop-edge":
        if not g.graph.edges:
            return None
        victim = data.draw(st.sampled_from(sorted(g.graph.edges)))
        return drop_edge(g, victim)
    if kind == "bump-index":
        indexed = sorted(n for (n, a) in g.attrs if a == "index")
        if not indexed:
            return None
        victim = data.draw(st.sampled_from(indexed))
        return set_attr(g, victim, "index", g.attrs[(victim, "index")] + 1 + data.draw(st.integers(0, 3)))
    victim = data.draw(st.sampled_from(sorted(g.graph.nodes)))
    current = g.node_types[victim]
    new_type = data.draw(st.sampled_from(sorted(tg.graph.nodes - {current})))
    return retype_node(g, victim, new_type)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_single_element_mutations_are_caught(data):
    seed = data.draw(st.integers(0, 100_000))
    rng = random.Random(seed)
    b = random_bigraph(rng)
    g, emap = encode(b)
    if not g.graph.nodes:
        return
    tg = extend_for_signature(b.signature)
    assert _all_checks(b, g, emap, tg, b.signature).ok

    mutated = _mutate(data, g, tg)
    if mutated is None:
        return
    assert not _all_checks(b, mutated, emap, tg, b.signature).ok


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_conformance_is_the_four_checkers_in_order(data):
    """The four checkers' findings in order, and then, only when they are
    empty, the canonical rules' (a bumped index is caught there alone)."""
    b = random_bigraph(random.Random(data.draw(st.integers(0, 100_000))))
    g, _ = encode(b)
    if not g.graph.nodes:
        return
    tg, sig = extend_for_signature(b.signature), b.signature
    mutated = _mutate(data, g, tg) or g
    without_sig = (
        check_typing(mutated, tg).findings
        + check_validity(mutated, tg).findings
        + check_multiplicities(mutated, tg).findings
    )
    assert conformance(mutated, tg).findings == without_sig
    with_sig = without_sig + check_arity_rule(mutated, tg, sig).findings
    canonical = () if with_sig else _canonical_rules(mutated, tg, sig).findings
    assert conformance(mutated, tg, sig).findings == with_sig + canonical


@given(arbitrary_bigraphs())
@settings(max_examples=300, deadline=None)
def test_encode_refuses_idle_links_and_returns_only_conforming_graphs(b):
    assert validate_bigraph(b).ok
    linked = set(b.link.values())
    idle = sorted(set(b.edges) - linked) + sorted(b.outer.names - linked)
    try:
        g, emap = encode(b)
    except InvalidBigraph as exc:
        assert [(f.code, f.location) for f in exc.report.findings] == [("idle-link", y) for y in idle]
        assert idle
        return
    assert not idle
    assert conformance(g, extend_for_signature(b.signature), b.signature).ok
    assert decode(g, b.signature) == (b, emap)
