from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigtg import (
    Graph,
    InstanceGraph,
    Multiplicity,
    TypeGraph,
    UnknownType,
    all_sub,
    base_type_graph,
    check_multiplicities,
    check_type_graph,
    check_typing,
    check_validity,
    encode,
)
from bigtg.generators import random_bigraph
from bigtg.typedgraph import pair_opposites, symmetric_pairs

from helpers import drop_edge, edges_of_type


def test_all_sub_controls_under_bnode(tg_sigma1):
    assert all_sub(tg_sigma1, "BNode") == {"Job", "User", "Room", "Spool", "Printer", "Computer"}


def test_all_sub_bplace_transitive(tg_sigma1):
    subs = all_sub(tg_sigma1, "BPlace")
    assert subs == {"BRoot", "BNode", "BSite", "Job", "User", "Room", "Spool", "Printer", "Computer"}
    assert len(subs) == 9


def test_all_sub_unknown_type():
    with pytest.raises(UnknownType):
        all_sub(base_type_graph(), "Job")


def test_typing_printer_example(g1, tg_sigma1):
    assert check_typing(g1, tg_sigma1).ok


def _tiny_instance(tg, nodes, edges):
    """nodes: {id: (type, attrs)}, edges: {id: (type, src, tgt)}"""
    return InstanceGraph(
        graph=Graph(
            nodes=frozenset(nodes),
            edges=frozenset(edges),
            src={e: s for e, (_, s, _) in edges.items()},
            tgt={e: t for e, (_, _, t) in edges.items()},
        ),
        node_types={n: t for n, (t, _) in nodes.items()},
        edge_types={e: t for e, (t, _, _) in edges.items()},
        attrs={(n, a): v for n, (_, attrs) in nodes.items() for a, v in attrs.items()},
    )


def test_typing_rejects_incompatible_source(tg_sigma1):
    g = _tiny_instance(
        tg_sigma1,
        {"o": ("BOuterName", {}), "r": ("BRoot", {"index": 0})},
        {"e": ("bPrnt", "o", "r")},
    )
    rep = check_typing(g, tg_sigma1)
    assert "typing-source" in rep.codes()


def test_typing_rejects_abstract_instantiation(tg_sigma1):
    g = _tiny_instance(tg_sigma1, {"p": ("BPlace", {})}, {})
    assert "typing-abstract" in check_typing(g, tg_sigma1).codes()


def test_typing_rejects_bad_attribute_value(tg_sigma1):
    g = _tiny_instance(tg_sigma1, {"r": ("BRoot", {"index": "zero"})}, {})
    assert "attr-type" in check_typing(g, tg_sigma1).codes()
    g2 = _tiny_instance(tg_sigma1, {"r": ("BRoot", {"color": 1})}, {})
    assert "attr-undeclared" in check_typing(g2, tg_sigma1).codes()


def test_validity_printer_example(g1, tg_sigma1):
    assert check_validity(g1, tg_sigma1).ok


def test_validity_detects_containment_cycle(tg_sigma1):
    g = _tiny_instance(
        tg_sigma1,
        {"a": ("Room", {}), "b": ("Room", {})},
        {
            "p1": ("bPrnt", "a", "b"),
            "c1": ("bChld", "b", "a"),
            "p2": ("bPrnt", "b", "a"),
            "c2": ("bChld", "a", "b"),
        },
    )
    assert "containment-cycle" in check_validity(g, tg_sigma1).codes()


def test_validity_cycle_findings_pinned(tg_sigma1):
    # Cycles a->b->c->a and b->d->e->b share b; c->e crosses between them.
    # The edge ids put b's step to d before its step to c, so the search
    # closes the b cycle first.
    g = _tiny_instance(
        tg_sigma1,
        {n: ("Room", {}) for n in "abcde"},
        {
            "c3": ("bChld", "a", "b"),
            "c2": ("bChld", "b", "c"),
            "c4": ("bChld", "c", "a"),
            "c1": ("bChld", "b", "d"),
            "c5": ("bChld", "d", "e"),
            "c0": ("bChld", "e", "b"),
            "c6": ("bChld", "c", "e"),
        },
    )
    assert [f.line() for f in check_validity(g, tg_sigma1).findings] == [
        "error containment-cycle b containment cycle through b, d, e",
        "error containment-cycle a containment cycle through a, b, c",
        "error multi-container b node has more than one container: a, e",
        "error multi-container e node has more than one container: c, d",
        *(
            f"error opposite-inconsistent bChld[{s}->{t}] 1 'bChld' edge(s) but 0 opposite 'bPrnt' edge(s)"
            for s, t in ("ab", "bc", "bd", "ca", "ce", "de", "eb")
        ),
    ]


def test_validity_detects_missing_opposite(tg_sigma1):
    g = _tiny_instance(
        tg_sigma1,
        {"p": ("BPort", {"index": 0}), "e": ("BEdge", {})},
        {"l": ("bLink", "p", "e")},
    )
    assert "opposite-inconsistent" in check_validity(g, tg_sigma1).codes()


def test_multiplicities_printer_example(g1, tg_sigma1):
    assert check_multiplicities(g1, tg_sigma1).ok


def test_multiplicities_port_without_link(tg_sigma1):
    g = _tiny_instance(tg_sigma1, {"p": ("BPort", {"index": 0})}, {})
    rep = check_multiplicities(g, tg_sigma1)
    assert "mult-underflow" in rep.codes()
    assert any("bLink" in f.message for f in rep.findings)


def test_multiplicities_edge_without_points(tg_sigma1):
    g = _tiny_instance(tg_sigma1, {"e": ("BEdge", {})}, {})
    rep = check_multiplicities(g, tg_sigma1)
    assert any("bPoints" in f.message and "[1,*]" in f.message for f in rep.findings)


def test_opposite_pairing_is_involution(g1, tg_sigma1):
    pairing = pair_opposites(g1, tg_sigma1)
    paired_types = {"bPrnt", "bChld", "bLink", "bPoints", "bPorts", "bNode"}
    participating = {e for e in g1.graph.edges if g1.edge_types[e] in paired_types}
    assert set(pairing) == participating
    for e, p in pairing.items():
        assert pairing[p] == e
        assert p != e


def test_opposite_pairing_rejects_desync(g1, tg_sigma1):
    broken = drop_edge(g1, edges_of_type(g1, "bChld")[0])
    with pytest.raises(ValueError):
        pair_opposites(broken, tg_sigma1)


# --- generic hierarchy used for the subtype-monotonicity property ----------

_DEEP_TG = TypeGraph(
    graph=Graph(
        nodes=frozenset({"A", "B", "C", "D"}),
        edges=frozenset({"eAB"}),
        src={"eAB": "A"},
        tgt={"eAB": "B"},
    ),
    inherits=frozenset({("B", "A"), ("C", "B"), ("D", "C")}),
    mult={"eAB": Multiplicity(0, None)},
)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_typing_monotone_under_subtype_retyping(data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    types = ["A", "B", "C", "D"]
    n = rng.randint(2, 6)
    nodes = {f"n{i}": (rng.choice(types), {}) for i in range(n)}
    edges = {}
    for i in range(rng.randint(1, 8)):
        edges[f"e{i}"] = ("eAB", f"n{rng.randrange(n)}", f"n{rng.randrange(n)}")
    g = _tiny_instance(_DEEP_TG, nodes, edges)

    victim = data.draw(st.sampled_from(sorted(g.graph.nodes)))
    old_type = g.node_types[victim]
    subs = sorted(all_sub(_DEEP_TG, old_type))
    if not subs:
        return
    new_type = data.draw(st.sampled_from(subs))
    retyped = InstanceGraph(
        graph=g.graph,
        node_types={**g.node_types, victim: new_type},
        edge_types=g.edge_types,
        attrs=g.attrs,
    )

    def violated_edges(graph):
        rep = check_typing(graph, _DEEP_TG)
        return {f.location for f in rep.findings if f.code in ("typing-source", "typing-target")}

    assert violated_edges(retyped) <= violated_edges(g)


@given(st.integers(min_value=0, max_value=5_000))
@settings(max_examples=40, deadline=None)
def test_generator_encodings_pass_all_checks(tg_sigma1, sig1, seed):
    b = random_bigraph(random.Random(seed), sig=sig1)
    g, _ = encode(b)
    assert check_typing(g, tg_sigma1).ok
    assert check_validity(g, tg_sigma1).ok
    assert check_multiplicities(g, tg_sigma1).ok


def test_check_type_graph_accepts_base():
    assert check_type_graph(base_type_graph()).ok


def test_check_type_graph_rejects_defects():
    tg = TypeGraph(
        graph=Graph(nodes=frozenset({"A"}), edges=frozenset({"e"}), src={"e": "A"}, tgt={}),
        inherits=frozenset({("A", "A")}),
        abstracts=frozenset({"Z"}),
        opposites=symmetric_pairs([("e", "e")]),
    )
    rep = check_type_graph(tg)
    assert {"tg-edge-ends", "tg-inherits-cycle", "tg-abstracts", "tg-opposites", "tg-mult"} <= rep.codes()


def test_check_type_graph_cycle_findings_pinned():
    tg = TypeGraph(
        graph=Graph(nodes=frozenset("ABCDEF")),
        inherits=frozenset(
            {("A", "B"), ("B", "A"), ("B", "C"), ("C", "D"), ("D", "E"), ("E", "C"), ("F", "C")}
        ),
    )
    assert [f.line() for f in check_type_graph(tg).findings] == [
        "error tg-inherits-cycle A inheritance cycle through A",
        "error tg-inherits-cycle C inheritance cycle through C",
    ]
