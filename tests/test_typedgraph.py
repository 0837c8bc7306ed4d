from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigtg import (
    Graph,
    InstanceGraph,
    Multiplicity,
    TypeGraph,
    Finding,
    NotCanonical,
    UnknownType,
    all_sub,
    apply_deltas,
    base_type_graph,
    check_arity_rule,
    check_multiplicities,
    check_type_graph,
    check_typing,
    check_validity,
    conformance,
    decode,
    encode,
    enumerate_configs,
    extend_for_signature,
    replace,
)
from bigtg import fileio
from bigtg.constraints import evaluate, parse_constraints, typecheck
from bigtg.generators import random_bigraph
from bigtg.typedgraph import all_super, symmetric_pairs

from helpers import edges_of_type, outcome


def test_the_constructors_copy_what_they_are_given():
    """Mutating a dict or set after passing it to a constructor leaves the
    value as it was built; only ``apply_deltas`` hands over fresh dicts."""
    nodes, src, tgt = {"n"}, {"e": "n"}, {"e": "n"}
    node_types, edge_types, attrs = {"n": "BNode"}, {"e": "bLink"}, {("n", "index"): 0}
    g = InstanceGraph(Graph(nodes, {"e"}, src, tgt), node_types, edge_types, attrs)
    nodes.add("m")
    for d in (src, tgt, node_types, edge_types, attrs):
        d.clear()
    graph = Graph({"n"}, {"e"}, {"e": "n"}, {"e": "n"})
    assert g == InstanceGraph(graph, {"n": "BNode"}, {"e": "bLink"}, {("n", "index"): 0})


def test_all_sub_controls_under_bnode(tg_sigma1):
    assert all_sub(tg_sigma1, "BNode") == {"Job", "User", "Room", "Spool", "Printer", "Computer"}


def test_all_sub_bplace_transitive(tg_sigma1):
    subs = all_sub(tg_sigma1, "BPlace")
    assert subs == {"BRoot", "BNode", "BSite", "Job", "User", "Room", "Spool", "Printer", "Computer"}
    assert len(subs) == 9


def test_all_sub_unknown_type():
    with pytest.raises(UnknownType):
        all_sub(base_type_graph(), "Job")


def test_type_on_inheritance_cycle_is_its_own_supertype():
    assert all_super(TypeGraph(Graph(frozenset("AB")), inherits={("A", "B"), ("B", "A")}), "A") == {"A", "B"}


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


def test_typing_flags_dangling_edge_ends_in_edge_order(tg_sigma1):
    g = InstanceGraph(
        graph=Graph(
            nodes=frozenset({"n", "r"}),
            edges=frozenset({"e1", "e2", "e3"}),
            src={"e2": "n", "e3": "n"},
            tgt={"e1": "r", "e2": "ghost", "e3": "r"},
        ),
        node_types={"n": "Room", "r": "BRoot"},
        edge_types={"e1": "bPrnt", "e3": "bPrnt"},
        attrs={("r", "index"): 0},
    )
    assert [f.line() for f in check_typing(g, tg_sigma1).findings] == [
        "error typing-edge-ends src[e1] edge has no src",
        "error typing-edge-ends tgt[e2] edge tgt 'ghost' is not a node",
        "error typing-total e2 edge has no type",
    ]


@pytest.mark.parametrize("probe", ["no src", "unknown src"])
@given(st.integers(min_value=0, max_value=100_000), st.data())
@settings(max_examples=30, deadline=None)
def test_dangling_edge_end_is_a_finding_not_a_key_error(probe, seed, data):
    b = random_bigraph(random.Random(seed))
    g, _ = encode(b)
    if not g.graph.edges:
        return
    e = data.draw(st.sampled_from(sorted(g.graph.edges)))
    src = dict(g.graph.src)
    if probe == "no src":
        del src[e]
        expected = Finding("typing-edge-ends", f"src[{e}]", "edge has no src")
    else:
        src[e] = "ghost"
        expected = Finding("typing-edge-ends", f"src[{e}]", "edge src 'ghost' is not a node")
    g = replace(g, graph=replace(g.graph, src=src))
    tg = extend_for_signature(b.signature)
    assert expected in conformance(g, tg, b.signature).findings
    with pytest.raises(NotCanonical):
        decode(g, b.signature)


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


# Edge type "a" is paired with both "b" and "c" (a type graph that
# check_type_graph rejects); "a" must take the smallest partner, "b", in
# every process, whatever order the opposites frozenset iterates in.
_PARTNER_PROBE = """
from bigtg import Graph, InstanceGraph, Multiplicity, TypeGraph, check_validity

ends = dict.fromkeys("abc", "X")
tg = TypeGraph(
    graph=Graph(nodes={"X"}, edges=set(ends), src=ends, tgt=ends),
    opposites={("a", "b"), ("b", "a"), ("a", "c"), ("c", "a")},
    mult=dict.fromkeys(ends, Multiplicity(0)),
)
g = InstanceGraph(
    graph=Graph(nodes={"x", "y"}, edges={"e1", "e2"}, src={"e1": "x", "e2": "y"}, tgt={"e1": "y", "e2": "x"}),
    node_types={"x": "X", "y": "X"},
    edge_types={"e1": "a", "e2": "b"},
)
print([f.line() for f in check_validity(g, tg).findings])
"""


def test_opposite_partner_independent_of_hash_seed():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    outputs = {
        subprocess.run(
            [sys.executable, "-c", _PARTNER_PROBE],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in range(1, 7)
    }
    assert outputs == {"[]\n"}


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


@pytest.mark.parametrize("bad_src", [None, "Ghost"])
def test_edge_type_without_node_type_end_is_a_typing_finding(g1, tg_sigma1, bad_src):
    src = {te: s for te, s in tg_sigma1.graph.src.items() if te != "bLink"}
    if bad_src is not None:
        src["bLink"] = bad_src
    tg = replace(tg_sigma1, graph=replace(tg_sigma1.graph, src=src))
    lines = [f.line() for f in check_typing(g1, tg).findings]
    assert lines == [
        f"error typing-type-ends {e} edge type 'bLink' lacks a node type as src or tgt"
        for e in sorted(edges_of_type(g1, "bLink"))
    ]
    assert check_multiplicities(g1, tg).ok


_TYPES = ("A", "B", "C")
_ETYPES = ("e", "f", "g")


@st.composite
def type_graphs_with_broken_ends(draw):
    """A type graph whose edge types may lack an end or name an unknown
    node type, and an instance graph typed over it."""
    nodes = draw(st.sets(st.sampled_from(_TYPES), min_size=1))
    edges = draw(st.sets(st.sampled_from(_ETYPES)))
    end = st.sampled_from(sorted(nodes) + ["Ghost", None])
    src, tgt = {}, {}
    for te in sorted(edges):
        for ends in (src, tgt):
            value = draw(end)
            if value is not None:
                ends[te] = value
    tg = TypeGraph(
        graph=Graph(nodes=nodes, edges=edges, src=src, tgt=tgt),
        inherits=draw(st.sets(st.tuples(st.sampled_from(sorted(nodes)), st.sampled_from(sorted(nodes))))),
        mult={te: Multiplicity(draw(st.integers(0, 1)), draw(st.sampled_from((None, 2)))) for te in sorted(edges)},
    )
    ids = [f"n{i}" for i in range(draw(st.integers(1, 4)))]
    kinds = st.sampled_from(_TYPES + ("Ghost",))
    g_edges = {f"x{i}": (draw(st.sampled_from(ids)), draw(st.sampled_from(ids)), draw(st.sampled_from(_ETYPES)))
               for i in range(draw(st.integers(0, 6)))}
    g = InstanceGraph(
        graph=Graph(
            nodes=ids,
            edges=g_edges,
            src={x: s for x, (s, _, _) in g_edges.items()},
            tgt={x: t for x, (_, t, _) in g_edges.items()},
        ),
        node_types={n: draw(kinds) for n in ids},
        edge_types={x: te for x, (_, _, te) in g_edges.items()},
    )
    return g, tg


@given(type_graphs_with_broken_ends())
@settings(max_examples=200, deadline=None)
def test_typing_and_multiplicities_total_on_broken_edge_types(case):
    g, tg = case
    typing = check_typing(g, tg)
    check_multiplicities(g, tg)
    broken = {te for te in tg.edge_types if tg.graph.src.get(te) not in tg.node_types
              or tg.graph.tgt.get(te) not in tg.node_types}
    flagged = {f.location for f in typing.findings if f.code == "typing-type-ends"}
    assert flagged == {x for x, te in g.edge_types.items() if te in broken}


# A bound that is not a Multiplicity is no bound: each entry point that reads
# the bounds treats it as it treats an edge type without one.


def _tuple_bound_type_graph() -> TypeGraph:
    """``e`` has a tuple as its bound and is the opposite of the
    containment ``f``, so the EMOF rules read its bound too."""
    return TypeGraph(
        graph=Graph(nodes={"N"}, edges={"e", "f"}, src={"e": "N", "f": "N"}, tgt={"e": "N", "f": "N"}),
        containments={"f"},
        opposites=symmetric_pairs([("e", "f")]),
        mult={"e": (0, 1), "f": Multiplicity(0, None)},
    )


def test_a_tuple_bound_is_one_tg_mult_finding():
    assert check_type_graph(_tuple_bound_type_graph()).findings == (
        Finding("tg-mult", "e", "edge type has no multiplicity"),
    )


def test_multiplicities_skip_a_tuple_bound():
    g = InstanceGraph(
        graph=Graph(nodes={"n"}, edges={"x", "y"}, src={"x": "n", "y": "n"}, tgt={"x": "n", "y": "n"}),
        node_types={"n": "N"},
        edge_types={"x": "e", "y": "e"},
    )
    assert check_multiplicities(g, _tuple_bound_type_graph()).ok


@pytest.mark.parametrize("write", ["dumps_canonical", "save"])
def test_a_tuple_bound_is_refused_by_the_writer(write, tmp_path):
    path = tmp_path / "tg.json"
    with pytest.raises(ValueError, match="^edge type e has no mult$"):
        if write == "save":
            fileio.save(_tuple_bound_type_graph(), str(path))
        else:
            fileio.dumps_canonical(_tuple_bound_type_graph())
    assert not path.exists()


def test_navigation_over_a_tuple_bound_is_a_collection():
    tg = _tuple_bound_type_graph()
    g = InstanceGraph(
        graph=Graph(nodes={"n", "m"}, edges={"x", "y"}, src={"x": "n", "y": "n"}, tgt={"x": "n", "y": "m"}),
        node_types={"n": "N", "m": "N"},
        edge_types={"x": "e", "y": "e"},
    )
    doc = parse_constraints("context N\n  inv two:\n    self.e->size() = 2\n")
    typecheck(doc, tg)
    assert [c.passed for c in evaluate(doc, g, tg).checks] == [False, True]


@pytest.mark.parametrize("base", ["printer.ig.json", "corpus/bad-ports.ig.json"])
@pytest.mark.parametrize("node", ["e:e0", "n:v0", "p:v1:0", "r:0"])
def test_a_node_typed_by_a_list_is_a_type_the_type_graph_lacks(fixtures_dir, sig1, tg_sigma1, base, node):
    """A node type that cannot be hashed gives each checker the findings
    that a type the type graph lacks gives, printed with the list, and
    ``apply_deltas`` reads it as no control in every configuration. The
    bad-ports graph breaks bounds, so the bound walks read every node's
    type."""
    g0 = fileio.load_instance_graph(str(fixtures_dir / base))
    listed = [g0.node_types[node]]
    g = replace(g0, node_types={**g0.node_types, node: listed})
    named = replace(g0, node_types={**g0.node_types, node: "Unknown"})

    def lines(report):
        return [f.line() for f in report.findings]

    unknown = f"error typing-unknown-type {node} node typed by unknown type {listed!r}"
    assert lines(check_typing(g, tg_sigma1)) == [unknown]
    for check, args in (
        (check_typing, (tg_sigma1,)),
        (check_validity, (tg_sigma1,)),
        (check_multiplicities, (tg_sigma1,)),
        (check_arity_rule, (tg_sigma1, sig1)),
        (conformance, (tg_sigma1, sig1)),
    ):
        want = [line.replace("'Unknown'", repr(listed)) for line in lines(check(named, *args))]
        assert lines(check(g, *args)) == want, check.__name__
    for cfg in enumerate_configs():
        want = outcome(apply_deltas, named, cfg, sig1)
        if isinstance(want, InstanceGraph):
            want = replace(want, node_types={**want.node_types, node: listed})
        assert outcome(apply_deltas, g, cfg, sig1) == want, cfg


@pytest.mark.parametrize("base", ["printer.ig.json", "corpus/bad-ports.ig.json"])
@pytest.mark.parametrize("edge", ["bChld:n:v0:n:v1", "bLink:p:v1:0:e:e1", "bNode:p:v2:0:n:v2", "bPoints:e:e0:p:v0:0"])
def test_an_edge_typed_by_a_list_is_a_type_the_type_graph_lacks(fixtures_dir, sig1, tg_sigma1, base, edge):
    """An edge type that cannot be hashed gives each checker and ``decode``
    the findings that a type the type graph lacks gives, printed with the
    list, and the port rewiring of ``apply_deltas`` reads it as none of the
    edge types it moves, in every configuration. The ``bLink``, ``bNode``
    and ``bPoints`` edges are the three that rewiring reads."""
    g0 = fileio.load_instance_graph(str(fixtures_dir / base))
    listed = [g0.edge_types[edge]]
    g = replace(g0, edge_types={**g0.edge_types, edge: listed})
    named = replace(g0, edge_types={**g0.edge_types, edge: "Unknown"})

    def lines(report):
        return [f.line() for f in report.findings]

    def decoded(graph):
        with pytest.raises(NotCanonical) as refused:
            decode(graph, sig1)
        return lines(refused.value.report)

    unknown = f"error typing-unknown-type {edge} edge typed by unknown type {listed!r}"
    assert lines(check_typing(g, tg_sigma1)) == [unknown]
    for check, args in (
        (check_typing, (tg_sigma1,)),
        (check_validity, (tg_sigma1,)),
        (check_multiplicities, (tg_sigma1,)),
        (check_arity_rule, (tg_sigma1, sig1)),
        (conformance, (tg_sigma1, sig1)),
    ):
        want = [line.replace("'Unknown'", repr(listed)) for line in lines(check(named, *args))]
        assert lines(check(g, *args)) == want, check.__name__
    assert decoded(g) == [line.replace("'Unknown'", repr(listed)) for line in decoded(named)]
    for cfg in enumerate_configs():
        want = outcome(apply_deltas, named, cfg, sig1)
        if isinstance(want, InstanceGraph):
            want = replace(want, edge_types={e: listed if e == edge else t for e, t in want.edge_types.items()})
        assert outcome(apply_deltas, g, cfg, sig1) == want, cfg
