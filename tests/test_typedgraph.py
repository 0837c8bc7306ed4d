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
    UnknownType,
    all_sub,
    base_type_graph,
    check_multiplicities,
    check_type_graph,
    check_typing,
    check_validity,
    encode,
    replace,
)
from bigtg import fileio
from bigtg.constraints import evaluate, parse_constraints, typecheck
from bigtg.generators import random_bigraph
from bigtg.typedgraph import all_super, conforms, declared_attrs, symmetric_pairs

from helpers import outcome, ref_all_sub, ref_all_super, ref_conforms, ref_declared_attrs, type_graph_variants


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


#: The tables that a type graph keeps, each built on first use.
TABLES = ("_supertypes", "_subtypes", "_opposite", "_ends", "_attrs", "_bounds")


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_each_type_graph_table_holds_what_the_queries_answered(sig1, data):
    """On type graphs with inheritance cycles, abstract types, several
    supertypes and a supertype that is no node type, each table a type
    graph keeps equals the one a ``replace`` copy builds anew and holds
    what the reference queries (``helpers.ref_*``, the queries as they
    were before the tables) answer; ``conforms``, ``all_sub``,
    ``all_super`` and ``declared_attrs`` answer as those do, or raise the
    same ``UnknownType``."""
    tg = data.draw(type_graph_variants(sig1, hierarchy=True))
    copy = replace(tg)
    for name in TABLES:
        assert getattr(tg, name) == getattr(copy, name), name
    types, src = sorted(tg.node_types), tg.graph.src
    for ends, pairs in zip((src, tg.graph.tgt), tg._ends):
        assert pairs == {(te, t) for te, decl in ends.items() for t in types if ref_conforms(tg, t, decl)}
    assert tg._attrs == {t: ref_declared_attrs(tg, t) for t in types}
    bounded = [(te, m) for te, m in sorted(tg.mult.items()) if m.lb > 0 or m.ub is not None]
    assert tg._bounds == [(te, {t for t in types if ref_conforms(tg, t, src[te])}, m) for te, m in bounded]
    for t in (*types, "Ghost"):
        for query, ref in ((all_sub, ref_all_sub), (all_super, ref_all_super), (declared_attrs, ref_declared_attrs)):
            assert outcome(query, tg, t) == outcome(ref, tg, t)
        for target in (*types, "Ghost"):
            assert outcome(conforms, tg, t, target) == outcome(ref_conforms, tg, t, target)


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


def test_dangling_edge_ends_are_refused_in_field_order():
    """An edge without a ``src`` is named before an end that is no node,
    and the graph is refused before any typing is read."""
    ends = {"nodes": frozenset({"n", "r"}), "edges": frozenset({"e1", "e2", "e3"})}
    with pytest.raises(ValueError, match="^Graph.src lacks 'e1', which is an edge$"):
        Graph(**ends, src={"e2": "n", "e3": "n"}, tgt={"e1": "r", "e2": "ghost", "e3": "r"})
    with pytest.raises(ValueError, match="^Graph.tgt holds 'ghost', which is not a node$"):
        Graph(**ends, src={"e1": "n", "e2": "n", "e3": "n"}, tgt={"e1": "r", "e2": "ghost", "e3": "r"})
    graph = Graph(**ends, src={"e1": "n", "e2": "n", "e3": "n"}, tgt={"e1": "r", "e2": "r", "e3": "r"})
    with pytest.raises(ValueError, match="^InstanceGraph.edge_types lacks 'e2', which is an edge$"):
        InstanceGraph(graph=graph, node_types={"n": "Room", "r": "BRoot"}, edge_types={"e1": "bPrnt", "e3": "bPrnt"})


@pytest.mark.parametrize("probe", ["no src", "unknown src"])
@given(st.integers(min_value=0, max_value=100_000), st.data())
@settings(max_examples=30, deadline=None)
def test_a_dangling_edge_end_is_refused_at_construction(probe, seed, data):
    b = random_bigraph(random.Random(seed))
    g, _ = encode(b)
    if not g.graph.edges:
        return
    e = data.draw(st.sampled_from(sorted(g.graph.edges)))
    src = dict(g.graph.src)
    if probe == "no src":
        del src[e]
        expected = f"Graph.src lacks {e!r}, which is an edge"
    else:
        src[e] = "ghost"
        expected = "Graph.src holds 'ghost', which is not a node"
    with pytest.raises(ValueError) as refused:
        replace(g.graph, src=src)
    assert str(refused.value) == expected


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
        graph=Graph(nodes=frozenset({"A"}), edges=frozenset({"e"}), src={"e": "A"}, tgt={"e": "A"}),
        inherits=frozenset({("A", "A")}),
        abstracts=frozenset({"Z"}),
        opposites=symmetric_pairs([("e", "e")]),
    )
    rep = check_type_graph(tg)
    assert {"tg-inherits-cycle", "tg-abstracts", "tg-opposites", "tg-mult"} <= rep.codes()


def test_an_edge_type_without_a_tgt_is_refused_by_its_graph():
    with pytest.raises(ValueError, match="^Graph.tgt lacks 'e', which is an edge$"):
        Graph(nodes=frozenset({"A"}), edges=frozenset({"e"}), src={"e": "A"}, tgt={})


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
def test_an_edge_type_without_a_node_type_end_is_refused(tg_sigma1, bad_src):
    src = {te: s for te, s in tg_sigma1.graph.src.items() if te != "bLink"}
    if bad_src is not None:
        src["bLink"] = bad_src
    message = (
        "Graph.src lacks 'bLink', which is an edge" if bad_src is None else "Graph.src holds 'Ghost', which is not a node"
    )
    with pytest.raises(ValueError) as refused:
        replace(tg_sigma1.graph, src=src)
    assert str(refused.value) == message


_TYPES = ("A", "B", "C")
_ETYPES = ("e", "f", "g")


@st.composite
def type_graphs_with_any_ends(draw):
    """The fields of a type graph's graph whose edge types may lack an end
    or name an unknown node type, and a function that builds the type
    graph and an instance graph typed over it."""
    nodes = draw(st.sets(st.sampled_from(_TYPES), min_size=1))
    edges = draw(st.sets(st.sampled_from(_ETYPES)))
    end = st.sampled_from(sorted(nodes) + ["Ghost", None])
    src, tgt = {}, {}
    for te in sorted(edges):
        for ends in (src, tgt):
            value = draw(end)
            if value is not None:
                ends[te] = value
    inherits = draw(st.sets(st.tuples(st.sampled_from(sorted(nodes)), st.sampled_from(sorted(nodes)))))
    mult = {te: Multiplicity(draw(st.integers(0, 1)), draw(st.sampled_from((None, 2)))) for te in sorted(edges)}
    ids = [f"n{i}" for i in range(draw(st.integers(1, 4)))]
    kinds = st.sampled_from(_TYPES + ("Ghost",))
    g_edges = {f"x{i}": (draw(st.sampled_from(ids)), draw(st.sampled_from(ids)), draw(st.sampled_from(_ETYPES)))
               for i in range(draw(st.integers(0, 6)))}
    node_types = {n: draw(kinds) for n in ids}

    def build():
        tg = TypeGraph(graph=Graph(nodes=nodes, edges=edges, src=src, tgt=tgt), inherits=inherits, mult=mult)
        g = InstanceGraph(
            graph=Graph(
                nodes=ids,
                edges=g_edges,
                src={x: s for x, (s, _, _) in g_edges.items()},
                tgt={x: t for x, (_, t, _) in g_edges.items()},
            ),
            node_types=node_types,
            edge_types={x: te for x, (_, _, te) in g_edges.items()},
        )
        return g, tg

    return (nodes, edges, src, tgt), build


@given(type_graphs_with_any_ends())
@settings(max_examples=200, deadline=None)
def test_typing_and_multiplicities_are_total_where_edge_types_construct(case):
    """A type graph whose edge types lack an end, or name one that is no
    node type, is refused; every other one gives findings only."""
    (nodes, edges, src, tgt), build = case
    if src.keys() == edges == tgt.keys() and nodes.issuperset(src.values()) and nodes.issuperset(tgt.values()):
        g, tg = build()
        check_typing(g, tg)
        check_multiplicities(g, tg)
    else:
        with pytest.raises(ValueError, match="^Graph.(src|tgt) "):
            build()


# An edge type without a bound: each entry point that reads the bounds
# passes over it. A bound that is not a Multiplicity is refused at
# construction.


def _unbounded_type_graph() -> TypeGraph:
    """``e`` has no bound and is the opposite of the containment ``f``, so
    the EMOF rules read its bound too."""
    return TypeGraph(
        graph=Graph(nodes={"N"}, edges={"e", "f"}, src={"e": "N", "f": "N"}, tgt={"e": "N", "f": "N"}),
        containments={"f"},
        opposites=symmetric_pairs([("e", "f")]),
        mult={"f": Multiplicity(0, None)},
    )


@pytest.mark.parametrize(
    "mult, message",
    [
        (lambda: {"e": (0, 1)}, "TypeGraph.mult holds (0, 1), which is not a Multiplicity"),
        (lambda: {("e",): Multiplicity(0)}, "TypeGraph.mult holds ('e',), which is not a str"),
        (lambda: {"e": Multiplicity(True)}, "Multiplicity.lb holds True, which is not an int"),
        (lambda: {"e": Multiplicity(0, 1.5)}, "Multiplicity.ub holds 1.5, which is not an int or None"),
    ],
    ids=["tuple", "key", "bool-lower", "float-upper"],
)
def test_a_bound_of_another_type_is_refused_at_construction(mult, message):
    with pytest.raises(TypeError) as refused:
        replace(_unbounded_type_graph(), mult=mult())
    assert str(refused.value) == message


def test_a_missing_bound_is_one_tg_mult_finding():
    assert check_type_graph(_unbounded_type_graph()).findings == (
        Finding("tg-mult", "e", "edge type has no multiplicity"),
    )


def test_multiplicities_skip_a_missing_bound():
    g = InstanceGraph(
        graph=Graph(nodes={"n"}, edges={"x", "y"}, src={"x": "n", "y": "n"}, tgt={"x": "n", "y": "n"}),
        node_types={"n": "N"},
        edge_types={"x": "e", "y": "e"},
    )
    assert check_multiplicities(g, _unbounded_type_graph()).ok


def test_each_bound_reads_the_count_of_its_own_edge_type():
    """Both nodes have the two ``a`` edges that ``[2,2]`` asks for and none
    of the two ``b`` edges: the count made for ``a`` never answers ``b``."""
    ends = dict.fromkeys("ab", "N")
    tg = TypeGraph(Graph(nodes={"N"}, edges=set(ends), src=ends, tgt=ends), mult=dict.fromkeys(ends, Multiplicity(2, 2)))
    src = {"x": "m", "y": "m", "z": "n", "w": "n"}
    graph = Graph(nodes={"m", "n"}, edges=set(src), src=src, tgt=src)
    g = InstanceGraph(graph, node_types=dict.fromkeys("mn", "N"), edge_types=dict.fromkeys(src, "a"))
    assert [(f.code, f.location, f.message) for f in check_multiplicities(g, tg).findings] == [
        ("mult-underflow", f"{n}.b", "0 outgoing 'b' edge(s), multiplicity [2,2]") for n in "mn"
    ]


@pytest.mark.parametrize("write", ["dumps_canonical", "save"])
def test_a_missing_bound_is_refused_by_the_writer(write, tmp_path):
    path = tmp_path / "tg.json"
    with pytest.raises(ValueError, match="^edge type e has no mult$"):
        if write == "save":
            fileio.save(_unbounded_type_graph(), str(path))
        else:
            fileio.dumps_canonical(_unbounded_type_graph())
    assert not path.exists()


def test_navigation_over_a_missing_bound_is_a_collection():
    tg = _unbounded_type_graph()
    g = InstanceGraph(
        graph=Graph(nodes={"n", "m"}, edges={"x", "y"}, src={"x": "n", "y": "n"}, tgt={"x": "n", "y": "m"}),
        node_types={"n": "N", "m": "N"},
        edge_types={"x": "e", "y": "e"},
    )
    doc = parse_constraints("context N\n  inv two:\n    self.e->size() = 2\n")
    typecheck(doc, tg)
    assert [c.passed for c in evaluate(doc, g, tg).checks] == [False, True]


_BASES = pytest.mark.parametrize("base", ["printer.ig.json", "corpus/bad-ports.ig.json"], ids=["printer", "bad-ports"])


def _refused_list_type(path, field, key):
    """``InstanceGraph`` refuses the graph at ``path`` once the type of
    ``key`` in ``field`` is wrapped in a list, and names the field and the
    list."""
    g0 = fileio.load_instance_graph(str(path))
    types = getattr(g0, field)
    with pytest.raises(TypeError) as refused:
        replace(g0, **{field: {**types, key: [types[key]]}})
    assert str(refused.value) == f"InstanceGraph.{field} holds {[types[key]]!r}, which is not a str"


@_BASES
@pytest.mark.parametrize("node", ["e:e0", "n:v0", "p:v1:0", "r:0"])
def test_a_node_typed_by_a_list_is_refused(fixtures_dir, base, node):
    """A node type that cannot be hashed, which no document holds, is
    refused where it is built, so no checker, ``decode`` or
    ``apply_deltas`` reads it."""
    _refused_list_type(fixtures_dir / base, "node_types", node)


@_BASES
@pytest.mark.parametrize("edge", ["bChld:n:v0:n:v1", "bLink:p:v1:0:e:e1", "bNode:p:v2:0:n:v2", "bPoints:e:e0:p:v0:0"])
def test_an_edge_typed_by_a_list_is_refused(fixtures_dir, base, edge):
    """An edge type that cannot be hashed is refused where it is built; the
    ``bLink``, ``bNode`` and ``bPoints`` edges are the three that the port
    rewiring of ``apply_deltas`` would read."""
    _refused_list_type(fixtures_dir / base, "edge_types", edge)
