"""Structures whose edges lack an end, and type graphs whose edge types
lack one: only a graph constructs, so no layer meets either.

A typed graph's ``src`` and ``tgt`` are total functions into its nodes
(Ehrig et al., *Fundamentals of Algebraic Graph Transformation*, 2006).
``Graph`` raises ``ValueError`` for an edge that lacks an end, naming the
smallest such edge by ``repr``, and for an end that is no node; a
``TypeGraph``'s graph is a ``Graph`` too. The instance-graph reader
refuses the same documents with a ``SchemaError``. A missing bound is
still a type-graph finding (``tg-mult``): ``derive_type_graph`` carries
it over to the variant, and the writers refuse it.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bigtg import (
    Graph,
    annotate_150,
    check_type_graph,
    derive_type_graph,
    extend_for_signature,
    fileio,
    make_signature,
    replace,
)
from bigtg.fileio import SchemaError
from bigtg.variability import eval_formula

from helpers import CONFIGS, add_edge, assert_refused, mutated_encodings


def refusal(nodes, edges, src: dict, tgt: dict) -> str:
    """The ``ValueError`` message of ``Graph(nodes, edges, src, tgt)`` for
    fields of the right types: first an entry of ``src`` or ``tgt`` for no
    edge, or an edge without one, then an end that is no node; each the
    smallest by ``repr``."""
    for role, ends in (("src", src), ("tgt", tgt)):
        if ends.keys() - edges:
            return f"Graph.{role} holds {min(ends.keys() - edges, key=repr)!r}, which is not an edge"
        if edges - ends.keys():
            return f"Graph.{role} lacks {min(edges - ends.keys(), key=repr)!r}, which is an edge"
    for role, ends in (("src", src), ("tgt", tgt)):
        if not set(ends.values()) <= nodes:
            return f"Graph.{role} holds {min(set(ends.values()) - nodes, key=repr)!r}, which is not a node"
    raise AssertionError("a graph")


def assert_refused_at_construction(nodes, edges, src: dict, tgt: dict) -> None:
    with pytest.raises(ValueError) as refused:
        Graph(nodes, edges, src, tgt)
    assert str(refused.value) == refusal(frozenset(nodes), frozenset(edges), src, tgt)


@st.composite
def encodings_lacking_ends(draw):
    """The fields of an edited encoding's graph with at least one edge
    stripped of its src or tgt."""
    g, _ = draw(mutated_encodings())
    edges = sorted(g.graph.edges)
    assume(edges)
    src, tgt = dict(g.graph.src), dict(g.graph.tgt)
    for e in draw(st.lists(st.sampled_from(edges), min_size=1, max_size=4)):
        draw(st.sampled_from((src, tgt))).pop(e, None)
    return g.graph.nodes, g.graph.edges, src, tgt


@given(encodings_lacking_ends())
@settings(max_examples=150, deadline=None)
def test_an_encoding_lacking_an_end_is_refused_naming_the_smallest_edge(fields):
    assert_refused_at_construction(*fields)


@st.composite
def encodings_with_unknown_ends(draw):
    """The fields of an edited encoding's graph with 1 to 4 ends set to an
    id that is no node: ``ghost``, an edge's id, or a node's with a
    suffix."""
    g, _ = draw(mutated_encodings())
    edges = sorted(g.graph.edges)
    assume(edges)
    src, tgt = dict(g.graph.src), dict(g.graph.tgt)
    strays = ["ghost", *edges[:2], *(n + "'" for n in sorted(g.graph.nodes)[:2])]
    for e in draw(st.lists(st.sampled_from(edges), min_size=1, max_size=4)):
        draw(st.sampled_from((src, tgt)))[e] = draw(st.sampled_from(strays))
    return g.graph.nodes, g.graph.edges, src, tgt


@given(encodings_with_unknown_ends())
@settings(max_examples=150, deadline=None)
def test_an_end_that_is_no_node_is_refused(fields):
    nodes, edges, src, tgt = fields
    assume(not (set(src.values()) | set(tgt.values())) <= nodes)
    assert_refused_at_construction(*fields)


@pytest.mark.parametrize(
    "lacking",
    [
        # A bPoints edge: no invariant navigates bPoints.
        ("bPoints:e:e0:p:v0:0", "bPoints:e:e2:p:v1:1"),
        # A bChld edge out of the root: bChld is navigated, but only from rooms.
        ("bChld:r:0:n:v0", "bChld:r:0:n:v3"),
    ],
)
def test_an_edge_without_a_tgt_that_nothing_reaches_is_refused(g1, lacking):
    """Whether or not any navigation would reach it, an edge without a
    ``tgt`` makes no graph."""
    tgt = {e: t for e, t in g1.graph.tgt.items() if e not in lacking}
    with pytest.raises(ValueError) as refused:
        replace(g1.graph, tgt=tgt)
    assert str(refused.value) == f"Graph.tgt lacks {min(lacking, key=repr)!r}, which is an edge"


def test_an_edge_without_a_tgt_is_refused_naming_the_smallest_id(g1):
    """Room ``n:v0`` has three ``bChld`` edges; without their targets, the
    refusal names the smallest of them, whatever order the graph holds."""
    lacking = ("bChld:n:v0:s:1", "bChld:n:v0:n:v2", "bChld:n:v0:n:v1")
    with pytest.raises(ValueError) as refused:
        replace(g1.graph, tgt={e: t for e, t in g1.graph.tgt.items() if e not in lacking})
    assert str(refused.value) == "Graph.tgt lacks 'bChld:n:v0:n:v1', which is an edge"
    # With only the last of them lacking its target, that one is named.
    with pytest.raises(ValueError) as refused:
        replace(g1.graph, tgt={e: t for e, t in g1.graph.tgt.items() if e != "bChld:n:v0:s:1"})
    assert str(refused.value) == "Graph.tgt lacks 'bChld:n:v0:s:1', which is an edge"


def test_a_refusal_names_the_smaller_id_when_the_graph_holds_the_larger_first(g1):
    """Of twenty more ``bChld`` edges of room ``n:v0``, two lose their
    targets: a larger id that the graph's edge set iterates before a
    smaller one. The refusal names the smaller."""
    g = g1
    extra = [f"bChld:n:v0:x{i:02}" for i in range(20)]
    for e in extra:
        g = add_edge(g, e, "bChld", "n:v0", "n:v1")
    order = [e for e in g.graph.edges if e in extra]
    larger, smaller = next((a, b) for i, a in enumerate(order) for b in order[i + 1 :] if a > b)
    with pytest.raises(ValueError) as refused:
        replace(g.graph, tgt={e: t for e, t in g.graph.tgt.items() if e not in (larger, smaller)})
    assert str(refused.value) == f"Graph.tgt lacks {smaller!r}, which is an edge"


@pytest.mark.parametrize(
    "edge, start",
    [
        # The only bChld edge of room n:v4.
        ("bChld:n:v4:n:v5", "n:v4"),
        # One of room n:v0's three bChld edges, beside two that reach a node id.
        ("bChld:n:v0:n:v2", "n:v0"),
    ],
)
def test_a_tgt_of_none_is_refused_at_construction(g1, edge, start):
    """An edge lacks a ``tgt`` only by having no entry: a ``tgt`` of ``None``
    is refused where it is built."""
    with pytest.raises(TypeError, match="^Graph.tgt holds None, which is not a str$"):
        replace(g1.graph, tgt={**g1.graph.tgt, edge: None})


def test_an_edge_without_an_end_never_reaches_a_writer(tmp_path, g1):
    """A document whose first edge lacks its ``src`` or ``tgt`` is refused
    by the reader, and the same graph built in code by the constructor, so
    the writers have no such edge to print."""
    first = min(g1.graph.edges)
    for role in ("src", "tgt"):
        doc = json.loads(fileio.dumps_canonical(g1))
        del doc["payload"]["edges"][0][role]
        path = tmp_path / f"lacking-{role}.ig.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SchemaError) as read:
            fileio.load_document(str(path))
        assert (read.value.path, read.value.message) == ("/payload/edges/0", f"missing field {role!r}")
        with pytest.raises(ValueError, match=f"^Graph.{role} lacks '{first}', which is an edge$"):
            replace(g1.graph, **{role: {e: n for e, n in getattr(g1.graph, role).items() if e != first}})


@st.composite
def type_graphs_lacking_ends(draw):
    """The fields of a signature's type graph's graph with 1 to 3
    edge-type ends deleted or set to a name that is no node type."""
    _, b = draw(mutated_encodings())
    tg = extend_for_signature(b.signature)
    src, tgt = dict(tg.graph.src), dict(tg.graph.tgt)
    for e in draw(st.lists(st.sampled_from(sorted(tg.edge_types)), min_size=1, max_size=3)):
        ends = draw(st.sampled_from((src, tgt)))
        if draw(st.booleans()):
            ends.pop(e, None)
        else:
            ends[e] = "Ghost"
    return tg.graph.nodes, tg.graph.edges, src, tgt


@given(type_graphs_lacking_ends())
@settings(max_examples=100, deadline=None)
def test_a_type_graph_whose_edge_type_lacks_an_end_is_refused(fields):
    assert_refused_at_construction(*fields)


@pytest.mark.parametrize("part", ["src", "tgt"])
def test_a_link_type_that_lacks_an_end_is_refused(part):
    tg = extend_for_signature(make_signature([("A", 1)]))
    ends = {e: t for e, t in getattr(tg.graph, part).items() if e != "bLink"}
    with pytest.raises(ValueError, match=f"^Graph.{part} lacks 'bLink', which is an edge$"):
        replace(tg.graph, **{part: ends})


@st.composite
def type_graphs_lacking_bounds(draw):
    """A signature's type graph with the multiplicity of 1 to 3 edge types
    deleted, and the bounds it keeps."""
    _, b = draw(mutated_encodings())
    tg = extend_for_signature(b.signature)
    mult = dict(tg.mult)
    for e in draw(st.lists(st.sampled_from(sorted(tg.edge_types)), min_size=1, max_size=3)):
        mult.pop(e, None)
    return replace(tg, mult=mult), mult


@given(type_graphs_lacking_bounds())
@settings(max_examples=60, deadline=None)
def test_save_refuses_an_edge_type_without_a_multiplicity(case):
    tg, mult = case
    assert_refused(tg, f"edge type {min(tg.edge_types - mult.keys())} has no mult")


@given(type_graphs_lacking_bounds())
@settings(max_examples=40, deadline=None)
def test_derive_type_graph_carries_a_missing_bound_over(case):
    """Every configuration derives a type graph that keeps the edge types
    whose ends are kept, and reports exactly its missing bounds, unless
    the ``bLink`` override is in force, as ``tg-mult``."""
    tg, mult = case
    atg = annotate_150(tg)
    for cfg in CONFIGS:
        derived = derive_type_graph(atg, cfg)
        kept = {e for e in tg.edge_types if {tg.graph.src[e], tg.graph.tgt[e]} <= derived.node_types}
        assert derived.edge_types == kept
        overridden = {e for e, (cond, _) in atg.mult_overrides.items() if eval_formula(cond, cfg.selected)}
        bounds = {f.location for f in check_type_graph(derived).findings if f.code == "tg-mult"}
        assert bounds == {e for e in kept if e not in mult and e not in overridden}


def test_derive_type_graph_keeps_a_link_type_that_lacks_a_bound():
    """``bLink`` without its bound: each configuration keeps it, and the
    variant has the same defect; without explicit ports the override
    bound stands in for the missing one."""
    tg = extend_for_signature(make_signature([("A", 1)]))
    atg = annotate_150(replace(tg, mult={e: m for e, m in tg.mult.items() if e != "bLink"}))
    for cfg in CONFIGS:
        findings = [(f.code, f.location) for f in check_type_graph(derive_type_graph(atg, cfg)).findings]
        assert findings == ([("tg-mult", "bLink")] if "EP" in cfg.selected else [])
