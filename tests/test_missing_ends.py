"""The layers on encodings whose edges lack an end, and on type graphs
whose edge types lack one (or, for saving, a multiplicity).

Such an edge is a typing defect (``check_typing`` reports it as
``typing-edge-ends``), and such an edge type a type-graph defect
(``tg-edge-ends``); the other layers must still answer with findings or
their declared exception, never a ``KeyError``.
"""

from __future__ import annotations


import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bigtg import (
    EvaluationError,
    Graph,
    InstanceGraph,
    TypeCheckError,
    ValidationReport,
    check_soundness,
    check_typing,
    encode,
    evaluate,
    extend_for_signature,
    parse_constraints,
    replace,
    typecheck,
)

from helpers import assert_refused, mutated_encodings

#: Navigations along every edge type of the base metamodel.
BASE_CONSTRAINTS = parse_constraints(
    """
context BNode
  inv up: self.bPrnt.oclIsTypeOf(BRoot) or self.bPrnt.oclIsTypeOf(BNode)
  inv down: self.bChld->forAll(c | c.bPrnt.oclIsTypeOf(BNode))
  inv ports: self.bPorts->forAll(p | p.bNode.oclIsTypeOf(BNode) and p.bLink.bPoints->size() >= 1)
context BPort
  inv linked: self.bLink.bPoints->exists(q | q.oclIsTypeOf(BPort))
context BLink
  inv points: self.bPoints->forAll(q | q.bLink.oclIsTypeOf(BEdge) or q.bLink.oclIsTypeOf(BOuterName))
"""
)


@st.composite
def encodings_lacking_ends(draw):
    """An edited encoding with at least one edge stripped of its src or
    tgt, with the bigraph it encodes."""
    g, b = draw(mutated_encodings())
    edges = sorted(g.graph.edges)
    assume(edges)
    src, tgt = dict(g.graph.src), dict(g.graph.tgt)
    for e in draw(st.lists(st.sampled_from(edges), min_size=1, max_size=4)):
        draw(st.sampled_from((src, tgt))).pop(e, None)
    graph = Graph(nodes=g.graph.nodes, edges=g.graph.edges, src=src, tgt=tgt)
    lacking = InstanceGraph(graph=graph, node_types=g.node_types, edge_types=g.edge_types, attrs=g.attrs)
    return lacking, b


@given(encodings_lacking_ends())
@settings(max_examples=150, deadline=None)
def test_soundness_and_evaluate_are_total_on_missing_ends(case):
    g, b = case
    tg = extend_for_signature(b.signature)
    assert "typing-edge-ends" in {f.code for f in check_typing(g, tg).findings}
    _, emap = encode(b)
    assert isinstance(check_soundness(b, g, emap), ValidationReport)
    try:
        evaluate(BASE_CONSTRAINTS, g, tg)
    except EvaluationError:
        pass


@given(encodings_lacking_ends())
@settings(max_examples=60, deadline=None)
def test_save_refuses_an_edge_without_an_end(case):
    g, _ = case
    lacking = min(e for e in g.graph.edges if g.graph.src.get(e) is None or g.graph.tgt.get(e) is None)
    assert_refused(g, f"edge {lacking} has no {'src' if g.graph.src.get(lacking) is None else 'tgt'}")


@st.composite
def type_graphs_lacking_ends(draw):
    """The signature's type graph with 1 to 3 edge-type ends deleted or
    set to a name that is no node type, with the edge types so broken."""
    g, b = draw(mutated_encodings())
    tg = extend_for_signature(b.signature)
    src, tgt = dict(tg.graph.src), dict(tg.graph.tgt)
    broken = set()
    for e in draw(st.lists(st.sampled_from(sorted(tg.edge_types)), min_size=1, max_size=3)):
        ends = draw(st.sampled_from((src, tgt)))
        if draw(st.booleans()):
            ends.pop(e, None)
        else:
            ends[e] = "Ghost"
        broken.add(e)
    graph = Graph(nodes=tg.graph.nodes, edges=tg.graph.edges, src=src, tgt=tgt)
    return g, replace(tg, graph=graph), broken


@given(type_graphs_lacking_ends())
@settings(max_examples=100, deadline=None)
def test_typecheck_names_an_edge_type_without_an_end(case):
    g, tg, broken = case
    with pytest.raises(TypeCheckError) as exc:
        typecheck(BASE_CONSTRAINTS, tg)
    assert any(f"edge type {e!r} lacks a node type as src or tgt" == str(exc.value) for e in broken)
    with pytest.raises(TypeCheckError):
        evaluate(BASE_CONSTRAINTS, g, tg)


@st.composite
def type_graphs_lacking_parts(draw):
    """A signature's type graph with the ``src``, ``tgt`` or multiplicity
    of 1 to 3 edge types deleted."""
    _, b = draw(mutated_encodings())
    tg = extend_for_signature(b.signature)
    parts = {"src": dict(tg.graph.src), "tgt": dict(tg.graph.tgt), "mult": dict(tg.mult)}
    for e in draw(st.lists(st.sampled_from(sorted(tg.edge_types)), min_size=1, max_size=3)):
        parts[draw(st.sampled_from(sorted(parts)))].pop(e, None)
    graph = Graph(nodes=tg.graph.nodes, edges=tg.graph.edges, src=parts["src"], tgt=parts["tgt"])
    return replace(tg, graph=graph, mult=parts["mult"]), parts


@given(type_graphs_lacking_parts())
@settings(max_examples=60, deadline=None)
def test_save_refuses_an_edge_type_without_an_end_or_multiplicity(case):
    tg, parts = case
    lacking = min(e for e in tg.edge_types if any(e not in part for part in parts.values()))
    missing = next(name for name in ("src", "tgt", "mult") if lacking not in parts[name])
    assert_refused(tg, f"edge type {lacking} has no {missing}")
