"""``check_soundness`` and ``evaluate`` on encodings whose edges lack an end.

Such an edge is a typing defect (``check_typing`` reports it as
``typing-edge-ends``); the other layers must still answer with findings
or their declared exception, never a ``KeyError``.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bigtg import (
    EvaluationError,
    Graph,
    InstanceGraph,
    ValidationReport,
    check_soundness,
    check_typing,
    encode,
    evaluate,
    extend_for_signature,
    parse_constraints,
)

from helpers import mutated_encodings

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
