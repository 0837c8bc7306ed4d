"""The layers on encodings whose edges lack an end, and on type graphs
whose edge types lack one (or, for saving, a multiplicity).

Such an edge is a typing defect (``check_typing`` reports it as
``typing-edge-ends``), and such an edge type a type-graph defect
(``tg-edge-ends``); the other layers must still answer with findings or
their declared exception, never a ``KeyError``. Constraint navigation
raises ``EvaluationError`` only for an edge without a ``tgt`` (or with
a ``tgt`` of ``None``) that it reaches, naming the smallest such edge of
the start node, and
``derive_type_graph`` carries a missing end or bound over to the
variant, where ``check_type_graph`` reports it.
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
    annotate_150,
    check_soundness,
    check_type_graph,
    check_typing,
    derive_type_graph,
    encode,
    evaluate,
    extend_for_signature,
    make_signature,
    parse_constraints,
    replace,
    typecheck,
)
from bigtg.variability import eval_formula

from helpers import CONFIGS, add_edge, assert_refused, drop_tgt, mutated_encodings, outcome
from test_constraint_table import ref_evaluate

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
@settings(max_examples=150, deadline=None)
def test_evaluate_matches_reference_on_missing_ends(case):
    """The verdicts, traces and ``EvaluationError`` text, against a
    reference that finds each start node's edges by scanning them all."""
    g, b = case
    tg = extend_for_signature(b.signature)
    assert outcome(evaluate, BASE_CONSTRAINTS, g, tg) == outcome(ref_evaluate, BASE_CONSTRAINTS, g, tg)


#: Navigates ``bChld`` from rooms only; a room that holds a site fails.
ROOM_CHILDREN = parse_constraints(
    "context Room inv kids:"
    " self.bChld->forAll(c | c.oclIsTypeOf(Printer) or c.oclIsTypeOf(Computer) or c.oclIsTypeOf(User))"
)


@pytest.mark.parametrize(
    "lacking",
    [
        # A bPoints edge: no invariant navigates bPoints.
        ("bPoints:e:e0:p:v0:0", "bPoints:e:e2:p:v1:1"),
        # A bChld edge out of the root: bChld is navigated, but only from rooms.
        ("bChld:r:0:n:v0", "bChld:r:0:n:v3"),
    ],
)
def test_an_edge_without_a_tgt_that_nothing_reaches_gives_verdicts(g1, tg_sigma1, lacking):
    g = g1
    for e in lacking:
        g = drop_tgt(g, e)
    result = evaluate(ROOM_CHILDREN, g, tg_sigma1)
    assert result == evaluate(ROOM_CHILDREN, g1, tg_sigma1)
    assert [(c.node, c.passed) for c in result.checks] == [("n:v0", False), ("n:v4", True)]


def test_a_reached_edge_without_a_tgt_is_named_by_the_smallest_id(g1, tg_sigma1):
    """Room ``n:v0`` has three ``bChld`` edges; without their targets, the
    error names the smallest of them, whatever order the graph holds."""
    g = g1
    for e in ("bChld:n:v0:s:1", "bChld:n:v0:n:v2", "bChld:n:v0:n:v1"):
        g = drop_tgt(g, e)
    with pytest.raises(EvaluationError) as exc:
        evaluate(ROOM_CHILDREN, g, tg_sigma1)
    assert str(exc.value) == "navigation 'bChld' from n:v0 follows edge bChld:n:v0:n:v1 without a tgt"
    # With only the last of them lacking its target, that one is named.
    with pytest.raises(EvaluationError) as exc:
        evaluate(ROOM_CHILDREN, drop_tgt(g1, "bChld:n:v0:s:1"), tg_sigma1)
    assert str(exc.value) == "navigation 'bChld' from n:v0 follows edge bChld:n:v0:s:1 without a tgt"


def test_the_smaller_id_is_named_when_the_graph_holds_the_larger_first(g1, tg_sigma1):
    """Of twenty more ``bChld`` edges of room ``n:v0``, two lose their
    targets: a larger id that the graph's edge set iterates before a
    smaller one. ``drop_tgt`` keeps that edge set, so its order holds."""
    g = g1
    extra = [f"bChld:n:v0:x{i:02}" for i in range(20)]
    for e in extra:
        g = add_edge(g, e, "bChld", "n:v0", "n:v1")
    order = [e for e in g.graph.edges if e in extra]
    larger, smaller = next((a, b) for i, a in enumerate(order) for b in order[i + 1 :] if a > b)
    g = drop_tgt(drop_tgt(g, larger), smaller)
    assert [e for e in g.edge_view.edges if e in (larger, smaller)] == [larger, smaller]
    with pytest.raises(EvaluationError) as exc:
        evaluate(ROOM_CHILDREN, g, tg_sigma1)
    assert str(exc.value) == f"navigation 'bChld' from n:v0 follows edge {smaller} without a tgt"


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


@given(type_graphs_lacking_parts())
@settings(max_examples=40, deadline=None)
def test_derive_type_graph_carries_missing_parts_over(case):
    """Every configuration derives a type graph that keeps an edge type
    whose present ends are kept, and reports exactly its missing ends as
    ``tg-edge-ends`` and its missing bounds, unless the ``bLink`` override
    is in force, as ``tg-mult``."""
    tg, parts = case
    atg = annotate_150(tg)
    for cfg in CONFIGS:
        derived = derive_type_graph(atg, cfg)
        kept = {
            e
            for e in tg.edge_types
            if all(part[e] in derived.node_types for part in (parts["src"], parts["tgt"]) if e in part)
        }
        assert derived.edge_types == kept
        findings = check_type_graph(derived).findings
        ends = {f.location for f in findings if f.code == "tg-edge-ends"}
        assert ends == {f"{role}[{e}]" for e in kept for role in ("src", "tgt") if e not in parts[role]}
        overridden = {e for e, (cond, _) in atg.mult_overrides.items() if eval_formula(cond, cfg.selected)}
        bounds = {f.location for f in findings if f.code == "tg-mult"}
        assert bounds == {e for e in kept if e not in parts["mult"] and e not in overridden}


@pytest.mark.parametrize(
    "part, want",
    [
        ("src", [("tg-edge-ends", "src[bLink]"), ("tg-opposite-ends", "(bLink,bPoints)")]),
        ("tgt", [("tg-edge-ends", "tgt[bLink]"), ("tg-opposite-ends", "(bLink,bPoints)")]),
        ("mult", [("tg-mult", "bLink")]),
    ],
)
def test_derive_type_graph_keeps_a_link_type_that_lacks_a_part(part, want):
    """``bLink`` without its ``src``, ``tgt`` or bound: each configuration
    keeps it, and the variant has the same defect; without explicit ports
    the override bound stands in for a missing one."""
    tg = extend_for_signature(make_signature([("A", 1)]))
    if part == "mult":
        tg = replace(tg, mult={e: m for e, m in tg.mult.items() if e != "bLink"})
    else:
        ends = {e: t for e, t in getattr(tg.graph, part).items() if e != "bLink"}
        tg = replace(tg, graph=replace(tg.graph, **{part: ends}))
    atg = annotate_150(tg)
    for cfg in CONFIGS:
        findings = [(f.code, f.location) for f in check_type_graph(derive_type_graph(atg, cfg)).findings]
        assert findings == (want if part != "mult" or "EP" in cfg.selected else [])
