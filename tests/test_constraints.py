from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigtg import (
    Bigraph,
    ConstraintSyntaxError,
    EvaluationError,
    Interface,
    TypeCheckError,
    encode,
    evaluate,
    extend_for_signature,
    format_constraints,
    make_signature,
    parse_constraints,
    replace,
    typecheck,
)
from bigtg.constraints import (
    _PREC_LET,
    MAX_DEPTH,
    AndOp,
    BoolLit,
    Compare,
    ConstraintDoc,
    Exists,
    Expr,
    ForAll,
    ImpliesOp,
    IntLit,
    Invariant,
    IsTypeOf,
    Let,
    Nav,
    NotOp,
    OrOp,
    SelfRef,
    VarRef,
    _fmt,
)
from bigtg.generators import random_bigraph
from bigtg.typedgraph import Graph

from helpers import add_edge, ref_outgoing, retype_node

IV1_PAPER_STYLE = (
    "context Spool\n"
    "  inv iv1:\n"
    "    self.bChld-->forAll(c | c.oclIsTypeOf(BSite) or c.oclIsTypeOf(Job))\n"
)


def test_parse_iv1():
    doc = parse_constraints(IV1_PAPER_STYLE)
    assert len(doc.invariants) == 1
    inv = doc.invariants[0]
    assert inv.context_type == "Spool"
    assert inv.name == "iv1"
    assert inv.body == ForAll(
        Nav(SelfRef(), "bChld"),
        "c",
        OrOp(IsTypeOf(VarRef("c"), "BSite"), IsTypeOf(VarRef("c"), "Job")),
    )


def test_parse_dangling_navigation_reports_position():
    with pytest.raises(ConstraintSyntaxError) as err:
        parse_constraints("context Room inv bad: self.")
    assert err.value.line == 1
    assert err.value.col >= 27


def test_parse_full_office_document(office_bgc):
    doc = parse_constraints(office_bgc)
    assert [(i.context_type, i.name) for i in doc.invariants] == [
        ("Spool", "iv1"),
        ("Spool", "iv2"),
        ("Room", "iv3"),
    ]
    iv3 = doc.invariants[2]
    assert isinstance(iv3.body, Let)
    assert iv3.body.name == "port"
    assert iv3.body.decl_type == "BPort"


def test_both_arrows_parse_to_same_ast(office_bgc):
    assert parse_constraints(office_bgc) == parse_constraints(office_bgc.replace("->", "-->"))


def test_print_parse_roundtrip(office_bgc):
    doc = parse_constraints(office_bgc)
    assert parse_constraints(format_constraints(doc)) == doc


@pytest.mark.parametrize(
    "bad",
    [
        "context",
        "inv iv1: self",
        "context Spool inv : self",
        "context Spool inv iv1 self",
        "context Spool inv iv1: self.bChld->forAll(c | )",
        "context Spool inv iv1: self.bChld->size(",
        "context Spool inv iv1: let x = 1 x",
        "context Spool inv iv1: 1 +",
    ],
)
def test_parser_rejects_out_of_grammar(bad):
    with pytest.raises(ConstraintSyntaxError):
        parse_constraints(bad)


def test_typecheck_rejects_unknown_edge(tg_sigma1):
    doc = parse_constraints("context Spool inv x: self.noSuchEdge->size() = 0")
    with pytest.raises(TypeCheckError):
        typecheck(doc, tg_sigma1)


def test_typecheck_rejects_unknown_context(tg_sigma1):
    doc = parse_constraints("context Desk inv x: true")
    with pytest.raises(TypeCheckError):
        typecheck(doc, tg_sigma1)


def test_typecheck_rejects_inapplicable_edge(tg_sigma1):
    # bPoints starts at BLink; Spool is a place, not a link.
    doc = parse_constraints("context Spool inv x: self.bPoints->size() = 0")
    with pytest.raises(TypeCheckError):
        typecheck(doc, tg_sigma1)


def test_office_invariants_pass_on_printer(office_bgc, g1, tg_sigma1):
    result = evaluate(parse_constraints(office_bgc), g1, tg_sigma1)
    assert result.all_passed
    # One Spool (iv1, iv2) plus two Rooms (iv3).
    assert len(result.checks) == 4


def test_user_in_spool_fails_iv1(office_bgc, b1, tg_sigma1):
    moved = replace(b1, prnt={**b1.prnt, "v5": "v3"})
    g, _ = encode(moved)
    result = evaluate(parse_constraints(office_bgc), g, tg_sigma1)
    failed = {(c.invariant, c.node) for c in result.failures()}
    assert failed == {("iv1", "n:v3")}
    (failure,) = result.failures()
    assert failure.trace == ("n:v3.bChld = {n:v5, s:0}", "forAll(c) fails at n:v5")


def _spool_with_jobs(job_count: int, with_site: bool) -> Bigraph:
    sig = make_signature(
        [("Job", 0), ("User", 1), ("Room", 1), ("Spool", 1), ("Printer", 2), ("Computer", 1)]
    )
    nodes = {"sp"} | {f"j{i}" for i in range(job_count)}
    ctrl = {"sp": "Spool", **{f"j{i}": "Job" for i in range(job_count)}}
    prnt: dict = {"sp": 0, **{f"j{i}": "sp" for i in range(job_count)}}
    k = 0
    if with_site:
        prnt[0] = "sp"
        k = 1
    return Bigraph(
        signature=sig,
        nodes=nodes,
        ctrl=ctrl,
        prnt=prnt,
        link={("sp", 0): "y"},
        inner=Interface(k, frozenset()),
        outer=Interface(1, frozenset({"y"})),
    )


def test_iv2_capacity(office_bgc, tg_sigma1):
    doc = parse_constraints(office_bgc)

    full, _ = encode(_spool_with_jobs(100, with_site=False))
    assert all(c.passed for c in evaluate(doc, full, tg_sigma1).checks if c.invariant == "iv2")

    overfull, _ = encode(_spool_with_jobs(100, with_site=True))
    verdicts = [c for c in evaluate(doc, overfull, tg_sigma1).checks if c.invariant == "iv2"]
    assert verdicts and not any(c.passed for c in verdicts)


def test_iv3_rewired_room_port_fails(office_bgc, b1, tg_sigma1):
    rewired = replace(b1, link={**b1.link, ("v0", 0): "jeff"})
    g, _ = encode(rewired)
    result = evaluate(parse_constraints(office_bgc), g, tg_sigma1)
    (failure,) = result.failures()
    assert (failure.invariant, failure.node) == ("iv3", "n:v0")
    assert failure.trace == ("n:v0.bPorts = {p:v0:0}", "p:v0:0.bLink = {o:jeff}")


def test_vacuous_context_passes(tg_sigma1):
    doc = parse_constraints("context Computer inv x: false")
    g, _ = encode(_spool_with_jobs(1, with_site=False))
    result = evaluate(doc, g, tg_sigma1)
    assert result.checks == ()
    assert result.all_passed


def test_ocl_is_type_of_is_exact(g1, tg_sigma1):
    doc = parse_constraints("context Job inv exact: self.oclIsTypeOf(Job)")
    assert evaluate(doc, g1, tg_sigma1).all_passed
    doc2 = parse_constraints("context Job inv wider: self.oclIsTypeOf(BNode)")
    assert not evaluate(doc2, g1, tg_sigma1).all_passed


def test_subtype_instances_are_covered(g1, tg_sigma1):
    # Context BNode covers all control-typed nodes.
    doc = parse_constraints("context BNode inv any: true")
    result = evaluate(doc, g1, tg_sigma1)
    assert len(result.checks) == 7


def test_first_on_empty_is_evaluation_error(tg_sigma1):
    doc = parse_constraints("context Job inv bad: self.bPorts->first().oclIsTypeOf(BPort)")
    g, _ = encode(_spool_with_jobs(1, with_site=False))
    with pytest.raises(EvaluationError):
        evaluate(doc, g, tg_sigma1)


def test_navigation_from_empty_optional_yields_empty(tg_sigma1):
    # A root has no parent: self.bPrnt is an empty optional, so counting
    # over a further navigation sees an empty set.
    doc = parse_constraints("context BRoot inv none: self.bPrnt.bChld->size() = 0")
    g, _ = encode(_spool_with_jobs(1, with_site=False))
    assert evaluate(doc, g, tg_sigma1).all_passed
    # Only the navigation that has a start is traced.
    doc = parse_constraints("context BRoot inv some: self.bPrnt.bChld->size() > 0")
    (failure,) = evaluate(doc, g, tg_sigma1).failures()
    assert failure.trace == ("r:0.bPrnt = {}",)


NESTINGS = {
    "not": lambda depth: "not " * (depth - 1) + ("false" if depth % 2 == 0 else "true"),
    "and": lambda depth: " and ".join(["true"] * depth),
    "let": lambda depth: "let x : integer = 1 " * (depth - 1) + "true",
}


@pytest.mark.parametrize("nesting", sorted(NESTINGS))
def test_deepest_allowed_invariant_is_checked_printed_and_evaluated(nesting, g1, tg_sigma1):
    doc = parse_constraints("context Spool inv deep: " + NESTINGS[nesting](MAX_DEPTH))
    assert evaluate(doc, g1, tg_sigma1).all_passed
    assert parse_constraints(format_constraints(doc)) == doc


@pytest.mark.parametrize("nesting", sorted(NESTINGS))
def test_deeper_invariant_is_a_syntax_error_at_its_name(nesting):
    with pytest.raises(ConstraintSyntaxError, match="nested 201 levels deep") as err:
        parse_constraints("context Spool\n  inv deep: " + NESTINGS[nesting](MAX_DEPTH + 1))
    assert (err.value.line, err.value.col) == (2, 7)


def _levels(expr) -> int:
    """The depth of ``expr``'s syntax tree, as ``MAX_DEPTH`` bounds it."""
    return 1 + max((_levels(child) for child in vars(expr).values() if isinstance(child, Expr)), default=0)


def _nest(depth: int, leaf, wrap):
    """``wrap`` applied to ``leaf`` until the tree is ``depth`` levels deep."""
    expr = leaf
    while _levels(expr) < depth:
        expr = wrap(expr)
    return expr


TRUE, FALSE = BoolLit(True), BoolLit(False)

#: One construct nested in one of its fields, built to a given depth, and
#: whether the chain types as a Spool invariant. All but ``not`` and
#: ``nav-over-or`` nest where the printer puts parentheses, or in an
#: iteration body.
CHAINS = {
    "not": (lambda d: _nest(d, TRUE if d % 2 else FALSE, NotOp), True),
    "nav-over-or": (lambda d: _nest(d, OrOp(TRUE, TRUE), lambda e: Nav(e, "bChld")), False),
    "forAll-body": (lambda d: _nest(d, TRUE, lambda e: ForAll(Nav(SelfRef(), "bChld"), "c", e)), True),
    "exists-body": (lambda d: _nest(d, TRUE, lambda e: Exists(Nav(SelfRef(), "bChld"), "c", e)), True),
    "implies-left": (lambda d: _nest(d, TRUE, lambda e: ImpliesOp(e, TRUE)), True),
    "and-right": (lambda d: _nest(d, TRUE, lambda e: AndOp(TRUE, e)), True),
    "or-right": (lambda d: _nest(d, TRUE, lambda e: OrOp(FALSE, e)), True),
    "let-value": (
        lambda d: Let(
            "x",
            "integer",
            _nest(d - 1, IntLit(1), lambda e: Let("x", "integer", e, VarRef("x"))),
            Compare("=", VarRef("x"), IntLit(1)),
        ),
        True,
    ),
    "compare-left": (lambda d: _nest(d, IntLit(1), lambda e: Compare("=", e, IntLit(1))), False),
}


@pytest.mark.parametrize("chain", list(CHAINS))
def test_deepest_printed_invariant_parses_back(chain, g1, tg_sigma1):
    """The chain ``MAX_DEPTH`` levels deep parses back equal from its
    printed text, and one level deeper is refused at the invariant's name."""
    build, typed = CHAINS[chain]
    doc = ConstraintDoc((Invariant("Spool", "deep", build(MAX_DEPTH)),))
    assert _levels(doc.invariants[0].body) == MAX_DEPTH
    assert parse_constraints(format_constraints(doc)) == doc
    if typed:
        assert evaluate(doc, g1, tg_sigma1).all_passed
    deeper = build(MAX_DEPTH + 1)
    with pytest.raises(ConstraintSyntaxError, match="nested 201 levels deep") as err:
        parse_constraints(f"context Spool\n  inv deep:\n    {_fmt(deeper, _PREC_LET)}\n")
    assert (err.value.line, err.value.col) == (2, 7)
    with pytest.raises(ValueError, match="^invariant deep is nested 201 levels deep"):
        format_constraints(ConstraintDoc((Invariant("Spool", "deep", deeper),)))


@pytest.mark.parametrize("depth", [MAX_DEPTH + 2, 10_000])
def test_an_invariant_built_deeper_than_the_parser_takes_is_refused(depth, g1, tg_sigma1):
    """A document built in code is not bound by ``MAX_DEPTH``: checking,
    evaluating or printing one deeper than that refuses it by name and
    depth, before anything recurses."""
    body = TRUE
    for _ in range(depth - 1):
        body = AndOp(TRUE, body)
    doc = ConstraintDoc((Invariant("Spool", "ok", TRUE), Invariant("Spool", "deep", body)))
    reason = f"invariant deep is nested {depth} levels deep (at most {MAX_DEPTH})"
    for check in (lambda: typecheck(doc, tg_sigma1), lambda: evaluate(doc, g1, tg_sigma1)):
        with pytest.raises(TypeCheckError) as err:
            check()
        assert str(err.value) == reason
    with pytest.raises(ValueError) as err:
        format_constraints(doc)
    assert str(err.value) == reason


def test_parentheses_beyond_the_parser_are_a_syntax_error():
    assert parse_constraints("context Spool inv p: " + "(" * 50 + "true" + ")" * 50).invariants
    with pytest.raises(ConstraintSyntaxError, match="nested too deeply"):
        parse_constraints("context Spool inv p: " + "(" * 100_000 + "true" + ")" * 100_000)


IV1_ORACLE_DOC = "context Spool inv iv1: self.bChld->forAll(c | c.oclIsTypeOf(BSite) or c.oclIsTypeOf(Job))"


@given(st.integers(min_value=0, max_value=50_000))
@settings(max_examples=100, deadline=None)
def test_iv1_agrees_with_direct_check(seed):
    sig = make_signature(
        [("Job", 0), ("User", 1), ("Room", 1), ("Spool", 1), ("Printer", 2), ("Computer", 1)]
    )
    b = random_bigraph(random.Random(seed), sig=sig)
    g, _ = encode(b)
    tg = extend_for_signature(sig)
    result = evaluate(parse_constraints(IV1_ORACLE_DOC), g, tg)
    verdicts = {c.node: c.passed for c in result.checks}

    expected = {}
    for n in g.graph.nodes:
        if g.node_types[n] != "Spool":
            continue
        children = [g.graph.tgt[e] for e in ref_outgoing(g, n, "bChld")]
        expected[n] = all(g.node_types[c] in ("BSite", "Job") for c in children)
    assert verdicts == expected


# Every TypeCheckError raise site, with the exact message. The middle
# column marked the cases run against a type graph with an edge type to
# a type that is not a node type, which its graph now refuses
# (``test_an_edge_type_to_no_node_type_is_refused_before_typecheck``); it
# stays, all false, so that each case keeps its id.
TYPE_ERRORS = [
    ("context Spool inv x: z", False, "unknown variable 'z'"),
    ("context Spool inv x: 1.bChld->size() = 0", False, "navigation 'bChld' over a non-object"),
    ("context Spool inv x: self.noSuchEdge->size() = 0", False, "unknown edge type 'noSuchEdge'"),
    ("context Spool inv x: self.bPoints->size() = 0", False, "edge type 'bPoints' not applicable to 'Spool'"),
    ("context Spool inv x: true.oclIsTypeOf(Job)", False, "type test or cast over a non-object"),
    ("context Spool inv x: self.oclAsType(Desk).bChld->size() = 0", False, "unknown type name 'Desk'"),
    ("context Spool inv x: self->size() = 0", False, "size() over a non-collection"),
    ("context Spool inv x: self->first().oclIsTypeOf(Job)", False, "first() over a non-collection"),
    ("context Spool inv x: self->forAll(c | true)", False, "iteration over a non-collection"),
    ("context Spool inv x: self.bChld->exists(c | c.bChld)", False, "iteration body must be boolean"),
    ("context Spool inv x: not 1", False, "'not' needs a boolean operand"),
    ("context Spool inv x: true implies self", False, "boolean connective over non-boolean operand"),
    ("context Spool inv x: true < 1", False, "comparison '<' needs integer operands"),
    ("context Spool inv x: let n : integer = true n = 1", False, "let 'n' declared integer but bound to non-integer"),
    ("context Spool inv x: let d : Desk = self true", False, "unknown type name 'Desk'"),
    ("context Spool inv x: let j : Job = self true", False, "let 'j' binding does not conform to 'Job'"),
    ("context Spool inv x: true context Desk inv y: true", False, "unknown context type 'Desk' in y"),
    ("context Spool inv x: self.bChld->size()", False, "invariant x is not a boolean expression"),
]


@pytest.mark.parametrize("text,ghost_end,message", TYPE_ERRORS)
def test_type_error_messages(text, ghost_end, message, g1, tg_sigma1):
    tg = tg_sigma1
    doc = parse_constraints(text)
    with pytest.raises(TypeCheckError) as err:
        typecheck(doc, tg)
    assert str(err.value) == message
    with pytest.raises(TypeCheckError) as err:
        evaluate(doc, g1, tg)
    assert str(err.value) == message


def test_an_edge_type_to_no_node_type_is_refused_before_typecheck(tg_sigma1):
    """An edge type ``bGhost`` from ``BNode`` to a type that is not a node
    type makes no type graph, so no navigation along it is typed."""
    graph = tg_sigma1.graph
    with pytest.raises(ValueError, match="^Graph.tgt holds 'Ghost', which is not a node$"):
        Graph(
            nodes=graph.nodes,
            edges=graph.edges | {"bGhost"},
            src={**graph.src, "bGhost": "BNode"},
            tgt={**graph.tgt, "bGhost": "Ghost"},
        )


def test_an_unknown_comparison_operator_is_a_type_error(g1, tg_sigma1):
    """The one raise site that no parsed text reaches: the parser builds
    only ``= < <= > >=``, but a ``Compare`` built by hand may hold any
    operator, which the printer prints and the parser would refuse."""
    doc = ConstraintDoc((Invariant("Spool", "x", Compare("!=", IntLit(1), IntLit(1))),))
    with pytest.raises(TypeCheckError) as err:
        typecheck(doc, tg_sigma1)
    assert str(err.value) == "unknown comparison operator '!='"
    with pytest.raises(TypeCheckError):
        evaluate(doc, g1, tg_sigma1)


def test_a_node_of_a_type_outside_the_type_graph_is_no_context_instance(g1, tg_sigma1):
    """Not even when ``tg.inherits`` names that type as a subtype of the
    context type (which ``check_type_graph`` reports as ``tg-inherits-ref``)."""
    tg = replace(tg_sigma1, inherits=tg_sigma1.inherits | {("Ghost", "Spool")})
    doc = parse_constraints("context Spool inv x: true context BNode inv y: true")
    nodes = {c.node for c in evaluate(doc, retype_node(g1, "n:v3", "Ghost"), tg).checks}
    assert "n:v3" not in nodes and "n:v0" in nodes


EVALUATION_ERRORS = {
    "two-parents": (
        "context Job inv x: self.bPrnt.oclIsTypeOf(User)",
        lambda g: add_edge(g, "bPrnt:n:v6:n:v0", "bPrnt", "n:v6", "n:v0"),
        "navigation 'bPrnt' from n:v6 hit 2 targets",
    ),
    "test-empty": ("context BRoot inv x: self.bPrnt.oclIsTypeOf(Job)", None, "type test on an empty value"),
    "cast-empty": (
        "context BRoot inv x: self.bPrnt.oclAsType(BNode).oclIsTypeOf(Job)",
        None,
        "cast of an empty value",
    ),
    "cast-fails": (
        "context Spool inv x: self.oclAsType(Job).oclIsTypeOf(Job)",
        None,
        "cannot cast n:v3 ('Spool') to 'Job'",
    ),
    "first-empty": (
        "context Job inv x: self.bPorts->first().oclIsTypeOf(BPort)",
        None,
        "first() on an empty collection",
    ),
    # The parser gives only int literals; a hand-built one reaches the check.
    "non-integers": (
        ConstraintDoc((Invariant("Spool", "x", Compare("=", IntLit("1"), IntLit(1))),)),
        None,
        "comparison '=' on non-integers",
    ),
}


@pytest.mark.parametrize("case", sorted(EVALUATION_ERRORS))
def test_evaluation_error_messages(case, g1, tg_sigma1):
    doc, edit, message = EVALUATION_ERRORS[case]
    if isinstance(doc, str):
        doc = parse_constraints(doc)
    with pytest.raises(EvaluationError) as err:
        evaluate(doc, edit(g1) if edit else g1, tg_sigma1)
    assert str(err.value) == message


def test_a_navigated_edge_without_a_tgt_is_refused_at_construction(g1):
    """Spool ``n:v3``'s ``bChld`` edge to its site without a ``tgt``: no
    navigation reaches it, since its graph is refused."""
    tgt = {e: t for e, t in g1.graph.tgt.items() if e != "bChld:n:v3:s:0"}
    with pytest.raises(ValueError, match="^Graph.tgt lacks 'bChld:n:v3:s:0', which is an edge$"):
        replace(g1.graph, tgt=tgt)


def test_every_invariant_is_typed_before_any_is_evaluated(g1, tg_sigma1):
    # The first invariant fails at runtime on every Job, the second does
    # not type: the type error wins.
    doc = parse_constraints(
        "context Job inv x: self.bPorts->first().oclIsTypeOf(BPort)\ncontext Spool inv y: not 1"
    )
    with pytest.raises(TypeCheckError, match="'not' needs a boolean operand"):
        evaluate(doc, g1, tg_sigma1)


@pytest.mark.parametrize(
    "text",
    [
        # Each iterator rebinds c to the Spool's site; after it, c is self again.
        "context Spool inv x: let c : BNode = self (self.bChld->forAll(c | true) and c.oclIsTypeOf(Spool))",
        "context Spool inv x: let c : BNode = self (self.bChld->exists(c | true) and c.oclIsTypeOf(Spool))",
        "context Spool inv x: let n : integer = 1 (let n : integer = 2 n = 2) and n = 1",
    ],
)
def test_bindings_do_not_leak_out_of_their_body(text, g1, tg_sigma1):
    result = evaluate(parse_constraints(text), g1, tg_sigma1)
    assert [(c.node, c.passed) for c in result.checks] == [("n:v3", True)]
