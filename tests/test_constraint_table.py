"""``typecheck`` and ``evaluate``, which compile each invariant once into
an evaluator, against verbatim copies of the two tree walks they replace.

The references below are those copies (``_check_expr``, ``typecheck``,
``_render``, ``_eval`` and ``evaluate``), renamed with a ``ref_`` prefix,
with the constants they read under their own names, and a verbatim copy
of the printer's branch-per-construct ``_fmt`` as ``ref_fmt``, against
which the table-driven printer must print the same text. On type-directed
well-typed documents and on arbitrary, mostly ill-typed ones, evaluated on
clean random encodings, on encodings with an edge's ``tgt`` dropped or a
second ``bPrnt`` edge, and on ``mutated_encodings``, the new code must
raise the same ``TypeCheckError`` or ``EvaluationError`` message, or
return identical ``InvariantCheck``s in identical order. The arbitrary
documents also drive the printer round trip.
"""

from __future__ import annotations

import random
from typing import Mapping

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bigtg import InstanceGraph, TypeGraph, encode, extend_for_signature, make_signature
from bigtg.constraints import (
    INTEGER_TYPE,
    KEYWORDS,
    AndOp,
    AsType,
    BoolLit,
    CheckResult,
    Compare,
    ConstraintDoc,
    EvaluationError,
    Exists,
    Expr,
    FirstOp,
    ForAll,
    ImpliesOp,
    IntLit,
    Invariant,
    InvariantCheck,
    IsTypeOf,
    Let,
    Nav,
    NotOp,
    OrOp,
    SelfRef,
    SizeOp,
    TypeCheckError,
    VarRef,
    evaluate,
    format_constraints,
    parse_constraints,
    typecheck,
)
from bigtg.generators import random_bigraph
from bigtg.typedgraph import all_super, conforms, outgoing

from helpers import add_edge, drop_tgt, mutated_encodings, outcome

_INT = ("int",)
_BOOL = ("bool",)


def ref_check_expr(expr: Expr, env: Mapping[str, tuple], tg: TypeGraph) -> tuple:
    if isinstance(expr, SelfRef):
        return env["self"]
    if isinstance(expr, VarRef):
        if expr.name not in env:
            raise TypeCheckError(f"unknown variable {expr.name!r}")
        return env[expr.name]
    if isinstance(expr, IntLit):
        return _INT
    if isinstance(expr, BoolLit):
        return _BOOL
    if isinstance(expr, Nav):
        ot = ref_check_expr(expr.obj, env, tg)
        if ot[0] != "obj":
            raise TypeCheckError(f"navigation {expr.edge!r} over a non-object")
        if expr.edge not in tg.edge_types:
            raise TypeCheckError(f"unknown edge type {expr.edge!r}")
        source, target = tg.graph.src.get(expr.edge), tg.graph.tgt.get(expr.edge)
        if source not in tg.node_types or target not in tg.node_types:
            raise TypeCheckError(f"edge type {expr.edge!r} lacks a node type as src or tgt")
        if not conforms(tg, ot[1], source):
            raise TypeCheckError(f"edge type {expr.edge!r} not applicable to {ot[1]!r}")
        upper = tg.mult[expr.edge].ub if expr.edge in tg.mult else None
        return ("obj", target) if upper == 1 else ("coll", target)
    if isinstance(expr, (IsTypeOf, AsType)):
        ot = ref_check_expr(expr.obj, env, tg)
        if ot[0] != "obj":
            raise TypeCheckError("type test or cast over a non-object")
        if expr.type_name not in tg.node_types:
            raise TypeCheckError(f"unknown type name {expr.type_name!r}")
        return _BOOL if isinstance(expr, IsTypeOf) else ("obj", expr.type_name)
    if isinstance(expr, SizeOp):
        if ref_check_expr(expr.obj, env, tg)[0] != "coll":
            raise TypeCheckError("size() over a non-collection")
        return _INT
    if isinstance(expr, FirstOp):
        ot = ref_check_expr(expr.obj, env, tg)
        if ot[0] != "coll":
            raise TypeCheckError("first() over a non-collection")
        return ("obj", ot[1])
    if isinstance(expr, (ForAll, Exists)):
        ot = ref_check_expr(expr.obj, env, tg)
        if ot[0] != "coll":
            raise TypeCheckError("iteration over a non-collection")
        inner = dict(env)
        inner[expr.var] = ("obj", ot[1])
        if ref_check_expr(expr.body, inner, tg) != _BOOL:
            raise TypeCheckError("iteration body must be boolean")
        return _BOOL
    if isinstance(expr, NotOp):
        if ref_check_expr(expr.operand, env, tg) != _BOOL:
            raise TypeCheckError("'not' needs a boolean operand")
        return _BOOL
    if isinstance(expr, (AndOp, OrOp, ImpliesOp)):
        for side in (expr.left, expr.right):
            if ref_check_expr(side, env, tg) != _BOOL:
                raise TypeCheckError("boolean connective over non-boolean operand")
        return _BOOL
    if isinstance(expr, Compare):
        for side in (expr.left, expr.right):
            if ref_check_expr(side, env, tg) != _INT:
                raise TypeCheckError(f"comparison {expr.op!r} needs integer operands")
        return _BOOL
    if isinstance(expr, Let):
        vt = ref_check_expr(expr.value, env, tg)
        if expr.decl_type == INTEGER_TYPE:
            if vt != _INT:
                raise TypeCheckError(f"let {expr.name!r} declared integer but bound to non-integer")
            bound = _INT
        else:
            if expr.decl_type not in tg.node_types:
                raise TypeCheckError(f"unknown type name {expr.decl_type!r}")
            if vt[0] != "obj" or not conforms(tg, vt[1], expr.decl_type):
                raise TypeCheckError(f"let {expr.name!r} binding does not conform to {expr.decl_type!r}")
            bound = ("obj", expr.decl_type)
        inner = dict(env)
        inner[expr.name] = bound
        return ref_check_expr(expr.body, inner, tg)
    raise TypeError(f"unknown expression node {expr!r}")


def ref_typecheck(doc: ConstraintDoc, tg: TypeGraph) -> None:
    """Raise :class:`TypeCheckError` if the document does not fit ``tg``,
    including a navigation along an edge type that lacks a node type as
    ``src`` or ``tgt``."""
    for inv in doc.invariants:
        if inv.context_type not in tg.node_types:
            raise TypeCheckError(f"unknown context type {inv.context_type!r} in {inv.name}")
        if ref_check_expr(inv.body, {"self": ("obj", inv.context_type)}, tg) != _BOOL:
            raise TypeCheckError(f"invariant {inv.name} is not a boolean expression")


_EMPTY: tuple = ()


def ref_render(value: object) -> str:
    if isinstance(value, tuple):
        return "{" + ", ".join(value) + "}"
    return str(value)


def ref_eval(expr: Expr, env: dict[str, object], g: InstanceGraph, tg: TypeGraph, trace: list[str]) -> object:
    if isinstance(expr, SelfRef):
        return env["self"]
    if isinstance(expr, VarRef):
        return env[expr.name]
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, BoolLit):
        return expr.value
    if isinstance(expr, Nav):
        source = ref_eval(expr.obj, env, g, tg, trace)
        if source == _EMPTY:
            return _EMPTY
        try:
            targets = sorted({g.graph.tgt[e] for e in outgoing(g, source, expr.edge)})
        except KeyError as exc:
            raise EvaluationError(
                f"navigation {expr.edge!r} from {source} follows edge {exc.args[0]} without a tgt"
            ) from None
        upper = tg.mult[expr.edge].ub if expr.edge in tg.mult else None
        trace.append(f"{source}.{expr.edge} = {ref_render(tuple(targets))}")
        if upper == 1:
            if len(targets) > 1:
                raise EvaluationError(f"navigation {expr.edge!r} from {source} hit {len(targets)} targets")
            return targets[0] if targets else _EMPTY
        return tuple(targets)
    if isinstance(expr, IsTypeOf):
        value = ref_eval(expr.obj, env, g, tg, trace)
        if value == _EMPTY:
            raise EvaluationError("type test on an empty value")
        return g.node_types.get(value) == expr.type_name
    if isinstance(expr, AsType):
        value = ref_eval(expr.obj, env, g, tg, trace)
        if value == _EMPTY:
            raise EvaluationError("cast of an empty value")
        actual = g.node_types.get(value)
        if actual != expr.type_name and not conforms(tg, actual, expr.type_name):
            raise EvaluationError(f"cannot cast {value} ({actual!r}) to {expr.type_name!r}")
        return value
    if isinstance(expr, SizeOp):
        return len(ref_eval(expr.obj, env, g, tg, trace))
    if isinstance(expr, FirstOp):
        coll = ref_eval(expr.obj, env, g, tg, trace)
        if not coll:
            raise EvaluationError("first() on an empty collection")
        return coll[0]
    if isinstance(expr, ForAll):
        coll = ref_eval(expr.obj, env, g, tg, trace)
        for item in coll:
            inner = dict(env)
            inner[expr.var] = item
            if not ref_eval(expr.body, inner, g, tg, trace):
                trace.append(f"forAll({expr.var}) fails at {item}")
                return False
        return True
    if isinstance(expr, Exists):
        coll = ref_eval(expr.obj, env, g, tg, trace)
        for item in coll:
            inner = dict(env)
            inner[expr.var] = item
            if ref_eval(expr.body, inner, g, tg, trace):
                return True
        trace.append(f"exists({expr.var}) found no witness in {ref_render(tuple(coll))}")
        return False
    if isinstance(expr, NotOp):
        return not ref_eval(expr.operand, env, g, tg, trace)
    if isinstance(expr, AndOp):
        return bool(ref_eval(expr.left, env, g, tg, trace)) and bool(ref_eval(expr.right, env, g, tg, trace))
    if isinstance(expr, OrOp):
        return bool(ref_eval(expr.left, env, g, tg, trace)) or bool(ref_eval(expr.right, env, g, tg, trace))
    if isinstance(expr, ImpliesOp):
        if not ref_eval(expr.left, env, g, tg, trace):
            return True
        return bool(ref_eval(expr.right, env, g, tg, trace))
    if isinstance(expr, Compare):
        left = ref_eval(expr.left, env, g, tg, trace)
        right = ref_eval(expr.right, env, g, tg, trace)
        if not isinstance(left, int) or not isinstance(right, int):
            raise EvaluationError(f"comparison {expr.op!r} on non-integers")
        if expr.op == "=":
            return left == right
        if expr.op == "<":
            return left < right
        if expr.op == "<=":
            return left <= right
        if expr.op == ">":
            return left > right
        return left >= right
    if isinstance(expr, Let):
        inner = dict(env)
        inner[expr.name] = ref_eval(expr.value, env, g, tg, trace)
        return ref_eval(expr.body, inner, g, tg, trace)
    raise TypeError(f"unknown expression node {expr!r}")


def ref_evaluate(doc: ConstraintDoc, g: InstanceGraph, tg: TypeGraph) -> CheckResult:
    """Evaluate every invariant on every instance of its context type
    (or a subtype). Failed checks keep their navigation trace. Raises
    ``TypeCheckError`` if ``doc`` does not fit ``tg``, and
    ``EvaluationError`` on an undefined case, such as a navigation along
    an edge without a ``tgt``."""
    ref_typecheck(doc, tg)
    checks: list[InvariantCheck] = []
    for inv in doc.invariants:
        instances = sorted(
            n
            for n in g.graph.nodes
            if g.node_types.get(n) in tg.node_types
            and conforms(tg, g.node_types[n], inv.context_type)
        )
        for n in instances:
            trace: list[str] = []
            passed = bool(ref_eval(inv.body, {"self": n}, g, tg, trace))
            checks.append(
                InvariantCheck(inv.name, inv.context_type, n, passed, () if passed else tuple(trace))
            )
    return CheckResult(tuple(checks))


_PREC_LET = 0
_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_NOT = 4
_PREC_CMP = 5
_PREC_POSTFIX = 6


def ref_fmt(expr: Expr, parent: int) -> str:
    def wrap(text: str, prec: int) -> str:
        return f"({text})" if prec < parent else text

    if isinstance(expr, SelfRef):
        return "self"
    if isinstance(expr, VarRef):
        return expr.name
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, Nav):
        return wrap(f"{ref_fmt(expr.obj, _PREC_POSTFIX)}.{expr.edge}", _PREC_POSTFIX)
    if isinstance(expr, IsTypeOf):
        return wrap(f"{ref_fmt(expr.obj, _PREC_POSTFIX)}.oclIsTypeOf({expr.type_name})", _PREC_POSTFIX)
    if isinstance(expr, AsType):
        return wrap(f"{ref_fmt(expr.obj, _PREC_POSTFIX)}.oclAsType({expr.type_name})", _PREC_POSTFIX)
    if isinstance(expr, SizeOp):
        return wrap(f"{ref_fmt(expr.obj, _PREC_POSTFIX)}->size()", _PREC_POSTFIX)
    if isinstance(expr, FirstOp):
        return wrap(f"{ref_fmt(expr.obj, _PREC_POSTFIX)}->first()", _PREC_POSTFIX)
    if isinstance(expr, ForAll):
        return wrap(
            f"{ref_fmt(expr.obj, _PREC_POSTFIX)}->forAll({expr.var} | {ref_fmt(expr.body, _PREC_LET)})",
            _PREC_POSTFIX,
        )
    if isinstance(expr, Exists):
        return wrap(
            f"{ref_fmt(expr.obj, _PREC_POSTFIX)}->exists({expr.var} | {ref_fmt(expr.body, _PREC_LET)})",
            _PREC_POSTFIX,
        )
    if isinstance(expr, NotOp):
        return wrap(f"not {ref_fmt(expr.operand, _PREC_NOT)}", _PREC_NOT)
    if isinstance(expr, AndOp):
        return wrap(f"{ref_fmt(expr.left, _PREC_AND)} and {ref_fmt(expr.right, _PREC_AND + 1)}", _PREC_AND)
    if isinstance(expr, OrOp):
        return wrap(f"{ref_fmt(expr.left, _PREC_OR)} or {ref_fmt(expr.right, _PREC_OR + 1)}", _PREC_OR)
    if isinstance(expr, ImpliesOp):
        return wrap(
            f"{ref_fmt(expr.left, _PREC_IMPLIES + 1)} implies {ref_fmt(expr.right, _PREC_IMPLIES)}",
            _PREC_IMPLIES,
        )
    if isinstance(expr, Compare):
        return wrap(
            f"{ref_fmt(expr.left, _PREC_POSTFIX)} {expr.op} {ref_fmt(expr.right, _PREC_POSTFIX)}",
            _PREC_CMP,
        )
    if isinstance(expr, Let):
        return wrap(
            f"let {expr.name} : {expr.decl_type} = {ref_fmt(expr.value, _PREC_IMPLIES)} {ref_fmt(expr.body, _PREC_LET)}",
            _PREC_LET,
        )
    raise TypeError(f"unknown expression node {expr!r}")


# ---------------------------------------------------------------------------
# Instance graphs

PRINTER_SIG = make_signature(
    [("Job", 0), ("User", 1), ("Room", 1), ("Spool", 1), ("Printer", 2), ("Computer", 1)]
)


@st.composite
def instance_graphs(draw):
    """A type graph and an instance graph over it: a clean random encoding
    over the printer signature, the same with one edge's ``tgt`` dropped
    or a second ``bPrnt`` edge, or an edited encoding from
    ``mutated_encodings`` over a random signature."""
    kind = draw(st.sampled_from(("clean", "no-tgt", "second-parent", "edited")))
    event(f"graph: {kind}")
    if kind == "edited":
        g, b = draw(mutated_encodings())
        return extend_for_signature(b.signature), g
    g, _ = encode(random_bigraph(random.Random(draw(st.integers(0, 1_000_000))), sig=PRINTER_SIG, max_nodes=15))
    edges = sorted(g.graph.edges)
    if kind == "no-tgt" and edges:
        g = drop_tgt(g, draw(st.sampled_from(edges)))
    children = sorted(n for n in g.graph.nodes if outgoing(g, n, "bPrnt"))
    if kind == "second-parent" and children:
        child, parent = draw(st.sampled_from(children)), draw(st.sampled_from(sorted(g.graph.nodes)))
        g = add_edge(g, f"bPrnt:{child}:{parent}:again", "bPrnt", child, parent)
    return extend_for_signature(PRINTER_SIG), g


# ---------------------------------------------------------------------------
# Documents

NAMES = ("x", "y", "c")
OPS = ("=", "<", "<=", ">", ">=")


def _edges_from(tg: TypeGraph, t: str) -> list[str]:
    """The edge types that navigation may follow from type ``t``."""
    return [
        e
        for e in sorted(tg.edge_types)
        if tg.graph.src.get(e) in tg.node_types
        and tg.graph.tgt.get(e) in tg.node_types
        and conforms(tg, t, tg.graph.src[e])
    ]


def _single(tg: TypeGraph, e: str) -> bool:
    return e in tg.mult and tg.mult[e].ub == 1


def _typed(draw, tg: TypeGraph, env: dict, want: str, depth: int) -> tuple[Expr, tuple]:
    """An expression of kind ``want`` (bool, int, obj or coll) that type
    checks under ``env`` (variable -> static type), with its type. Names
    come from a small pool, so bindings shadow one another."""
    types = sorted(tg.node_types)

    def sub(kind: str, scope: dict = env) -> tuple[Expr, tuple]:
        return _typed(draw, tg, scope, kind, depth - 1)

    if depth > 0 and want != "coll" and draw(st.integers(0, 5)) == 0:
        name = draw(st.sampled_from(NAMES))
        if draw(st.booleans()):
            (value, bound), decl = sub("int"), INTEGER_TYPE
        else:
            value, vt = sub("obj")
            decl = draw(st.sampled_from(sorted(({vt[1]} | all_super(tg, vt[1])) & tg.node_types)))
            bound = ("obj", decl)
        body, bt = sub(want, {**env, name: bound})
        return Let(name, decl, value, body), bt
    if want == "bool":
        kinds = ("lit", "is", "forAll", "exists", "not", "and", "or", "implies", "compare")
        kind = draw(st.sampled_from(kinds)) if depth > 0 else "lit"
        if kind == "lit":
            return BoolLit(draw(st.booleans())), _BOOL
        if kind == "is":
            return IsTypeOf(sub("obj")[0], draw(st.sampled_from(types))), _BOOL
        if kind in ("forAll", "exists"):
            coll, ct = sub("coll")
            var = draw(st.sampled_from(NAMES))
            body, _ = sub("bool", {**env, var: ("obj", ct[1])})
            return (ForAll if kind == "forAll" else Exists)(coll, var, body), _BOOL
        if kind == "not":
            return NotOp(sub("bool")[0]), _BOOL
        if kind == "compare":
            return Compare(draw(st.sampled_from(OPS)), sub("int")[0], sub("int")[0]), _BOOL
        cls = {"and": AndOp, "or": OrOp, "implies": ImpliesOp}[kind]
        return cls(sub("bool")[0], sub("bool")[0]), _BOOL
    if want == "int":
        ints = sorted(v for v, t in env.items() if t == _INT)
        kind = draw(st.sampled_from(("lit", "var", "size") if depth > 0 else ("lit", "var")))
        if kind == "var" and ints:
            return VarRef(draw(st.sampled_from(ints))), _INT
        if kind == "size":
            return SizeOp(sub("coll")[0]), _INT
        return IntLit(draw(st.integers(0, 4))), _INT
    if want == "obj":
        kind = draw(st.sampled_from(("var", "nav", "cast", "first") if depth > 0 else ("var",)))
        if kind == "nav":
            obj, ot = sub("obj")
            edges = [e for e in _edges_from(tg, ot[1]) if _single(tg, e)]
            if edges:
                edge = draw(st.sampled_from(edges))
                return Nav(obj, edge), ("obj", tg.graph.tgt[edge])
        if kind == "cast":
            t = draw(st.sampled_from(types))
            return AsType(sub("obj")[0], t), ("obj", t)
        if kind == "first":
            coll, ct = sub("coll")
            return FirstOp(coll), ("obj", ct[1])
        name = draw(st.sampled_from(sorted(v for v, t in env.items() if t[0] == "obj")))
        return (SelfRef() if name == "self" else VarRef(name)), env[name]
    # A collection: follow single-valued edges until a many-valued one applies.
    obj, ot = sub("obj")
    while True:
        edges = _edges_from(tg, ot[1])
        many = [e for e in edges if not _single(tg, e)]
        edge = draw(st.sampled_from(many or edges))
        obj, ot = Nav(obj, edge), ("obj" if _single(tg, edge) else "coll", tg.graph.tgt[edge])
        if ot[0] == "coll":
            return obj, ot


def _idents():
    """Identifiers that are not keywords: a pool that the type graphs know,
    and arbitrary ones."""
    known = st.sampled_from(
        ("x", "y", "c", "integer", "bChld", "bPrnt", "bPorts", "bNode", "bLink", "bPoints")
        + ("BNode", "BPlace", "BPort", "BLink", "BRoot", "Job", "Spool", "K0", "Ghost")
    )
    arbitrary = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True).filter(lambda s: s not in KEYWORDS)
    return st.one_of(known, arbitrary)


def _arbitrary_exprs():
    names = _idents()
    leaves = st.one_of(
        st.just(SelfRef()),
        st.builds(VarRef, names),
        st.builds(IntLit, st.integers(0, 10**6)),
        st.builds(BoolLit, st.booleans()),
    )

    def extend(inner):
        return st.one_of(
            st.builds(Nav, inner, names),
            st.builds(IsTypeOf, inner, names),
            st.builds(AsType, inner, names),
            st.builds(SizeOp, inner),
            st.builds(FirstOp, inner),
            st.builds(ForAll, inner, names, inner),
            st.builds(Exists, inner, names, inner),
            st.builds(NotOp, inner),
            st.builds(AndOp, inner, inner),
            st.builds(OrOp, inner, inner),
            st.builds(ImpliesOp, inner, inner),
            st.builds(Compare, st.sampled_from(OPS), inner, inner),
            st.builds(Let, names, names, inner, inner),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def arbitrary_docs():
    """Documents of up to three arbitrary invariants; most do not type."""
    invariant = st.builds(Invariant, _idents(), _idents(), _arbitrary_exprs())
    return st.lists(invariant, max_size=3).map(lambda invs: ConstraintDoc(tuple(invs)))


@st.composite
def typed_cases(draw):
    """A graph and a document of one to three well-typed invariants over
    its type graph; a quarter of them end with an arbitrary invariant, so
    a later type error meets earlier invariants that may fail at runtime."""
    tg, g = draw(instance_graphs())
    invariants = []
    for i in range(draw(st.integers(1, 3))):
        context = draw(st.sampled_from(sorted(tg.node_types)))
        body, _ = _typed(draw, tg, {"self": ("obj", context)}, "bool", draw(st.integers(1, 4)))
        invariants.append(Invariant(context, f"inv{i}", body))
    if draw(st.integers(0, 3)) == 0:
        invariants.extend(draw(arbitrary_docs()).invariants)
    return ConstraintDoc(tuple(invariants)), g, tg


# ---------------------------------------------------------------------------
# Properties


def assert_same_outcome(doc: ConstraintDoc, g: InstanceGraph, tg: TypeGraph) -> None:
    want = outcome(ref_typecheck, doc, tg)
    got = outcome(typecheck, doc, tg)
    assert got == want if want is not None else len(got) == len(doc.invariants)
    want = outcome(ref_evaluate, doc, g, tg)
    assert outcome(evaluate, doc, g, tg) == want
    if isinstance(want, CheckResult):
        event("all passed" if want.all_passed else "a check failed")
    else:
        event(want[0])


@given(typed_cases())
@settings(max_examples=300, deadline=None)
def test_well_typed_documents_match_reference(case):
    assert_same_outcome(*case)


@given(arbitrary_docs(), instance_graphs())
@settings(max_examples=300, deadline=None)
def test_arbitrary_documents_match_reference(doc, case):
    tg, g = case
    assert_same_outcome(doc, g, tg)


@given(arbitrary_docs())
@settings(max_examples=300, deadline=None)
def test_printer_round_trips_arbitrary_documents(doc):
    assert parse_constraints(format_constraints(doc)) == doc


@given(arbitrary_docs())
@settings(max_examples=300, deadline=None)
def test_printer_prints_the_reference_text(doc):
    want = [f"    {ref_fmt(inv.body, _PREC_LET)}" for inv in doc.invariants]
    assert [line for line in format_constraints(doc).splitlines() if line.startswith("    ")] == want


def test_printer_refuses_an_unknown_node():
    with pytest.raises(TypeError, match="unknown expression node"):
        format_constraints(ConstraintDoc((Invariant("N", "i", NotOp(object())),)))
