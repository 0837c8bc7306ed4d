"""A small navigation-constraint language over typed instance graphs.

Constraint documents declare invariants per context node type. The
expression language covers ``self``, navigation along edge types,
``forAll``/``exists``/``size``/``first`` over navigation results, exact
type tests and casts, ``let`` bindings, boolean connectives and integer
comparisons. Invariants are evaluated on every instance of the context
type or one of its subtypes.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable, Mapping

from ._value import frozen
from .typedgraph import InstanceGraph, TypeGraph, all_sub, conforms, mult_of

KEYWORDS = frozenset(
    {
        "context",
        "inv",
        "let",
        "and",
        "or",
        "not",
        "implies",
        "forAll",
        "exists",
        "size",
        "first",
        "oclIsTypeOf",
        "oclAsType",
        "self",
        "true",
        "false",
    }
)

INTEGER_TYPE = "integer"

#: Deepest syntax tree an invariant may have.
MAX_DEPTH = 200


class ConstraintSyntaxError(Exception):
    """A parse failure, carrying the offending line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class TypeCheckError(Exception):
    """A constraint does not fit the type graph it is evaluated against."""


class EvaluationError(Exception):
    """A well-typed expression hit an undefined case at runtime."""


# ---------------------------------------------------------------------------
# Abstract syntax


@frozen
class SelfRef:
    pass


@frozen
class VarRef:
    name: str


@frozen
class IntLit:
    value: int


@frozen
class BoolLit:
    value: bool


@frozen
class Nav:
    obj: "Expr"
    edge: str


@frozen
class IsTypeOf:
    obj: "Expr"
    type_name: str


@frozen
class AsType:
    obj: "Expr"
    type_name: str


@frozen
class SizeOp:
    obj: "Expr"


@frozen
class FirstOp:
    obj: "Expr"


@frozen
class ForAll:
    obj: "Expr"
    var: str
    body: "Expr"


@frozen
class Exists:
    obj: "Expr"
    var: str
    body: "Expr"


@frozen
class NotOp:
    operand: "Expr"


@frozen
class AndOp:
    left: "Expr"
    right: "Expr"


@frozen
class OrOp:
    left: "Expr"
    right: "Expr"


@frozen
class ImpliesOp:
    left: "Expr"
    right: "Expr"


@frozen
class Compare:
    op: str  # one of = < <= > >=
    left: "Expr"
    right: "Expr"


@frozen
class Let:
    name: str
    decl_type: str
    value: "Expr"
    body: "Expr"


Expr = (
    SelfRef
    | VarRef
    | IntLit
    | BoolLit
    | Nav
    | IsTypeOf
    | AsType
    | SizeOp
    | FirstOp
    | ForAll
    | Exists
    | NotOp
    | AndOp
    | OrOp
    | ImpliesOp
    | Compare
    | Let
)


@frozen
class Invariant:
    context_type: str
    name: str
    body: Expr


@frozen
class ConstraintDoc:
    invariants: tuple[Invariant, ...] = ()


# ---------------------------------------------------------------------------
# Concrete syntax: one table for the printer and the parser

_PREC_LET = 0
_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_NOT = 4
_PREC_CMP = 5
_PREC_POSTFIX = 6


#: The syntax of each construct but ``BoolLit`` (a keyword), stated once:
#: its template over its fields, its precedence, and the least precedence
#: each sub-expression field takes without parentheses. The printer
#: parenthesizes by it, and the parser climbs by it.
_SYNTAX: dict[type, tuple[str, int, dict[str, int]]] = {
    SelfRef: ("self", _PREC_POSTFIX, {}),
    VarRef: ("{name}", _PREC_POSTFIX, {}),
    IntLit: ("{value}", _PREC_POSTFIX, {}),
    Nav: ("{obj}.{edge}", _PREC_POSTFIX, {"obj": _PREC_POSTFIX}),
    IsTypeOf: ("{obj}.oclIsTypeOf({type_name})", _PREC_POSTFIX, {"obj": _PREC_POSTFIX}),
    AsType: ("{obj}.oclAsType({type_name})", _PREC_POSTFIX, {"obj": _PREC_POSTFIX}),
    SizeOp: ("{obj}->size()", _PREC_POSTFIX, {"obj": _PREC_POSTFIX}),
    FirstOp: ("{obj}->first()", _PREC_POSTFIX, {"obj": _PREC_POSTFIX}),
    ForAll: ("{obj}->forAll({var} | {body})", _PREC_POSTFIX, {"obj": _PREC_POSTFIX, "body": _PREC_LET}),
    Exists: ("{obj}->exists({var} | {body})", _PREC_POSTFIX, {"obj": _PREC_POSTFIX, "body": _PREC_LET}),
    NotOp: ("not {operand}", _PREC_NOT, {"operand": _PREC_NOT}),
    AndOp: ("{left} and {right}", _PREC_AND, {"left": _PREC_AND, "right": _PREC_AND + 1}),
    OrOp: ("{left} or {right}", _PREC_OR, {"left": _PREC_OR, "right": _PREC_OR + 1}),
    ImpliesOp: ("{left} implies {right}", _PREC_IMPLIES, {"left": _PREC_IMPLIES + 1, "right": _PREC_IMPLIES}),
    Compare: ("{left} {op} {right}", _PREC_CMP, {"left": _PREC_POSTFIX, "right": _PREC_POSTFIX}),
    Let: ("let {name} : {decl_type} = {value} {body}", _PREC_LET, {"value": _PREC_IMPLIES, "body": _PREC_LET}),
}


# ---------------------------------------------------------------------------
# Lexer / parser


@frozen
class _Token:
    kind: str  # name, keyword, int, op, eof
    value: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<int>\d+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>-->|->|<=|>=|[().|:=<>])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ConstraintSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup == "int":
            tokens.append(_Token("int", lexeme, line, col))
        elif m.lastgroup == "name":
            kind = "keyword" if lexeme in KEYWORDS else "name"
            tokens.append(_Token(kind, lexeme, line, col))
        elif m.lastgroup == "op":
            value = "->" if lexeme == "-->" else lexeme
            tokens.append(_Token("op", value, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


#: The connectives read before an operand and between two, by token.
_PREFIX = {"let": Let, "not": NotOp}
_INFIX = {"implies": ImpliesOp, "or": OrOp, "and": AndOp, **dict.fromkeys(("=", "<", "<=", ">", ">="), Compare)}


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str) -> ConstraintSyntaxError:
        tok = self.peek()
        return ConstraintSyntaxError(message, tok.line, tok.col)

    def at(self, value: str) -> bool:
        """Whether the next token is the keyword or operator ``value``; no
        name or integer spells one."""
        return self.peek().value == value

    def expect(self, value: str) -> None:
        if not self.at(value):
            raise self.error(f"expected keyword {value!r}" if value in KEYWORDS else f"expected {value!r}")
        self.advance()

    def expect_name(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "name":
            raise self.error(f"expected {what}")
        self.advance()
        return tok.value

    def parse_doc(self) -> ConstraintDoc:
        invariants: list[Invariant] = []
        while not self.peek().kind == "eof":
            self.expect("context")
            context = self.expect_name("a context type name")
            while self.at("inv"):
                self.advance()
                at = self.peek()
                name = self.expect_name("an invariant name")
                self.expect(":")
                inv = Invariant(context, name, self.parse_expr())
                reason = _too_deep(inv)
                if reason:
                    raise ConstraintSyntaxError(reason, at.line, at.col)
                invariants.append(inv)
        return ConstraintDoc(tuple(invariants))

    def parse_expr(self, least: int = _PREC_LET) -> Expr:
        """An expression that binds at least as tightly as ``least``, by
        precedence climbing over ``_SYNTAX``: a ``let`` or ``not`` that
        binds that tightly, or else a postfix chain, then each infix
        connective that binds that tightly and takes what precedes it as
        its left operand."""
        cls = _PREFIX.get(self.peek().value)
        if cls is not None and _SYNTAX[cls][1] >= least:
            self.advance()
            _, prec, subs = _SYNTAX[cls]
            if cls is NotOp:
                left = NotOp(self.parse_expr(subs["operand"]))
            else:
                name = self.expect_name("a binding name")
                self.expect(":")
                decl = self.expect_name("a type name")
                self.expect("=")
                value = self.parse_expr(subs["value"])
                left = Let(name, decl, value, self.parse_expr(subs["body"]))
        else:
            left, prec = self.parse_postfix(), _PREC_POSTFIX
        while (cls := _INFIX.get(self.peek().value)) is not None:
            _, op_prec, subs = _SYNTAX[cls]
            if op_prec < least or prec < subs["left"]:
                return left
            op = self.advance().value
            right = self.parse_expr(subs["right"])
            left, prec = (Compare(op, left, right) if cls is Compare else cls(left, right)), op_prec
        return left

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while True:
            if self.at("."):
                self.advance()
                tok = self.peek()
                if tok.kind == "keyword" and tok.value in ("oclIsTypeOf", "oclAsType"):
                    self.advance()
                    self.expect("(")
                    type_name = self.expect_name("a type name")
                    self.expect(")")
                    cls = IsTypeOf if tok.value == "oclIsTypeOf" else AsType
                    expr = cls(expr, type_name)
                else:
                    expr = Nav(expr, self.expect_name("an edge type name"))
            elif self.at("->"):
                self.advance()
                tok = self.peek()
                if tok.kind == "keyword" and tok.value in ("forAll", "exists"):
                    self.advance()
                    self.expect("(")
                    var = self.expect_name("an iterator variable")
                    self.expect("|")
                    body = self.parse_expr()
                    self.expect(")")
                    cls = ForAll if tok.value == "forAll" else Exists
                    expr = cls(expr, var, body)
                elif tok.kind == "keyword" and tok.value in ("size", "first"):
                    self.advance()
                    self.expect("(")
                    self.expect(")")
                    expr = SizeOp(expr) if tok.value == "size" else FirstOp(expr)
                else:
                    raise self.error("expected a collection operation")
            else:
                return expr

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "keyword" and tok.value == "self":
            self.advance()
            return SelfRef()
        if tok.kind == "keyword" and tok.value in ("true", "false"):
            self.advance()
            return BoolLit(tok.value == "true")
        if tok.kind == "int":
            self.advance()
            return IntLit(int(tok.value))
        if tok.kind == "name":
            self.advance()
            return VarRef(tok.value)
        if tok.kind == "op" and tok.value == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise self.error("expected an expression")


def _depth(expr: Expr) -> int:
    """The number of levels of ``expr``'s syntax tree, counted without
    recursion."""
    deepest, stack = 0, [(expr, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in vars(node).values() if isinstance(child, Expr))
    return deepest


def parse_constraints(text: str) -> ConstraintDoc:
    """Parse a constraint document; errors carry line and column.

    An invariant deeper than ``MAX_DEPTH`` levels is a syntax error too,
    as compilation, evaluation and printing recurse at every level. The
    parser takes each level of an invariant within ``MAX_DEPTH`` in a few
    frames, so every document that ``format_constraints`` prints parses
    back; only redundant parentheses nested several hundred deep exhaust
    it, and they give ``expression nested too deeply``."""
    parser = _Parser(_tokenize(text))
    try:
        return parser.parse_doc()
    except RecursionError:
        raise parser.error("expression nested too deeply") from None


# ---------------------------------------------------------------------------
# Printer


def _fmt(expr: Expr, parent: int) -> str:
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if type(expr) not in _SYNTAX:
        raise TypeError(f"unknown expression node {expr!r}")
    template, prec, subs = _SYNTAX[type(expr)]
    text = template.format_map({**vars(expr), **{name: _fmt(getattr(expr, name), p) for name, p in subs.items()}})
    return f"({text})" if prec < parent else text


def _too_deep(inv: Invariant) -> str | None:
    """Why ``inv`` is deeper than ``MAX_DEPTH`` levels, if it is."""
    depth = _depth(inv.body)
    return f"invariant {inv.name} is nested {depth} levels deep (at most {MAX_DEPTH})" if depth > MAX_DEPTH else None


def format_constraints(doc: ConstraintDoc) -> str:
    """Render a document so that reparsing yields an equal AST. Raises
    ``ValueError`` on an invariant deeper than ``MAX_DEPTH`` levels, whose
    text the parser would refuse."""
    lines: list[str] = []
    current_context: str | None = None
    for inv in doc.invariants:
        reason = _too_deep(inv)
        if reason:
            raise ValueError(reason)
        if inv.context_type != current_context:
            lines.append(f"context {inv.context_type}")
            current_context = inv.context_type
        lines.append(f"  inv {inv.name}:")
        lines.append(f"    {_fmt(inv.body, _PREC_LET)}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Compilation and evaluation: each construct is typed and run in one place

_INT = ("int",)
_BOOL = ("bool",)
_EMPTY: tuple = ()
_COMPARE = {"=": operator.eq, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}

#: A compiled expression, evaluated as ``run(env, g, trace)``.
Run = Callable[[dict, InstanceGraph, list], object]


def _render(value: object) -> str:
    if isinstance(value, tuple):
        return "{" + ", ".join(value) + "}"
    return str(value)


def _expect(kind: str, message: str, expr: Expr, env_types: Mapping[str, tuple], tg: TypeGraph) -> tuple[tuple, Run]:
    """Compile ``expr``; raise ``TypeCheckError(message)`` unless its type is of ``kind``."""
    compiled = _compile(expr, env_types, tg)
    if compiled[0][0] != kind:
        raise TypeCheckError(message)
    return compiled


def _compile(expr: Expr, env_types: Mapping[str, tuple], tg: TypeGraph) -> tuple[tuple, Run]:
    """The static type of ``expr`` under ``env_types`` and its evaluator. Each
    branch types one construct, resolving once what it reads of ``tg``, then
    gives its runtime rule; the first ill-typed sub-expression, left to right, raises."""
    if isinstance(expr, SelfRef):
        return env_types["self"], lambda env, g, trace: env["self"]
    if isinstance(expr, VarRef):
        name = expr.name
        if name not in env_types:
            raise TypeCheckError(f"unknown variable {name!r}")
        return env_types[name], lambda env, g, trace: env[name]
    if isinstance(expr, (IntLit, BoolLit)):
        value = expr.value
        return (_INT if isinstance(expr, IntLit) else _BOOL), lambda env, g, trace: value
    if isinstance(expr, Nav):
        edge = expr.edge
        ot, obj = _expect("obj", f"navigation {edge!r} over a non-object", expr.obj, env_types, tg)
        if edge not in tg.edge_types:
            raise TypeCheckError(f"unknown edge type {edge!r}")
        source, target = tg.graph.src.get(edge), tg.graph.tgt.get(edge)
        if source not in tg.node_types or target not in tg.node_types:
            raise TypeCheckError(f"edge type {edge!r} lacks a node type as src or tgt")
        if not conforms(tg, ot[1], source):
            raise TypeCheckError(f"edge type {edge!r} not applicable to {ot[1]!r}")
        single = getattr(mult_of(tg, edge), "ub", None) == 1

        def navigate(env: dict, g: InstanceGraph, trace: list) -> object:
            start = obj(env, g, trace)
            if start == _EMPTY:
                return _EMPTY
            edges, tgt = g.edge_view.by_source(edge).get(start, _EMPTY), g.graph.tgt
            ends = {tgt.get(e) for e in edges}
            if None in ends:
                lacking = min(e for e in edges if tgt.get(e) is None)
                raise EvaluationError(f"navigation {edge!r} from {start} follows edge {lacking} without a tgt")
            targets = tuple(sorted(ends))
            trace.append(f"{start}.{edge} = {_render(targets)}")
            if not single:
                return targets
            if len(targets) > 1:
                raise EvaluationError(f"navigation {edge!r} from {start} hit {len(targets)} targets")
            return targets[0] if targets else _EMPTY

        return ("obj" if single else "coll", target), navigate
    if isinstance(expr, (IsTypeOf, AsType)):
        name = expr.type_name
        _, obj = _expect("obj", "type test or cast over a non-object", expr.obj, env_types, tg)
        if name not in tg.node_types:
            raise TypeCheckError(f"unknown type name {name!r}")
        if isinstance(expr, IsTypeOf):

            def is_type_of(env: dict, g: InstanceGraph, trace: list) -> object:
                value = obj(env, g, trace)
                if value == _EMPTY:
                    raise EvaluationError("type test on an empty value")
                return g.node_types.get(value) == name

            return _BOOL, is_type_of
        accepted = all_sub(tg, name) | {name}

        def as_type(env: dict, g: InstanceGraph, trace: list) -> object:
            value = obj(env, g, trace)
            if value == _EMPTY:
                raise EvaluationError("cast of an empty value")
            actual = g.node_types.get(value)
            if actual not in accepted:
                raise EvaluationError(f"cannot cast {value} ({actual!r}) to {name!r}")
            return value

        return ("obj", name), as_type
    if isinstance(expr, SizeOp):
        _, obj = _expect("coll", "size() over a non-collection", expr.obj, env_types, tg)
        return _INT, lambda env, g, trace: len(obj(env, g, trace))
    if isinstance(expr, FirstOp):
        ot, obj = _expect("coll", "first() over a non-collection", expr.obj, env_types, tg)

        def first(env: dict, g: InstanceGraph, trace: list) -> object:
            coll = obj(env, g, trace)
            if not coll:
                raise EvaluationError("first() on an empty collection")
            return coll[0]

        return ("obj", ot[1]), first
    if isinstance(expr, (ForAll, Exists)):
        var = expr.var
        ot, obj = _expect("coll", "iteration over a non-collection", expr.obj, env_types, tg)
        inner = {**env_types, var: ("obj", ot[1])}
        _, body = _expect("bool", "iteration body must be boolean", expr.body, inner, tg)
        if isinstance(expr, ForAll):

            def for_all(env: dict, g: InstanceGraph, trace: list) -> object:
                for item in obj(env, g, trace):
                    if not body({**env, var: item}, g, trace):
                        trace.append(f"forAll({var}) fails at {item}")
                        return False
                return True

            return _BOOL, for_all

        def exists(env: dict, g: InstanceGraph, trace: list) -> object:
            coll = obj(env, g, trace)
            for item in coll:
                if body({**env, var: item}, g, trace):
                    return True
            trace.append(f"exists({var}) found no witness in {_render(coll)}")
            return False

        return _BOOL, exists
    if isinstance(expr, NotOp):
        _, operand = _expect("bool", "'not' needs a boolean operand", expr.operand, env_types, tg)
        return _BOOL, lambda env, g, trace: not operand(env, g, trace)
    if isinstance(expr, (AndOp, OrOp, ImpliesOp)):
        message = "boolean connective over non-boolean operand"
        _, left = _expect("bool", message, expr.left, env_types, tg)
        _, right = _expect("bool", message, expr.right, env_types, tg)
        if isinstance(expr, AndOp):
            return _BOOL, lambda env, g, trace: bool(left(env, g, trace)) and bool(right(env, g, trace))
        if isinstance(expr, OrOp):
            return _BOOL, lambda env, g, trace: bool(left(env, g, trace)) or bool(right(env, g, trace))
        return _BOOL, lambda env, g, trace: not left(env, g, trace) or bool(right(env, g, trace))
    if isinstance(expr, Compare):
        op = expr.op
        holds = _COMPARE.get(op)
        if holds is None:
            raise TypeCheckError(f"unknown comparison operator {op!r}")
        message = f"comparison {op!r} needs integer operands"
        _, left = _expect("int", message, expr.left, env_types, tg)
        _, right = _expect("int", message, expr.right, env_types, tg)

        def compare(env: dict, g: InstanceGraph, trace: list) -> object:
            a, b = left(env, g, trace), right(env, g, trace)
            if not isinstance(a, int) or not isinstance(b, int):
                raise EvaluationError(f"comparison {op!r} on non-integers")
            return holds(a, b)

        return _BOOL, compare
    if isinstance(expr, Let):
        name, decl = expr.name, expr.decl_type
        vt, value = _compile(expr.value, env_types, tg)
        if decl == INTEGER_TYPE:
            if vt != _INT:
                raise TypeCheckError(f"let {name!r} declared integer but bound to non-integer")
            bound = _INT
        else:
            if decl not in tg.node_types:
                raise TypeCheckError(f"unknown type name {decl!r}")
            if vt[0] != "obj" or not conforms(tg, vt[1], decl):
                raise TypeCheckError(f"let {name!r} binding does not conform to {decl!r}")
            bound = ("obj", decl)
        bt, body = _compile(expr.body, {**env_types, name: bound}, tg)
        return bt, lambda env, g, trace: body({**env, name: value(env, g, trace)}, g, trace)
    raise TypeError(f"unknown expression node {expr!r}")


def typecheck(doc: ConstraintDoc, tg: TypeGraph) -> tuple[Run, ...]:
    """Compile every invariant of ``doc`` against ``tg`` and return one
    evaluator per invariant, in document order; each is called as
    ``run({"self": node}, g, trace)``. Raise :class:`TypeCheckError` at
    the first invariant that does not fit ``tg``, including a navigation
    along an edge type that lacks a node type as ``src`` or ``tgt``, or
    one deeper than ``MAX_DEPTH`` levels (a document built in code)."""
    runs: list[Run] = []
    for inv in doc.invariants:
        reason = _too_deep(inv)
        if reason:
            raise TypeCheckError(reason)
        if inv.context_type not in tg.node_types:
            raise TypeCheckError(f"unknown context type {inv.context_type!r} in {inv.name}")
        body_type, run = _compile(inv.body, {"self": ("obj", inv.context_type)}, tg)
        if body_type != _BOOL:
            raise TypeCheckError(f"invariant {inv.name} is not a boolean expression")
        runs.append(run)
    return tuple(runs)


@frozen
class InvariantCheck:
    """Verdict of one invariant on one context instance."""

    invariant: str
    context_type: str
    node: str
    passed: bool
    trace: tuple[str, ...] = ()


@frozen
class CheckResult:
    checks: tuple[InvariantCheck, ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[InvariantCheck]:
        return [c for c in self.checks if not c.passed]


def evaluate(doc: ConstraintDoc, g: InstanceGraph, tg: TypeGraph) -> CheckResult:
    """Evaluate every invariant on every instance of its context type
    (or a subtype), in sorted node order. Failed checks keep their
    navigation trace. Raises ``TypeCheckError`` if ``doc`` does not fit
    ``tg``, before anything is evaluated, and ``EvaluationError`` on an
    undefined case, such as a navigation along an edge without a ``tgt``:
    the first of the start node's edges of that type, in sorted order,
    that has none. An edge that no navigation reaches raises nothing.

    Cost: the context instances are read from the nodes of each node type
    in ``g.edge_view``. Each navigated edge type groups its edges by
    source once (``g.edge_view.by_source``), so a navigation reads one
    group and sorts its targets."""
    runs = typecheck(doc, tg)
    by_type = g.edge_view.by_node_type
    kinds = [t for t in by_type if t in tg.node_types]
    checks: list[InvariantCheck] = []
    for inv, run in zip(doc.invariants, runs):
        for n in sorted(n for t in kinds if conforms(tg, t, inv.context_type) for n in by_type[t]):
            trace: list[str] = []
            passed = bool(run({"self": n}, g, trace))
            checks.append(InvariantCheck(inv.name, inv.context_type, n, passed, () if passed else tuple(trace)))
    return CheckResult(tuple(checks))
