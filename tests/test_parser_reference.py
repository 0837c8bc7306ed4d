"""``parse_constraints``, which climbs ``_SYNTAX``'s precedences in one
``parse_expr``, against a verbatim copy of the parser it replaces, which
spent one method on each precedence level.

The reference below is that copy: the ``_Parser`` class as ``RefParser``,
``_depth`` as ``ref_depth`` and ``parse_constraints`` as
``ref_parse_constraints``; the tokenizer is shared. On inputs where two
precedence levels meet, on random token strings, and on printed arbitrary
documents before and after a few token edits, both must give an equal ``ConstraintDoc`` or a ``ConstraintSyntaxError`` at the same
line and column with the same message. The one exemption is an input
that the reference refuses with ``expression nested too deeply``: it spent
several frames on each level, and so ran out of stack on invariants
within ``MAX_DEPTH`` that the printer prints.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bigtg.constraints import (
    KEYWORDS,
    MAX_DEPTH,
    AndOp,
    AsType,
    BoolLit,
    Compare,
    ConstraintDoc,
    ConstraintSyntaxError,
    Exists,
    Expr,
    FirstOp,
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
    SizeOp,
    VarRef,
    _Token,
    _tokenize,
    format_constraints,
    parse_constraints,
)

from test_constraint_table import arbitrary_docs


class RefParser:
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

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.value != op:
            raise self.error(f"expected {op!r}")
        self.advance()

    def expect_keyword(self, kw: str) -> None:
        tok = self.peek()
        if tok.kind != "keyword" or tok.value != kw:
            raise self.error(f"expected keyword {kw!r}")
        self.advance()

    def expect_name(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "name":
            raise self.error(f"expected {what}")
        self.advance()
        return tok.value

    def at_keyword(self, kw: str) -> bool:
        tok = self.peek()
        return tok.kind == "keyword" and tok.value == kw

    def at_op(self, op: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.value == op

    def parse_doc(self) -> ConstraintDoc:
        invariants: list[Invariant] = []
        while not self.peek().kind == "eof":
            self.expect_keyword("context")
            context = self.expect_name("a context type name")
            while self.at_keyword("inv"):
                self.advance()
                at = self.peek()
                name = self.expect_name("an invariant name")
                self.expect_op(":")
                body = self.parse_expr()
                depth = ref_depth(body)
                if depth > MAX_DEPTH:
                    raise ConstraintSyntaxError(
                        f"invariant {name} is nested {depth} levels deep (at most {MAX_DEPTH})", at.line, at.col
                    )
                invariants.append(Invariant(context, name, body))
        return ConstraintDoc(tuple(invariants))

    def parse_expr(self) -> Expr:
        if self.at_keyword("let"):
            self.advance()
            name = self.expect_name("a binding name")
            self.expect_op(":")
            decl = self.expect_name("a type name")
            self.expect_op("=")
            value = self.parse_implies()
            body = self.parse_expr()
            return Let(name, decl, value, body)
        return self.parse_implies()

    def parse_implies(self) -> Expr:
        left = self.parse_or()
        if self.at_keyword("implies"):
            self.advance()
            return ImpliesOp(left, self.parse_implies())
        return left

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.at_keyword("or"):
            self.advance()
            left = OrOp(left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_unary()
        while self.at_keyword("and"):
            self.advance()
            left = AndOp(left, self.parse_unary())
        return left

    def parse_unary(self) -> Expr:
        if self.at_keyword("not"):
            self.advance()
            return NotOp(self.parse_unary())
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        left = self.parse_postfix()
        tok = self.peek()
        if tok.kind == "op" and tok.value in ("=", "<", "<=", ">", ">="):
            self.advance()
            return Compare(tok.value, left, self.parse_postfix())
        return left

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while True:
            if self.at_op("."):
                self.advance()
                tok = self.peek()
                if tok.kind == "keyword" and tok.value in ("oclIsTypeOf", "oclAsType"):
                    self.advance()
                    self.expect_op("(")
                    type_name = self.expect_name("a type name")
                    self.expect_op(")")
                    cls = IsTypeOf if tok.value == "oclIsTypeOf" else AsType
                    expr = cls(expr, type_name)
                else:
                    expr = Nav(expr, self.expect_name("an edge type name"))
            elif self.at_op("->"):
                self.advance()
                tok = self.peek()
                if tok.kind == "keyword" and tok.value in ("forAll", "exists"):
                    self.advance()
                    self.expect_op("(")
                    var = self.expect_name("an iterator variable")
                    self.expect_op("|")
                    body = self.parse_expr()
                    self.expect_op(")")
                    cls = ForAll if tok.value == "forAll" else Exists
                    expr = cls(expr, var, body)
                elif tok.kind == "keyword" and tok.value in ("size", "first"):
                    self.advance()
                    self.expect_op("(")
                    self.expect_op(")")
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
            self.expect_op(")")
            return inner
        raise self.error("expected an expression")


def ref_depth(expr: Expr) -> int:
    """The number of levels of ``expr``'s syntax tree, counted without
    recursion."""
    deepest, stack = 0, [(expr, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in vars(node).values() if isinstance(child, Expr))
    return deepest


def ref_parse_constraints(text: str) -> ConstraintDoc:
    """Parse a constraint document; errors carry line and column.

    Nesting that the parser cannot recurse through, and an invariant
    deeper than ``MAX_DEPTH`` levels, are syntax errors too: compilation,
    evaluation and printing recurse at every level."""
    parser = RefParser(_tokenize(text))
    try:
        return parser.parse_doc()
    except RecursionError:
        raise parser.error("expression nested too deeply") from None


# ---------------------------------------------------------------------------
# Properties


def parsed(parse, text: str):
    """The document ``parse`` reads from ``text``, or where and why it refused it."""
    try:
        return parse(text)
    except ConstraintSyntaxError as exc:
        return (exc.line, exc.col, str(exc))


def assert_parses_as_reference(text: str) -> str:
    """Check ``text`` against the reference; say which way the reference went."""
    want = parsed(ref_parse_constraints, text)
    if isinstance(want, tuple) and want[2].endswith("expression nested too deeply"):
        return "reference out of stack"
    assert parsed(parse_constraints, text) == want
    return "parsed" if isinstance(want, ConstraintDoc) else "refused"


#: Where one precedence level meets another, which the strategies below
#: seldom reach: each connective after and inside each other, ``let`` and
#: ``not`` where an operand of a tighter level starts, and a comparison
#: after a comparison.
BOUNDARIES = [
    "x = 1 = 2",
    "x < 1 and y >= 2 = 3",
    "not x = 1 = 2",
    "1 = not x",
    "x and not y or not z implies not w",
    "x and let y : integer = 1 y",
    "x implies let y : integer = 1 y",
    "not let y : integer = 1 y",
    "let y : integer = let z : integer = 1 z y",
    "let y : integer = x implies z y",
    "let y : integer = 1 y = 2 = 3",
    "x implies y implies z or w and v",
    "x or y and z implies w or v",
    "(x implies y) implies z",
    "x.e = y.e->size() and self->forAll(c | let d : T = c d)",
]


@pytest.mark.parametrize("body", BOUNDARIES)
def test_boundaries_parse_as_the_reference_does(body):
    assert_parses_as_reference(f"context Spool inv i: {body}")


OPERATORS = ("-->", "->", "<=", ">=", "(", ")", ".", "|", ":", "=", "<", ">")

#: Keywords, names, integers, every operator and line breaks.
TOKENS = st.one_of(
    st.sampled_from(sorted(KEYWORDS)),
    st.sampled_from(("x", "c", "Spool", "bChld", "integer")),
    st.integers(0, 100).map(str),
    st.sampled_from(OPERATORS + ("\n",)),
)

#: Token strings; a third of them start as an invariant, so that most
#: reach an expression.
token_strings = st.tuples(
    st.sampled_from(("", "", "context Spool inv i:")), st.lists(TOKENS, max_size=30)
).map(lambda parts: " ".join((parts[0], *parts[1])))


@given(token_strings)
@settings(max_examples=300, deadline=None)
def test_token_strings_parse_as_the_reference_does(text):
    event(assert_parses_as_reference(text))


_LEXEME = re.compile(r"-->|->|<=|>=|[().|:=<>]|\w+")
_DOCS = arbitrary_docs()
_EDITS = st.lists(st.tuples(st.integers(0, 10**4), st.sampled_from(("delete", "insert", "replace")), TOKENS), max_size=3)


@st.composite
def edited_documents(draw):
    """A printed arbitrary document, and its tokens after up to three
    edits: a token deleted, or one of ``TOKENS`` put in or in place."""
    text = format_constraints(draw(_DOCS))
    tokens = _LEXEME.findall(text)
    for at, edit, token in draw(_EDITS):
        i = at % (len(tokens) + 1)
        if edit == "insert":
            tokens.insert(i, token)
        else:
            tokens[i : i + 1] = [] if edit == "delete" else [token]
    return text, " ".join(tokens)


@given(edited_documents())
@settings(max_examples=300, deadline=None)
def test_printed_documents_parse_as_the_reference_does(case):
    """A printed document parses as the reference parses it, and so do
    its tokens after a few edits."""
    text, edited = case
    assert assert_parses_as_reference(text) == "parsed"
    event(assert_parses_as_reference(edited))
