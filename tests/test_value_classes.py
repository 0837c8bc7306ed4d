"""The frozen value classes, built by ``bigtg._value.frozen``, against
verbatim copies of the ``@dataclass(frozen=True)`` definitions they
replace.

The references below are those copies, renamed with a ``ref_`` prefix:
each keeps its decorator, docstring, fields and ``__post_init__``. Their
other methods and properties are left out, because the decorator neither
reads nor writes them. ``Port``, now a ``collections.namedtuple``, is
checked against its ``typing.NamedTuple`` definition.

On hypothesis-drawn field values, mostly of each field's annotated type
and sometimes of any type, the two classes must agree on the outcome of
construction (``__post_init__``'s ``ValueError`` and ``TypeError``
included), field values, ``repr``, ``==`` between two drawn instances
and against the other class with the same fields (both give
``NotImplemented``), ``hash``, which fields two instances built from the
same call share (a fresh dict per instance for each
``field(default_factory=dict)``), the ``AttributeError`` on assigning or
deleting an attribute, and ``replace``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigtg import _value, bigraph, constraints, mapping, replace, report, typedgraph, variability
from bigtg.bigraph import Interface, Port


# ---------------------------------------------------------------------------
# From bigtg.report


@dataclass(frozen=True)
class ref_Finding:
    """One rule violation, printable as a single diagnostic line."""

    code: str
    location: str
    message: str
    severity: str = "error"


@dataclass(frozen=True)
class ref_ValidationReport:
    """An ordered collection of findings; empty means the check passed."""

    findings: tuple[Finding, ...] = ()


# ---------------------------------------------------------------------------
# From bigtg.bigraph


@dataclass(frozen=True)
class ref_Control:
    """A node type declared by a signature."""

    name: str


@dataclass(frozen=True)
class ref_Signature:
    """An ordered set of controls plus an arity (port count) for each."""

    controls: tuple[Control, ...] = ()
    arities: Mapping[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class ref_Interface:
    """A place width together with a finite set of link names."""

    width: int = 0
    names: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError("interface width must be non-negative")
        object.__setattr__(self, "names", frozenset(self.names))


@dataclass(frozen=True)
class ref_Bigraph:
    """A concrete pure bigraph over a basic signature.

    ``inner`` is the interface below (sites and inner names), ``outer``
    the interface above (roots and outer names). Values are treated as
    immutable after construction; derive modified copies instead of
    mutating in place.
    """

    signature: Signature
    nodes: frozenset[str] = frozenset()
    edges: frozenset[str] = frozenset()
    ctrl: Mapping[str, str] = field(default_factory=dict)
    prnt: Mapping[PlaceChild, PlaceParent] = field(default_factory=dict)
    link: Mapping[Point, str] = field(default_factory=dict)
    inner: Interface = Interface()
    outer: Interface = Interface()

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "edges", frozenset(self.edges))
        object.__setattr__(self, "ctrl", dict(self.ctrl))
        object.__setattr__(self, "prnt", dict(self.prnt))
        link = {
            (Port(*k) if isinstance(k, tuple) else k): v for k, v in self.link.items()
        }
        object.__setattr__(self, "link", link)


# ---------------------------------------------------------------------------
# From bigtg.typedgraph


@dataclass(frozen=True)
class ref_Graph:
    """A directed unlabelled graph with opaque node and edge identifiers."""

    nodes: frozenset[str] = frozenset()
    edges: frozenset[str] = frozenset()
    src: Mapping[str, str] = field(default_factory=dict)
    tgt: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "edges", frozenset(self.edges))
        object.__setattr__(self, "src", dict(self.src))
        object.__setattr__(self, "tgt", dict(self.tgt))


@dataclass(frozen=True)
class ref_Multiplicity:
    """A ``[lb,ub]`` bound on edge counts; ``ub=None`` means unbounded."""

    lb: int
    ub: int | None = None

    def __post_init__(self) -> None:
        if self.lb < 0:
            raise ValueError("multiplicity lower bound must be non-negative")
        if self.ub is not None and self.ub < self.lb:
            raise ValueError("multiplicity upper bound below lower bound")


@dataclass(frozen=True)
class ref_TypeGraph:
    """A metamodel: graph of types plus hierarchy, containment, opposites,
    multiplicities and attribute declarations."""

    graph: Graph
    inherits: frozenset[tuple[str, str]] = frozenset()
    abstracts: frozenset[str] = frozenset()
    containments: frozenset[str] = frozenset()
    opposites: frozenset[tuple[str, str]] = frozenset()
    mult: Mapping[str, Multiplicity] = field(default_factory=dict)
    attr_decls: Mapping[str, Mapping[str, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "inherits", frozenset(self.inherits))
        object.__setattr__(self, "abstracts", frozenset(self.abstracts))
        object.__setattr__(self, "containments", frozenset(self.containments))
        object.__setattr__(self, "opposites", frozenset(self.opposites))
        object.__setattr__(self, "mult", dict(self.mult))
        object.__setattr__(
            self, "attr_decls", {t: dict(a) for t, a in self.attr_decls.items()}
        )


@dataclass(frozen=True)
class ref_InstanceGraph:
    """A graph typed over a type graph, with node attribute values.

    The adjacency and attribute indexes are built on first use and kept,
    so the dicts of ``graph``, ``node_types``, ``edge_types`` and
    ``attrs`` must not be mutated after the first query; build a new
    graph (through the constructor or ``dataclasses.replace``) instead.
    """

    graph: Graph
    node_types: Mapping[str, str] = field(default_factory=dict)
    edge_types: Mapping[str, str] = field(default_factory=dict)
    attrs: Mapping[tuple[str, str], int | str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_types", dict(self.node_types))
        object.__setattr__(self, "edge_types", dict(self.edge_types))
        object.__setattr__(self, "attrs", dict(self.attrs))


# ---------------------------------------------------------------------------
# From bigtg.mapping


@dataclass(frozen=True)
class ref_ElementMap:
    """Bijection between the elements of a bigraph and instance-graph nodes."""

    forward: Mapping[Element, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "forward", dict(self.forward))


# ---------------------------------------------------------------------------
# From bigtg.variability


@dataclass(frozen=True)
class ref_FeatureConfig:
    """A set of selected leaf features."""

    selected: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "selected", frozenset(self.selected))


@dataclass(frozen=True)
class ref_AnnotatedTypeGraph:
    """A 150% type graph: the superimposition of all variants, with
    presence conditions keyed ``("node", t)``, ``("edge", e)``,
    ``("inherits", sub, sup)`` or ``("attr", t, a)``."""

    base: TypeGraph
    annotations: Mapping[tuple, Formula] = field(default_factory=dict)
    mult_overrides: Mapping[str, tuple[Formula, Multiplicity]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "annotations", dict(self.annotations))
        object.__setattr__(self, "mult_overrides", dict(self.mult_overrides))


# ---------------------------------------------------------------------------
# From bigtg.constraints


@dataclass(frozen=True)
class ref_SelfRef:
    pass


@dataclass(frozen=True)
class ref_VarRef:
    name: str


@dataclass(frozen=True)
class ref_IntLit:
    value: int


@dataclass(frozen=True)
class ref_BoolLit:
    value: bool


@dataclass(frozen=True)
class ref_Nav:
    obj: "Expr"
    edge: str


@dataclass(frozen=True)
class ref_IsTypeOf:
    obj: "Expr"
    type_name: str


@dataclass(frozen=True)
class ref_AsType:
    obj: "Expr"
    type_name: str


@dataclass(frozen=True)
class ref_SizeOp:
    obj: "Expr"


@dataclass(frozen=True)
class ref_FirstOp:
    obj: "Expr"


@dataclass(frozen=True)
class ref_ForAll:
    obj: "Expr"
    var: str
    body: "Expr"


@dataclass(frozen=True)
class ref_Exists:
    obj: "Expr"
    var: str
    body: "Expr"


@dataclass(frozen=True)
class ref_NotOp:
    operand: "Expr"


@dataclass(frozen=True)
class ref_AndOp:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class ref_OrOp:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class ref_ImpliesOp:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class ref_Compare:
    op: str  # one of = < <= > >=
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class ref_Let:
    name: str
    decl_type: str
    value: "Expr"
    body: "Expr"


@dataclass(frozen=True)
class ref_Invariant:
    context_type: str
    name: str
    body: Expr


@dataclass(frozen=True)
class ref_ConstraintDoc:
    invariants: tuple[Invariant, ...] = ()


@dataclass(frozen=True)
class ref__Token:
    kind: str  # name, keyword, int, op, eof
    value: str
    line: int
    col: int


@dataclass(frozen=True)
class ref_InvariantCheck:
    """Verdict of one invariant on one context instance."""

    invariant: str
    context_type: str
    node: str
    passed: bool
    trace: tuple[str, ...] = ()


@dataclass(frozen=True)
class ref_CheckResult:
    checks: tuple[InvariantCheck, ...] = ()


class ref_Port(NamedTuple):
    """The ``index``-th connection point of ``node``."""

    node: str
    index: int


# A named tuple prints its class's name; let both print the same.
ref_Port.__name__ = "Port"

#: The value classes by name, each from the module that defines it.
VALUE_CLASSES = {
    name: cls
    for module in (report, bigraph, typedgraph, mapping, variability, constraints)
    for name, cls in vars(module).items()
    if isinstance(cls, type) and "_fields" in vars(cls) and cls.__module__ == module.__name__
}
#: Each reference and the value class that replaced it.
PAIRS = [
    (ref, VALUE_CLASSES[ref.__name__.removeprefix("ref_")])
    for ref in list(globals().values())
    if isinstance(ref, type) and ref.__name__.startswith("ref_") and ref is not ref_Port
]
for _ref, _new in PAIRS:
    # A dataclass prints its class's qualified name; let both print the same.
    _ref.__qualname__ = _new.__qualname__

#: Plain values of any type, hashable or not.
_ANY = st.none() | st.booleans() | st.integers(-3, 5) | st.text(max_size=2) | st.lists(st.integers(0, 2), max_size=2)
_KEYS = st.text(max_size=2) | st.tuples(st.text(max_size=2), st.integers(0, 2))
_SCALARS = st.integers(-3, 5) | st.text(max_size=2) | st.tuples(st.text(max_size=2), st.integers(0, 2))


def _typed(annotation: str):
    """Values of the type a field's annotation names."""
    if "Mapping" in annotation:
        return st.dictionaries(_KEYS, _SCALARS | st.dictionaries(st.text(max_size=1), st.text(max_size=1)), max_size=3)
    if annotation.startswith("frozenset"):
        return st.frozensets(_KEYS, max_size=3) | st.lists(st.text(max_size=2), max_size=3)
    if annotation.startswith("tuple"):
        return st.tuples() | st.tuples(_SCALARS) | st.tuples(_SCALARS, _SCALARS)
    if annotation.startswith("int"):
        return st.integers(-3, 5) | st.none() if "None" in annotation else st.integers(-3, 5)
    if annotation == "bool":
        return st.booleans()
    return _SCALARS


def _field_values(ref) -> st.SearchStrategy[dict]:
    """A value for each field, of its annotated type nine times in ten."""
    fields = dataclasses.fields(ref)
    return st.fixed_dictionaries({f.name: st.one_of(*[_typed(f.type)] * 9, _ANY) for f in fields})


@st.composite
def _calls(draw, ref) -> tuple[tuple, dict]:
    """A well-formed call: a positional prefix of the fields, then some of
    the others by name; each field left out has a default."""
    fields = dataclasses.fields(ref)
    values = draw(_field_values(ref))
    required = sum(f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING for f in fields)
    k = draw(st.integers(0, len(fields)))
    named = [f.name for f in fields[k:] if draw(st.booleans()) or fields.index(f) < required]
    return tuple(values[f.name] for f in fields[:k]), {name: values[name] for name in named}


def _outcome(fn, *args, **kwargs):
    """The result of ``fn(*args, **kwargs)``, or the type and message it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return (type(exc).__name__, str(exc))


IDS = [new.__name__ for _, new in PAIRS]


def test_every_value_class_has_a_reference():
    assert sorted(VALUE_CLASSES) == sorted([new.__name__ for _, new in PAIRS] + ["Port"])


@pytest.mark.parametrize("ref, new", PAIRS, ids=IDS)
def test_fields_and_class_defaults_agree(ref, new):
    assert new._fields == tuple(f.name for f in dataclasses.fields(ref))
    for name in new._fields:
        assert hasattr(new, name) == hasattr(ref, name)
        if hasattr(ref, name):
            assert getattr(new, name) == getattr(ref, name)


@pytest.mark.parametrize("ref, new", PAIRS, ids=IDS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_construction_equality_hash_and_repr_agree(ref, new, data):
    args, kwargs = data.draw(_calls(ref))
    a, r = _outcome(new, *args, **kwargs), _outcome(ref, *args, **kwargs)
    if isinstance(r, tuple):
        assert a == r
        return
    fields = new._fields
    assert [getattr(a, f) for f in fields] == [getattr(r, f) for f in fields]
    assert repr(a) == repr(r)
    assert _outcome(hash, a) == _outcome(hash, r)
    # Another instance from the same call, and one from another call.
    a2, r2 = new(*args, **kwargs), ref(*args, **kwargs)
    assert (a == a2) == (r == r2) and (a != a2) == (r != r2)
    assert [getattr(a, f) is getattr(a2, f) for f in fields] == [getattr(r, f) is getattr(r2, f) for f in fields]
    other_args, other_kwargs = data.draw(_calls(ref))
    b, s = _outcome(new, *other_args, **other_kwargs), _outcome(ref, *other_args, **other_kwargs)
    if not isinstance(s, tuple):
        assert (a == b) == (r == s) and (b == a) == (s == r)
    # Never equal to an instance of another class with the same fields.
    assert a.__eq__(r) is NotImplemented and r.__eq__(a) is NotImplemented
    assert not a == r and a != r


@pytest.mark.parametrize("ref, new", PAIRS, ids=IDS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_assignment_and_deletion_raise_the_same_error(ref, new, data):
    args, kwargs = data.draw(_calls(ref))
    a, r = _outcome(new, *args, **kwargs), _outcome(ref, *args, **kwargs)
    if isinstance(r, tuple):
        return
    name = data.draw(st.sampled_from(new._fields + ("not_a_field",)) if new._fields else st.just("not_a_field"))
    value = data.draw(_ANY)
    for act in (lambda obj: setattr(obj, name, value), lambda obj: delattr(obj, name)):
        with pytest.raises(AttributeError) as got:
            act(a)
        with pytest.raises(AttributeError) as want:
            act(r)
        assert (type(got.value).__name__, str(got.value)) == (type(want.value).__name__, str(want.value))
    assert [getattr(a, f) for f in new._fields] == [getattr(r, f) for f in new._fields]


@pytest.mark.parametrize("ref, new", PAIRS, ids=IDS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_replace_agrees(ref, new, data):
    args, kwargs = data.draw(_calls(ref))
    a, r = _outcome(new, *args, **kwargs), _outcome(ref, *args, **kwargs)
    if isinstance(r, tuple):
        return
    changes = data.draw(st.dictionaries(st.sampled_from(new._fields + ("not_a_field",)), _ANY, max_size=3))
    got, want = _outcome(lambda: replace(a, **changes)), _outcome(lambda: dataclasses.replace(r, **changes))
    if isinstance(want, tuple):
        # A call that does not fit raises TypeError; __post_init__ raises its own.
        assert got[0] == want[0] and (want[0] == "TypeError" and "not_a_field" in changes or got == want)
    else:
        assert type(got) is new
        assert (repr(got), _outcome(hash, got)) == (repr(want), _outcome(hash, want))


@pytest.mark.parametrize("ref, new", PAIRS, ids=IDS)
def test_calls_that_do_not_fit_raise_type_error(ref, new):
    fields = dataclasses.fields(ref)
    values = [0] * len(fields)
    required = [f.name for f in fields if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    bad_calls = [((*values, 0), {}), ((), {"not_a_field": 0, **dict.fromkeys(required, 0)})]
    if fields:
        bad_calls.append(((0,), {fields[0].name: 0}))
    if required:
        bad_calls.append(((), {}))
    for args, kwargs in bad_calls:
        with pytest.raises(TypeError):
            ref(*args, **kwargs)
        with pytest.raises(TypeError):
            new(*args, **kwargs)


@given(st.integers(-3, 5), st.integers(-3, 5) | st.none())
def test_multiplicity_and_interface_refuse_the_same_bounds(lb, ub):
    assert repr(_outcome(typedgraph.Multiplicity, lb, ub)) == repr(_outcome(ref_Multiplicity, lb, ub))
    assert repr(_outcome(Interface, lb, names=["x"])) == repr(_outcome(ref_Interface, lb, names=["x"]))


@given(st.text(max_size=3), st.integers(-2, 12), st.text(max_size=3), st.integers(-2, 12))
def test_port_agrees_with_its_named_tuple(node, index, node2, index2):
    assert Port._fields == ref_Port._fields
    p, q, rp, rq = Port(node, index), Port(node=node2, index=index2), ref_Port(node, index), ref_Port(node2, index2)
    assert (repr(p), hash(p), p == q, p < q, tuple(p)) == (repr(rp), hash(rp), rp == rq, rp < rq, tuple(rp))
    assert p == rp and p._replace(index=index2) == rp._replace(index=index2)


def test_cached_indexes_survive_freezing():
    g = typedgraph.InstanceGraph(typedgraph.Graph({"a", "b"}, {"e"}, {"e": "a"}, {"e": "b"}), edge_types={"e": "t"})
    assert g.edge_view is g.edge_view and g.edge_view.by_type == {"t": ["e"]}
    assert g.edge_view.by_source("t") is g.edge_view.by_source("t") and g.edge_view.by_source("t") == {"a": ["e"]}
    tg = typedgraph.TypeGraph(typedgraph.Graph({"A", "B"}), inherits={("B", "A")})
    assert tg._supertypes is tg._supertypes and tg._supertypes == {"B": frozenset({"A"})}
    with pytest.raises(_value.FrozenInstanceError):
        g.graph = None
