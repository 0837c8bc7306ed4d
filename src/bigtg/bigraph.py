"""Pure data model for concrete, non-binding bigraphs over basic signatures.

A bigraph couples a place graph (a forest of nodes below numbered roots,
with numbered sites as placeholders) with a link graph (inner names and
node ports wired to edges or outer names). Sites and roots are kept
implicit as the integer ranges ``0..k-1`` and ``0..m-1`` of the inner and
outer interface. All values are immutable; structural rules are checked by
:func:`validate_bigraph`, which reports violations instead of raising. It
lives in :mod:`bigtg.wellformed` and is imported on first access of
``bigraph.validate_bigraph`` (PEP 562), so a caller that never checks a
bigraph does not compile it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping
from itertools import chain, compress, repeat

from ._value import SCALAR, STR, as_dict, check_each, field, frozen, is_int

#: Node-type names of the base metamodel. Control names must not collide
#: with these: the control-compatible extension unions controls into the
#: same node-type namespace, so a clash would make typing ambiguous.
BASE_NODE_TYPE_NAMES = (
    "BPlace",
    "BRoot",
    "BNode",
    "BSite",
    "BPoint",
    "BLink",
    "BPort",
    "BInnerName",
    "BEdge",
    "BOuterName",
)
RESERVED_CONTROL_NAMES = frozenset(BASE_NODE_TYPE_NAMES)


class DuplicateControl(ValueError):
    """A control name was declared twice in one signature."""


class ReservedControlName(ValueError):
    """A control name collides with a base node-type name."""


@frozen
class Control:
    """A node type declared by a signature."""

    name: str

    def __post_init__(self) -> None:
        check_each(self, "name", STR, "a str", (self.name,))


@frozen
class Signature:
    """An ordered set of controls plus an arity (port count) for each.

    Construction copies ``controls`` to a tuple and ``arities`` to a dict,
    and raises ``TypeError`` unless each control is a :class:`Control`,
    each arity is keyed by exactly a ``str`` and each arity is a non-negative
    ``int`` (a ``bool`` is not); duplicate and reserved names are
    :func:`make_signature`'s to refuse."""

    controls: tuple[Control, ...] = ()
    arities: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        controls, arities = tuple(self.controls), as_dict(self.arities)
        check_each(self, "controls", Control.__instancecheck__, "a Control", controls)
        check_each(self, "arities", STR, "a str", arities)
        check_each(self, "arities", is_arity, "a non-negative int", arities.values())
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "arities", arities)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.controls)

    def has_control(self, name: str | None) -> bool:
        """Whether ``name`` is declared."""
        return name in self.arities

    def arity(self, name: str) -> int:
        return self.arities[name]


def is_arity(value: object) -> bool:
    """Whether ``value`` is a non-negative integer (a ``bool`` is not)."""
    return type(value) is int and value >= 0


def make_signature(pairs: Iterable[tuple[str, int]]) -> Signature:
    """Build a signature from ``(control name, arity)`` pairs.

    Raises :class:`DuplicateControl` for repeated names,
    :class:`ReservedControlName` for names clashing with the base node
    types, and ``ValueError`` for empty names or negative arities.
    """
    controls: list[Control] = []
    arities: dict[str, int] = {}
    for name, arity in pairs:
        if not name:
            raise ValueError("control name must be non-empty")
        if name in RESERVED_CONTROL_NAMES:
            raise ReservedControlName(f"control name {name!r} is reserved")
        if name in arities:
            raise DuplicateControl(f"control {name!r} declared twice")
        if not is_arity(arity):
            raise ValueError(f"arity of {name!r} must be a non-negative integer")
        controls.append(Control(name))
        arities[name] = arity
    return Signature(tuple(controls), arities)


@frozen
class Interface:
    """A place width together with a finite set of link names."""

    width: int = 0
    names: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        check_each(self, "width", is_int, "an int", (self.width,))
        if self.width < 0:
            raise ValueError("interface width must be non-negative")
        names = frozenset(self.names)
        check_each(self, "names", STR, "a str", names)
        object.__setattr__(self, "names", names)


Port = namedtuple("Port", ("node", "index"))
Port.__doc__ = """The ``index``-th connection point of ``node``."""


# prnt maps sites (ints) and nodes (strs) to nodes (strs) or roots (ints);
# link maps inner names (strs) and ports to edges or outer names (strs).
PlaceChild = int | str
PlaceParent = str | int
Point = str | Port


def _is_point(key: object) -> bool:
    """Whether ``key`` is a link key: a ``str``, or a :class:`Port` of a
    ``str`` and an ``int``."""
    return type(key) is str or (type(key) is Port and type(key[0]) is str and type(key[1]) is int)


@frozen
class Bigraph:
    """A concrete pure bigraph over a basic signature.

    ``inner`` is the interface below (sites and inner names), ``outer``
    the interface above (roots and outer names). Values are treated as
    immutable after construction; derive modified copies instead of
    mutating in place.

    Construction copies each set and map, makes each plain tuple that
    keys ``link`` a :class:`Port`, and raises ``TypeError`` unless the
    signature is a :class:`Signature`, the interfaces are
    :class:`Interface` values, ids and controls are exactly ``str``, each place
    (a key or value of ``prnt``) is an ``int`` or a ``str`` but no
    ``bool``, and each link key is a ``str`` or a ``Port`` of a ``str``
    and an ``int``. A node without a control, a control the signature
    does not declare, and every other broken rule are findings of
    :func:`validate_bigraph`.
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
        nodes, edges, ctrl, prnt, link = (
            frozenset(self.nodes), frozenset(self.edges), as_dict(self.ctrl), as_dict(self.prnt), as_dict(self.link)
        )
        if not all(map(_is_point, link)):
            link = {(Port(*k) if type(k) is tuple else k): v for k, v in link.items()}
        check_each(self, "signature", Signature.__instancecheck__, "a Signature", (self.signature,))
        check_each(self, "nodes", STR, "a str", nodes)
        check_each(self, "edges", STR, "a str", edges)
        check_each(self, "ctrl", STR, "a str", ctrl, ctrl.values())
        check_each(self, "prnt", SCALAR, "an int or a str", prnt, prnt.values())
        check_each(self, "link", _is_point, "a str or a Port of a str and an int", link)
        check_each(self, "link", STR, "a str", link.values())
        check_each(self, "inner", Interface.__instancecheck__, "an Interface", (self.inner,))
        check_each(self, "outer", Interface.__instancecheck__, "an Interface", (self.outer,))
        for name, value in zip(("nodes", "edges", "ctrl", "prnt", "link"), (nodes, edges, ctrl, prnt, link)):
            object.__setattr__(self, name, value)


def _ports(nodes: Iterable[object], arities: Iterable[int]) -> Iterator[Port]:
    """``Port(v, i)`` for each node ``v`` and each ``i`` below its arity, in
    that order. Each port is built by ``tuple.__new__``, as ``Port`` itself
    does, but without a Python frame per port."""
    return map(tuple.__new__, repeat(Port), chain.from_iterable(map(zip, map(repeat, nodes), map(range, arities))))


def _port_counts(b: Bigraph) -> dict[str, int]:
    """The number of ports of each node whose control is declared: the
    control's arity."""
    sig = b.signature
    controls = list(map(b.ctrl.get, b.nodes))
    declared = list(map(sig.has_control, controls))
    return dict(zip(compress(b.nodes, declared), map(sig.arities.__getitem__, compress(controls, declared))))


def ports_of(b: Bigraph) -> set[Port]:
    """All ports of ``b``: one per node and arity slot of its control. A
    node whose control is missing or undeclared has none."""
    counts = _port_counts(b)
    return set(_ports(counts, counts.values()))


def _fmt_point(p: Point) -> str:
    if isinstance(p, Port):
        return f"({p.node},{p.index})"
    return str(p)


#: ``isinstance(v, Port)`` as a one-argument function that ``map`` and
#: ``filter`` call without a Python frame.
_is_port = Port.__instancecheck__


def __getattr__(name: str) -> object:
    """``validate_bigraph``, loaded from :mod:`bigtg.wellformed` on first
    access (PEP 562) and then bound here like any other name, so that a
    tracer that patches this module's bindings finds it."""
    if name == "validate_bigraph":
        from .wellformed import validate_bigraph

        globals()[name] = validate_bigraph
        return validate_bigraph
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
