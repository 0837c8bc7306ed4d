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

from ._value import field, frozen
from .report import Finding

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


@frozen
class Signature:
    """An ordered set of controls plus an arity (port count) for each."""

    controls: tuple[Control, ...] = ()
    arities: Mapping[str, int] = field(default_factory=dict)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.controls)

    def has_control(self, name: object) -> bool:
        """Whether ``name`` is declared; a value that cannot be hashed,
        such as a list, names no control."""
        try:
            return name in self.arities
        except TypeError:
            return False

    def arity(self, name: str) -> int:
        return self.arities[name]


def is_arity(value: object) -> bool:
    """Whether ``value`` is a non-negative integer (a ``bool`` is not)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def bad_arities(sig: Signature) -> list[Finding]:
    """One ``sig-arity`` finding per arity of ``sig`` that is not a
    non-negative integer, in the order of ``sig.arities``."""
    return [
        Finding("sig-arity", f"arity[{name}]", f"arity {arity!r} of {name!r} is not a non-negative integer")
        for name, arity in sig.arities.items()
        if not is_arity(arity)
    ]


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
        if self.width < 0:
            raise ValueError("interface width must be non-negative")
        object.__setattr__(self, "names", frozenset(self.names))


Port = namedtuple("Port", ("node", "index"))
Port.__doc__ = """The ``index``-th connection point of ``node``."""


# prnt maps sites (ints) and nodes (strs) to nodes (strs) or roots (ints);
# link maps inner names (strs) and ports to edges or outer names (strs).
PlaceChild = int | str
PlaceParent = str | int
Point = str | Port


@frozen
class Bigraph:
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


def _ports(nodes: Iterable[object], arities: Iterable[int]) -> Iterator[Port]:
    """``Port(v, i)`` for each node ``v`` and each ``i`` below its arity, in
    that order. Each port is built by ``tuple.__new__``, as ``Port`` itself
    does, but without a Python frame per port."""
    return map(tuple.__new__, repeat(Port), chain.from_iterable(map(zip, map(repeat, nodes), map(range, arities))))


def _port_counts(b: Bigraph) -> dict[object, int]:
    """The number of ports of each node whose control is declared: the
    control's arity, or 0 when that is not a non-negative integer."""
    sig = b.signature
    arities = {c: arity for c, arity in sig.arities.items() if is_arity(arity)}
    controls = list(map(b.ctrl.get, b.nodes))
    declared = list(map(sig.has_control, controls))
    return dict(zip(compress(b.nodes, declared), map(arities.get, compress(controls, declared), repeat(0))))


def ports_of(b: Bigraph) -> set[Port]:
    """All ports of ``b``: one per node and arity slot of its control. A
    node whose control is missing or undeclared, or whose arity is not a
    non-negative integer, has none."""
    counts = _port_counts(b)
    return set(_ports(counts, counts.values()))


def _fmt_point(p: Point) -> str:
    if isinstance(p, Port):
        return f"({p.node},{p.index})"
    return str(p)


#: ``isinstance(v, str)`` and ``isinstance(v, Port)`` as one-argument
#: functions that ``map`` and ``filter`` call without a Python frame.
_is_str = str.__instancecheck__
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
