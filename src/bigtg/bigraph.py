"""Pure data model for concrete, non-binding bigraphs over basic signatures.

A bigraph couples a place graph (a forest of nodes below numbered roots,
with numbered sites as placeholders) with a link graph (inner names and
node ports wired to edges or outer names). Sites and roots are kept
implicit as the integer ranges ``0..k-1`` and ``0..m-1`` of the inner and
outer interface. All values are immutable; structural rules are checked by
:func:`validate_bigraph`, which reports violations instead of raising.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping

from ._value import field, frozen
from .report import Finding, ValidationReport, report_from
from .typedgraph import _cycles

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


def ports_of(b: Bigraph) -> set[Port]:
    """All ports of ``b``: one per node and arity slot of its control. A
    node whose control is missing or undeclared, or whose arity is not a
    non-negative integer, has none."""
    sig = b.signature
    arities = {c: arity for c, arity in sig.arities.items() if is_arity(arity)}
    return {Port(v, i) for v in b.nodes if sig.has_control(c := b.ctrl.get(v)) for i in range(arities.get(c, 0))}


def _fmt_point(p: Point) -> str:
    if isinstance(p, Port):
        return f"({p.node},{p.index})"
    return str(p)


def validate_bigraph(b: Bigraph) -> ValidationReport:
    """Check every structural invariant of a bigraph.

    Violations come back as report entries; an empty report means the
    bigraph is well-formed.
    """
    findings: list[Finding] = []

    def flag(code: str, location: str, message: str) -> None:
        findings.append(Finding(code, location, message))

    for name, arity in b.signature.arities.items():
        if not is_arity(arity):
            flag("sig-arity", f"arity[{name}]", f"arity {arity!r} of {name!r} is not a non-negative integer")

    names = b.inner.names | b.outer.names
    for v in sorted(b.nodes & b.edges):
        flag("id-overlap", v, "identifier is both a node and an edge")
    for v in sorted((b.nodes | b.edges) & names):
        flag("id-overlap", v, "identifier is both a node/edge and a link name")

    # Control map: total on nodes, controls drawn from the signature.
    for v in sorted(b.nodes):
        if v not in b.ctrl:
            flag("ctrl-total", f"ctrl[{v}]", "node has no control")
    for v in sorted(b.ctrl):
        if v not in b.nodes:
            flag("ctrl-domain", f"ctrl[{v}]", "control assigned to unknown node")
        elif not b.signature.has_control(b.ctrl[v]):
            flag(
                "ctrl-unknown-control",
                f"ctrl[{v}]",
                f"control {b.ctrl[v]!r} is not declared by the signature",
            )

    # Parent map: total on sites and nodes, parents are nodes or roots.
    k, m = b.inner.width, b.outer.width
    place_domain: set[PlaceChild] = set(range(k)) | set(b.nodes)
    for p in sorted(place_domain, key=_fmt_point):
        if p not in b.prnt:
            flag("prnt-total", f"prnt[{p}]", "site or node has no parent")
    for p in sorted(b.prnt, key=_fmt_point):
        if p not in place_domain:
            flag("prnt-domain", f"prnt[{p}]", "parent assigned to unknown site or node")
            continue
        parent = b.prnt[p]
        if isinstance(parent, bool) or not (
            (isinstance(parent, int) and 0 <= parent < m)
            or (isinstance(parent, str) and parent in b.nodes)
        ):
            flag("prnt-codomain", f"prnt[{p}]", f"parent {parent!r} is neither a node nor a root index")
    node_parent = {v: [p] for v, p in b.prnt.items() if v in b.nodes and isinstance(p, str) and p in b.nodes}
    for cycle in _cycles(node_parent):
        flag("parent-cycle", f"prnt[{cycle[0]}]", "parent map cycle through " + ", ".join(sorted(cycle)))

    # Link map: total on inner names and ports, targets are edges or outer names.
    link_domain: set[Point] = set(b.inner.names) | ports_of(b)
    for p in sorted(link_domain, key=_fmt_point):
        if p not in b.link:
            flag("link-total", f"link[{_fmt_point(p)}]", "inner name or port is not linked")
    for p in sorted(b.link, key=_fmt_point):
        if p not in link_domain:
            flag("link-domain", f"link[{_fmt_point(p)}]", "link assigned to unknown inner name or port")
            continue
        target = b.link[p]
        if not (isinstance(target, str) and (target in b.edges or target in b.outer.names)):
            flag(
                "link-codomain",
                f"link[{_fmt_point(p)}]",
                f"link target {target!r} is neither an edge nor an outer name",
            )

    return report_from(findings)
