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
from collections.abc import Container, Iterable, Iterator, Mapping
from itertools import chain, compress, filterfalse, repeat
from operator import and_, is_, itemgetter, not_

from ._value import field, frozen
from .report import Finding, ValidationReport, report_from
from .typedgraph import _cycles, _reaches_cycle

TYPE_CHECKING = False  # read as true by static type checkers only
if TYPE_CHECKING:
    from typing import Any

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


def _id_order(v: object) -> tuple[str, str]:
    """Sort key of an identifier: its text, then its type's name. Strings
    sort as they do on their own, and a mix of strings and other values
    sorts without a ``TypeError``."""
    return str(v), type(v).__name__


def _named(m: Mapping[Any, object], names: Container[str]) -> dict[Any, str]:
    """The entries of ``m`` whose value is a string in ``names``, in the
    order of ``m``, picked by C-level passes. A value that is no string is
    never hashed, so an unhashable one is left out, not raised on."""
    strs = dict(compress(m.items(), map(_is_str, m.values())))
    return dict(compress(strs.items(), map(names.__contains__, strs.values())))


def validate_bigraph(b: Bigraph) -> ValidationReport:
    """Check every structural invariant of a bigraph.

    Violations come back as report entries; an empty report means the
    bigraph is well-formed. The codes: ``sig-arity``; ``id-type``, one per
    node, edge, inner name or outer name that is not a string;
    ``id-overlap``; ``ctrl-total``, ``ctrl-domain`` and
    ``ctrl-unknown-control``; ``prnt-total``, ``prnt-domain``,
    ``prnt-codomain`` and ``parent-cycle``; ``link-total``,
    ``link-domain`` and ``link-codomain``.

    Cost: each map is first compared whole, by C-level passes (key sets,
    counts, and type and membership passes over the values); only when
    that fails do such passes mark the entries that break a rule, and only
    those are sorted and walked. Pointer jumping (:func:`_reaches_cycle`)
    rules parent cycles out, and the search for them runs only when it
    finds one. The link keys are counted and checked against the port
    count of their node, so the set of ports (:func:`ports_of`) is built
    only when that check fails. A well-formed bigraph thus costs those
    passes alone.
    """
    findings = bad_arities(b.signature)

    def flag(code: str, location: str, message: str) -> None:
        findings.append(Finding(code, location, message))

    nodes, ctrl, prnt, link = b.nodes, b.ctrl, b.prnt, b.link
    ids = (nodes, b.edges, b.inner.names, b.outer.names)
    if not all(map(_is_str, chain.from_iterable(ids))):
        for what, group in zip(("node", "edge", "inner name", "outer name"), ids):
            for v in sorted(filterfalse(_is_str, group), key=_id_order):
                flag("id-type", str(v), f"{what} {v!r} is not a string")

    names = b.inner.names | b.outer.names
    for v in sorted(nodes & b.edges, key=_id_order):
        flag("id-overlap", str(v), "identifier is both a node and an edge")
    for v in sorted((nodes | b.edges) & names, key=_id_order):
        flag("id-overlap", str(v), "identifier is both a node/edge and a link name")

    # Control map: total on nodes, controls drawn from the signature.
    has_control = b.signature.has_control
    if not (ctrl.keys() == nodes and all(map(has_control, ctrl.values()))):
        for v in sorted(nodes.difference(ctrl), key=_id_order):
            flag("ctrl-total", f"ctrl[{v}]", "node has no control")
        fine = map(and_, map(nodes.__contains__, ctrl), map(has_control, ctrl.values()))
        for v in sorted(compress(ctrl, map(not_, fine)), key=_id_order):
            if v not in nodes:
                flag("ctrl-domain", f"ctrl[{v}]", "control assigned to unknown node")
            else:
                flag(
                    "ctrl-unknown-control",
                    f"ctrl[{v}]",
                    f"control {ctrl[v]!r} is not declared by the signature",
                )

    # Parent map: total on sites and nodes, parents are nodes or roots. The
    # entries are fine when the keys are the sites and nodes, and each
    # parent is a node (up) or an int below m; a bool or another int type
    # is walked.
    k, m = b.inner.width, b.outer.width
    place_domain: set[PlaceChild] = set(range(k)).union(nodes)
    up = _named(prnt, nodes)
    ints = list(map(is_, map(type, prnt.values()), repeat(int)))
    roots = map(range(m).__contains__, compress(prnt.values(), ints))
    if not (prnt.keys() == place_domain and len(up) + sum(roots) == len(prnt)):
        for p in sorted(place_domain.difference(prnt), key=_fmt_point):
            flag("prnt-total", f"prnt[{p}]", "site or node has no parent")
        to_int = dict(compress(prnt.items(), ints))
        placed = place_domain.intersection(chain(up, compress(to_int, map(range(m).__contains__, to_int.values()))))
        for p in sorted(filterfalse(placed.__contains__, prnt), key=_fmt_point):
            if p not in place_domain:
                flag("prnt-domain", f"prnt[{p}]", "parent assigned to unknown site or node")
                continue
            parent = prnt[p]
            if isinstance(parent, bool) or not (
                (isinstance(parent, int) and 0 <= parent < m)
                or (isinstance(parent, str) and parent in nodes)
            ):
                flag("prnt-codomain", f"prnt[{p}]", f"parent {parent!r} is neither a node nor a root index")
    # Every step of a cycle in up ends at a node, so up has a cycle exactly
    # when the node-to-node parent steps have one.
    if _reaches_cycle(up):
        node_parent = {v: [p] for v, p in up.items() if v in nodes and _is_str(v)}
        for cycle in _cycles(node_parent):
            flag("parent-cycle", f"prnt[{cycle[0]}]", "parent map cycle through " + ", ".join(sorted(cycle)))

    # Link map: total on inner names and ports, targets are edges or outer
    # names. The keys are the inner names and the ports when there are as
    # many of each, and each port key names a port; only otherwise is the
    # domain built and compared with the keys. The targets are fine when
    # they are all strings among the edges and outer names.
    counts = _port_counts(b)
    port_keys = list(filter(_is_port, link))
    slots = map(range, map(counts.get, map(itemgetter(0), port_keys), repeat(0)))
    targets, values = b.edges | b.outer.names, link.values()
    if not (
        len(port_keys) == sum(counts.values())
        and len(link) - len(port_keys) == len(b.inner.names)
        and b.inner.names.issuperset(filterfalse(_is_port, link))
        and all(map(range.__contains__, slots, map(itemgetter(1), port_keys)))
        and all(map(_is_str, values))
        and targets.issuperset(values)
    ):
        link_domain: set[Point] = set(b.inner.names).union(_ports(counts, counts.values()))
        for p in sorted(link_domain.difference(link), key=_fmt_point):
            flag("link-total", f"link[{_fmt_point(p)}]", "inner name or port is not linked")
        linked = link_domain.intersection(_named(link, targets))
        for p in sorted(filterfalse(linked.__contains__, link), key=_fmt_point):
            if p not in link_domain:
                flag("link-domain", f"link[{_fmt_point(p)}]", "link assigned to unknown inner name or port")
                continue
            target = link[p]
            if not (isinstance(target, str) and (target in b.edges or target in b.outer.names)):
                flag(
                    "link-codomain",
                    f"link[{_fmt_point(p)}]",
                    f"link target {target!r} is neither an edge nor an outer name",
                )

    return report_from(findings)
