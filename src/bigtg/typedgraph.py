"""Directed graphs, type graphs and typed instance graphs.

A type graph plays the role of a metamodel: its nodes and edges are node
types and edge types, refined by an inheritance hierarchy with abstract
types, containment edge types, opposite edge-type pairs, multiplicities
and attribute declarations. Instance graphs carry a typing morphism into
a type graph; the ``check_*`` functions report every way the morphism or
the structural rules can fail.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Callable, Collection, Hashable, Iterable, Mapping
from functools import cached_property, wraps
from itertools import compress, repeat
from operator import is_, is_not, itemgetter

from ._value import field, frozen
from .report import Finding, ValidationReport, report_from

TYPE_CHECKING = False  # read as true by static type checkers only
if TYPE_CHECKING:
    from typing import Any

ATTR_TYPES = ("int", "string")


class UnknownType(ValueError):
    """A node type name does not occur in the type graph."""


@frozen
class Graph:
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


@frozen
class Multiplicity:
    """A ``[lb,ub]`` bound on edge counts; ``ub=None`` means unbounded."""

    lb: int
    ub: int | None = None

    def __post_init__(self) -> None:
        if self.lb < 0:
            raise ValueError("multiplicity lower bound must be non-negative")
        if self.ub is not None and self.ub < self.lb:
            raise ValueError("multiplicity upper bound below lower bound")

    def render(self) -> str:
        return f"[{self.lb},{'*' if self.ub is None else self.ub}]"


def symmetric_pairs(pairs: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    """Close a set of pairs under swapping, for opposite-edge relations."""
    out: set[tuple[str, str]] = set()
    for a, b in pairs:
        out.add((a, b))
        out.add((b, a))
    return frozenset(out)


@frozen
class TypeGraph:
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

    @property
    def node_types(self) -> frozenset[str]:
        return self.graph.nodes

    @property
    def edge_types(self) -> frozenset[str]:
        return self.graph.edges

    @cached_property
    def _supertypes(self) -> dict[str, frozenset[str]]:
        """Transitive supertypes of every type with a declared supertype,
        computed once; a type on an inheritance cycle is among its own."""
        parents = _parents(self)
        closure: dict[str, frozenset[str]] = {}
        for t in parents:
            out: set[str] = set()
            frontier = [t]
            while frontier:
                for sup in parents.get(frontier.pop(), ()):
                    if sup not in out:
                        out.add(sup)
                        frontier.append(sup)
            closure[t] = frozenset(out)
        return closure

    @cached_property
    def _opposite(self) -> dict[str, str]:
        """The opposite of every edge type that has one; an edge type
        paired with several takes the smallest partner."""
        partner: dict[str, str] = {}
        for a, b in sorted(self.opposites):
            partner.setdefault(a, b)
        return partner


class EdgeView:
    """The edges of an instance graph in one fixed order (the iteration
    order of ``g.graph.edges``) with their ``src``, ``tgt`` and type
    columns, where a missing end or type is ``None``, and the edges and
    their sources grouped by edge type, each group in that order. Built
    in C-level passes. The edges of one edge type grouped by source,
    which constraint navigation reads, are built the first time that edge
    type is asked for (:meth:`by_source`) and kept."""

    __slots__ = ("edges", "src", "tgt", "type", "by_type", "sources", "_by_source")

    def __init__(self, g: InstanceGraph) -> None:
        self.edges = edges = tuple(g.graph.edges)
        self.src = list(map(g.graph.src.get, edges))
        self.tgt = list(map(g.graph.tgt.get, edges))
        self.type = list(map(g.edge_types.get, edges))
        self.by_type = _grouped(self.type, edges)
        self.sources = _grouped(self.type, self.src)
        self._by_source: dict[Hashable, dict[Hashable, list[str]]] = {}

    def by_source(self, edge_type: Hashable) -> dict[Hashable, list[str]]:
        """The edges of ``edge_type`` grouped by their source, each group
        in the view's order; a missing ``src`` is keyed as ``None``."""
        groups = self._by_source.get(edge_type)
        if groups is None:
            sources = self.sources.get(edge_type, [])
            groups = self._by_source[edge_type] = _grouped(sources, self.by_type.get(edge_type, ()))
        return groups


def _grouped(keys: list[Hashable], values: Iterable[Any]) -> dict[Hashable, list[Any]]:
    """``values`` grouped by their keys, each group in order: one
    C-level pass of appends."""
    groups: dict[Hashable, list[Any]] = {key: [] for key in set(keys)}
    deque(map(list.append, map(groups.__getitem__, keys), values), 0)
    return groups


@frozen
class InstanceGraph:
    """A graph typed over a type graph, with node attribute values.

    One view is built on first use and kept: ``edge_view`` (the edge
    columns, the edges and sources of each edge type, and the edges of
    each navigated edge type grouped by source), which the four checkers,
    :func:`typed_edges` and constraint navigation read. The graph also
    keeps the last report of each checker wrapped by :func:`keeps_report`
    (``check_typing``, ``check_validity``, ``check_multiplicities`` and
    the arity rule), with the very arguments it was checked against
    (``decode`` after ``conformance``). So neither the dicts of ``g`` nor
    those arguments may be mutated after the first query or check; build
    a new value (through the constructor or ``bigtg.replace``) instead.
    """

    graph: Graph
    node_types: Mapping[str, str] = field(default_factory=dict)
    edge_types: Mapping[str, str] = field(default_factory=dict)
    attrs: Mapping[tuple[str, str], int | str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_types", dict(self.node_types))
        object.__setattr__(self, "edge_types", dict(self.edge_types))
        object.__setattr__(self, "attrs", dict(self.attrs))

    @cached_property
    def edge_view(self) -> EdgeView:
        return EdgeView(self)

    @cached_property
    def _reports(self) -> dict[Callable[..., ValidationReport], tuple[tuple[Any, ...], ValidationReport]]:
        """The kept slot of each checker wrapped by :func:`keeps_report`:
        the arguments it last ran on, and its report."""
        return {}


def typed_edges(g: InstanceGraph, edge_type: str) -> list[str]:
    """The edges of one edge type, in the iteration order of
    ``g.graph.edges``: a copy of their group in ``g.edge_view``."""
    return list(g.edge_view.by_type.get(edge_type, ()))


def node_attrs(g: InstanceGraph, n: str) -> dict[str, int | str]:
    """Attribute values of ``n`` by attribute name, in the order of
    ``g.attrs``: one scan of it. The library does not call this, nor
    :func:`outgoing` or :func:`incoming`; they are kept for the tests and
    for the benchmark tracer, which times them by name."""
    return {a: v for (m, a), v in g.attrs.items() if m == n}


def outgoing(g: InstanceGraph, n: str, edge_type: str) -> list[str]:
    """Outgoing edges of ``n`` of one edge type, sorted: its group in
    ``g.edge_view.by_source(edge_type)``. Kept for the tests and the
    tracer (see :func:`node_attrs`)."""
    return sorted(g.edge_view.by_source(edge_type).get(n, ()))


def incoming(g: InstanceGraph, n: str, edge_type: str) -> list[str]:
    """Incoming edges of ``n`` of one edge type, sorted, picked from the
    edges of that type in ``g.edge_view``. Kept for the tests and the
    tracer (see :func:`node_attrs`)."""
    tgt = g.graph.tgt
    return sorted(e for e in g.edge_view.by_type.get(edge_type, ()) if tgt.get(e) == n)


def _parents(tg: TypeGraph) -> dict[str, list[str]]:
    """Direct supertypes of every type that has one, sorted."""
    parents: dict[str, set[str]] = {}
    for sub, sup in tg.inherits:
        parents.setdefault(sub, set()).add(sup)
    return {t: sorted(sups) for t, sups in parents.items()}


def _require(tg: TypeGraph, t: str) -> None:
    if t not in tg.node_types:
        raise UnknownType(f"unknown node type {t!r}")


def all_sub(tg: TypeGraph, t: str) -> set[str]:
    """All transitive subtypes of ``t``; ``t`` itself is among them only
    when it lies on an inheritance cycle."""
    _require(tg, t)
    return {sub for sub, sups in tg._supertypes.items() if t in sups}


def all_super(tg: TypeGraph, t: str) -> set[str]:
    """All transitive supertypes of ``t``; ``t`` itself is among them only
    when it lies on an inheritance cycle."""
    _require(tg, t)
    return set(tg._supertypes.get(t, ()))


def conforms(tg: TypeGraph, t: str, target: str) -> bool:
    """True when ``t`` equals ``target`` or is one of its subtypes."""
    if t == target:
        return True
    _require(tg, target)
    return target in tg._supertypes.get(t, ())


def declared_attrs(tg: TypeGraph, t: str) -> dict[str, str]:
    """Attribute declarations of ``t`` merged with those it inherits."""
    merged: dict[str, str] = {}
    for sup in sorted(all_super(tg, t)):
        merged.update(tg.attr_decls.get(sup, {}))
    merged.update(tg.attr_decls.get(t, {}))
    return merged


def mult_of(tg: TypeGraph, edge_type: str) -> Multiplicity | None:
    """The multiplicity of ``edge_type``; ``None`` when it has none, and
    when its bound is not a :class:`Multiplicity`, which is no bound."""
    m = tg.mult.get(edge_type)
    return m if isinstance(m, Multiplicity) else None


def keeps_report(checker: Callable[..., ValidationReport]) -> Callable[..., ValidationReport]:
    """Make a checker of an instance graph keep its report on the graph.

    The wrapped ``checker(g, *args)`` keeps one slot per checker on ``g``:
    the other arguments and the report. A call whose every argument ``is``
    the kept one returns the kept report; any other call runs the checker
    and replaces the slot. So an equal argument that is another object
    (``1 == True``, but they print apart) is checked anew. The slot keeps
    alive the type graph that ``extend_for_signature(sig)`` returns, so
    ``decode(g, sig)`` after the caller's own checks is a hit. The wrapper
    keeps the checker's name, and the checker itself as ``__wrapped__``.
    """

    @wraps(checker)
    def kept(g: InstanceGraph, *args: Any) -> ValidationReport:
        reports = g._reports
        slot = reports.get(checker)
        if slot is not None and len(slot[0]) == len(args) and all(map(is_, slot[0], args)):
            return slot[1]
        report = checker(g, *args)
        reports[checker] = (args, report)
        return report

    return kept


def walk_suspects(
    elements: Collection[Any], keys: Iterable[Hashable], check: Callable[[Any], list[Finding]]
) -> list[Finding]:
    """The findings of ``check`` on every element, in sorted element order.

    ``keys`` holds one shape key per element, in the iteration order of
    ``elements`` (iterated again in that order), and must
    determine whether ``check`` flags the element.
    ``check`` runs on one element of each distinct key, and then on every
    element of the keys it flagged. ``check_typing`` walks only the
    elements whose whole-column test failed.
    """
    keys = list(keys)
    bad = {key for key, el in dict(zip(keys, elements)).items() if check(el)}
    if not bad:
        return []
    return [f for el in sorted(compress(elements, map(bad.__contains__, keys))) for f in check(el)]


def check_type_graph(tg: TypeGraph) -> ValidationReport:
    """Well-formedness of a type graph itself (not of its instances).

    Besides the references, the hierarchy, the opposite relation and the
    declarations, each opposite pair of edge types must meet three EMOF
    rules: its ends mirror each other (``tg-opposite-ends``), at most one
    of the two is a containment (``tg-opposite-containments``), and the
    opposite of a containment has an upper bound of at most 1
    (``tg-container-mult``). A bound that is not a :class:`Multiplicity`
    is no multiplicity (``tg-mult``)."""
    findings: list[Finding] = []

    def flag(code: str, location: str, message: str) -> None:
        findings.append(Finding(code, location, message))

    for e in sorted(tg.edge_types):
        for role, mapping in (("src", tg.graph.src), ("tgt", tg.graph.tgt)):
            end = mapping.get(e)
            if end is None:
                flag("tg-edge-ends", f"{role}[{e}]", "edge type has no " + role)
            elif end not in tg.node_types:
                flag("tg-edge-ends", f"{role}[{e}]", f"edge type {role} {end!r} is not a node type")

    for sub, sup in sorted(tg.inherits):
        if sub not in tg.node_types or sup not in tg.node_types:
            flag("tg-inherits-ref", f"({sub},{sup})", "inheritance references unknown node type")
    for cycle in _cycles(_parents(tg)):
        flag("tg-inherits-cycle", cycle[0], "inheritance cycle through " + cycle[0])

    for t in sorted(tg.abstracts - tg.node_types):
        flag("tg-abstracts", t, "abstract entry is not a node type")
    for e in sorted(tg.containments - tg.edge_types):
        flag("tg-containments", e, "containment entry is not an edge type")

    seen_in_pair: dict[str, str] = {}
    for a, b in sorted(tg.opposites):
        if a == b:
            flag("tg-opposites", a, "edge type opposite to itself")
            continue
        if a not in tg.edge_types or b not in tg.edge_types:
            flag("tg-opposites", f"({a},{b})", "opposite pair references unknown edge type")
            continue
        if (b, a) not in tg.opposites:
            flag("tg-opposites", f"({a},{b})", "opposite relation is not symmetric")
        prev = seen_in_pair.get(a)
        if prev is not None and prev != b:
            flag("tg-opposites", a, f"edge type paired with both {prev!r} and {b!r}")
        seen_in_pair[a] = b

    # The EMOF rules on each opposite pair of known edge types: a property's
    # opposite is owned by the property's type, so the ends mirror each
    # other; at most one end is a composition; and the opposite of a
    # containment has an upper bound of at most 1 (one container).
    src, tgt = tg.graph.src.get, tg.graph.tgt.get
    for a, b in sorted({tuple(sorted(p)) for p in tg.opposites if p[0] != p[1] and set(p) <= tg.edge_types}):
        if src(a) != tgt(b) or tgt(a) != src(b):
            flag(
                "tg-opposite-ends",
                f"({a},{b})",
                f"opposite ends do not mirror: {a!r} is {src(a)}->{tgt(a)}, {b!r} is {src(b)}->{tgt(b)}",
            )
        if a in tg.containments and b in tg.containments:
            flag("tg-opposite-containments", f"({a},{b})", "both edge types of an opposite pair are containments")
        for whole, part in ((a, b), (b, a)):
            m = mult_of(tg, part)
            if whole in tg.containments and m is not None and (m.ub is None or m.ub > 1):
                flag(
                    "tg-container-mult",
                    part,
                    f"opposite of containment {whole!r} has multiplicity {m.render()}, upper bound above 1",
                )

    for e in sorted(tg.edge_types):
        if mult_of(tg, e) is None:
            flag("tg-mult", e, "edge type has no multiplicity")
    for e in sorted(tg.mult):
        if e not in tg.edge_types:
            flag("tg-mult", e, "multiplicity attached to unknown edge type")

    for t in sorted(tg.attr_decls):
        if t not in tg.node_types:
            flag("tg-attrs", t, "attributes declared on unknown node type")
            continue
        for a, dt in sorted(tg.attr_decls[t].items()):
            if dt not in ATTR_TYPES:
                flag("tg-attrs", f"{t}.{a}", f"unknown attribute data type {dt!r}")

    return report_from(findings)


@keeps_report
def check_typing(g: InstanceGraph, tg: TypeGraph) -> ValidationReport:
    """Check the typing morphism: totality, abstractness, endpoint
    compatibility under subtyping, and attribute conformance. An edge
    whose type lacks a node type as ``src`` or ``tgt`` (which
    ``check_type_graph`` reports as ``tg-edge-ends``) is reported as
    ``typing-type-ends``, and that end of the edge is not checked. An
    attribute whose owner is not a node is reported as ``attr-owner``,
    and its value is not checked.

    Cost: C-level passes gather whole columns into sets: the node types,
    the edge ends (from ``g.edge_view``), the distinct ``(edge type, end
    type)`` pairs of each end, and the distinct ``(owner type, attribute,
    value class)`` triples. A clean graph passes subset tests on those
    sets, which ask :func:`conforms` once per distinct ``(end type,
    declared type)`` pair and :func:`declared_attrs` once per owner type.
    Only the nodes, edges or attributes whose test fails are walked: the
    rules run once per distinct shape key of an element, and only the
    elements of a failing key are sorted and checked (see
    :func:`walk_suspects`). The report is kept on ``g``
    (:func:`keeps_report`)."""
    nodes, nt = g.graph.nodes, g.node_types

    def check_node(n: str) -> list[Finding]:
        t = nt.get(n)
        if t is None:
            return [Finding("typing-total", n, "node has no type")]
        if t not in tg.node_types:
            return [Finding("typing-unknown-type", n, f"node typed by unknown type {t!r}")]
        if t in tg.abstracts:
            return [Finding("typing-abstract", n, f"abstract type {t!r} instantiated")]
        return []

    # The declared src and tgt of each edge type, None where no node type;
    # conformance is decided once per (end type, declared type) pair.
    decls = {
        te: tuple(t if t in tg.node_types else None for t in (tg.graph.src.get(te), tg.graph.tgt.get(te)))
        for te in tg.edge_types
    }
    conforming: dict[tuple[str, str], bool] = {}

    def conforms_to(t_end: str, decl: str) -> bool:
        ok = conforming.get((t_end, decl))
        if ok is None:
            ok = conforming[t_end, decl] = conforms(tg, t_end, decl)
        return ok

    # The edge types that check_edge passes: known, with both ends declared.
    full = {te: ends for te, ends in decls.items() if te is not None and None not in ends}

    def end_fits(te: str | None, t_end: str | None, side: int) -> bool:
        """Whether ``check_edge`` passes the type and one end of an edge of
        type ``te`` whose end (src for side 0, tgt for 1) is a node of type
        ``t_end``."""
        ends = full.get(te)
        return ends is not None and (t_end is None or t_end not in tg.node_types or conforms_to(t_end, ends[side]))

    def check_edge(e: str) -> list[Finding]:
        findings: list[Finding] = []
        for role, mapping in (("src", g.graph.src), ("tgt", g.graph.tgt)):
            end = mapping.get(e)
            if end is None:
                findings.append(Finding("typing-edge-ends", f"{role}[{e}]", "edge has no " + role))
            elif end not in nodes:
                findings.append(Finding("typing-edge-ends", f"{role}[{e}]", f"edge {role} {end!r} is not a node"))
        te = g.edge_types.get(e)
        if te is None:
            return findings + [Finding("typing-total", e, "edge has no type")]
        if te not in tg.edge_types:
            return findings + [Finding("typing-unknown-type", e, f"edge typed by unknown type {te!r}")]
        decl_src, decl_tgt = decls[te]
        if decl_src is None or decl_tgt is None:
            findings.append(Finding("typing-type-ends", e, f"edge type {te!r} lacks a node type as src or tgt"))
        for role, end, decl in (
            ("source", g.graph.src.get(e), decl_src),
            ("target", g.graph.tgt.get(e), decl_tgt),
        ):
            t_end = nt.get(end) if end is not None else None
            if decl is None or t_end is None or t_end not in tg.node_types:
                continue  # reported on the edge above, or on the node
            if not conforms_to(t_end, decl):
                findings.append(
                    Finding(
                        "typing-" + ("source" if role == "source" else "target"),
                        e,
                        f"{role} type {t_end!r} incompatible with {te!r} (expects {decl!r})",
                    )
                )
        return findings

    attr_decls: dict[str, dict[str, str]] = {}

    def declared(t: str) -> dict[str, str]:
        decls = attr_decls.get(t)
        if decls is None:
            decls = attr_decls[t] = declared_attrs(tg, t)
        return decls

    def attr_fits(t: str | None, a: str, cls: type) -> bool:
        """Whether ``check_attr`` passes an attribute ``a`` of class
        ``cls`` on a node of type ``t``."""
        if t is None or t not in tg.node_types:
            return True
        decls = declared(t)
        return a in decls and _misfit(decls[a], cls) is None

    def check_attr(item: tuple[tuple[str, str], int | str]) -> list[Finding]:
        (n, a), v = item
        if n not in nodes:
            return [Finding("attr-owner", f"{n}.{a}", f"attribute owner {n!r} is not a node")]
        t = nt.get(n)
        if t is None or t not in tg.node_types:
            return []
        decls = declared(t)
        if a not in decls:
            return [Finding("attr-undeclared", f"{n}.{a}", f"attribute {a!r} not declared for type {t!r}")]
        misfit = _misfit(decls[a], type(v))
        if misfit is not None:
            return [Finding("attr-type", f"{n}.{a}", "attribute value is not " + misfit)]
        return []

    findings: list[Finding] = []
    node_types = list(map(nt.get, nodes))
    kinds = set(node_types)
    if None in kinds or not kinds <= tg.node_types or not kinds.isdisjoint(tg.abstracts):
        findings += walk_suspects(nodes, node_types, check_node)
    # When every node has a type, as many typing entries as nodes leave
    # none for an unknown node; so for edges below.
    if None in kinds or len(nt) != len(nodes):
        findings += [Finding("typing-domain", n, "typing entry for unknown node") for n in sorted(nt.keys() - nodes)]

    # A missing end reads None, which is no node unless a node is named None.
    view = g.edge_view
    edges, srcs, tgts, types = view.edges, view.src, view.tgt, view.type
    src_types, tgt_types = list(map(nt.get, srcs)), list(map(nt.get, tgts))
    if (
        not nodes.issuperset(srcs)
        or not nodes.issuperset(tgts)
        or None in nodes
        or not all(end_fits(te, t, 0) for te, t in set(zip(types, src_types)))
        or not all(end_fits(te, t, 1) for te, t in set(zip(types, tgt_types)))
    ):
        is_node = nodes.__contains__
        edge_keys = zip(types, src_types, tgt_types, map(is_node, srcs), map(is_node, tgts))
        findings += walk_suspects(edges, edge_keys, check_edge)
    if None in view.by_type or len(g.edge_types) != len(edges):
        findings += [
            Finding("typing-domain", e, "typing entry for unknown edge") for e in sorted(g.edge_types.keys() - edges)
        ]

    owners, names = list(map(itemgetter(0), g.attrs)), list(map(itemgetter(1), g.attrs))
    owner_types, classes = list(map(nt.get, owners)), list(map(type, g.attrs.values()))
    if not nodes.issuperset(owners) or not all(attr_fits(*shape) for shape in set(zip(owner_types, names, classes))):
        attr_keys = zip(owner_types, map(nodes.__contains__, owners), names, classes)
        findings += walk_suspects(g.attrs.items(), attr_keys, check_attr)
    return report_from(findings)


def _misfit(data_type: str, cls: type) -> str | None:
    """What a value of class ``cls`` is not, for an attribute of
    ``data_type``; ``None`` when it fits. A ``bool`` is no int."""
    if data_type == "int" and (issubclass(cls, bool) or not issubclass(cls, int)):
        return "an int"
    if data_type == "string" and not issubclass(cls, str):
        return "a string"
    return None


def _cycles(succ: Mapping[str, list[str]]) -> list[list[str]]:
    """Cycles closed by the back edges of a depth-first search over
    ``succ``, started from each unvisited key in sorted order and taking
    successors in list order. Each cycle is the search path from the
    re-entered node to the node whose edge closes it."""
    cycles: list[list[str]] = []
    done: set[str] = set()
    for root in sorted(succ):
        if root in done:
            continue
        path = [root]
        depth = {root: 0}
        pending = [iter(succ.get(root, ()))]
        while pending:
            for nxt in pending[-1]:
                if nxt in depth:
                    cycles.append(path[depth[nxt] :])
                elif nxt not in done:
                    depth[nxt] = len(path)
                    path.append(nxt)
                    pending.append(iter(succ.get(nxt, ())))
                    break
            else:
                pending.pop()
                done.add(path[-1])
                del depth[path.pop()]
    return cycles


def _reaches_cycle(up: dict[str, str]) -> bool:
    """Whether following ``up`` (each key to its one successor) from some
    key never stops. Pointer jumping: each round maps every key to the
    successor of its successor and drops the keys whose chain has ended,
    so a forest of depth d empties in about log2(d) C-level rounds, and a
    round that drops nothing has found a cycle."""
    while up:
        far = list(map(up.get, up.values()))
        kept = list(compress(zip(up, far), map(is_not, far, repeat(None))))
        if len(kept) == len(up):
            return True
        up = dict(kept)
    return False


@keeps_report
def check_validity(g: InstanceGraph, tg: TypeGraph) -> ValidationReport:
    """Containment acyclicity, unique containers, and opposite-edge
    consistency. Meant for graphs that pass ``check_typing``; edges with a
    missing end are skipped here (``check_typing`` reports them).

    Cost: C-level passes over the columns of ``g.edge_view`` map each
    contained node to its container and gather the ``(type, src, tgt)``
    triples of the edges whose type has an opposite. When no node has two
    containers, pointer jumping (:func:`_reaches_cycle`) rules cycles out
    without a search. When no triple repeats and the triples equal their
    mirrored opposites as sets, no pair is inconsistent; a triple that
    repeats (parallel edges) compares the counts of both instead. Only
    otherwise are the containment edges searched, or every triple walked,
    in sorted order."""
    findings: list[Finding] = []

    def flag(code: str, location: str, message: str) -> None:
        findings.append(Finding(code, location, message))

    view = g.edge_view
    src, tgt = g.graph.src, g.graph.tgt
    contains = list(map(tg.containments.__contains__, view.type))
    up = dict(zip(compress(view.tgt, contains), compress(view.src, contains)))
    if len(up) < contains.count(True) or _reaches_cycle(up):
        succ: dict[str, list[str]] = {}
        containers_of: dict[str, list[str]] = {}
        for e in sorted(compress(view.edges, contains)):
            s, t = src.get(e), tgt.get(e)
            if s is not None and t is not None:
                succ.setdefault(s, []).append(t)
                containers_of.setdefault(t, []).append(s)
        for cycle in _cycles(succ):
            flag("containment-cycle", cycle[0], "containment cycle through " + ", ".join(sorted(set(cycle))))
        for n in sorted(n for n, containers in containers_of.items() if len(containers) > 1 and n in g.graph.nodes):
            flag("multi-container", n, "node has more than one container: " + ", ".join(sorted(containers_of[n])))

    # Opposite consistency: for both directions of each pair, the number
    # of t1 edges a->b must equal the number of t2 edges b->a. Keys with a
    # missing end are counted but never reported.
    opposite = tg._opposite
    types, srcs, tgts = view.type, view.src, view.tgt
    if not opposite.keys() >= view.by_type.keys():
        paired = list(map(opposite.__contains__, types))
        types, srcs, tgts = list(compress(types, paired)), list(compress(srcs, paired)), list(compress(tgts, paired))
    triples = set(zip(types, srcs, tgts))
    mirrored = zip(map(opposite.get, types), tgts, srcs)
    # Without repeats, equal sets mean that every triple and its mirror
    # occur once each, whatever the opposites are. With repeats, the counts
    # must be equal; Counter's own == runs in Python, and no count is zero,
    # so dict's is exact.
    if len(triples) == len(types):
        if triples == set(mirrored):
            return report_from(findings)
        counts: dict[tuple[str, str, str], int] = dict.fromkeys(triples, 1)
    else:
        counts = Counter(zip(types, srcs, tgts))
        if dict.__eq__(counts, Counter(mirrored)):
            return report_from(findings)
    seen: set[tuple[str, str, str]] = set()
    for te, s, t in sorted(key for key in counts if key[1] is not None and key[2] is not None):
        rev = (opposite.get(te), t, s)
        key = min((te, s, t), rev)  # process each unordered pair once
        if key in seen:
            continue
        seen.add(key)
        fwd_count = counts[te, s, t]
        rev_count = counts.get(rev, 0)
        if fwd_count != rev_count:
            flag(
                "opposite-inconsistent",
                f"{te}[{s}->{t}]",
                f"{fwd_count} {te!r} edge(s) but {rev_count} opposite {rev[0]!r} edge(s)",
            )

    return report_from(findings)


def _holds(sources: list[Hashable], targets: Iterable[Hashable], m: Multiplicity) -> bool:
    """Whether each of ``targets`` is among ``sources`` at least ``m.lb``
    and at most ``m.ub`` times. An upper bound of 1 holds when no source
    repeats, and a lower bound of 1 when every target is a source; any
    other bound, or sources that repeat, are counted."""
    if m.lb <= 1 and m.ub in (None, 1):
        distinct = set(sources)
        if m.ub is None or len(distinct) == len(sources):
            return m.lb == 0 or distinct.issuperset(targets)
    counts = Counter(sources)
    got = list(map(counts.get, targets, repeat(0)))
    return not got or (m.lb <= min(got) and (m.ub is None or max(got) <= m.ub))


@keeps_report
def check_multiplicities(g: InstanceGraph, tg: TypeGraph) -> ValidationReport:
    """Per-source-node bounds on outgoing edges of each applicable type.
    Edge types without a multiplicity (:func:`mult_of`), or without a node
    type as ``src``, are skipped (``check_type_graph`` reports them). The report is kept on
    ``g`` (:func:`keeps_report`).

    Cost: for each bounded edge type, the node types that conform to its
    ``src`` are found once, and C-level passes test the bound on the
    sources of its edges (``g.edge_view``) against the nodes of those
    types (:func:`_holds`). Only the edge types that fail are walked: the
    sources of each are counted, and one pass over the nodes in sorted
    order reads each count there."""
    nodes, nt = g.graph.nodes, g.node_types
    node_types = list(map(nt.get, nodes))
    kinds = {t for t in set(node_types) if t is not None and t in tg.node_types}
    sources = g.edge_view.sources
    applies: dict[str, set[str]] = {}  # the node types that conform to each declared src
    failing: list[tuple[str, Multiplicity, set[str], Counter[str | None]]] = []
    for te in sorted(tg.edge_types):
        m = mult_of(tg, te)
        decl = tg.graph.src.get(te)
        if m is None or decl not in tg.node_types or (m.lb == 0 and m.ub is None):
            continue
        if decl not in applies:
            applies[decl] = {t for t in kinds if conforms(tg, t, decl)}
        fit = applies[decl]
        if fit and not _holds(sources.get(te, []), compress(nodes, map(fit.__contains__, node_types)), m):
            failing.append((te, m, fit, Counter(sources.get(te, []))))
    findings: list[Finding] = []
    if not failing:
        return report_from(findings)
    for n in sorted(nodes):
        tn = nt.get(n)
        for te, m, fit, counts in failing:
            if tn not in fit:
                continue
            count = counts[n]
            if count < m.lb:
                findings.append(
                    Finding(
                        "mult-underflow",
                        f"{n}.{te}",
                        f"{count} outgoing {te!r} edge(s), multiplicity {m.render()}",
                    )
                )
            elif m.ub is not None and count > m.ub:
                findings.append(
                    Finding(
                        "mult-overflow",
                        f"{n}.{te}",
                        f"{count} outgoing {te!r} edge(s), multiplicity {m.render()}",
                    )
                )
    return report_from(findings)
