"""Directed graphs, type graphs and typed instance graphs.

A type graph plays the role of a metamodel: its nodes and edges are node
types and edge types, refined by an inheritance hierarchy with abstract
types, containment edge types, opposite edge-type pairs, multiplicities
and attribute declarations. Instance graphs carry a typing morphism into
a type graph; the ``check_*`` functions report every way the morphism or
the structural rules can fail. ``check_type_graph``, which checks a type
graph itself, lives in :mod:`bigtg.wellformed` and is imported on first
access of ``typedgraph.check_type_graph`` (PEP 562), so a caller that
checks only instance graphs does not compile it.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Callable, Collection, Hashable, Iterable, Mapping
from functools import cached_property, wraps
from itertools import chain, compress, repeat
from operator import is_not, itemgetter

from ._value import as_dict, check_each, field, frozen, is_int, is_scalar, is_str
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
        nodes, edges, src, tgt = frozenset(self.nodes), frozenset(self.edges), as_dict(self.src), as_dict(self.tgt)
        check_each(self, "nodes", is_str, "a str", nodes)
        check_each(self, "edges", is_str, "a str", edges)
        check_each(self, "src", is_str, "a str", src, src.values())
        check_each(self, "tgt", is_str, "a str", tgt, tgt.values())
        for name, value in zip(("nodes", "edges", "src", "tgt"), (nodes, edges, src, tgt)):
            object.__setattr__(self, name, value)


@frozen
class Multiplicity:
    """A ``[lb,ub]`` bound on edge counts; ``ub=None`` means unbounded."""

    lb: int
    ub: int | None = None

    def __post_init__(self) -> None:
        check_each(self, "lb", is_int, "an int", (self.lb,))
        check_each(self, "ub", is_int, "an int or None", () if self.ub is None else (self.ub,))
        if self.lb < 0:
            raise ValueError("multiplicity lower bound must be non-negative")
        if self.ub is not None and self.ub < self.lb:
            raise ValueError("multiplicity upper bound below lower bound")

    def render(self) -> str:
        return f"[{self.lb},{'*' if self.ub is None else self.ub}]"


def _is_pair(value: object) -> bool:
    """Whether ``value`` is a tuple of two ``str``."""
    return type(value) is tuple and len(value) == 2 and is_str(value[0]) and is_str(value[1])


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
    multiplicities and attribute declarations.

    Equal arguments share one type graph: ``extend_for_signature`` keeps
    one per set of control names, and ``annotate_150``,
    ``derive_type_graph`` and the writer keep what they build or print on
    it. So its dicts may not be mutated; build a new value (through the
    constructor or ``bigtg.replace``) instead. A copy or a pickle is
    rebuilt from the fields and keeps none of this."""

    graph: Graph
    inherits: frozenset[tuple[str, str]] = frozenset()
    abstracts: frozenset[str] = frozenset()
    containments: frozenset[str] = frozenset()
    opposites: frozenset[tuple[str, str]] = frozenset()
    mult: Mapping[str, Multiplicity] = field(default_factory=dict)
    attr_decls: Mapping[str, Mapping[str, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        inherits, abstracts, containments, opposites = map(
            frozenset, (self.inherits, self.abstracts, self.containments, self.opposites)
        )
        mult, attr_decls = as_dict(self.mult), {t: as_dict(a) for t, a in as_dict(self.attr_decls).items()}
        check_each(self, "graph", Graph.__instancecheck__, "a Graph", (self.graph,))
        check_each(self, "inherits", _is_pair, "a pair of str", inherits)
        check_each(self, "abstracts", is_str, "a str", abstracts)
        check_each(self, "containments", is_str, "a str", containments)
        check_each(self, "opposites", _is_pair, "a pair of str", opposites)
        check_each(self, "mult", is_str, "a str", mult)
        check_each(self, "mult", Multiplicity.__instancecheck__, "a Multiplicity", mult.values())
        check_each(self, "attr_decls", is_str, "a str", attr_decls, *attr_decls.values(), *map(dict.values, attr_decls.values()))
        names = ("inherits", "abstracts", "containments", "opposites", "mult", "attr_decls")
        for name, value in zip(names, (inherits, abstracts, containments, opposites, mult, attr_decls)):
            object.__setattr__(self, name, value)

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
    their sources grouped by edge type, each group in that order; and the
    nodes grouped by node type (an untyped node under ``None``), each
    group in the iteration order of ``g.graph.nodes``. Built in C-level
    passes. The edges of one edge type grouped by source, which
    constraint navigation reads, are built the first time that edge type
    is asked for (:meth:`by_source`) and kept."""

    __slots__ = ("edges", "src", "tgt", "type", "by_type", "sources", "by_node_type", "_by_source")

    def __init__(self, g: InstanceGraph) -> None:
        self.edges = edges = tuple(g.graph.edges)
        self.src = list(map(g.graph.src.get, edges))
        self.tgt = list(map(g.graph.tgt.get, edges))
        self.type = list(map(g.edge_types.get, edges))
        self.by_type = _grouped(self.type, edges)
        self.sources = _grouped(self.type, self.src)
        self.by_node_type = _grouped(list(map(g.node_types.get, g.graph.nodes)), g.graph.nodes)
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

    It keeps two things beside its fields: ``edge_view``, built on first
    use (the edge columns, the edges and sources of each edge type, the
    nodes of each node type, and the edges of each navigated edge type
    grouped by source), which the four checkers, soundness, ``decode``
    and ``evaluate`` read; and ``_parts``, the last report of each checker
    wrapped by :func:`keeps_report` (``check_typing``, ``check_validity``,
    ``check_multiplicities`` and the arity rule) with the arguments it
    was checked against (``decode`` after ``conformance``), what
    :func:`bigtg.variability.apply_deltas` reads, and what the graphs it
    returns share. So neither the dicts of ``g`` nor those arguments may
    be mutated after the first query, check or reconfiguration; build a
    new value (through the constructor or ``bigtg.replace``) instead.
    Neither travels with a copy or a pickle, which rebuilds the value
    from its fields.
    A variant shares the dicts it did not change with its input.

    Construction copies each dict and raises ``TypeError`` unless
    ``graph`` is a :class:`Graph`, ids and types are ``str``, each
    attribute is keyed by a tuple of two ``str`` (its owner and its name)
    and each attribute value is exactly an ``int`` or a ``str``, as the
    readers give them. A missing type or end, an owner that is not a
    node, and an id the graph lacks are findings of the checkers.
    """

    graph: Graph
    node_types: Mapping[str, str] = field(default_factory=dict)
    edge_types: Mapping[str, str] = field(default_factory=dict)
    attrs: Mapping[tuple[str, str], int | str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        node_types, edge_types, attrs = as_dict(self.node_types), as_dict(self.edge_types), as_dict(self.attrs)
        check_each(self, "graph", Graph.__instancecheck__, "a Graph", (self.graph,))
        check_each(self, "node_types", is_str, "a str", node_types, node_types.values())
        check_each(self, "edge_types", is_str, "a str", edge_types, edge_types.values())
        check_each(self, "attrs", _is_pair, "a pair of str", attrs)
        check_each(self, "attrs", is_scalar, "an int or a str", attrs.values())
        object.__setattr__(self, "node_types", node_types)
        object.__setattr__(self, "edge_types", edge_types)
        object.__setattr__(self, "attrs", attrs)

    @cached_property
    def edge_view(self) -> EdgeView:
        return EdgeView(self)

    @cached_property
    def _parts(self) -> dict[Hashable, Any]:
        """The slot of each checker wrapped by :func:`keeps_report`, under
        the checker itself; and, by builder and key, each part that
        reconfiguration reads and what the graphs it returns share: from
        the second reconfiguration on, the family's verdict per set of
        control names and the texts its saves select from."""
        return {}


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


def keeps_report(checker: Callable[..., ValidationReport]) -> Callable[..., ValidationReport]:
    """Make a checker of an instance graph keep its report on the graph.

    The wrapped ``checker(g, *args)`` keeps one slot on ``g``, under the
    checker itself in ``g._parts``: the other arguments and the report. A
    call whose arguments ``==`` the kept ones returns the kept report; any
    other call runs the checker and replaces the slot. The constructors
    refuse values that are equal but print apart (``1 == True``), so equal
    arguments are checked alike. ``extend_for_signature(sig)`` returns one
    type graph per set of control names, which the slot keeps alive, so
    ``decode(g, sig)`` after the caller's own checks is a hit, found by
    identity. Reconfiguration
    fills the slots of the graphs it returns with their family's verdict
    (:func:`bigtg.variability.apply_deltas`). The wrapper keeps the
    checker's name, and the checker itself as ``__wrapped__``.
    """

    @wraps(checker)
    def kept(g: InstanceGraph, *args: Any) -> ValidationReport:
        parts = g._parts
        slot = parts.get(checker)
        if slot is not None and slot[0] == args:
            return slot[1]
        report = checker(g, *args)
        parts[checker] = (args, report)
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


@keeps_report
def check_typing(g: InstanceGraph, tg: TypeGraph) -> ValidationReport:
    """Check the typing morphism: totality, abstractness, endpoint
    compatibility under subtyping, and attribute conformance. An edge
    whose type lacks a node type as ``src`` or ``tgt`` (which
    ``check_type_graph`` reports as ``tg-edge-ends``) is reported as
    ``typing-type-ends``, and that end of the edge is not checked. An
    attribute whose owner is not a node is reported as ``attr-owner``,
    and its value is not checked.

    Cost: C-level passes gather whole columns into sets: the node types
    and the edge ends (from ``g.edge_view``), the distinct ``(edge type, end
    type)`` pairs of each end, and the distinct ``(owner type, attribute,
    value class)`` triples. A clean graph passes subset tests on those
    sets, which ask :func:`conforms` once per distinct ``(end type,
    declared type)`` pair and :func:`declared_attrs` once per owner type.
    Only the nodes, edges or attributes whose test fails are walked: the
    rules run once per distinct shape key of an element, and only the
    elements of a failing key are sorted and checked (see
    :func:`walk_suspects`). The report is kept on ``g``
    (:func:`keeps_report`)."""
    view = g.edge_view
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
    kinds = view.by_node_type.keys()
    if None in kinds or not kinds <= tg.node_types or not kinds.isdisjoint(tg.abstracts):
        findings += walk_suspects(nodes, map(nt.get, nodes), check_node)
    # When every node has a type, as many typing entries as nodes leave
    # none for an unknown node; so for edges below.
    if None in kinds or len(nt) != len(nodes):
        findings += [Finding("typing-domain", n, "typing entry for unknown node") for n in sorted(nt.keys() - nodes)]

    # A missing end reads None, which is no node.
    edges, srcs, tgts, types = view.edges, view.src, view.tgt, view.type
    src_types, tgt_types = list(map(nt.get, srcs)), list(map(nt.get, tgts))
    if (
        not nodes.issuperset(srcs)
        or not nodes.issuperset(tgts)
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
    mirrored opposites as sets, no pair is inconsistent. Only otherwise
    are the containment edges searched, or the triples counted and walked
    in sorted order; so a triple that repeats (parallel edges) is always
    walked."""
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
    # Without repeats, equal sets mean that every triple and its mirror
    # occur once each, whatever the opposites are; repeats are walked.
    triples = set(zip(types, srcs, tgts))
    if len(triples) == len(types) and triples == set(zip(map(opposite.get, types), tgts, srcs)):
        return report_from(findings)
    counts = Counter(zip(types, srcs, tgts))
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


def _holds(
    te: str, sources: list[Hashable], targets: Iterable[Hashable], m: Multiplicity, counted: dict[str, Counter]
) -> bool:
    """Whether each of ``targets`` is among ``sources``, the sources of
    edge type ``te``, at least ``m.lb`` and at most ``m.ub`` times. Until
    ``counted`` holds their count, an upper bound of 1 holds when no
    source repeats, and a lower bound of 1 when every target is a source;
    any other bound, or sources that repeat, are counted, and the count is
    kept in ``counted``."""
    counts = counted.get(te)
    if counts is None and m.lb <= 1 and m.ub in (None, 1):
        distinct = set(sources)
        if m.ub is None or len(distinct) == len(sources):
            return m.lb == 0 or distinct.issuperset(targets)
    if counts is None:
        counts = counted[te] = Counter(sources)
    got = list(map(counts.get, targets, repeat(0)))
    return not got or (m.lb <= min(got) and (m.ub is None or max(got) <= m.ub))


def _bound_findings(
    g: InstanceGraph,
    bounds: Iterable[tuple[str, Collection[Hashable], Multiplicity]],
    finding: Callable[[str, Any, str, Multiplicity, int], Finding],
) -> list[Finding]:
    """The findings of ``(edge type, node types, m)`` bounds on ``g``: each
    node of one of those types must be the source of as many edges of
    that edge type as ``m`` admits. A count outside ``m`` gives
    ``finding(node, its type, edge type, m, count)``, in sorted node
    order and, for one node, in the order of ``bounds``.

    Cost: C-level passes test each bound on the sources of its edge type
    (``g.edge_view``) against the nodes of its types (:func:`_holds`).
    The sources of an edge type are counted at most once per call, so
    bounds on one edge type (the arities on ``bPorts``) share the count.
    Only the bounds that fail are walked: one pass over the nodes in
    sorted order reads each one's count there."""
    view = g.edge_view
    of_type = view.by_node_type
    counted: dict[str, Counter] = {}
    failing = [
        (te, types, m)
        for te, types, m in bounds
        if not _holds(te, view.sources.get(te, []), chain.from_iterable(map(of_type.get, types, repeat(()))), m, counted)
    ]
    for te, _, _ in failing:
        if te not in counted:
            counted[te] = Counter(view.sources.get(te, ()))
    findings: list[Finding] = []
    for n in sorted(g.graph.nodes) if failing else ():
        t = g.node_types.get(n)
        for te, types, m in failing:
            count = counted[te][n]
            if t in types and not (m.lb <= count and (m.ub is None or count <= m.ub)):
                findings.append(finding(n, t, te, m, count))
    return findings


@keeps_report
def check_multiplicities(g: InstanceGraph, tg: TypeGraph) -> ValidationReport:
    """Per-source-node bounds on outgoing edges of each applicable type.
    Edge types without a multiplicity, or without a node
    type as ``src``, are skipped (``check_type_graph`` reports them). The report is kept on
    ``g`` (:func:`keeps_report`).

    Cost: each edge type bounded other than ``[0,*]`` applies to the node
    types of ``g.edge_view`` that conform to its ``src``; the bounds are
    tested, and only the failing ones walked, by :func:`_bound_findings`."""
    kinds = {t for t in g.edge_view.by_node_type if t is not None and t in tg.node_types}
    bounds = []
    for te in sorted(tg.edge_types):
        m, decl = tg.mult.get(te), tg.graph.src.get(te)
        if m is not None and decl in tg.node_types and (m.lb > 0 or m.ub is not None):
            bounds.append((te, {t for t in kinds if conforms(tg, t, decl)}, m))
    return report_from(_bound_findings(g, bounds, _mult_finding))


def _mult_finding(n: str, t: str, te: str, m: Multiplicity, count: int) -> Finding:
    code = "mult-underflow" if count < m.lb else "mult-overflow"
    return Finding(code, f"{n}.{te}", f"{count} outgoing {te!r} edge(s), multiplicity {m.render()}")


#: The bodies of the three checkers that ``conformance`` runs without a
#: signature, which key their slots in ``_parts``: named once here, since
#: a tracer may rebind the module's names to wrappers of the kept ones.
_FAMILY_CHECKERS = tuple(kept.__wrapped__ for kept in (check_typing, check_validity, check_multiplicities))


def __getattr__(name: str) -> object:
    """``check_type_graph``, loaded from :mod:`bigtg.wellformed` on first
    access (PEP 562) and then bound here like any other name, so that a
    tracer that patches this module's bindings finds it."""
    if name == "check_type_graph":
        from .wellformed import check_type_graph

        globals()[name] = check_type_graph
        return check_type_graph
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
