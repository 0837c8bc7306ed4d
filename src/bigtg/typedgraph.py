"""Directed graphs, type graphs and typed instance graphs.

A type graph plays the role of a metamodel: its nodes and edges are node
types and edge types, refined by an inheritance hierarchy with abstract
types, containment edge types, opposite edge-type pairs, multiplicities
and attribute declarations. Instance graphs carry a typing morphism into
a type graph; the ``check_*`` functions report every way the morphism or
the structural rules can fail. Only a graph constructs: ``src`` and
``tgt`` are total functions into the nodes, and the typing is total, as
in typed graphs (Ehrig et al., *Fundamentals of Algebraic Graph
Transformation*, 2006); so no layer meets a missing end or type.
``check_type_graph``, which checks a type graph itself, lives in
:mod:`bigtg.wellformed` and is imported on first access of
``typedgraph.check_type_graph`` (PEP 562), so a caller that checks only
instance graphs does not compile it.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Callable, Collection, Hashable, Iterable, Mapping
from functools import cached_property, wraps
from itertools import chain, compress, repeat
from operator import is_not, itemgetter

from ._value import SCALAR, STR, as_dict, check_each, check_keys, check_within, field, frozen, is_int
from .report import Finding, ValidationReport, report_from

TYPE_CHECKING = False  # read as true by static type checkers only
if TYPE_CHECKING:
    from typing import Any

ATTR_TYPES = ("int", "string")


class UnknownType(ValueError):
    """A node type name does not occur in the type graph."""


@frozen
class Graph:
    """A directed unlabelled graph with opaque node and edge identifiers:
    ``src`` and ``tgt`` are total functions from the edges to the nodes.

    Construction copies each field and raises ``TypeError`` unless ids
    are exactly ``str``, and ``ValueError`` unless the keys of ``src`` and
    of ``tgt`` are the edges and each end is a node, as the readers give
    them: a structure with a missing or unknown end is no graph. ``tgt``
    is copied in the key order of ``src``. A :class:`TypeGraph`'s graph is
    one too, of node and edge types."""

    nodes: frozenset[str] = frozenset()
    edges: frozenset[str] = frozenset()
    src: Mapping[str, str] = field(default_factory=dict)
    tgt: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        nodes, edges, src, tgt = frozenset(self.nodes), frozenset(self.edges), as_dict(self.src), as_dict(self.tgt)
        check_each(self, "nodes", STR, "a str", nodes)
        check_each(self, "edges", STR, "a str", edges)
        check_each(self, "src", STR, "a str", src, src.values())
        check_each(self, "tgt", STR, "a str", tgt, tgt.values())
        check_keys(self, "src", src, edges, "an edge")
        check_keys(self, "tgt", tgt, edges, "an edge")
        check_within(self, "src", nodes, "a node", src.values())
        check_within(self, "tgt", nodes, "a node", tgt.values())
        tgt = dict(zip(src, map(tgt.__getitem__, src)))
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
    return type(value) is tuple and len(value) == 2 and type(value[0]) is str and type(value[1]) is str


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
    it. It also keeps one table, built on first use, for each question a
    checker asks of it alone (``_supertypes`` to ``_opposite``). So its
    dicts may not be mutated; build a new value (through the constructor
    or ``bigtg.replace``) instead. A copy or a pickle is rebuilt from the
    fields and keeps none of this."""

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
        check_each(self, "abstracts", STR, "a str", abstracts)
        check_each(self, "containments", STR, "a str", containments)
        check_each(self, "opposites", _is_pair, "a pair of str", opposites)
        check_each(self, "mult", STR, "a str", mult)
        check_each(self, "mult", Multiplicity.__instancecheck__, "a Multiplicity", mult.values())
        check_each(self, "attr_decls", STR, "a str", attr_decls, *attr_decls.values(), *map(dict.values, attr_decls.values()))
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
        """Each type's transitive supertypes; a type on a cycle is among its own."""
        return _closure(_parents(self.inherits))

    @cached_property
    def _subtypes(self) -> dict[str, frozenset[str]]:
        """Each type's transitive subtypes; a type on a cycle is among its own."""
        return _closure(_parents((sup, sub) for sub, sup in self.inherits))

    def _conforming(self, t: str) -> frozenset[str]:
        """The node types that conform to the node type ``t``."""
        return self.graph.nodes.intersection(self._subtypes.get(t, ())).union((t,))

    @cached_property
    def _ends(self) -> tuple[frozenset[tuple[str, str]], ...]:
        """Per end, sources first, the ``(edge type, node type)`` pairs whose node type conforms."""
        ends = (self.graph.src, self.graph.tgt)
        return tuple(frozenset((te, t) for te, decl in end.items() for t in self._conforming(decl)) for end in ends)

    @cached_property
    def _attrs(self) -> dict[str, dict[str, str]]:
        """Each node type's merged attribute declarations: its supertypes' in sorted order, then its own."""
        decls, sups, nodes = self.attr_decls, self._supertypes, self.graph.nodes
        return {t: {a: d for s in (*sorted(sups.get(t, ())), t) for a, d in decls.get(s, {}).items()} for t in nodes}

    @cached_property
    def _bounds(self) -> list[tuple[str, frozenset[str], Multiplicity]]:
        """Each edge type bounded other than ``[0,*]``, sorted, with the node types conforming to its source."""
        bounded = [(te, m) for te, m in sorted(self.mult.items()) if te in self.graph.edges and (m.lb or m.ub is not None)]
        return [(te, self._conforming(self.graph.src[te]), m) for te, m in bounded]

    @cached_property
    def _opposite(self) -> dict[str, str]:
        """The opposite of every edge type that has one; an edge type
        paired with several takes the smallest partner."""
        partner: dict[str, str] = {}
        for a, b in sorted(self.opposites):
            partner.setdefault(a, b)
        return partner


class EdgeView:
    """The edges of an instance graph in the graph's own order, the key
    order that ``g.graph.src``, ``g.graph.tgt`` and ``g.edge_types`` share,
    with their ``src``, ``tgt`` and type columns read as those dicts'
    values; the edges and their sources grouped by edge type, each group
    in that order; and the nodes grouped by node type, each group in the
    iteration order of ``g.graph.nodes``. Built in C-level passes.
    The edges of one edge type grouped by source, which constraint
    navigation reads, are built the first time that edge type is asked
    for (:meth:`by_source`) and kept."""

    __slots__ = ("edges", "src", "tgt", "type", "by_type", "sources", "by_node_type", "_by_source")

    def __init__(self, g: InstanceGraph) -> None:
        self.edges = edges = tuple(g.graph.src)
        self.src = list(g.graph.src.values())
        self.tgt = list(g.graph.tgt.values())
        self.type = list(g.edge_types.values())
        self.by_type = _grouped(self.type, edges)
        self.sources = _grouped(self.type, self.src)
        self.by_node_type = _grouped(list(map(g.node_types.__getitem__, g.graph.nodes)), g.graph.nodes)
        self._by_source: dict[str, dict[str, list[str]]] = {}

    def by_source(self, edge_type: str) -> dict[str, list[str]]:
        """The edges of ``edge_type`` grouped by their source, each group
        in the view's order."""
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
    grouped by source), which the checkers and the canonical rules,
    soundness, ``decode``'s rebuild and ``evaluate`` read; and ``_parts``,
    the last report of each checker wrapped by :func:`keeps_report`
    (``check_typing``, ``check_validity``, ``check_multiplicities`` and
    the arity rule, but not the canonical rules) with its arguments, what
    :func:`bigtg.variability.apply_deltas` reads, and what the graphs it
    returns share. So neither the dicts of ``g`` nor those arguments may
    be mutated after the first query, check or reconfiguration; build a
    new value (through the constructor or ``bigtg.replace``) instead.
    Neither travels with a copy or a pickle, which rebuilds the value
    from its fields.
    A variant shares the dicts it did not change with its input.

    Construction copies each dict and raises ``TypeError`` unless
    ``graph`` is a :class:`Graph`, ids and types are exactly ``str``, each
    attribute is keyed by a tuple of two ``str`` (its owner and its name)
    and each attribute value is exactly an ``int`` or a ``str``; and
    ``ValueError`` unless the typing is total (the keys of ``node_types``
    are the nodes and those of ``edge_types`` the edges) and each
    attribute's owner is a node, as the readers give them. ``edge_types``
    is copied in the key order of ``graph.src``, which ``edge_view`` reads.
    A type that the type graph lacks is a finding of the checkers.
    """

    graph: Graph
    node_types: Mapping[str, str] = field(default_factory=dict)
    edge_types: Mapping[str, str] = field(default_factory=dict)
    attrs: Mapping[tuple[str, str], int | str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        node_types, edge_types, attrs = as_dict(self.node_types), as_dict(self.edge_types), as_dict(self.attrs)
        check_each(self, "graph", Graph.__instancecheck__, "a Graph", (self.graph,))
        check_each(self, "node_types", STR, "a str", node_types, node_types.values())
        check_each(self, "edge_types", STR, "a str", edge_types, edge_types.values())
        check_each(self, "attrs", _is_pair, "a pair of str", attrs)
        check_each(self, "attrs", SCALAR, "an int or a str", attrs.values())
        nodes = self.graph.nodes
        check_keys(self, "node_types", node_types, nodes, "a node")
        check_keys(self, "edge_types", edge_types, self.graph.edges, "an edge")
        check_within(self, "attrs", nodes, "a node", set(map(itemgetter(0), attrs)), "an attribute of ")
        edge_types = dict(zip(self.graph.src, map(edge_types.__getitem__, self.graph.src)))
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
    return sorted(e for e in g.edge_view.by_type.get(edge_type, ()) if tgt[e] == n)


def _parents(inherits: Iterable[tuple[str, str]]) -> dict[str, list[str]]:
    """Direct supertypes of every type that has one, sorted."""
    parents: dict[str, set[str]] = {}
    for sub, sup in inherits:
        parents.setdefault(sub, set()).add(sup)
    return {t: sorted(sups) for t, sups in parents.items()}


def _closure(step: Mapping[str, list[str]]) -> dict[str, frozenset[str]]:
    """What each key of ``step`` reaches in one or more steps; a key on a cycle reaches itself."""
    closure: dict[str, frozenset[str]] = {}
    for t in step:
        out: set[str] = set()
        frontier = [t]
        while frontier:
            new = set(step.get(frontier.pop(), ())) - out
            frontier += new
            out |= new
        closure[t] = frozenset(out)
    return closure


def _require(tg: TypeGraph, t: str) -> None:
    if t not in tg.node_types:
        raise UnknownType(f"unknown node type {t!r}")


def all_sub(tg: TypeGraph, t: str) -> set[str]:
    """All transitive subtypes of ``t``; ``t`` itself is among them only
    when it lies on an inheritance cycle."""
    _require(tg, t)
    return set(tg._subtypes.get(t, ()))


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
    return t in tg._subtypes.get(target, ())


def declared_attrs(tg: TypeGraph, t: str) -> dict[str, str]:
    """Attribute declarations of ``t`` merged with those it inherits: a
    copy of its entry in the type graph's table."""
    _require(tg, t)
    return dict(tg._attrs[t])


def keeps_report(checker: Callable[..., ValidationReport]) -> Callable[..., ValidationReport]:
    """Make a checker of an instance graph keep its report on the graph.

    The wrapped ``checker(g, *args)`` keeps one slot on ``g``, under the
    checker itself in ``g._parts``: the other arguments and the report. A
    call whose arguments ``==`` the kept ones returns the kept report; any
    other call runs the checker and replaces the slot. The constructors
    refuse values that are equal but print apart (``1 == True``), so equal
    arguments are checked alike. ``extend_for_signature(sig)`` returns one
    type graph per set of control names, which the slot keeps alive, so
    the checks in ``decode(g, sig)`` after the caller's own are hits, found
    by identity. Reconfiguration fills the slots of the graphs it returns
    with their family's verdict (:func:`bigtg.variability.apply_deltas`).
    The wrapper keeps the checker's name, and the checker itself as
    ``__wrapped__``.
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
    element of the keys it flagged. ``check_typing`` walks the attributes,
    and the nodes or edges only when their whole-column test failed.
    """
    keys = list(keys)
    bad = {key for key, el in dict(zip(keys, elements)).items() if check(el)}
    if not bad:
        return []
    return [f for el in sorted(compress(elements, map(bad.__contains__, keys))) for f in check(el)]


@keeps_report
def check_typing(g: InstanceGraph, tg: TypeGraph) -> ValidationReport:
    """Check the typing morphism, which the constructor makes total:
    known types, abstractness, endpoint compatibility under subtyping, and
    attribute conformance. An end or an owner typed by a type that ``tg``
    lacks is reported on its node, and not checked again on the edge or
    the attribute.

    Cost: C-level passes gather whole columns: the node types (from
    ``g.edge_view``), and for each end the ``(edge type, end type)`` pair
    of every edge. A clean graph passes one subset test per column against
    the type graph's tables: its node types and abstract types, and the
    pairs whose end conforms (``tg._ends``), one set per end. Only the
    nodes or edges whose test fails are walked, and the attributes are
    walked against each owner type's merged declarations (``tg._attrs``):
    the rules run once per distinct shape key of an element, and only the
    elements of a failing key are sorted and checked (see
    :func:`walk_suspects`). The report is kept on ``g``
    (:func:`keeps_report`)."""
    view, nt, known = g.edge_view, g.node_types, tg.node_types
    ends, declared = tg._ends, tg._attrs

    def check_node(n: str) -> list[Finding]:
        t = nt[n]
        if t not in known:
            return [Finding("typing-unknown-type", n, f"node typed by unknown type {t!r}")]
        if t in tg.abstracts:
            return [Finding("typing-abstract", n, f"abstract type {t!r} instantiated")]
        return []

    def check_edge(e: str) -> list[Finding]:
        te = g.edge_types[e]
        if te not in tg.edge_types:
            return [Finding("typing-unknown-type", e, f"edge typed by unknown type {te!r}")]
        findings: list[Finding] = []
        sides = (("source", g.graph.src[e], tg.graph.src, ends[0]), ("target", g.graph.tgt[e], tg.graph.tgt, ends[1]))
        for role, end, decls, fits in sides:
            t_end = nt[end]
            if t_end in known and (te, t_end) not in fits:  # else reported on the node
                message = f"{role} type {t_end!r} incompatible with {te!r} (expects {decls[te]!r})"
                findings.append(Finding("typing-" + role, e, message))
        return findings

    def check_attr(item: tuple[tuple[str, str], int | str]) -> list[Finding]:
        (n, a), v = item
        t = nt[n]
        decls = declared.get(t)
        if decls is None:  # an unknown type, reported on the node
            return []
        if a not in decls:
            return [Finding("attr-undeclared", f"{n}.{a}", f"attribute {a!r} not declared for type {t!r}")]
        misfit = _misfit(decls[a], type(v))
        if misfit is not None:
            return [Finding("attr-type", f"{n}.{a}", "attribute value is not " + misfit)]
        return []

    findings: list[Finding] = []
    kinds, nodes = view.by_node_type.keys(), g.graph.nodes
    if not kinds <= known or not kinds.isdisjoint(tg.abstracts):
        findings += walk_suspects(nodes, map(nt.__getitem__, nodes), check_node)

    types = view.type
    src_types, tgt_types = list(map(nt.__getitem__, view.src)), list(map(nt.__getitem__, view.tgt))
    if not ends[0].issuperset(zip(types, src_types)) or not ends[1].issuperset(zip(types, tgt_types)):
        findings += walk_suspects(view.edges, zip(types, src_types, tgt_types), check_edge)

    owner_types = map(nt.__getitem__, map(itemgetter(0), g.attrs))
    shapes = zip(owner_types, map(itemgetter(1), g.attrs), map(type, g.attrs.values()))
    findings += walk_suspects(g.attrs.items(), shapes, check_attr)
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
    consistency. Meant for graphs that pass ``check_typing``.

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
            s, t = src[e], tgt[e]
            succ.setdefault(s, []).append(t)
            containers_of.setdefault(t, []).append(s)
        for cycle in _cycles(succ):
            flag("containment-cycle", cycle[0], "containment cycle through " + ", ".join(sorted(set(cycle))))
        for n in sorted(n for n, containers in containers_of.items() if len(containers) > 1):
            flag("multi-container", n, "node has more than one container: " + ", ".join(sorted(containers_of[n])))

    # Opposite consistency: for both directions of each pair, the number
    # of t1 edges a->b must equal the number of t2 edges b->a.
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
    for te, s, t in sorted(counts):
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
        t = g.node_types[n]
        for te, types, m in failing:
            count = counted[te][n]
            if t in types and not (m.lb <= count and (m.ub is None or count <= m.ub)):
                findings.append(finding(n, t, te, m, count))
    return findings


@keeps_report
def check_multiplicities(g: InstanceGraph, tg: TypeGraph) -> ValidationReport:
    """Per-source-node bounds on outgoing edges of each applicable type.
    Edge types without a multiplicity are skipped (``check_type_graph``
    reports them). The report is kept on ``g`` (:func:`keeps_report`).

    Cost: the bounds are a table of ``tg`` (``tg._bounds``); they are
    tested on ``g.edge_view``, and only the failing ones walked, by
    :func:`_bound_findings`."""
    return report_from(_bound_findings(g, tg._bounds, _mult_finding))


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
