"""Directed graphs, type graphs and typed instance graphs.

A type graph plays the role of a metamodel: its nodes and edges are node
types and edge types, refined by an inheritance hierarchy with abstract
types, containment edge types, opposite edge-type pairs, multiplicities
and attribute declarations. Instance graphs carry a typing morphism into
a type graph; the ``check_*`` functions report every way the morphism or
the structural rules can fail.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Collection, Hashable, Iterable, Mapping
from functools import cached_property
from itertools import compress, repeat
from operator import is_not, itemgetter

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


@frozen
class InstanceGraph:
    """A graph typed over a type graph, with node attribute values.

    Three views are built on first use and kept: ``out_degree`` (edge
    counts by source and type, which the multiplicity and arity checkers
    read), the adjacency indexes ``out_index`` and ``in_index`` (which
    only constraint navigation and the ``outgoing``/``incoming`` helpers
    read), and ``attr_index``. So the dicts of ``graph``, ``node_types``,
    ``edge_types`` and ``attrs`` must not be mutated after the first
    query; build a new graph (through the constructor or
    ``bigtg.replace``) instead.
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
    def out_degree(self) -> Counter[tuple[str | None, str | None]]:
        """The number of edges of each ``(src, edge type)``, counted in one
        C-level pass; a missing end or type is keyed as ``None``."""
        edges = self.graph.edges
        return Counter(zip(map(self.graph.src.get, edges), map(self.edge_types.get, edges)))

    @cached_property
    def out_index(self) -> dict[tuple[str | None, str | None], tuple[str, ...]]:
        """Edges keyed by ``(src, edge type)``, each group sorted; a missing
        end or type is keyed as ``None``."""
        return self._adjacency(self.graph.src)

    @cached_property
    def in_index(self) -> dict[tuple[str | None, str | None], tuple[str, ...]]:
        """Edges keyed by ``(tgt, edge type)``, each group sorted; a missing
        end or type is keyed as ``None``."""
        return self._adjacency(self.graph.tgt)

    @cached_property
    def attr_index(self) -> dict[str, dict[str, int | str]]:
        """Attribute values grouped by node, in the order of ``attrs``."""
        by_node: dict[str, dict[str, int | str]] = {}
        for (n, a), v in self.attrs.items():
            by_node.setdefault(n, {})[a] = v
        return by_node

    def _adjacency(self, end: Mapping[str, str]) -> dict[tuple[str | None, str | None], tuple[str, ...]]:
        groups: dict[tuple[str | None, str | None], list[str]] = {}
        for e in sorted(self.graph.edges):
            groups.setdefault((end.get(e), self.edge_types.get(e)), []).append(e)
        return {key: tuple(edges) for key, edges in groups.items()}


def typed_edges(g: InstanceGraph, edge_type: str) -> list[str]:
    """The edges of one edge type, in the iteration order of
    ``g.graph.edges``. An untyped edge is none of them: ``None ==
    edge_type`` is false, whereas ``edge_type.__eq__(None)`` answers a
    truthy ``NotImplemented``, so that method is no filter."""
    edge_types = g.edge_types
    return [e for e in g.graph.edges if edge_types.get(e) == edge_type]


def node_attrs(g: InstanceGraph, n: str) -> dict[str, int | str]:
    """Attribute values of ``n`` by attribute name, read from the graph's
    cached index (so ``g`` must not be mutated after the first query)."""
    return dict(g.attr_index.get(n, {}))


def outgoing(g: InstanceGraph, n: str, edge_type: str) -> list[str]:
    """Outgoing edges of ``n`` of one edge type, sorted, read from the
    graph's cached index (so ``g`` must not be mutated after the first
    query)."""
    return list(g.out_index.get((n, edge_type), ()))


def incoming(g: InstanceGraph, n: str, edge_type: str) -> list[str]:
    """Incoming edges of ``n`` of one edge type, sorted, read from the
    graph's cached index (so ``g`` must not be mutated after the first
    query)."""
    return list(g.in_index.get((n, edge_type), ()))


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


def walk_suspects(
    elements: Collection[Any], keys: Iterable[Hashable], check: Callable[[Any], list[Finding]]
) -> list[Finding]:
    """The findings of ``check`` on every element, in sorted element order.

    ``keys`` holds one shape key per element, in the iteration order of
    ``elements`` (iterated again in that order), and must
    determine whether ``check`` flags the element.
    ``check`` runs on one element of each distinct key, and then on every
    element of the keys it flagged. A clean graph thus costs C-level passes
    over its elements plus one ``check`` per distinct shape.
    """
    keys = list(keys)
    bad = {key for key, el in dict(zip(keys, elements)).items() if check(el)}
    if not bad:
        return []
    return [f for el in sorted(compress(elements, map(bad.__contains__, keys))) for f in check(el)]


def check_type_graph(tg: TypeGraph) -> ValidationReport:
    """Well-formedness of a type graph itself (not of its instances)."""
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

    for e in sorted(tg.edge_types):
        if e not in tg.mult:
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


def check_typing(g: InstanceGraph, tg: TypeGraph) -> ValidationReport:
    """Check the typing morphism: totality, abstractness, endpoint
    compatibility under subtyping, and attribute conformance. An edge
    whose type lacks a node type as ``src`` or ``tgt`` (which
    ``check_type_graph`` reports as ``tg-edge-ends``) is reported as
    ``typing-type-ends``, and that end of the edge is not checked.

    Cost: C-level passes compute a shape key per element (a node's type;
    an edge's type, the types of its ends and whether each end is a node;
    an attribute's owner type, name and value class), the rules run once
    per distinct key, and only the elements of a failing key are sorted
    and walked (see :func:`walk_suspects`)."""
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
            ok = conforming.get((t_end, decl))
            if ok is None:
                ok = conforming[t_end, decl] = conforms(tg, t_end, decl)
            if not ok:
                findings.append(
                    Finding(
                        "typing-" + ("source" if role == "source" else "target"),
                        e,
                        f"{role} type {t_end!r} incompatible with {te!r} (expects {decl!r})",
                    )
                )
        return findings

    attr_decls: dict[str, dict[str, str]] = {}

    def check_attr(item: tuple[tuple[str, str], int | str]) -> list[Finding]:
        (n, a), v = item
        t = nt.get(n)
        if t is None or t not in tg.node_types:
            return []
        decls = attr_decls.get(t)
        if decls is None:
            decls = attr_decls[t] = declared_attrs(tg, t)
        if a not in decls:
            return [Finding("attr-undeclared", f"{n}.{a}", f"attribute {a!r} not declared for type {t!r}")]
        if decls[a] == "int" and (isinstance(v, bool) or not isinstance(v, int)):
            return [Finding("attr-type", f"{n}.{a}", "attribute value is not an int")]
        if decls[a] == "string" and not isinstance(v, str):
            return [Finding("attr-type", f"{n}.{a}", "attribute value is not a string")]
        return []

    edges, is_node = g.graph.edges, nodes.__contains__
    srcs, tgts = list(map(g.graph.src.get, edges)), list(map(g.graph.tgt.get, edges))
    edge_keys = zip(
        map(g.edge_types.get, edges), map(nt.get, srcs), map(nt.get, tgts), map(is_node, srcs), map(is_node, tgts)
    )
    attr_keys = zip(
        map(nt.get, map(itemgetter(0), g.attrs)), map(itemgetter(1), g.attrs), map(type, g.attrs.values())
    )
    return report_from(
        walk_suspects(nodes, map(nt.get, nodes), check_node)
        + [Finding("typing-domain", n, "typing entry for unknown node") for n in sorted(nt.keys() - nodes)]
        + walk_suspects(edges, edge_keys, check_edge)
        + [Finding("typing-domain", e, "typing entry for unknown edge") for e in sorted(g.edge_types.keys() - edges)]
        + walk_suspects(g.attrs.items(), attr_keys, check_attr)
    )


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


def check_validity(g: InstanceGraph, tg: TypeGraph) -> ValidationReport:
    """Containment acyclicity, unique containers, and opposite-edge
    consistency. Meant for graphs that pass ``check_typing``; edges with a
    missing end are skipped here (``check_typing`` reports them).

    Cost: C-level passes map each contained node to its container and
    count the edges of each ``(type, src, tgt)``. When no node has two
    containers, pointer jumping (:func:`_reaches_cycle`) rules cycles out
    without a search, and when every count equals that of its mirrored
    opposite key, no pair is inconsistent. Only otherwise are the
    containment edges searched, or every key walked, in sorted order."""
    findings: list[Finding] = []

    def flag(code: str, location: str, message: str) -> None:
        findings.append(Finding(code, location, message))

    edges, src, tgt = g.graph.edges, g.graph.src, g.graph.tgt
    contained = list(compress(edges, map(tg.containments.__contains__, map(g.edge_types.get, edges))))
    up = dict(zip(map(tgt.get, contained), map(src.get, contained)))
    if len(up) < len(contained) or _reaches_cycle(up):
        succ: dict[str, list[str]] = {}
        containers_of: dict[str, list[str]] = {}
        for e in sorted(contained):
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
    paired = list(compress(edges, map(opposite.__contains__, map(g.edge_types.get, edges))))
    types, srcs, tgts = list(map(g.edge_types.get, paired)), list(map(src.get, paired)), list(map(tgt.get, paired))
    counts = Counter(zip(types, srcs, tgts))
    mirrored = Counter(zip(map(opposite.get, types), tgts, srcs))
    # Equal counts leave every pair consistent, whatever the opposites are.
    # Counter's own == runs in Python; no count is zero, so dict's is exact.
    if dict.__eq__(counts, mirrored):
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


def check_multiplicities(g: InstanceGraph, tg: TypeGraph) -> ValidationReport:
    """Per-source-node bounds on outgoing edges of each applicable type.
    Edge types without a multiplicity, or without a node type as ``src``,
    are skipped (``check_type_graph`` reports them).

    Cost: one pass over the nodes in sorted order; the bounds that apply
    to a node type are found once per type, and each count is one read
    of ``g.out_degree``, which counts the edges in one C-level pass."""
    findings: list[Finding] = []
    bounded = [te for te in sorted(tg.edge_types) if te in tg.mult and tg.graph.src.get(te) in tg.node_types]
    out_degree = g.out_degree
    # The bounded edge types that apply to each node type, with their bounds.
    applicable: dict[str, list[tuple[str, Multiplicity]]] = {}
    for n in sorted(g.graph.nodes):
        tn = g.node_types.get(n)
        if tn is None or tn not in tg.node_types:
            continue
        bounds = applicable.get(tn)
        if bounds is None:
            bounds = applicable[tn] = [(te, tg.mult[te]) for te in bounded if conforms(tg, tn, tg.graph.src[te])]
        for te, m in bounds:
            count = out_degree.get((n, te), 0)
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
