"""Directed graphs, type graphs and typed instance graphs.

A type graph plays the role of a metamodel: its nodes and edges are node
types and edge types, refined by an inheritance hierarchy with abstract
types, containment edge types, opposite edge-type pairs, multiplicities
and attribute declarations. Instance graphs carry a typing morphism into
a type graph; the ``check_*`` functions report every way the morphism or
the structural rules can fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from .report import Finding, ValidationReport, report_from

ATTR_TYPES = ("int", "string")


class UnknownType(ValueError):
    """A node type name does not occur in the type graph."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class InstanceGraph:
    """A graph typed over a type graph, with node attribute values."""

    graph: Graph
    node_types: Mapping[str, str] = field(default_factory=dict)
    edge_types: Mapping[str, str] = field(default_factory=dict)
    attrs: Mapping[tuple[str, str], int | str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_types", dict(self.node_types))
        object.__setattr__(self, "edge_types", dict(self.edge_types))
        object.__setattr__(self, "attrs", dict(self.attrs))


def node_attrs(g: InstanceGraph, n: str) -> dict[str, int | str]:
    return {a: v for (node, a), v in g.attrs.items() if node == n}


def outgoing(g: InstanceGraph, n: str, edge_type: str | None = None) -> list[str]:
    """Outgoing edges of ``n``, optionally restricted to one edge type, sorted."""
    return sorted(
        e
        for e in g.graph.edges
        if g.graph.src.get(e) == n
        and (edge_type is None or g.edge_types.get(e) == edge_type)
    )


def incoming(g: InstanceGraph, n: str, edge_type: str | None = None) -> list[str]:
    return sorted(
        e
        for e in g.graph.edges
        if g.graph.tgt.get(e) == n
        and (edge_type is None or g.edge_types.get(e) == edge_type)
    )


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
    """All transitive subtypes of ``t`` (excluding ``t`` itself)."""
    _require(tg, t)
    return {sub for sub, sups in tg._supertypes.items() if t in sups}


def all_super(tg: TypeGraph, t: str) -> set[str]:
    """All transitive supertypes of ``t`` (excluding ``t`` itself)."""
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


def opposite_of(tg: TypeGraph, edge_type: str) -> str | None:
    for a, b in tg.opposites:
        if a == edge_type:
            return b
    return None


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
    compatibility under subtyping, and attribute conformance."""
    findings: list[Finding] = []

    def flag(code: str, location: str, message: str) -> None:
        findings.append(Finding(code, location, message))

    for n in sorted(g.graph.nodes):
        t = g.node_types.get(n)
        if t is None:
            flag("typing-total", n, "node has no type")
        elif t not in tg.node_types:
            flag("typing-unknown-type", n, f"node typed by unknown type {t!r}")
        elif t in tg.abstracts:
            flag("typing-abstract", n, f"abstract type {t!r} instantiated")
    for n in sorted(set(g.node_types) - set(g.graph.nodes)):
        flag("typing-domain", n, "typing entry for unknown node")

    for e in sorted(g.graph.edges):
        te = g.edge_types.get(e)
        if te is None:
            flag("typing-total", e, "edge has no type")
            continue
        if te not in tg.edge_types:
            flag("typing-unknown-type", e, f"edge typed by unknown type {te!r}")
            continue
        for role, end, decl in (
            ("source", g.graph.src.get(e), tg.graph.src[te]),
            ("target", g.graph.tgt.get(e), tg.graph.tgt[te]),
        ):
            t_end = g.node_types.get(end) if end is not None else None
            if t_end is None or t_end not in tg.node_types:
                continue  # reported on the node itself
            if not conforms(tg, t_end, decl):
                flag(
                    "typing-" + ("source" if role == "source" else "target"),
                    e,
                    f"{role} type {t_end!r} incompatible with {te!r} (expects {decl!r})",
                )
    for e in sorted(set(g.edge_types) - set(g.graph.edges)):
        flag("typing-domain", e, "typing entry for unknown edge")

    for (n, a), v in sorted(g.attrs.items()):
        t = g.node_types.get(n)
        if t is None or t not in tg.node_types:
            continue
        decls = declared_attrs(tg, t)
        if a not in decls:
            flag("attr-undeclared", f"{n}.{a}", f"attribute {a!r} not declared for type {t!r}")
        elif decls[a] == "int" and (isinstance(v, bool) or not isinstance(v, int)):
            flag("attr-type", f"{n}.{a}", "attribute value is not an int")
        elif decls[a] == "string" and not isinstance(v, str):
            flag("attr-type", f"{n}.{a}", "attribute value is not a string")

    return report_from(findings)


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


def _opposite_groups(g: InstanceGraph, tg: TypeGraph) -> dict[tuple[str, str, str], list[str]]:
    """Edges whose type has an opposite, grouped by ``(type, src, tgt)``;
    each group is sorted."""
    groups: dict[tuple[str, str, str], list[str]] = {}
    for e in sorted(g.graph.edges):
        te, s, t = g.edge_types.get(e), g.graph.src.get(e), g.graph.tgt.get(e)
        if te is None or s is None or t is None or opposite_of(tg, te) is None:
            continue
        groups.setdefault((te, s, t), []).append(e)
    return groups


def check_validity(g: InstanceGraph, tg: TypeGraph) -> ValidationReport:
    """Containment acyclicity, unique containers, and opposite-edge
    consistency. Assumes ``check_typing`` already passed."""
    findings: list[Finding] = []

    def flag(code: str, location: str, message: str) -> None:
        findings.append(Finding(code, location, message))

    succ: dict[str, list[str]] = {}
    for e in sorted(g.graph.edges):
        if g.edge_types.get(e) in tg.containments:
            succ.setdefault(g.graph.src[e], []).append(g.graph.tgt[e])
    for cycle in _cycles(succ):
        flag("containment-cycle", cycle[0], "containment cycle through " + ", ".join(sorted(set(cycle))))

    for n in sorted(g.graph.nodes):
        containers = sorted(
            g.graph.src[e]
            for e in g.graph.edges
            if g.graph.tgt.get(e) == n and g.edge_types.get(e) in tg.containments
        )
        if len(containers) > 1:
            flag("multi-container", n, "node has more than one container: " + ", ".join(containers))

    # Opposite consistency: for both directions of each pair, the number
    # of t1 edges a->b must equal the number of t2 edges b->a.
    groups = _opposite_groups(g, tg)
    seen: set[tuple[str, str, str]] = set()
    for (te, s, t), edges in sorted(groups.items()):
        rev = (opposite_of(tg, te), t, s)
        key = min((te, s, t), rev)  # process each unordered pair once
        if key in seen:
            continue
        seen.add(key)
        fwd_count = len(edges)
        rev_count = len(groups.get(rev, ()))
        if fwd_count != rev_count:
            flag(
                "opposite-inconsistent",
                f"{te}[{s}->{t}]",
                f"{fwd_count} {te!r} edge(s) but {rev_count} opposite {rev[0]!r} edge(s)",
            )

    return report_from(findings)


def pair_opposites(g: InstanceGraph, tg: TypeGraph) -> dict[str, str]:
    """Pair every edge whose type has an opposite with its reverse edge.

    Only defined on graphs where :func:`check_validity` is empty; raises
    ``ValueError`` otherwise. The result is an involution without fixed
    points on the participating edges.
    """
    by_key = _opposite_groups(g, tg)
    pairing: dict[str, str] = {}
    for (te, s, t), edges in sorted(by_key.items()):
        partners = by_key.get((opposite_of(tg, te), t, s), [])
        if len(partners) != len(edges):
            raise ValueError(f"unpairable opposite edges at {te}[{s}->{t}]")
        for e, p in zip(edges, partners):
            pairing[e] = p
    return pairing


def check_multiplicities(g: InstanceGraph, tg: TypeGraph) -> ValidationReport:
    """Per-source-node bounds on outgoing edges of each applicable type."""
    findings: list[Finding] = []
    for n in sorted(g.graph.nodes):
        tn = g.node_types.get(n)
        if tn is None or tn not in tg.node_types:
            continue
        for te in sorted(tg.edge_types):
            m = tg.mult.get(te)
            if m is None or not conforms(tg, tn, tg.graph.src[te]):
                continue
            count = len(outgoing(g, n, te))
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
