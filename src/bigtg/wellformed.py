"""Well-formedness of the two documents that are checked on their own: a
bigraph (:func:`validate_bigraph`) and a type graph
(:func:`check_type_graph`).

Both names are reached through :mod:`bigtg.bigraph` and
:mod:`bigtg.typedgraph`, which import this module on first access (PEP
562). So only a caller that checks a bigraph or a type graph compiles it:
``bigtg validate`` of those two kinds, and ``encode``.
"""

from __future__ import annotations

from collections.abc import Container, Mapping
from itertools import chain, compress, filterfalse, repeat
from operator import and_, is_, itemgetter, not_

from .bigraph import Bigraph, PlaceChild, Point, _fmt_point, _is_port, _port_counts, _ports
from .report import Finding, ValidationReport, report_from
from .typedgraph import ATTR_TYPES, TypeGraph, _cycles, _parents, _reaches_cycle

TYPE_CHECKING = False  # read as true by static type checkers only
if TYPE_CHECKING:
    from typing import Any


def _named(m: Mapping[Any, object], names: Container[str]) -> dict[Any, str]:
    """The entries of ``m`` whose value is in ``names``, in the order of
    ``m``, picked by a C-level pass."""
    return dict(compress(m.items(), map(names.__contains__, m.values())))


def validate_bigraph(b: Bigraph) -> ValidationReport:
    """Check every structural invariant of a bigraph.

    Violations come back as report entries; an empty report means the
    bigraph is well-formed. The codes: ``id-overlap``; ``ctrl-total``,
    ``ctrl-domain`` and ``ctrl-unknown-control``; ``prnt-total``,
    ``prnt-domain``, ``prnt-codomain`` and ``parent-cycle``;
    ``link-total``, ``link-domain`` and ``link-codomain``. The types of
    ids, controls, places and arities are not among them: the
    constructors of :class:`Bigraph` and :class:`Signature` refuse them.

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
    findings: list[Finding] = []

    def flag(code: str, location: str, message: str) -> None:
        findings.append(Finding(code, location, message))

    nodes, ctrl, prnt, link = b.nodes, b.ctrl, b.prnt, b.link
    names = b.inner.names | b.outer.names
    for v in sorted(nodes & b.edges):
        flag("id-overlap", v, "identifier is both a node and an edge")
    for v in sorted((nodes | b.edges) & names):
        flag("id-overlap", v, "identifier is both a node/edge and a link name")

    # Control map: total on nodes, controls drawn from the signature.
    has_control = b.signature.has_control
    if not (ctrl.keys() == nodes and all(map(has_control, ctrl.values()))):
        for v in sorted(nodes.difference(ctrl)):
            flag("ctrl-total", f"ctrl[{v}]", "node has no control")
        fine = map(and_, map(nodes.__contains__, ctrl), map(has_control, ctrl.values()))
        for v in sorted(compress(ctrl, map(not_, fine))):
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
    # parent is a node (up) or an int below m.
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
            if not (parent in nodes if type(parent) is str else 0 <= parent < m):
                flag("prnt-codomain", f"prnt[{p}]", f"parent {parent!r} is neither a node nor a root index")
    # Every step of a cycle in up ends at a node, so up has a cycle exactly
    # when the node-to-node parent steps have one.
    if _reaches_cycle(up):
        node_parent = {v: [p] for v, p in up.items() if v in nodes}
        for cycle in _cycles(node_parent):
            flag("parent-cycle", f"prnt[{cycle[0]}]", "parent map cycle through " + ", ".join(sorted(cycle)))

    # Link map: total on inner names and ports, targets are edges or outer
    # names. The keys are the inner names and the ports when there are as
    # many of each, and each port key names a port; only otherwise is the
    # domain built and compared with the keys. The targets are fine when
    # they are all among the edges and outer names.
    counts = _port_counts(b)
    port_keys = list(filter(_is_port, link))
    slots = map(range, map(counts.get, map(itemgetter(0), port_keys), repeat(0)))
    targets, values = b.edges | b.outer.names, link.values()
    if not (
        len(port_keys) == sum(counts.values())
        and len(link) - len(port_keys) == len(b.inner.names)
        and b.inner.names.issuperset(filterfalse(_is_port, link))
        and all(map(range.__contains__, slots, map(itemgetter(1), port_keys)))
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
            if target not in targets:
                flag(
                    "link-codomain",
                    f"link[{_fmt_point(p)}]",
                    f"link target {target!r} is neither an edge nor an outer name",
                )

    return report_from(findings)


def check_type_graph(tg: TypeGraph) -> ValidationReport:
    """Well-formedness of a type graph itself (not of its instances).
    Each edge type's ends are node types: its :class:`Graph` refuses any
    other at construction.

    Besides the references, the hierarchy, the opposite relation and the
    declarations, each opposite pair of edge types must meet three EMOF
    rules: its ends mirror each other (``tg-opposite-ends``), at most one
    of the two is a containment (``tg-opposite-containments``), and the
    opposite of a containment has an upper bound of at most 1
    (``tg-container-mult``)."""
    findings: list[Finding] = []

    def flag(code: str, location: str, message: str) -> None:
        findings.append(Finding(code, location, message))

    for sub, sup in sorted(tg.inherits):
        if sub not in tg.node_types or sup not in tg.node_types:
            flag("tg-inherits-ref", f"({sub},{sup})", "inheritance references unknown node type")
    for cycle in _cycles(_parents(tg.inherits)):
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
            m = tg.mult.get(part)
            if whole in tg.containments and m is not None and (m.ub is None or m.ub > 1):
                flag(
                    "tg-container-mult",
                    part,
                    f"opposite of containment {whole!r} has multiplicity {m.render()}, upper bound above 1",
                )

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
