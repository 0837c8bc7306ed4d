"""The canonical bridge between bigraphs and typed graphs.

The mapping between bigraphs and instance graphs over the metamodel of
:mod:`bigtg.metamodel`, whose names this module re-exports. The mapping
is written down once, as one table: ``_KINDS`` gives each element kind
its id prefix and node type, and ``_relations`` lists nesting, linking
and port ownership with their opposite edge types. :func:`encode` writes
a bigraph out along the table, :func:`decode` reads it back, and
``check_soundness`` (in :mod:`bigtg.soundness`, loaded on first access)
aligns a bigraph with its encoding element by element against it.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from itertools import repeat

from ._value import field, frozen
from .bigraph import Bigraph, Interface, Port, _ports
# The metamodel's names stay reachable here, as ``mapping.conformance``.
from .metamodel import (
    NotCanonical,
    base_type_graph,
    check_arity_rule,
    conformance,
    extend_for_signature,
)
from .report import Finding, ValidationReport, report_from
from .typedgraph import Graph, InstanceGraph

# Element kinds of a bigraph; the tags realize the disjointness that the
# index/name substitutions provide on paper.
K_NODE = "node"
K_EDGE = "edge"
K_PORT = "port"
K_SITE = "site"
K_ROOT = "root"
K_INNER = "inner"
K_OUTER = "outer"

#: The id prefix and the node type of each element kind; a node is typed
#: by its control (``None`` here).
_KINDS: dict[str, tuple[str, str | None]] = {
    K_NODE: ("n:", None),
    K_EDGE: ("e:", "BEdge"),
    K_PORT: ("p:", "BPort"),
    K_SITE: ("s:", "BSite"),
    K_ROOT: ("r:", "BRoot"),
    K_INNER: ("i:", "BInnerName"),
    K_OUTER: ("o:", "BOuterName"),
}

Element = tuple[str, object]


class InvalidBigraph(Exception):
    """Raised when a bigraph handed to the encoder fails validation, or
    has an idle link, which no conforming encoding has."""

    def __init__(self, report: ValidationReport):
        super().__init__("bigraph cannot be encoded: " + "; ".join(f.message for f in report.findings))
        self.report = report


class UntypedControl(Exception):
    """A node is typed by the generic node type instead of a control."""


@frozen
class ElementMap:
    """Bijection between the elements of a bigraph and instance-graph nodes."""

    forward: Mapping[Element, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "forward", dict(self.forward))


def element_id(kind: str, key: object) -> str:
    """Deterministic instance-graph node id for a bigraph element."""
    prefix = _KINDS[kind][0]
    if kind == K_PORT:
        node, index = key  # type: ignore[misc]
        return f"{prefix}{node}:{index}"
    return prefix + str(key)


def elements_of(b: Bigraph) -> set[Element]:
    """The elements of a bigraph whose nodes all have declared controls:
    nodes, edges, ports, sites, roots, inner and outer names, added in
    that order by C-level passes."""
    arities = map(b.signature.arities.__getitem__, map(b.ctrl.__getitem__, b.nodes))
    out: set[Element] = set(zip(repeat(K_NODE), b.nodes))
    out.update(zip(repeat(K_EDGE), b.edges))
    out.update(zip(repeat(K_PORT), _ports(b.nodes, arities)))
    out.update(zip(repeat(K_SITE), range(b.inner.width)))
    out.update(zip(repeat(K_ROOT), range(b.outer.width)))
    out.update(zip(repeat(K_INNER), b.inner.names))
    out.update(zip(repeat(K_OUTER), b.outer.names))
    return out


def _relations(b: Bigraph) -> tuple[tuple[str, str, Iterator[tuple[object, Element, Element]]], ...]:
    """Nesting, linking and port ownership, each as its edge type from
    child to parent, the opposite edge type, and, lazily, its
    ``(bigraph key, child element, parent element)`` triples.

    Sites and roots are the integer places. Every port of a valid bigraph
    is linked, so the ports are the link map's ``Port`` keys."""
    nesting = (
        (c, (K_SITE, c) if isinstance(c, int) else (K_NODE, c), (K_ROOT, p) if isinstance(p, int) else (K_NODE, p))
        for c, p in b.prnt.items()
    )
    linking = (
        (x, (K_PORT, x) if isinstance(x, Port) else (K_INNER, x), (K_EDGE, y) if y in b.edges else (K_OUTER, y))
        for x, y in b.link.items()
    )
    ownership = ((x, (K_PORT, x), (K_NODE, x.node)) for x in b.link if isinstance(x, Port))
    return ("bPrnt", "bChld", nesting), ("bLink", "bPoints", linking), ("bNode", "bPorts", ownership)


def _idle_links(b: Bigraph) -> ValidationReport:
    """One ``idle-link`` finding per edge or outer name of ``b`` that no
    point is linked to, edges first, each group in sorted order. Such a
    link is ordinary in a bigraph, but its encoding would break the
    ``[1,*]`` multiplicity of ``bPoints``."""
    linked = set(b.link.values())
    return report_from(
        [
            Finding("idle-link", y, f"{what} {y!r} has no point; 'bPoints' needs at least one")
            for what, names in (("edge", b.edges), ("outer name", b.outer.names))
            for y in sorted(names - linked)
        ]
    )


def encode(b: Bigraph) -> tuple[InstanceGraph, ElementMap]:
    """Encode a valid bigraph as an instance graph over its signature's
    type graph, together with the element bijection.

    Each element becomes a node of its kind's type; nesting, linking and
    port ownership each become an opposite pair of directed edges; root,
    site and port indices become ``index`` attributes. Raises
    :class:`InvalidBigraph` if ``b`` is not valid, if it has an edge or
    outer name without any point (``idle-link``), so that every
    graph returned conforms, or if ids that contain ``:`` give two edges
    one id.
    """
    from .bigraph import validate_bigraph  # here, so that decode does not compile it

    rep = validate_bigraph(b)
    if rep.ok:
        rep = _idle_links(b)
    if not rep.ok:
        raise InvalidBigraph(rep)

    fwd: dict[Element, str] = {}
    ntypes: dict[str, str] = {}
    attrs: dict[tuple[str, str], int | str] = {}
    for el in elements_of(b):
        kind, key = el
        gid = fwd[el] = element_id(kind, key)
        ntypes[gid] = _KINDS[kind][1] or b.ctrl[key]  # type: ignore[index]
        if kind in (K_SITE, K_ROOT):
            attrs[(gid, "index")] = key  # type: ignore[assignment]
        elif kind == K_PORT:
            attrs[(gid, "index")] = key.index  # type: ignore[attr-defined]

    def edges() -> Iterator[tuple[str, str, str, str]]:
        for edge_type, opposite, triples in _relations(b):
            for _, child, parent in triples:
                s, t = fwd[child], fwd[parent]
                for ty, a, z in ((edge_type, s, t), (opposite, t, s)):
                    yield f"{ty}:{a}:{z}", ty, a, z

    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    etypes: dict[str, str] = {}
    count = 0
    for count, (eid, ty, a, z) in enumerate(edges(), 1):
        src[eid], tgt[eid], etypes[eid] = a, z, ty
    if len(etypes) != count:
        seen: set[str] = set()
        for eid, *_ in edges():
            if eid in seen:
                finding = Finding("edge-id-collision", eid, f"two relations are both edge {eid}")
                raise InvalidBigraph(report_from([finding]))
            seen.add(eid)

    g = InstanceGraph(
        graph=Graph(nodes=frozenset(fwd.values()), edges=frozenset(etypes), src=src, tgt=tgt),
        node_types=ntypes,
        edge_types=etypes,
        attrs=attrs,
    )
    return g, ElementMap(fwd)


def _strip_prefix(kind: str, gid: str) -> str:
    prefix = _KINDS[kind][0]
    return gid[len(prefix) :] if gid.startswith(prefix) else gid


def _index_range(
    kind: str, nodes_with_index: list[tuple[str, object]], count_label: str
) -> dict[int, str]:
    """Map indices 0..n-1 to graph nodes, rejecting gaps and duplicates.
    Each index is an integer: ``attr-type`` has refused any other value."""
    by_index: dict[int, str] = {}
    for gid, idx in nodes_with_index:
        if idx is None:
            raise NotCanonical(f"{kind} {gid} has no index attribute")
        if idx in by_index:
            raise NotCanonical(f"duplicate {kind} index {idx}")
        by_index[idx] = gid
    for i in range(len(by_index)):
        if i not in by_index:
            raise NotCanonical(f"{count_label} indices are not the gap-free range 0..{len(by_index) - 1}")
    return by_index


def decode(g: InstanceGraph, sig: Signature) -> tuple[Bigraph, ElementMap]:
    """Rebuild the bigraph that a canonical instance graph encodes.

    Only defined for the canonical variant: strongly typed controls,
    explicit roots/sites/ports, and complete gap-free index attributes.
    A graph that fails :func:`conformance` raises :class:`NotCanonical`
    with the findings; among them ``attr-owner`` for an attribute whose
    owner is not a node, which the rebuild would drop, and ``sig-arity``
    for an arity of ``sig`` that is not a non-negative integer. The
    checkers keep their reports on ``g`` (:func:`keeps_report`), so after
    a caller's own ``conformance(g, extend_for_signature(sig), sig)``,
    or the four checks it runs, the check here costs four identity
    checks, and ``decode`` pays only for the rebuild. The rebuild
    then raises :class:`UntypedControl`
    for a node typed ``BNode``, and :class:`NotCanonical` for two ids of
    one kind that collide once their prefix is stripped, a root, site or
    port index that is missing, duplicated or outside a gap-free range, a
    root with a parent, a site as a parent, or a node or site without a
    parent. Conformance implies the rest: each index is an integer
    (``attr-type``), each port has one ownership edge (``bNode`` is
    ``[1,1]``) to a node typed by a control (its target conforms to
    ``BNode``, and a node typed ``BNode`` itself has raised), and each link
    edge runs from a port or inner name to an edge or outer name.
    """
    rep = conformance(g, extend_for_signature(sig), sig)
    if not rep.ok:
        raise NotCanonical("instance graph fails canonical checks", rep)

    kind_of_type = dict.fromkeys(sig.names, K_NODE)
    kind_of_type.update((node_type, kind) for kind, (_, node_type) in _KINDS.items() if node_type)
    of_type = g.edge_view.by_node_type
    if "BNode" in of_type:
        raise UntypedControl(f"node {min(of_type['BNode'])} is typed 'BNode' instead of a control type")
    gids: dict[str, list[str]] = {kind: [] for kind in _KINDS}
    for t, nodes in of_type.items():
        gids[kind_of_type[t]] += nodes
    for nodes in gids.values():
        nodes.sort()

    # The bigraph key of each graph node, per kind.
    keys: dict[str, dict[object, str]] = {}
    for kind in (K_NODE, K_EDGE, K_INNER, K_OUTER):
        recovered = keys[kind] = {}
        for gid in gids[kind]:
            key = _strip_prefix(kind, gid)
            if key in recovered:
                raise NotCanonical(f"{kind} identifiers {recovered[key]!r} and {gid!r} collide as {key!r}")
            recovered[key] = gid
    for kind in (K_ROOT, K_SITE):
        indexed = [(gid, g.attrs.get((gid, "index"))) for gid in gids[kind]]
        keys[kind] = _index_range(kind, indexed, kind)  # type: ignore[assignment]
    # Ports: owner via the ownership edge, index per owner gap-free.
    owned = g.edge_view.by_type.get("bNode", ())
    owner_of = dict(zip(map(g.graph.src.get, owned), map(g.graph.tgt.get, owned)))
    ports_by_owner: dict[str, list[tuple[str, object]]] = {}
    for gid in gids[K_PORT]:
        ports_by_owner.setdefault(owner_of[gid], []).append((gid, g.attrs.get((gid, "index"))))
    ports = keys[K_PORT] = {}
    for owner, entries in sorted(ports_by_owner.items()):
        node = _strip_prefix(K_NODE, owner)
        for i, gid in _index_range(K_PORT, entries, f"port (node {node})").items():
            ports[Port(node, i)] = gid
    fwd = {(kind, key): gid for kind, recovered in keys.items() for key, gid in recovered.items()}
    el_of = {gid: el for el, gid in fwd.items()}

    prnt: dict[object, object] = {}
    link: dict[object, object] = {}
    rebuilt = {"bPrnt": prnt, "bLink": link}
    for e in sorted(g.graph.edges):
        into = rebuilt.get(g.edge_types[e])
        if into is None:
            continue
        (child_kind, child), (parent_kind, parent) = el_of[g.graph.src[e]], el_of[g.graph.tgt[e]]
        if child_kind == K_ROOT:
            raise NotCanonical(f"root {g.graph.src[e]} has a parent")
        if parent_kind == K_SITE:
            raise NotCanonical(f"parent edge {e} connects non-place nodes")
        into[child] = parent
    for kind, places in ((K_NODE, sorted(keys[K_NODE])), (K_SITE, keys[K_SITE])):
        for key in places:
            if key not in prnt:
                raise NotCanonical(f"{kind} {key} has no parent")

    b = Bigraph(
        signature=sig,
        nodes=frozenset(keys[K_NODE]),
        edges=frozenset(keys[K_EDGE]),
        ctrl={v: g.node_types[gid] for v, gid in keys[K_NODE].items()},
        prnt=prnt,
        link=link,
        inner=Interface(len(keys[K_SITE]), frozenset(keys[K_INNER])),
        outer=Interface(len(keys[K_ROOT]), frozenset(keys[K_OUTER])),
    )
    return b, ElementMap(fwd)


def __getattr__(name: str) -> object:
    """``check_soundness``, loaded from :mod:`bigtg.soundness` on first
    access (PEP 562) and then bound here like any other name, so that a
    tracer that patches this module's bindings finds it."""
    if name == "check_soundness":
        from .soundness import check_soundness

        globals()[name] = check_soundness
        return check_soundness
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
