"""The canonical bridge between bigraphs and typed graphs.

Provides the base type graph modeling bigraph anatomy, its
control-compatible extension for a signature, the arity well-formedness
rule, and the canonical mapping between bigraphs and instance graphs.
The mapping is written down once, as one table: ``_KINDS`` gives each
element kind its id prefix and node type, and ``_relations`` lists
nesting, linking and port ownership with their opposite edge types.
:func:`encode` writes a bigraph out along the table, :func:`decode` reads
it back, and :func:`check_soundness` aligns a bigraph with its encoding
element by element against it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Mapping

from ._value import field, frozen
from .bigraph import (
    BASE_NODE_TYPE_NAMES,
    Bigraph,
    Interface,
    Port,
    ReservedControlName,
    Signature,
    is_arity,
    validate_bigraph,
)
from .report import Finding, ValidationReport, report_from
from .typedgraph import (
    Graph,
    InstanceGraph,
    Multiplicity,
    TypeGraph,
    check_multiplicities,
    check_typing,
    check_validity,
    symmetric_pairs,
    typed_edges,
)

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
    """Raised when a bigraph handed to the encoder fails validation."""

    def __init__(self, report: ValidationReport):
        super().__init__("bigraph is not well-formed: " + "; ".join(f.message for f in report.findings))
        self.report = report


class NotCanonical(Exception):
    """The instance graph is not a canonical, fully indexed encoding."""

    def __init__(self, message: str, report: ValidationReport | None = None):
        super().__init__(message)
        self.report = report if report is not None else ValidationReport()


class UntypedControl(Exception):
    """A node is typed by the generic node type instead of a control."""


def base_type_graph() -> TypeGraph:
    """The fixed type graph describing places, links, ports and names."""
    edges = {
        # name: (src, tgt, mult)
        "bPrnt": ("BPlace", "BPlace", Multiplicity(0, 1)),
        "bChld": ("BPlace", "BPlace", Multiplicity(0, None)),
        "bLink": ("BPoint", "BLink", Multiplicity(1, 1)),
        "bPoints": ("BLink", "BPoint", Multiplicity(1, None)),
        "bPorts": ("BNode", "BPort", Multiplicity(0, None)),
        "bNode": ("BPort", "BNode", Multiplicity(1, 1)),
    }
    return TypeGraph(
        graph=Graph(
            nodes=frozenset(BASE_NODE_TYPE_NAMES),
            edges=frozenset(edges),
            src={e: s for e, (s, _, _) in edges.items()},
            tgt={e: t for e, (_, t, _) in edges.items()},
        ),
        inherits=frozenset(
            {
                ("BRoot", "BPlace"),
                ("BNode", "BPlace"),
                ("BSite", "BPlace"),
                ("BPort", "BPoint"),
                ("BInnerName", "BPoint"),
                ("BEdge", "BLink"),
                ("BOuterName", "BLink"),
            }
        ),
        abstracts=frozenset({"BPlace", "BPoint", "BLink"}),
        containments=frozenset({"bChld", "bPorts"}),
        opposites=symmetric_pairs([("bPrnt", "bChld"), ("bLink", "bPoints"), ("bPorts", "bNode")]),
        mult={e: m for e, (_, _, m) in edges.items()},
        attr_decls={
            "BRoot": {"index": "int"},
            "BSite": {"index": "int"},
            "BPort": {"index": "int"},
        },
    )


def extend_for_signature(sig: Signature) -> TypeGraph:
    """Control-compatible extension: one extra node type per control, each
    a subtype of the generic node type."""
    clash = set(sig.names) & set(BASE_NODE_TYPE_NAMES)
    if clash:
        raise ReservedControlName(f"controls collide with base node types: {sorted(clash)}")
    base = base_type_graph()
    return TypeGraph(
        graph=Graph(
            nodes=base.graph.nodes | set(sig.names),
            edges=base.graph.edges,
            src=base.graph.src,
            tgt=base.graph.tgt,
        ),
        inherits=base.inherits | {(c, "BNode") for c in sig.names},
        abstracts=base.abstracts,
        containments=base.containments,
        opposites=base.opposites,
        mult=base.mult,
        attr_decls=base.attr_decls,
    )


def check_arity_rule(g: InstanceGraph, tg: TypeGraph, sig: Signature) -> ValidationReport:
    """Every node typed by a control must own exactly ``arity`` port edges.

    Cost: one pass over the nodes in sorted order; each port count is one
    read of ``g.out_degree``, which counts the edges in one C-level pass."""
    control_types = {c for c in sig.names if c in tg.node_types}
    findings: list[Finding] = []
    out_degree = g.out_degree
    for n in sorted(g.graph.nodes):
        t = g.node_types.get(n)
        if t not in control_types:
            continue
        want = sig.arity(t)
        got = out_degree.get((n, "bPorts"), 0)
        if got != want:
            findings.append(
                Finding(
                    "arity",
                    n,
                    f"node of control {t!r} has {got} outgoing 'bPorts' edge(s), arity is {want}",
                )
            )
    return report_from(findings)


def conformance(g: InstanceGraph, tg: TypeGraph, sig: Signature | None = None) -> ValidationReport:
    """Conformance of ``g`` to ``tg``: the typing morphism, validity and
    multiplicities, then the arity rule when a signature is given, with
    the findings in that order."""
    rep = check_typing(g, tg).merged(check_validity(g, tg), check_multiplicities(g, tg))
    return rep if sig is None else rep.merged(check_arity_rule(g, tg, sig))


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
    out: set[Element] = set()
    out.update((K_NODE, v) for v in b.nodes)
    out.update((K_EDGE, e) for e in b.edges)
    out.update((K_PORT, Port(v, i)) for v in b.nodes for i in range(b.signature.arity(b.ctrl[v])))
    out.update((K_SITE, i) for i in range(b.inner.width))
    out.update((K_ROOT, i) for i in range(b.outer.width))
    out.update((K_INNER, x) for x in b.inner.names)
    out.update((K_OUTER, y) for y in b.outer.names)
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


def encode(b: Bigraph) -> tuple[InstanceGraph, ElementMap]:
    """Encode a valid bigraph as an instance graph over its signature's
    type graph, together with the element bijection.

    Each element becomes a node of its kind's type; nesting, linking and
    port ownership each become an opposite pair of directed edges; root,
    site and port indices become ``index`` attributes. Edges or outer
    names without any point cannot satisfy the one-or-more-points
    multiplicity of the metamodel and will make the encoding fail
    :func:`check_multiplicities`. Raises :class:`InvalidBigraph` if ``b``
    is not valid, or if ids that contain ``:`` give two edges one id.
    """
    rep = validate_bigraph(b)
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
    with the findings. The rebuild then raises :class:`UntypedControl`
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
    gids: dict[str, list[str]] = {kind: [] for kind in _KINDS}
    for n in sorted(g.graph.nodes):
        t = g.node_types[n]
        if t == "BNode":
            raise UntypedControl(f"node {n} is typed 'BNode' instead of a control type")
        gids[kind_of_type[t]].append(n)

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
    owned = typed_edges(g, "bNode")
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


def check_soundness(b: Bigraph, g: InstanceGraph, emap: ElementMap) -> ValidationReport:
    """Check that ``g`` represents ``b`` exactly under the element map.

    Reports proper typing of every mapped element, the two-way coincidence
    of nesting and linking with the paired directed edges, and the
    consistency of root, site and port index attributes. Defects in the
    map itself (non-bijectivity, dangling images) are reported too rather
    than assumed away. Edges with a missing end are skipped
    (``check_typing`` reports them). A bigraph with a node that has no
    control, or a control that its signature does not declare, has no
    elements to align: its :func:`validate_bigraph` findings come back,
    as they do for a signature with an arity that is not a non-negative
    integer.
    """
    ctrl, sig = b.ctrl, b.signature
    if not (all(map(sig.has_control, map(ctrl.get, b.nodes))) and all(map(is_arity, sig.arities.values()))):
        return validate_bigraph(b)
    findings: list[Finding] = []

    def flag(code: str, location: str, message: str) -> None:
        findings.append(Finding(code, location, message))

    expected = elements_of(b)
    fwd = dict(emap.forward)
    nodes = g.graph.nodes
    for el in sorted(expected - set(fwd), key=str):
        flag("map-domain", str(el), "bigraph element is not mapped")
    for el in sorted(set(fwd) - expected, key=str):
        flag("map-domain", str(el), "map entry for a non-element")
    images = list(fwd.values())
    if len(set(images)) != len(images):
        dupes = sorted({gid for gid in images if images.count(gid) > 1})
        for gid in dupes:
            flag("map-injective", gid, "two elements map to the same graph node")
    by_element = sorted(fwd.items(), key=lambda kv: str(kv[0]))
    for el, gid in by_element:
        if gid not in nodes:
            flag("map-image", gid, f"image of {el} is not a graph node")
    for gid in sorted(nodes - set(images)):
        flag("map-surjective", gid, "graph node is not the image of any element")

    for el, gid in by_element:
        if gid not in nodes or el not in expected:
            continue
        kind, key = el
        want = _KINDS[kind][1] or ctrl[key]  # type: ignore[index]
        got = g.node_types.get(gid)
        if got != want:
            flag("sound-typing", gid, f"{kind} element typed {got!r}, expected {want!r}")

    def mapped(el: Element) -> str | None:
        gid = fwd.get(el)
        return gid if gid in nodes else None

    src, tgt = g.graph.src, g.graph.tgt
    with_ends = src.keys() & tgt.keys()
    for (edge_type, _, triples), what in zip(_relations(b), ("nesting", "linking")):
        code = f"sound-{what}"
        graph_pairs = {(src[e], tgt[e]) for e in typed_edges(g, edge_type) if e in with_ends}
        want_pairs: set[tuple[str, str]] = set()
        for _, child, parent in sorted(triples, key=lambda triple: str(triple[0])):
            s, t = mapped(child), mapped(parent)
            if s is None or t is None:
                flag(code, str(child), f"{what} endpoints are not mapped into the graph")
                continue
            want_pairs.add((s, t))
            if (s, t) not in graph_pairs:
                flag(code, str(child), f"no {edge_type!r} edge mirrors the bigraph {what} (bigraph->graph)")
        for s, t in sorted(graph_pairs - want_pairs):
            flag(code, f"{edge_type}[{s}->{t}]", f"{edge_type!r} edge has no bigraph {what} (graph->bigraph)")

    def check_indices(code: str, candidates: list[str], slots: list[tuple[str | None, str]]) -> None:
        """Slot ``i`` holds the node mapped to index ``i`` and its label;
        exactly that node among the candidates must carry index ``i``."""
        for i, (gid, label) in enumerate(slots):
            for n in candidates:
                idx = g.attrs.get((n, "index"))
                if (gid == n) != (idx == i):
                    if gid == n:
                        flag(code, n, f"{label} carries index attribute {idx!r}")
                    else:
                        flag(code, n, f"index attribute {idx!r} clashes with {label} mapped elsewhere")

    for kind, count in ((K_ROOT, b.outer.width), (K_SITE, b.inner.width)):
        candidates = sorted(n for n in nodes if g.node_types.get(n) == _KINDS[kind][1])
        slots = [(mapped((kind, i)), f"{kind} {i}") for i in range(count)]
        check_indices(f"sound-{kind}-index", candidates, slots)

    # Port indices are scoped per owning node: only the ports of the same
    # owner compete for the same index values.
    owned = typed_edges(g, "bNode")
    owners = list(map(src.get, owned))
    ownership, owner_edge = Counter(owners), dict(zip(owners, owned))
    ports_of_owner: dict[str, list[str]] = {}
    for n in sorted(nodes):
        if g.node_types.get(n) != "BPort":
            continue
        count = ownership.get(n, 0)
        if count != 1:
            flag("sound-port-index", n, f"port node has {count} ownership edges")
            continue
        if owner_edge[n] in tgt:
            ports_of_owner.setdefault(tgt[owner_edge[n]], []).append(n)
    for v in sorted(b.nodes):
        owner_gid = mapped((K_NODE, v))
        candidates = ports_of_owner.get(owner_gid, []) if owner_gid else []
        arity = b.signature.arity(ctrl[v])
        slots = [(mapped((K_PORT, Port(v, i))), f"port ({v},{i})") for i in range(arity)]
        check_indices("sound-port-index", candidates, slots)

    return report_from(findings)
