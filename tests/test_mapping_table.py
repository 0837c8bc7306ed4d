"""``encode``, ``decode`` and ``check_soundness``, which read the canonical
mapping from one table, against verbatim copies of the three functions as
they were when each wrote the mapping out on its own.

The references below are those copies, renamed with a ``ref_`` prefix,
and the helpers they call, under their own names. ``encode`` must give
an equal graph and element map, the same attribute order and
byte-identical canonical text on random bigraphs (and the same
``InvalidBigraph`` on broken ones); ``decode`` the same result, or the
same exception type and message, on clean, edited and near-canonical
encodings; and ``check_soundness`` the same findings in the same order on
edited encodings under edited element maps. The bigraphs have no ``bool``
site or port index, which the references turned into ids of no node.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from bigtg import Bigraph, ElementMap, Graph, InstanceGraph, Interface, Port, Signature, fileio, replace
from bigtg.bigraph import validate_bigraph
from bigtg.generators import random_bigraph, random_signature
from bigtg.mapping import (
    InvalidBigraph,
    NotCanonical,
    UntypedControl,
    check_soundness,
    conformance,
    decode,
    encode,
    extend_for_signature,
)
from bigtg.report import Finding, ValidationReport, report_from
from bigtg.typedgraph import node_attrs, outgoing

from helpers import drop_edge, mutated_encodings, outcome

# Element kinds of a bigraph; the tags realize the disjointness that the
# index/name substitutions provide on paper.
K_NODE = "node"
K_EDGE = "edge"
K_PORT = "port"
K_SITE = "site"
K_ROOT = "root"
K_INNER = "inner"
K_OUTER = "outer"

_ID_PREFIX = {
    K_NODE: "n:",
    K_EDGE: "e:",
    K_PORT: "p:",
    K_SITE: "s:",
    K_ROOT: "r:",
    K_INNER: "i:",
    K_OUTER: "o:",
}

Element = tuple[str, object]


def element_id(kind: str, key: object) -> str:
    """Deterministic instance-graph node id for a bigraph element."""
    if kind == K_PORT:
        node, index = key  # type: ignore[misc]
        return f"p:{node}:{index}"
    return _ID_PREFIX[kind] + str(key)


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


def _paired_edge_ids(edge_type: str, src: str, tgt: str) -> tuple[str, str, str, str]:
    return (f"{edge_type}:{src}:{tgt}", src, tgt, edge_type)


def ref_encode(b: Bigraph) -> tuple[InstanceGraph, ElementMap]:
    """Encode a valid bigraph as an instance graph over its signature's
    type graph, together with the element bijection.

    Nesting, linking and port ownership each become an opposite pair of
    directed edges; root, site and port indices become ``index``
    attributes. Edges or outer names without any point cannot satisfy the
    one-or-more-points multiplicity of the metamodel and will make the
    encoding fail :func:`check_multiplicities`.
    """
    rep = validate_bigraph(b)
    if not rep.ok:
        raise InvalidBigraph(rep)

    fwd: dict[Element, str] = {el: element_id(el[0], el[1]) for el in elements_of(b)}

    ntypes: dict[str, str] = {}
    attrs: dict[tuple[str, str], int | str] = {}
    for el, gid in fwd.items():
        kind, key = el
        if kind == K_NODE:
            ntypes[gid] = b.ctrl[key]  # controls map identically to node types
        elif kind == K_EDGE:
            ntypes[gid] = "BEdge"
        elif kind == K_PORT:
            ntypes[gid] = "BPort"
            attrs[(gid, "index")] = key.index  # type: ignore[union-attr]
        elif kind == K_SITE:
            ntypes[gid] = "BSite"
            attrs[(gid, "index")] = key  # type: ignore[assignment]
        elif kind == K_ROOT:
            ntypes[gid] = "BRoot"
            attrs[(gid, "index")] = key  # type: ignore[assignment]
        elif kind == K_INNER:
            ntypes[gid] = "BInnerName"
        else:
            ntypes[gid] = "BOuterName"

    edge_ids: dict[str, tuple[str, str, str]] = {}  # id -> (src, tgt, type)

    def add_pair(t_fwd: str, t_rev: str, src: str, tgt: str) -> None:
        eid, s, t, ty = _paired_edge_ids(t_fwd, src, tgt)
        edge_ids[eid] = (s, t, ty)
        eid, s, t, ty = _paired_edge_ids(t_rev, tgt, src)
        edge_ids[eid] = (s, t, ty)

    def place_id(p: object) -> str:
        if isinstance(p, int):
            return element_id(K_SITE, p)
        return element_id(K_NODE, p)

    def parent_id(p: object) -> str:
        if isinstance(p, int):
            return element_id(K_ROOT, p)
        return element_id(K_NODE, p)

    def point_id(p: object) -> str:
        if isinstance(p, Port):
            return element_id(K_PORT, p)
        return element_id(K_INNER, p)

    def target_id(t: str) -> str:
        if t in b.edges:
            return element_id(K_EDGE, t)
        return element_id(K_OUTER, t)

    for child in sorted(b.prnt, key=lambda p: (isinstance(p, str), str(p))):
        add_pair("bPrnt", "bChld", place_id(child), parent_id(b.prnt[child]))
    for point in sorted(b.link, key=lambda p: (isinstance(p, Port), str(p))):
        add_pair("bLink", "bPoints", point_id(point), target_id(b.link[point]))
    for el in sorted(fwd, key=str):
        if el[0] == K_PORT:
            port: Port = el[1]  # type: ignore[assignment]
            add_pair("bNode", "bPorts", element_id(K_PORT, port), element_id(K_NODE, port.node))

    g = InstanceGraph(
        graph=Graph(
            nodes=frozenset(fwd.values()),
            edges=frozenset(edge_ids),
            src={e: s for e, (s, _, _) in edge_ids.items()},
            tgt={e: t for e, (_, t, _) in edge_ids.items()},
        ),
        node_types=ntypes,
        edge_types={e: ty for e, (_, _, ty) in edge_ids.items()},
        attrs=attrs,
    )
    return g, ElementMap(fwd)


def _strip_prefix(kind: str, gid: str) -> str:
    prefix = _ID_PREFIX[kind]
    return gid[len(prefix) :] if gid.startswith(prefix) else gid


def _index_range(
    kind: str, nodes_with_index: list[tuple[str, object]], count_label: str
) -> dict[int, str]:
    """Map indices 0..n-1 to graph nodes, rejecting gaps and duplicates."""
    by_index: dict[int, str] = {}
    for gid, idx in nodes_with_index:
        if idx is None:
            raise NotCanonical(f"{kind} {gid} has no index attribute")
        if not isinstance(idx, int) or isinstance(idx, bool):
            raise NotCanonical(f"{kind} {gid} has a non-integer index")
        if idx in by_index:
            raise NotCanonical(f"duplicate {kind} index {idx}")
        by_index[idx] = gid
    for i in range(len(by_index)):
        if i not in by_index:
            raise NotCanonical(f"{count_label} indices are not the gap-free range 0..{len(by_index) - 1}")
    return by_index


def ref_decode(g: InstanceGraph, sig: Signature) -> tuple[Bigraph, ElementMap]:
    """Rebuild the bigraph that a canonical instance graph encodes.

    Only defined for the canonical variant: strongly typed controls,
    explicit roots/sites/ports, and complete gap-free index attributes.
    Anything else raises :class:`NotCanonical` (or
    :class:`UntypedControl` for nodes typed ``BNode`` directly).
    """
    rep = conformance(g, extend_for_signature(sig), sig)
    if not rep.ok:
        raise NotCanonical("instance graph fails canonical checks", rep)

    control_types = set(sig.names)
    by_type: dict[str, list[str]] = {}
    for n in sorted(g.graph.nodes):
        t = g.node_types[n]
        if t == "BNode":
            raise UntypedControl(f"node {n} is typed 'BNode' instead of a control type")
        key = t if t not in control_types else "#control"
        by_type.setdefault(key, []).append(n)

    fwd: dict[Element, str] = {}

    def recover(kind: str, gids: list[str]) -> dict[str, str]:
        out: dict[str, str] = {}
        for gid in gids:
            orig = _strip_prefix(kind, gid)
            if orig in out:
                raise NotCanonical(f"{kind} identifiers {out[orig]!r} and {gid!r} collide as {orig!r}")
            out[orig] = gid
            fwd[(kind, orig)] = gid
        return out

    nodes = recover(K_NODE, by_type.get("#control", []))
    edges = recover(K_EDGE, by_type.get("BEdge", []))
    inner_names = recover(K_INNER, by_type.get("BInnerName", []))
    outer_names = recover(K_OUTER, by_type.get("BOuterName", []))

    gid_to_node = {gid: orig for orig, gid in nodes.items()}
    ctrl = {orig: g.node_types[gid] for orig, gid in nodes.items()}

    roots = _index_range(
        K_ROOT,
        [(gid, node_attrs(g, gid).get("index")) for gid in by_type.get("BRoot", [])],
        "root",
    )
    sites = _index_range(
        K_SITE,
        [(gid, node_attrs(g, gid).get("index")) for gid in by_type.get("BSite", [])],
        "site",
    )
    for i, gid in roots.items():
        fwd[(K_ROOT, i)] = gid
    for i, gid in sites.items():
        fwd[(K_SITE, i)] = gid
    root_of_gid = {gid: i for i, gid in roots.items()}
    site_of_gid = {gid: i for i, gid in sites.items()}

    # Ports: owner via the unique ownership edge, index per owner gap-free.
    ports_by_owner: dict[str, list[tuple[str, object]]] = {}
    for gid in by_type.get("BPort", []):
        own = outgoing(g, gid, "bNode")
        if len(own) != 1:
            raise NotCanonical(f"port {gid} has {len(own)} ownership edges")
        owner_gid = g.graph.tgt[own[0]]
        if owner_gid not in gid_to_node:
            raise NotCanonical(f"port {gid} owned by non-control node {owner_gid}")
        ports_by_owner.setdefault(owner_gid, []).append((gid, node_attrs(g, gid).get("index")))
    port_of_gid: dict[str, Port] = {}
    for owner_gid, entries in sorted(ports_by_owner.items()):
        indexed = _index_range(K_PORT, entries, f"port (node {gid_to_node[owner_gid]})")
        for i, gid in indexed.items():
            port = Port(gid_to_node[owner_gid], i)
            fwd[(K_PORT, port)] = gid
            port_of_gid[gid] = port

    prnt: dict[object, object] = {}
    for e in sorted(g.graph.edges):
        if g.edge_types[e] != "bPrnt":
            continue
        s, t = g.graph.src[e], g.graph.tgt[e]
        if s in root_of_gid:
            raise NotCanonical(f"root {s} has a parent")
        child: object = site_of_gid[s] if s in site_of_gid else gid_to_node.get(s)
        parent: object = root_of_gid[t] if t in root_of_gid else gid_to_node.get(t)
        if child is None or parent is None:
            raise NotCanonical(f"parent edge {e} connects non-place nodes")
        prnt[child] = parent
    for v in sorted(gid_to_node.values()):
        if v not in prnt:
            raise NotCanonical(f"node {v} has no parent")
    for i in sites:
        if i not in prnt:
            raise NotCanonical(f"site {i} has no parent")

    point_of_gid = {gid: x for x, gid in inner_names.items()} | port_of_gid
    target_of_gid = {gid: y for names in (edges, outer_names) for y, gid in names.items()}
    link: dict[object, str] = {}
    for e in sorted(g.graph.edges):
        if g.edge_types[e] != "bLink":
            continue
        point = point_of_gid.get(g.graph.src[e])
        target = target_of_gid.get(g.graph.tgt[e])
        if point is None or target is None:
            raise NotCanonical(f"link edge {e} connects non-link nodes")
        link[point] = target

    b = Bigraph(
        signature=sig,
        nodes=frozenset(nodes),
        edges=frozenset(edges),
        ctrl=ctrl,
        prnt=prnt,
        link=link,
        inner=Interface(len(sites), frozenset(inner_names)),
        outer=Interface(len(roots), frozenset(outer_names)),
    )
    return b, ElementMap(fwd)



def ref_check_soundness(b: Bigraph, g: InstanceGraph, emap: ElementMap) -> ValidationReport:
    """Check that ``g`` represents ``b`` exactly under the element map.

    Reports proper typing of every mapped element, the two-way coincidence
    of nesting and linking with the paired directed edges, and the
    consistency of root, site and port index attributes. Defects in the
    map itself (non-bijectivity, dangling images) are reported too rather
    than assumed away. Edges with a missing end are skipped
    (``check_typing`` reports them).
    """
    findings: list[Finding] = []

    def flag(code: str, location: str, message: str) -> None:
        findings.append(Finding(code, location, message))

    expected = elements_of(b)
    fwd = dict(emap.forward)
    for el in sorted(expected - set(fwd), key=str):
        flag("map-domain", str(el), "bigraph element is not mapped")
    for el in sorted(set(fwd) - expected, key=str):
        flag("map-domain", str(el), "map entry for a non-element")
    images = list(fwd.values())
    if len(set(images)) != len(images):
        dupes = sorted({gid for gid in images if images.count(gid) > 1})
        for gid in dupes:
            flag("map-injective", gid, "two elements map to the same graph node")
    for el, gid in sorted(fwd.items(), key=lambda kv: str(kv[0])):
        if gid not in g.graph.nodes:
            flag("map-image", gid, f"image of {el} is not a graph node")
    for gid in sorted(g.graph.nodes - set(images)):
        flag("map-surjective", gid, "graph node is not the image of any element")

    expected_type = {
        K_EDGE: "BEdge",
        K_SITE: "BSite",
        K_ROOT: "BRoot",
        K_INNER: "BInnerName",
        K_OUTER: "BOuterName",
        K_PORT: "BPort",
    }
    for el, gid in sorted(fwd.items(), key=lambda kv: str(kv[0])):
        if gid not in g.graph.nodes or el not in expected:
            continue
        kind, key = el
        want = b.ctrl[key] if kind == K_NODE else expected_type[kind]
        got = g.node_types.get(gid)
        if got != want:
            flag("sound-typing", gid, f"{kind} element typed {got!r}, expected {want!r}")

    def mapped(el: Element) -> str | None:
        gid = fwd.get(el)
        return gid if gid in g.graph.nodes else None

    def place_el(p: object) -> Element:
        return (K_SITE, p) if isinstance(p, int) else (K_NODE, p)

    def parent_el(p: object) -> Element:
        return (K_ROOT, p) if isinstance(p, int) else (K_NODE, p)

    def point_el(p: object) -> Element:
        return (K_PORT, p) if isinstance(p, Port) else (K_INNER, p)

    def target_el(t: str) -> Element:
        return (K_EDGE, t) if t in b.edges else (K_OUTER, t)

    def check_relation(
        code: str,
        relation: list[tuple[Element, Element]],
        edge_type: str,
        what: str,
    ) -> None:
        graph_pairs = {
            (g.graph.src[e], g.graph.tgt[e])
            for e in g.graph.edges
            if g.edge_types.get(e) == edge_type and e in g.graph.src and e in g.graph.tgt
        }
        want_pairs: set[tuple[str, str]] = set()
        for child_el, parent_el_ in relation:
            s, t = mapped(child_el), mapped(parent_el_)
            if s is None or t is None:
                flag(code, str(child_el), f"{what} endpoints are not mapped into the graph")
                continue
            want_pairs.add((s, t))
            if (s, t) not in graph_pairs:
                flag(code, str(child_el), f"no {edge_type!r} edge mirrors the bigraph {what} (bigraph->graph)")
        for s, t in sorted(graph_pairs - want_pairs):
            flag(code, f"{edge_type}[{s}->{t}]", f"{edge_type!r} edge has no bigraph {what} (graph->bigraph)")

    nesting = [(place_el(c), parent_el(p)) for c, p in sorted(b.prnt.items(), key=lambda kv: str(kv[0]))]
    check_relation("sound-nesting", nesting, "bPrnt", "nesting")
    linking = [(point_el(p), target_el(t)) for p, t in sorted(b.link.items(), key=lambda kv: str(kv[0]))]
    check_relation("sound-linking", linking, "bLink", "linking")

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

    for code, kind, count, typed_as in (
        ("sound-root-index", K_ROOT, b.outer.width, "BRoot"),
        ("sound-site-index", K_SITE, b.inner.width, "BSite"),
    ):
        candidates = sorted(n for n in g.graph.nodes if g.node_types.get(n) == typed_as)
        check_indices(code, candidates, [(mapped((kind, i)), f"{kind} {i}") for i in range(count)])

    # Port indices are scoped per owning node: only the ports of the same
    # owner compete for the same index values.
    ports_of_owner: dict[str, list[str]] = {}
    for n in sorted(g.graph.nodes):
        if g.node_types.get(n) != "BPort":
            continue
        own = outgoing(g, n, "bNode")
        if len(own) != 1:
            flag("sound-port-index", n, f"port node has {len(own)} ownership edges")
            continue
        if own[0] in g.graph.tgt:
            ports_of_owner.setdefault(g.graph.tgt[own[0]], []).append(n)
    for v in sorted(b.nodes):
        owner_gid = mapped((K_NODE, v))
        candidates = ports_of_owner.get(owner_gid, []) if owner_gid else []
        arity = b.signature.arity(b.ctrl[v])
        slots = [(mapped((K_PORT, Port(v, i))), f"port ({v},{i})") for i in range(arity)]
        check_indices("sound-port-index", candidates, slots)

    return report_from(findings)


# --- Strategies ------------------------------------------------------------


@st.composite
def bigraphs(draw):
    """A random bigraph over a signature with arities up to 12 and up to
    12 sites and roots (so indices past 9 sort as text), or, now and then,
    one with a broken parent, link or control map."""
    rng = random.Random(draw(st.integers(0, 1_000_000)))
    sig = random_signature(rng, max_arity=draw(st.integers(0, 12)))
    b = random_bigraph(rng, sig, max_sites=draw(st.integers(0, 12)), max_roots=draw(st.integers(1, 12)))
    edit = draw(st.sampled_from(("none", "none", "none", "prnt", "link", "ctrl")))
    if edit == "prnt" and b.prnt:
        victim = draw(st.sampled_from(sorted(b.prnt, key=str)))
        b = replace(b, prnt={c: p for c, p in b.prnt.items() if c != victim})
    elif edit == "link" and b.link:
        victim = draw(st.sampled_from(sorted(b.link, key=str)))
        b = replace(b, link={x: y for x, y in b.link.items() if x != victim})
    elif edit == "ctrl" and b.nodes:
        victim = draw(st.sampled_from(sorted(b.nodes)))
        b = replace(b, ctrl={**b.ctrl, victim: draw(st.sampled_from(sig.names))})
    return b


def rename(g: InstanceGraph, old: str, new: str) -> InstanceGraph:
    """``g`` with node ``old`` renamed to ``new`` in every role."""
    ren = {old: new}.get
    return InstanceGraph(
        graph=Graph(
            nodes=frozenset(ren(n, n) for n in g.graph.nodes),
            edges=g.graph.edges,
            src={e: ren(s, s) for e, s in g.graph.src.items()},
            tgt={e: ren(t, t) for e, t in g.graph.tgt.items()},
        ),
        node_types={ren(n, n): t for n, t in g.node_types.items()},
        edge_types=g.edge_types,
        attrs={(ren(n, n), a): v for (n, a), v in g.attrs.items()},
    )


@st.composite
def near_canonical(draw):
    """A clean encoding after edits that mostly keep it conforming, so
    that ``decode`` reaches its rebuild checks: index values set or
    dropped, a nesting or link pair of opposite edges moved to other ends
    (a root as the child, a site as the parent) or dropped, a node renamed so that its id collides with another of its kind once
    the prefixes are stripped, and a node retyped ``BNode`` or another
    control."""
    b = random_bigraph(random.Random(draw(st.integers(0, 1_000_000))), max_sites=draw(st.integers(0, 12)))
    g, _ = encode(b)
    for _ in range(draw(st.integers(1, 3))):
        nodes = sorted(g.graph.nodes)
        if not nodes:
            break
        by_type: dict[str, list[str]] = {}
        for n in nodes:
            by_type.setdefault(g.node_types.get(n, "?"), []).append(n)
        kind = draw(st.sampled_from(("index", "drop-index", "reparent", "reparent", "relink", "orphan", "collide", "retype")))
        if kind in ("index", "drop-index"):
            indexed = sorted(n for n in nodes if (n, "index") in g.attrs)
            if not indexed:
                continue
            victim = draw(st.sampled_from(indexed))
            attrs = dict(g.attrs)
            if kind == "index":
                attrs[(victim, "index")] = draw(st.sampled_from((-1, 0, 1, 2, 3, 10, True, "a")))
            else:
                del attrs[(victim, "index")]
            g = replace(g, attrs=attrs)
        elif kind in ("reparent", "relink", "orphan"):
            fwd_type, opp_type = ("bLink", "bPoints") if kind == "relink" else ("bPrnt", "bChld")
            pairs = sorted(
                (e, o)
                for e in g.graph.edges
                if g.edge_types.get(e) == fwd_type
                for o in g.out_index.get((g.graph.tgt.get(e), opp_type), ())
                if g.graph.tgt.get(o) == g.graph.src.get(e)
            )
            if not pairs:
                continue
            sites = by_type.get("BSite", [])
            site_pairs = [pair for pair in pairs if g.graph.src[pair[0]] in sites]
            e, o = draw(st.sampled_from(draw(st.sampled_from((site_pairs or pairs, pairs)))))
            if kind == "orphan":
                for x in (e, o):
                    g = drop_edge(g, x)
                continue
            if kind == "reparent":
                places = [n for n in nodes if g.node_types.get(n) not in ("BEdge", "BPort", "BInnerName", "BOuterName")]
                child = draw(st.sampled_from(draw(st.sampled_from((by_type.get("BRoot") or [g.graph.src[e]], [g.graph.src[e]])))))
                parent = draw(st.sampled_from(draw(st.sampled_from((sites or places, places)))))
            else:
                child = draw(st.sampled_from(by_type.get("BPort", []) + by_type.get("BInnerName", []) or nodes))
                parent = draw(st.sampled_from(by_type.get("BEdge", []) + by_type.get("BOuterName", []) or nodes))
            src, tgt = dict(g.graph.src), dict(g.graph.tgt)
            src[e], tgt[e], src[o], tgt[o] = child, parent, parent, child
            g = replace(g, graph=replace(g.graph, src=src, tgt=tgt))
        elif kind == "collide":
            group = draw(st.sampled_from(sorted(by_type)))
            if len(by_type[group]) < 2:
                continue
            victim, other = draw(st.permutations(by_type[group]))[:2]
            new = other.partition(":")[2]
            if new and new not in g.graph.nodes:
                g = rename(g, victim, new)
        else:
            controls = sorted(n for n in nodes if b.signature.has_control(g.node_types.get(n, "")))
            if not controls:
                continue
            victim = draw(st.sampled_from(controls))
            g = replace(
                g, node_types={**g.node_types, victim: draw(st.sampled_from(("BNode", *b.signature.names)))}
            )
    return g, b


@st.composite
def edited_element_maps(draw):
    """An edited encoding, its bigraph, and its element map after a few
    edits: entries dropped, images duplicated or moved off the graph, and
    entries for elements that the bigraph does not have."""
    g, b = draw(mutated_encodings())
    forward = dict(encode(b)[1].forward)
    extras = (("node", "ghost"), ("edge", "ghost"), ("port", Port("v0", 99)), ("site", 77), ("root", 5), ("inner", "y0"))
    for _ in range(draw(st.integers(0, 4))):
        elements = sorted(forward, key=str)
        kind = draw(st.sampled_from(("drop", "duplicate", "off-graph", "extra")))
        if kind == "extra":
            forward[draw(st.sampled_from(extras))] = draw(st.sampled_from(sorted(g.graph.nodes) + ["ghost"]))
        elif not elements:
            continue
        elif kind == "drop":
            del forward[draw(st.sampled_from(elements))]
        elif kind == "duplicate":
            forward[draw(st.sampled_from(elements))] = forward[draw(st.sampled_from(elements))]
        else:
            forward[draw(st.sampled_from(elements))] = draw(st.sampled_from(("ghost", "n:nowhere")))
    return b, g, ElementMap(forward)


# --- Properties ------------------------------------------------------------


@given(bigraphs())
@settings(max_examples=300, deadline=None)
def test_encode_matches_reference(b):
    got, want = outcome(encode, b), outcome(ref_encode, b)
    assert got == want
    if isinstance(want[0], InstanceGraph):
        assert list(got[0].attrs) == list(want[0].attrs)
        assert fileio.dumps_canonical(got[0]) == fileio.dumps_canonical(want[0])
    else:
        assert want[0] == "InvalidBigraph"


@given(mutated_encodings())
@settings(max_examples=300, deadline=None)
def test_decode_of_edited_encodings_matches_reference(case):
    g, b = case
    assert outcome(decode, g, b.signature) == outcome(ref_decode, g, b.signature)


@given(near_canonical())
@settings(max_examples=300, deadline=None)
def test_decode_of_near_canonical_encodings_matches_reference(case):
    g, b = case
    assert outcome(decode, g, b.signature) == outcome(ref_decode, g, b.signature)


@given(st.integers(0, 1_000_000))
@settings(max_examples=300, deadline=None)
def test_decode_of_clean_encodings_matches_reference(seed):
    b = random_bigraph(random.Random(seed), max_sites=12, max_roots=12)
    g, emap = encode(b)
    assert decode(g, b.signature) == ref_decode(g, b.signature) == (b, emap)


@given(edited_element_maps())
@settings(max_examples=300, deadline=None)
def test_check_soundness_matches_reference(case):
    b, g, emap = case
    assert check_soundness(b, g, emap).findings == ref_check_soundness(b, g, emap).findings
