"""Soundness of an encoding: a bigraph and an instance graph aligned
element by element under their element map.

No command-line path runs this check, so it has a module of its own,
which :mod:`bigtg.mapping` loads on first access to
``mapping.check_soundness``. It reads the mapping's one table
(``_KINDS`` and ``_relations``) for what each element becomes.
"""

from __future__ import annotations

from collections import Counter

from .bigraph import Bigraph, Port, is_arity, validate_bigraph
from .mapping import _KINDS, K_NODE, K_PORT, K_ROOT, K_SITE, Element, ElementMap, _relations, elements_of
from .report import Finding, ValidationReport, report_from
from .typedgraph import InstanceGraph, typed_edges


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
