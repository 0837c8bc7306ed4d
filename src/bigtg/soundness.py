"""Soundness of an encoding: a bigraph and an instance graph aligned
element by element under their element map.

No command-line path runs this check, so it has a module of its own,
which :mod:`bigtg.mapping` loads on first access to
``mapping.check_soundness``. It reads the mapping's one table
(``_KINDS`` and ``_relations``) for what each element becomes.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from itertools import chain, compress, filterfalse, repeat
from operator import and_, eq, itemgetter, lt, ne, not_, or_

from .bigraph import Bigraph, Port, validate_bigraph
from .mapping import _KINDS, K_NODE, K_PORT, K_ROOT, K_SITE, ElementMap, _relations, elements_of
from .report import Finding, ValidationReport, report_from
from .typedgraph import InstanceGraph

#: The node type of each element kind; a node's is its control (None here).
_TYPE_OF_KIND = {kind: node_type for kind, (_, node_type) in _KINDS.items()}


def check_soundness(b: Bigraph, g: InstanceGraph, emap: ElementMap) -> ValidationReport:
    """Check that ``g`` represents ``b`` exactly under the element map.

    Reports proper typing of every mapped element, the two-way coincidence
    of nesting and linking with the paired directed edges, and the
    consistency of root, site and port index attributes. Defects in the
    map itself (non-bijectivity, dangling images) are reported too rather
    than assumed away. A bigraph with a node that has no
    control, or a control that its signature does not declare, has no
    elements to align: its :func:`validate_bigraph` findings come back.

    Cost: C-level passes compare whole columns: the map's keys with the
    bigraph's elements (set differences), its images with the graph's
    nodes (a set, and a ``Counter`` only when two elements share one),
    each element's wanted type with its image's type, the wanted nesting
    and linking pairs with the graph's, and each root, site and port
    node's ``index`` with its slot. Port ownership is decided by the
    sizes of ``target_of("bNode")`` and of its sources, and counted only
    when a source has two edges or a port has none. Only the entries that
    differ are sorted and walked. The elements of ``b`` and its relation
    triples are those that :func:`bigtg.mapping.encode` kept on ``emap``
    when ``b`` is the very object it encoded, and are computed again
    (:func:`elements_of`, ``_relations``) for any other map or bigraph,
    an equal one too; they depend on ``b`` alone, so the findings do not
    depend on which. So an exact encoding checked with ``encode``'s own
    map and bigraph costs those passes and a pass over the edges of each
    of nesting, linking and port ownership (their groups in
    ``g.edge_view``).
    """
    ctrl, sig = b.ctrl, b.signature
    if not all(map(sig.has_control, map(ctrl.get, b.nodes))):
        return validate_bigraph(b)
    findings: list[Finding] = []

    def flag(code: str, location: str, message: str) -> None:
        findings.append(Finding(code, location, message))

    tables = emap._tables
    if tables is not None and tables[0]() is b:
        _, expected, relations = tables
    else:
        expected, relations = elements_of(b), _relations(b)
    fwd = dict(emap.forward)
    nodes, node_types, attrs = g.graph.nodes, g.node_types, g.attrs
    for el in sorted(expected.difference(fwd), key=str):
        flag("map-domain", str(el), "bigraph element is not mapped")
    strays = fwd.keys() - expected
    for el in sorted(strays, key=str):
        flag("map-domain", str(el), "map entry for a non-element")
    images = set(fwd.values())
    if len(images) == len(fwd):
        shared = []
    else:
        counts = Counter(fwd.values())
        shared = sorted(compress(counts, map(lt, repeat(1), counts.values())))
    for gid in shared:
        flag("map-injective", gid, "two elements map to the same graph node")
    on_graph = list(map(nodes.__contains__, fwd.values()))
    for el, gid in sorted(compress(fwd.items(), map(not_, on_graph)), key=_by_first):
        flag("map-image", gid, f"image of {el} is not a graph node")
    for gid in sorted(nodes.difference(images)):
        flag("map-surjective", gid, "graph node is not the image of any element")

    # mapped: each element whose image is a graph node; aligned: those of
    # them that are elements of b.
    mapped = fwd if all(on_graph) else dict(compress(fwd.items(), on_graph))
    aligned = dict(compress(mapped.items(), map(expected.__contains__, mapped))) if strays else mapped
    # A node's wanted type is its control, any other element's its kind's.
    controls = dict(zip(zip(repeat(K_NODE), ctrl), ctrl.values()))
    want_types = map(controls.get, aligned, map(_TYPE_OF_KIND.__getitem__, map(itemgetter(0), aligned)))
    mistyped = compress(aligned.items(), map(ne, map(node_types.get, aligned.values()), want_types))
    for (kind, key), gid in sorted(mistyped, key=_by_first):
        want = _TYPE_OF_KIND[kind] or ctrl[key]
        got = node_types.get(gid)
        flag("sound-typing", gid, f"{kind} element typed {got!r}, expected {want!r}")

    src, tgt = g.graph.src, g.graph.tgt
    nesting, linking, ownership = relations
    for (edge_type, _, triples), what in ((nesting, "nesting"), (linking, "linking")):
        code = f"sound-{what}"
        of_type = g.edge_view.by_type.get(edge_type, ())
        graph_pairs = set(zip(map(src.__getitem__, of_type), map(tgt.__getitem__, of_type)))
        children = list(map(itemgetter(1), triples))
        pairs = list(zip(map(mapped.get, children), map(mapped.get, map(itemgetter(2), triples))))
        # Graph pairs hold no None, so equal sets leave no end unmapped.
        want_pairs = set(pairs)
        if want_pairs == graph_pairs:
            continue
        mirrored = map(graph_pairs.__contains__, pairs)
        unmirrored = compress(zip(map(itemgetter(0), triples), children, pairs), map(not_, mirrored))
        for _, child, (s, t) in sorted(unmirrored, key=_by_first):
            if s is None or t is None:
                flag(code, str(child), f"{what} endpoints are not mapped into the graph")
            else:
                flag(code, str(child), f"no {edge_type!r} edge mirrors the bigraph {what} (bigraph->graph)")
        for s, t in sorted(graph_pairs - want_pairs):
            flag(code, f"{edge_type}[{s}->{t}]", f"{edge_type!r} edge has no bigraph {what} (graph->bigraph)")

    def index_findings(code: str, n: str, slots: list[tuple[str | None, str]], rank: tuple) -> Iterator[tuple]:
        """Slot ``i`` holds the node mapped to index ``i`` and its label;
        the node ``n`` must carry index ``i`` exactly when it is that
        node. Each finding comes with its place in the report."""
        idx = attrs.get((n, "index"))
        for i, (gid, label) in enumerate(slots):
            if (gid == n) != (idx == i):
                if gid == n:
                    yield (*rank, i, n), Finding(code, n, f"{label} carries index attribute {idx!r}")
                else:
                    message = f"index attribute {idx!r} clashes with {label} mapped elsewhere"
                    yield (*rank, i, n), Finding(code, n, message)

    # A root or site node is clean when its index equals the one slot it
    # is mapped to, or is None when it is mapped to none; a node mapped
    # twice is walked.
    of_type = g.edge_view.by_node_type
    twice = set(shared)
    for kind, count in ((K_ROOT, b.outer.width), (K_SITE, b.inner.width)):
        candidates = of_type.get(_TYPE_OF_KIND[kind], [])
        gids = list(map(mapped.get, zip(repeat(kind), range(count))))
        slot_of = dict(zip(gids, range(count)))
        indices = map(attrs.get, zip(candidates, repeat("index")))
        off_slot = map(ne, indices, map(slot_of.get, candidates))
        suspects = list(compress(candidates, map(or_, off_slot, map(twice.__contains__, candidates))))
        if suspects:
            slots = [(gid, f"{kind} {i}") for i, gid in enumerate(gids)]
            flagged = chain.from_iterable(index_findings(f"sound-{kind}-index", n, slots, ()) for n in suspects)
            findings.extend(map(itemgetter(1), sorted(flagged, key=itemgetter(0))))

    # Port indices are scoped per owning node: only the ports of the same
    # owner compete for the same index values. A port node is a candidate
    # when it has one ownership edge, to its holder; every port node has
    # one when no source has two and each port node is a source.
    sources, holder = g.edge_view.sources.get("bNode", ()), g.edge_view.target_of("bNode")
    ports = of_type.get("BPort", [])
    if len(sources) == len(holder) and holder.keys() >= set(ports):
        candidates = ports
    else:
        counter = Counter(sources)
        counts = list(map(counter.get, ports, repeat(0)))
        for n, count in sorted(compress(zip(ports, counts), map(ne, counts, repeat(1)))):
            flag("sound-port-index", n, f"port node has {count} ownership edges")
        candidates = list(compress(ports, map(eq, counts, repeat(1))))
    # A candidate is clean when it is the image of a linked port (v, i)
    # (the table's ownership relation), its holder is the image of v and
    # its index is i, and neither it nor that image is the image of two
    # elements. Any other candidate is walked.
    owning = ownership[2]
    gids = list(map(mapped.get, map(itemgetter(1), owning)))
    owners = list(map(mapped.get, map(itemgetter(2), owning)))
    in_slot = map(
        and_,
        map(eq, map(holder.get, gids), owners),
        map(eq, map(attrs.get, zip(gids, repeat("index"))), map(itemgetter(1), map(itemgetter(0), owning))),
    )
    fine = set(compress(gids, in_slot)).difference(twice).difference(compress(gids, map(twice.__contains__, owners)))
    suspects = list(filterfalse(fine.__contains__, candidates))
    if suspects:
        node_gids = list(map(mapped.get, zip(repeat(K_NODE), b.nodes)))
        flagged = []
        for n in suspects:
            for v in compress(b.nodes, map(eq, node_gids, repeat(holder[n]))):
                slots = [(mapped.get((K_PORT, Port(v, i))), f"port ({v},{i})") for i in range(sig.arity(ctrl[v]))]
                flagged.extend(index_findings("sound-port-index", n, slots, (v,)))
        findings.extend(map(itemgetter(1), sorted(flagged, key=itemgetter(0))))

    return report_from(findings)


def _by_first(item: tuple[object, ...]) -> str:
    """Sort key of a tuple: the text of its first item (an element, or the
    bigraph key of a relation triple)."""
    return str(item[0])
