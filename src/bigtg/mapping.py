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

from collections.abc import Mapping
from itertools import repeat
from operator import itemgetter
from weakref import ref

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


@frozen
class ElementMap:
    """Bijection between the elements of a bigraph and instance-graph nodes.

    A map that :func:`encode` returns also keeps, beside its field, what
    ``check_soundness`` reads of the bigraph it encoded: a weak reference
    to that bigraph, the elements it mapped and the triples of
    :func:`_relations`. They depend on the bigraph alone, and
    ``check_soundness`` reads them only for that very object; so that
    bigraph's dicts may not be mutated after ``encode`` (a bigraph is
    treated as immutable anyway). Every other map keeps none: one built
    by the constructor, ``replace`` or ``decode``, and a copy or a
    pickle, which is rebuilt from the field."""

    forward: Mapping[Element, str] = field(default_factory=dict)

    #: ``(weak reference to b, elements of b, _relations(b))``, or None.
    _tables = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "forward", dict(self.forward))


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


def _relations(b: Bigraph) -> tuple[tuple[str, str, list[tuple[object, Element, Element]]], ...]:
    """Nesting, linking and port ownership, each as its edge type from
    child to parent, the opposite edge type, and the list of its
    ``(bigraph key, child element, parent element)`` triples.

    Sites and roots are the integer places. Every port of a valid bigraph
    is linked, so the ports are the link map's ``Port`` keys."""
    nesting = [
        (c, (K_SITE, c) if isinstance(c, int) else (K_NODE, c), (K_ROOT, p) if isinstance(p, int) else (K_NODE, p))
        for c, p in b.prnt.items()
    ]
    linking = [
        (x, (K_PORT, x) if isinstance(x, Port) else (K_INNER, x), (K_EDGE, y) if y in b.edges else (K_OUTER, y))
        for x, y in b.link.items()
    ]
    ownership = [(x, (K_PORT, x), (K_NODE, x.node)) for x in b.link if isinstance(x, Port)]
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

    The map keeps what ``check_soundness`` reads of ``b`` (see
    :class:`ElementMap`): the elements it mapped and the relation triples
    that the edges were written from, with a weak reference to ``b``, so
    it keeps no bigraph alive. Its copies keep none of it.
    """
    from .bigraph import validate_bigraph  # here, so that decode does not compile it

    rep = validate_bigraph(b)
    if rep.ok:
        rep = _idle_links(b)
    if not rep.ok:
        raise InvalidBigraph(rep)

    # Each element's id is its kind's prefix and its key as text, a port's
    # ``node:index``: one column per kind.
    fwd: dict[Element, str] = {}
    ntypes: dict[str, str] = {}
    attrs: dict[tuple[str, str], int | str] = {}
    nodes, sites, roots = list(b.nodes), range(b.inner.width), range(b.outer.width)
    ports = list(_ports(nodes, map(b.signature.arities.__getitem__, map(b.ctrl.__getitem__, nodes))))
    columns = (
        (K_NODE, nodes, nodes, ()),
        (K_EDGE, b.edges, b.edges, ()),
        (K_PORT, ports, [f"{v}:{i}" for v, i in ports], map(itemgetter(1), ports)),
        (K_SITE, sites, map(str, sites), sites),
        (K_ROOT, roots, map(str, roots), roots),
        (K_INNER, b.inner.names, b.inner.names, ()),
        (K_OUTER, b.outer.names, b.outer.names, ()),
    )
    for kind, keys, texts, indices in columns:
        prefix, node_type = _KINDS[kind]
        gids = [prefix + text for text in texts]
        fwd.update(zip(zip(repeat(kind), keys), gids))
        ntypes.update(zip(gids, repeat(node_type) if node_type else map(b.ctrl.__getitem__, keys)))
        attrs.update(zip(zip(gids, repeat("index")), indices))

    # Each relation's pairs of edges, child to parent and back, each with
    # the id ``type:src:tgt``. A plain loop: on CPython 3.11, filling the
    # three dicts from zipped columns measured slower.
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    etypes: dict[str, str] = {}
    ids: list[str] = []
    relations = _relations(b)
    for edge_type, opposite, triples in relations:
        for _, child, parent in triples:
            s, t = fwd[child], fwd[parent]
            forward, back = f"{edge_type}:{s}:{t}", f"{opposite}:{t}:{s}"
            src[forward], tgt[forward], etypes[forward] = s, t, edge_type
            src[back], tgt[back], etypes[back] = t, s, opposite
            ids += forward, back
    if len(etypes) != len(ids):
        seen: set[str] = set()
        for eid in ids:
            if eid in seen:
                finding = Finding("edge-id-collision", eid, f"two relations are both edge {eid}")
                raise InvalidBigraph(report_from([finding]))
            seen.add(eid)

    g = InstanceGraph._adopt(Graph._adopt(frozenset(fwd.values()), frozenset(etypes), src, tgt), ntypes, etypes, attrs)
    emap = ElementMap._adopt(fwd)
    object.__setattr__(emap, "_tables", (ref(b), frozenset(fwd), relations))
    return g, emap


def decode(g: InstanceGraph, sig: Signature) -> tuple[Bigraph, ElementMap]:
    """Rebuild the bigraph that a canonical instance graph encodes.

    A graph that fails ``conformance(g, extend_for_signature(sig), sig)``
    raises :class:`NotCanonical` with the findings, the canonical rules'
    ``untyped-control``, ``canonical-parent`` and ``canonical-index``
    among them; after the caller's own checks only those rules run again
    (:func:`keeps_report`). The rebuild assumes a conforming graph (typed
    nodes, integer indices, one owner per port, parent and link edges
    between the kinds they relate), so it checks only ids: two of one kind
    that collide once their prefix is stripped raise :class:`NotCanonical`.
    Every attribute is owned by a node and every edge has both ends, so it
    drops nothing.
    """
    rep = conformance(g, extend_for_signature(sig), sig)
    if not rep.ok:
        raise NotCanonical("instance graph fails canonical checks", rep)

    kind_of_type = dict.fromkeys(sig.names, K_NODE)
    kind_of_type.update((node_type, kind) for kind, (_, node_type) in _KINDS.items() if node_type)
    view = g.edge_view
    gids: dict[str, list[str]] = {kind: [] for kind in _KINDS}
    for t, nodes in view.by_node_type.items():
        gids[kind_of_type[t]] += nodes

    # The bigraph key of each graph node, per kind: its id without its
    # kind's prefix, or a place's index, or a port's owner's key and index.
    keys: dict[str, dict[object, str]] = {}
    for kind in (K_NODE, K_EDGE, K_INNER, K_OUTER):
        prefix, of_kind = _KINDS[kind][0], gids[kind]
        recovered = keys[kind] = dict(zip(map(str.removeprefix, of_kind, repeat(prefix)), of_kind))
        if len(recovered) < len(of_kind):
            first: dict[str, str] = {}
            for gid in sorted(of_kind):
                key = gid.removeprefix(prefix)
                if key in first:
                    raise NotCanonical(f"{kind} identifiers {first[key]!r} and {gid!r} collide as {key!r}")
                first[key] = gid
    index_of = g.attrs.__getitem__
    for kind in (K_ROOT, K_SITE):
        keys[kind] = dict(zip(map(index_of, zip(gids[kind], repeat("index"))), gids[kind]))
    tgt = g.graph.tgt.__getitem__
    owner_of = view.target_of("bNode")
    ports = gids[K_PORT]
    holders = map(str.removeprefix, map(owner_of.__getitem__, ports), repeat(_KINDS[K_NODE][0]))
    port_keys = map(tuple.__new__, repeat(Port), zip(holders, map(index_of, zip(ports, repeat("index")))))
    keys[K_PORT] = dict(zip(port_keys, ports))
    fwd: dict[Element, str] = {}
    for kind, recovered in keys.items():
        fwd.update(zip(zip(repeat(kind), recovered), recovered.values()))
    # Each parent and link edge, as its source's key mapped to its target's.
    key_of = dict(zip(fwd.values(), map(itemgetter(1), fwd))).__getitem__
    prnt, link = (
        dict(zip(map(key_of, view.sources.get(te, ())), map(key_of, map(tgt, view.by_type.get(te, ())))))
        for te in ("bPrnt", "bLink")
    )
    b = Bigraph._adopt(
        sig,
        frozenset(keys[K_NODE]),
        frozenset(keys[K_EDGE]),
        dict(zip(keys[K_NODE], map(g.node_types.__getitem__, keys[K_NODE].values()))),
        prnt,
        link,
        Interface._adopt(len(keys[K_SITE]), frozenset(keys[K_INNER])),
        Interface._adopt(len(keys[K_ROOT]), frozenset(keys[K_OUTER])),
    )
    return b, ElementMap._adopt(fwd)


def __getattr__(name: str) -> object:
    """``check_soundness``, loaded from :mod:`bigtg.soundness` on first
    access (PEP 562) and then bound here like any other name, so that a
    tracer that patches this module's bindings finds it."""
    if name == "check_soundness":
        from .soundness import check_soundness

        globals()[name] = check_soundness
        return check_soundness
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
