"""Instance-graph surgery used by mutation and property tests, hypothesis
strategies of arbitrarily edited encodings and type graphs, and shared
checks."""

from __future__ import annotations

import os
import random
import tempfile

import pytest
from hypothesis import strategies as st

from bigtg import (
    Bigraph,
    Graph,
    InstanceGraph,
    Interface,
    Multiplicity,
    Port,
    Signature,
    TypeGraph,
    annotate_150,
    derive_type_graph,
    encode,
    enumerate_configs,
    extend_for_signature,
    fileio,
    make_signature,
    replace,
)
from bigtg.generators import random_bigraph


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return (type(exc).__name__, str(exc))


def assert_refused(value, message: str) -> None:
    """``dumps_canonical`` and ``save`` raise ``ValueError(message)``, and
    ``save`` leaves the file it would replace as it was, with no temp file."""
    with pytest.raises(ValueError) as dumped:
        fileio.dumps_canonical(value)
    assert str(dumped.value) == message
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("kept")
        with pytest.raises(ValueError) as saved:
            fileio.save(value, path)
        assert str(saved.value) == message
        assert os.listdir(d) == ["doc.json"]
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == "kept"


# Brute-force references for the queries the library answers from its
# edge view: each scans every edge or attribute, so a reference never
# shares a grouping with the code it checks.


def ref_outgoing(g: InstanceGraph, n: str, edge_type: str) -> list[str]:
    """The edges of ``edge_type`` whose ``src`` is ``n``, sorted; a missing
    end or type reads ``None``."""
    return sorted(e for e in g.graph.edges if g.graph.src.get(e) == n and g.edge_types.get(e) == edge_type)


def ref_incoming(g: InstanceGraph, n: str, edge_type: str) -> list[str]:
    """The edges of ``edge_type`` whose ``tgt`` is ``n``, sorted."""
    return sorted(e for e in g.graph.edges if g.graph.tgt.get(e) == n and g.edge_types.get(e) == edge_type)


def ref_node_attrs(g: InstanceGraph, n: str) -> dict:
    """The attribute values of ``n`` by name, in the order of ``g.attrs``."""
    return {a: v for (node, a), v in g.attrs.items() if node == n}


def ref_out_degree(g: InstanceGraph, n: str, edge_type: str) -> int:
    """The number of edges of ``edge_type`` whose ``src`` is ``n``."""
    return sum(1 for e in g.graph.edges if g.graph.src.get(e) == n and g.edge_types.get(e) == edge_type)


def drop_edge(g: InstanceGraph, eid: str) -> InstanceGraph:
    return replace(
        g,
        graph=Graph(
            nodes=g.graph.nodes,
            edges=g.graph.edges - {eid},
            src={e: s for e, s in g.graph.src.items() if e != eid},
            tgt={e: t for e, t in g.graph.tgt.items() if e != eid},
        ),
        edge_types={e: t for e, t in g.edge_types.items() if e != eid},
    )


def drop_node(g: InstanceGraph, nid: str) -> InstanceGraph:
    doomed_edges = {
        e for e in g.graph.edges if g.graph.src[e] == nid or g.graph.tgt[e] == nid
    }
    return replace(
        g,
        graph=Graph(
            nodes=g.graph.nodes - {nid},
            edges=g.graph.edges - doomed_edges,
            src={e: s for e, s in g.graph.src.items() if e not in doomed_edges},
            tgt={e: t for e, t in g.graph.tgt.items() if e not in doomed_edges},
        ),
        node_types={n: t for n, t in g.node_types.items() if n != nid},
        edge_types={e: t for e, t in g.edge_types.items() if e not in doomed_edges},
        attrs={(n, a): v for (n, a), v in g.attrs.items() if n != nid},
    )


def retype_node(g: InstanceGraph, nid: str, new_type: str) -> InstanceGraph:
    return replace(g, node_types={**g.node_types, nid: new_type})


def set_attr(g: InstanceGraph, nid: str, name: str, value) -> InstanceGraph:
    return replace(g, attrs={**g.attrs, (nid, name): value})


def add_edge(g: InstanceGraph, eid: str, etype: str, src: str, tgt: str) -> InstanceGraph:
    return replace(
        g,
        graph=Graph(
            nodes=g.graph.nodes,
            edges=g.graph.edges | {eid},
            src={**g.graph.src, eid: src},
            tgt={**g.graph.tgt, eid: tgt},
        ),
        edge_types={**g.edge_types, eid: etype},
    )


def drop_tgt(g: InstanceGraph, eid: str) -> InstanceGraph:
    tgt = {e: t for e, t in g.graph.tgt.items() if e != eid}
    return replace(g, graph=Graph(nodes=g.graph.nodes, edges=g.graph.edges, src=g.graph.src, tgt=tgt))


def retarget_edge(
    g: InstanceGraph, eid: str, src: str | None = None, tgt: str | None = None
) -> InstanceGraph:
    new_src = dict(g.graph.src)
    new_tgt = dict(g.graph.tgt)
    if src is not None:
        new_src[eid] = src
    if tgt is not None:
        new_tgt[eid] = tgt
    return replace(
        g, graph=Graph(nodes=g.graph.nodes, edges=g.graph.edges, src=new_src, tgt=new_tgt)
    )


def edges_of_type(g: InstanceGraph, etype: str) -> list[str]:
    return sorted(e for e in g.graph.edges if g.edge_types.get(e) == etype)


EDGE_TYPES = ("bPrnt", "bChld", "bLink", "bPoints", "bPorts", "bNode", "bogus")
NODE_TYPES = ("BPort", "BNode", "BRoot", "BSite", "Ghost")
EDITS = (
    "drop-edge", "retype-edge", "untype-edge", "retarget", "unset-end",
    "set-attr", "drop-attr", "port-owned-by-port", "retype-node", "untype-node",
)


@st.composite
def mutated_encodings(draw):
    """An encoded random bigraph after a few arbitrary edits, with the
    bigraph."""
    b = random_bigraph(random.Random(draw(st.integers(0, 1_000_000))))
    g, _ = encode(b)
    nodes, edges = set(g.graph.nodes), set(g.graph.edges)
    src, tgt = dict(g.graph.src), dict(g.graph.tgt)
    ntypes, etypes, attrs = dict(g.node_types), dict(g.edge_types), dict(g.attrs)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(EDITS))
        node_ids = sorted(nodes) + ["ghost"]
        e = draw(st.sampled_from(sorted(edges))) if edges else None
        end = draw(st.sampled_from((src, tgt)))
        if kind == "drop-edge" and e:
            edges.discard(e)
            for mapping in (src, tgt, etypes):
                mapping.pop(e, None)
        elif kind == "retype-edge" and e:
            etypes[e] = draw(st.sampled_from(EDGE_TYPES))
        elif kind == "untype-edge" and e:
            etypes.pop(e, None)
        elif kind == "retarget" and e:
            end[e] = draw(st.sampled_from(node_ids))
        elif kind == "unset-end" and e:
            end.pop(e, None)
        elif kind == "set-attr":
            key = (draw(st.sampled_from(node_ids)), draw(st.sampled_from(("index", "control", "x"))))
            attrs[key] = draw(st.one_of(st.integers(-1, 3), st.sampled_from(("a", "Printer"))))
        elif kind == "drop-attr" and attrs:
            del attrs[draw(st.sampled_from(sorted(attrs)))]
        elif kind == "port-owned-by-port":
            ports = sorted(n for n in nodes if ntypes.get(n) == "BPort")
            if len(ports) >= 2:
                p, q = draw(st.permutations(ports))[:2]
                owned = sorted(x for x in edges if src.get(x) == p and etypes.get(x) == "bNode")
                for x in owned[:1] or [f"own:{p}:{q}"]:
                    edges.add(x)
                    src[x], tgt[x], etypes[x] = p, q, "bNode"
        elif kind == "retype-node" and nodes:
            ntypes[draw(st.sampled_from(sorted(nodes)))] = draw(st.sampled_from(NODE_TYPES))
        elif kind == "untype-node" and ntypes:
            del ntypes[draw(st.sampled_from(sorted(ntypes)))]
    mutated = InstanceGraph(
        graph=Graph(nodes=frozenset(nodes), edges=frozenset(edges), src=src, tgt=tgt),
        node_types=ntypes,
        edge_types=etypes,
        attrs=attrs,
    )
    return mutated, b


CONFIGS = enumerate_configs()
BOUNDS = tuple(Multiplicity(lb, ub) for lb, ub in ((0, None), (0, 0), (0, 1), (1, 1), (1, None), (2, 3)))


@st.composite
def type_graph_variants(draw, sig: Signature | None = None, tg: TypeGraph | None = None):
    """The signature's type graph, or one of its 54 configurations, or
    else ``tg``, with up to three edge types edited: an end dropped or
    made unknown, an extra (possibly one-sided) opposite, containment
    toggled, or the multiplicity changed or dropped."""
    if tg is None:
        tg = extend_for_signature(sig)
        cfg = draw(st.sampled_from((None, *CONFIGS)))
        if cfg is not None:
            tg = derive_type_graph(annotate_150(tg), cfg)
    src, tgt = dict(tg.graph.src), dict(tg.graph.tgt)
    opposites, containments, mult = set(tg.opposites), set(tg.containments), dict(tg.mult)
    edge_types = sorted(tg.edge_types)
    for _ in range(draw(st.integers(0, 3))):
        e = draw(st.sampled_from(edge_types))
        kind = draw(st.sampled_from(("drop-end", "ghost-end", "opposite", "containment", "mult", "drop-mult")))
        ends = draw(st.sampled_from((src, tgt)))
        if kind == "drop-end":
            ends.pop(e, None)
        elif kind == "ghost-end":
            ends[e] = "Ghost"
        elif kind == "opposite":
            opposites.add((e, draw(st.sampled_from(edge_types))))
        elif kind == "containment":
            containments ^= {e}
        elif kind == "mult":
            mult[e] = draw(st.sampled_from(BOUNDS))
        else:
            mult.pop(e, None)
    graph = Graph(nodes=tg.graph.nodes, edges=tg.graph.edges, src=src, tgt=tgt)
    return replace(tg, graph=graph, opposites=opposites, containments=containments, mult=mult)


#: Link names that inner and outer interfaces draw from, so that an inner
#: and an outer name can share a name.
LINK_NAMES = ("a", "b", "c")


@st.composite
def arbitrary_bigraphs(draw):
    """A valid bigraph drawn freely. Unlike ``random_bigraph``, it may have
    idle edges and outer names (no point linked to them), empty
    interfaces, no roots at all, sites directly under roots, and an inner
    and an outer name with the same name."""
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    sig = make_signature([(f"K{i}", arity) for i, arity in enumerate(arities)])
    m = draw(st.integers(0, 3))
    nodes = [f"v{i}" for i in range(draw(st.integers(0, 8)) if m else 0)]
    ctrl = {v: draw(st.sampled_from(sig.names)) for v in nodes}
    prnt: dict[object, object] = {v: draw(st.sampled_from([*range(m), *nodes[:i]])) for i, v in enumerate(nodes)}
    k = draw(st.integers(0, 3)) if m else 0
    prnt.update((s, draw(st.sampled_from([*range(m), *nodes]))) for s in range(k))
    inner = draw(st.frozensets(st.sampled_from(LINK_NAMES)))
    outer = draw(st.frozensets(st.sampled_from(LINK_NAMES)))
    edges = [f"e{i}" for i in range(draw(st.integers(0, 3)))]
    points = [*sorted(inner), *(Port(v, i) for v in nodes for i in range(sig.arity(ctrl[v])))]
    if points and not edges and not outer:
        edges = ["e0"]
    targets = [*edges, *sorted(outer)]
    link = {p: draw(st.sampled_from(targets)) for p in points}
    return Bigraph(sig, frozenset(nodes), frozenset(edges), ctrl, prnt, link, Interface(k, inner), Interface(m, outer))
