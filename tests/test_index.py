"""The cached instance-graph indexes against brute-force scanning.

Each reference below scans every edge or attribute per query, which is
what the indexed helpers must reproduce: the same edges in the same
order, the same attribute dicts, the same reconfigured graphs (or the
same exception) for all 54 configurations, and the same saved text.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from bigtg import (
    Graph,
    InstanceGraph,
    NotCanonical,
    apply_deltas,
    enumerate_configs,
    fileio,
    replace,
)
from bigtg.typedgraph import incoming, node_attrs, outgoing
from bigtg.variability import DELTAS, _delete_nodes, eval_formula

from helpers import EDGE_TYPES, add_edge, drop_edge, mutated_encodings, outcome, retarget_edge


def ref_outgoing(g: InstanceGraph, n: str, edge_type: str) -> list[str]:
    return sorted(
        e for e in g.graph.edges if g.graph.src.get(e) == n and g.edge_types.get(e) == edge_type
    )


def ref_incoming(g: InstanceGraph, n: str, edge_type: str) -> list[str]:
    return sorted(
        e for e in g.graph.edges if g.graph.tgt.get(e) == n and g.edge_types.get(e) == edge_type
    )


def ref_node_attrs(g: InstanceGraph, n: str) -> dict:
    return {a: v for (node, a), v in g.attrs.items() if node == n}


def ref_implicit_ports(g: InstanceGraph, sig) -> InstanceGraph:
    """The implicit-ports delta with three edge scans per port, reading
    the working ``src``/``tgt`` copies as it rewires them."""
    ports = sorted(n for n in g.graph.nodes if g.node_types.get(n) == "BPort")
    if not ports:
        return g
    src = dict(g.graph.src)
    tgt = dict(g.graph.tgt)
    for p in ports:
        own = sorted(e for e in g.graph.edges if src[e] == p and g.edge_types.get(e) == "bNode")
        if len(own) != 1:
            raise NotCanonical(f"port {p} has {len(own)} ownership edges; cannot rewire")
        owner = tgt[own[0]]
        links = sorted(e for e in g.graph.edges if src[e] == p and g.edge_types.get(e) == "bLink")
        if len(links) != 1:
            raise NotCanonical(f"port {p} has {len(links)} link edges; cannot rewire")
        src[links[0]] = owner
        for e in sorted(g.graph.edges):
            if tgt[e] == p and g.edge_types.get(e) == "bPoints":
                tgt[e] = owner
    rewired = InstanceGraph(
        graph=Graph(nodes=g.graph.nodes, edges=g.graph.edges, src=src, tgt=tgt),
        node_types=g.node_types,
        edge_types=g.edge_types,
        attrs=g.attrs,
    )
    return _delete_nodes(rewired, set(ports))


def ref_apply_deltas(g: InstanceGraph, cfg, sig) -> InstanceGraph:
    lacking = sorted(e for e in g.graph.edges if e not in g.graph.src or e not in g.graph.tgt)
    if lacking:
        end = "src" if lacking[0] not in g.graph.src else "tgt"
        raise NotCanonical(f"edge {lacking[0]} has no {end}")
    for delta in DELTAS:
        if eval_formula(delta.condition, cfg.selected):
            patch = ref_implicit_ports if delta.name == "implicit-ports" else delta.patch
            g = patch(g, sig)
    return g


def ref_dumps(g: InstanceGraph) -> str:
    nodes = [
        {
            "attrs": {a: v for (node, a), v in sorted(g.attrs.items()) if node == n},
            "id": n,
            "type": g.node_types.get(n),
        }
        for n in sorted(g.graph.nodes)
    ]
    for e in sorted(g.graph.edges):
        for role, ends in (("src", g.graph.src), ("tgt", g.graph.tgt)):
            if ends.get(e) is None:
                raise ValueError(f"edge {e} has no {role}")
    orphans = sorted(key for key in g.attrs if key[0] not in g.graph.nodes)
    if orphans:
        raise ValueError("attribute {1} of {0} has no node".format(*orphans[0]))
    edges = [
        {"id": e, "src": g.graph.src[e], "tgt": g.graph.tgt[e], "type": g.edge_types.get(e)}
        for e in sorted(g.graph.edges)
    ]
    doc = {
        "formatVersion": fileio.FORMAT_VERSION,
        "kind": fileio.KIND_INSTANCEGRAPH,
        "payload": {"edges": edges, "nodes": nodes},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@given(mutated_encodings())
@settings(max_examples=40, deadline=None)
def test_indexed_helpers_match_scanning(case):
    g, b = case
    sig = b.signature
    ends = sorted(g.graph.nodes) + ["ghost"]
    for n in ends:
        for te in EDGE_TYPES:
            assert outgoing(g, n, te) == ref_outgoing(g, n, te)
            assert incoming(g, n, te) == ref_incoming(g, n, te)
    for n in sorted({n for n, _ in g.attrs} | set(ends)):
        assert list(node_attrs(g, n).items()) == list(ref_node_attrs(g, n).items())
    for cfg in enumerate_configs():
        assert outcome(apply_deltas, g, cfg, sig) == outcome(ref_apply_deltas, g, cfg, sig)
    assert outcome(fileio.dumps_canonical, g) == outcome(ref_dumps, g)


def _without_tgt(g: InstanceGraph, eid: str) -> InstanceGraph:
    tgt = {e: t for e, t in g.graph.tgt.items() if e != eid}
    return replace(g, graph=replace(g.graph, tgt=tgt))


def _owned_by_later_port(g):
    return retarget_edge(g, "bNode:p:v0:0:n:v0", tgt="p:v1:0")


@pytest.mark.parametrize(
    "mutate, expected",
    [
        # The later port sees the link moved onto it and has two.
        (_owned_by_later_port, ("NotCanonical", "port p:v1:0 has 2 link edges; cannot rewire")),
        # With its own link gone, the later port passes the moved link and
        # the moved bPoints edge on to its owner.
        (lambda g: drop_edge(_owned_by_later_port(g), "bLink:p:v1:0:e:e1"), None),
        # An edge without a target is refused before any delta runs, even
        # though it would be deleted with the port it leaves.
        (
            lambda g: _without_tgt(add_edge(g, "x", "bogus", "p:v3:0", "n:v3"), "x"),
            ("NotCanonical", "edge x has no tgt"),
        ),
    ],
)
def test_implicit_ports_sees_edges_moved_by_earlier_ports(g1, sig1, mutate, expected):
    g = mutate(g1)
    implicit = [cfg for cfg in enumerate_configs() if "EP" not in cfg.selected]
    for cfg in implicit:
        got = outcome(apply_deltas, g, cfg, sig1)
        assert got == outcome(ref_apply_deltas, g, cfg, sig1)
        if expected is not None:
            assert got == expected
        else:
            assert isinstance(got, InstanceGraph)
