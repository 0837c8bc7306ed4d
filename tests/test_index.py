"""The instance-graph edge view and the helpers over it against
brute-force scanning.

Each reference (here and in ``helpers``) scans every edge or attribute
per query, which is what the view and the helpers must reproduce: the
same edges in the same order, the same attribute dicts, the same
reconfigured graphs (or the same exception) for all 54 configurations,
and the same saved text.
"""

from __future__ import annotations

import json
from collections import Counter

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
from bigtg.mapping import check_arity_rule, check_soundness, conformance, decode, encode, extend_for_signature
from bigtg.typedgraph import check_multiplicities, incoming, node_attrs, outgoing, typed_edges
from bigtg.variability import DELTAS, _delete_nodes, _implicit_ports, eval_formula

from helpers import (
    EDGE_TYPES,
    add_edge,
    drop_edge,
    mutated_encodings,
    outcome,
    ref_incoming,
    ref_node_attrs,
    ref_out_degree,
    ref_outgoing,
    retarget_edge,
)
from test_checker_tables import ref_check_arity_rule, ref_check_multiplicities
from test_mapping_table import ref_check_soundness, ref_decode


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


def test_node_attrs_keep_the_order_of_attrs():
    g = InstanceGraph(graph=Graph(nodes=frozenset({"n"})), attrs={("n", "z"): 1, ("m", "b"): 2, ("n", "a"): 3})
    assert list(node_attrs(g, "n").items()) == list(ref_node_attrs(g, "n").items()) == [("z", 1), ("a", 3)]


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
        # A port's link retyped as a bPoints edge is no link of the port.
        (
            lambda g: replace(g, edge_types={**g.edge_types, "bLink:p:v0:0:e:e0": "bPoints"}),
            ("NotCanonical", "port p:v0:0 has 0 link edges; cannot rewire"),
        ),
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


@given(mutated_encodings())
@settings(max_examples=60, deadline=None)
def test_out_degree_and_typed_edges_match_brute_force(case):
    """And so do the two checkers that count sources in the edge view."""
    g, b = case
    tg = extend_for_signature(b.signature)
    assert check_multiplicities(g, tg) == ref_check_multiplicities(g, tg)
    assert check_arity_rule(g, tg, b.signature) == ref_check_arity_rule(g, tg, b.signature)
    view, types = g.edge_view, g.edge_types
    ends = sorted(g.graph.nodes) + ["ghost", None]
    for te in EDGE_TYPES + (None,):
        counts = Counter(view.sources.get(te, ()))
        groups = view.by_source(te)
        for n in ends:
            assert counts[n] == ref_out_degree(g, n, te)
            assert sorted(groups.get(n, ())) == ref_outgoing(g, n, te)
        assert sum(map(len, groups.values())) == sum(counts.values())
    for te in EDGE_TYPES:
        picked = typed_edges(g, te)
        assert picked == [e for e in g.graph.edges if types.get(e) == te]


def _navigated(g: InstanceGraph) -> list:
    """The edge types grouped by source for navigation, if the view is built."""
    return list(vars(g)["edge_view"]._by_source) if "edge_view" in vars(g) else []


@given(mutated_encodings())
@settings(max_examples=30, deadline=None)
def test_checkers_decode_and_deltas_build_no_adjacency_index(case):
    """Counts and single-edge-type passes stand in for the navigation
    groups everywhere but constraint navigation."""
    g, b = case
    sig = b.signature
    conformance(g, extend_for_signature(sig), sig)
    outcome(decode, g, sig)
    check_soundness(b, g, encode(b)[1])
    results = [outcome(apply_deltas, g, cfg, sig) for cfg in enumerate_configs()]
    assert _navigated(g) == []
    assert all(_navigated(r) == [] for r in results if isinstance(r, InstanceGraph))


def _untyped_beside_ports(g: InstanceGraph) -> list[InstanceGraph]:
    """Untyped edges out of a port, with its ownership edge kept, untyped,
    or dropped."""
    port = min(n for n in g.graph.nodes if g.node_types[n] == "BPort")
    (own,) = [e for e in g.graph.edges if g.graph.src[e] == port and g.edge_types[e] == "bNode"]
    owner = g.graph.tgt[own]
    stray = add_edge(g, "stray", "bNode", port, owner)
    stray = replace(stray, edge_types={e: t for e, t in stray.edge_types.items() if e != "stray"})
    untyped_own = replace(g, edge_types={e: t for e, t in g.edge_types.items() if e != own})
    return [stray, untyped_own, drop_edge(stray, own)]


def test_an_untyped_edge_beside_a_port_is_never_ownership(b1, g1, emap1, sig1):
    implicit = [cfg for cfg in enumerate_configs() if "EP" not in cfg.selected]
    owners = []
    for g in _untyped_beside_ports(g1):
        assert outcome(decode, g, sig1) == outcome(ref_decode, g, sig1)
        assert check_soundness(b1, g, emap1) == ref_check_soundness(b1, g, emap1)
        assert outcome(_implicit_ports, g, sig1) == outcome(ref_implicit_ports, g, sig1)
        for cfg in implicit:
            assert outcome(apply_deltas, g, cfg, sig1) == outcome(ref_apply_deltas, g, cfg, sig1)
        owners.append([f.message for f in check_soundness(b1, g, emap1).findings if f.code == "sound-port-index"])
    # Beside a typed ownership edge the untyped one changes nothing; alone,
    # it leaves the port with no ownership edge.
    assert owners[0] == []
    assert owners[1] == owners[2] == ["port node has 0 ownership edges"]
    port = min(n for n in g1.graph.nodes if g1.node_types[n] == "BPort")
    assert isinstance(_implicit_ports(_untyped_beside_ports(g1)[0], sig1), InstanceGraph)
    assert outcome(_implicit_ports, _untyped_beside_ports(g1)[2], sig1) == (
        "NotCanonical",
        f"port {port} has 0 ownership edges; cannot rewire",
    )
