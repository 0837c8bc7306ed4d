"""The text of every ``check_soundness`` finding, pinned on the printer
example, and its totality on bigraphs whose controls are broken."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigtg import Bigraph, ElementMap, Port, check_soundness, encode, replace, validate_bigraph
from bigtg.generators import random_bigraph

from helpers import add_edge, drop_edge, retype_node, set_attr


def add_node(g, nid: str, node_type: str, index: int | None = None):
    graph = replace(g.graph, nodes=g.graph.nodes | {nid})
    attrs = {**g.attrs, (nid, "index"): index} if index is not None else g.attrs
    return replace(g, graph=graph, node_types={**g.node_types, nid: node_type}, attrs=attrs)


def drop_src(g, eid: str):
    return replace(g, graph=replace(g.graph, src={e: s for e, s in g.graph.src.items() if e != eid}))


def remap(emap: ElementMap, drop=(), **changes) -> ElementMap:
    """``emap`` without the elements in ``drop`` and with ``changes``,
    keyed ``kind__key``, mapped to new images."""
    forward = {el: gid for el, gid in emap.forward.items() if el not in drop}
    for name, gid in changes.items():
        kind, key = name.split("__")
        forward[(kind, key)] = gid
    return ElementMap(forward)


# Each case edits the printer bigraph's encoding or its element map.
CASES = {
    "map-domain": lambda g, m: (g, remap(m, drop={("edge", "e0")}, node__ghost="n:v6")),
    "map-injective": lambda g, m: (g, remap(m, edge__e1="e:e0")),
    "map-image": lambda g, m: (g, remap(m, node__v6="n:nowhere")),
    "map-surjective": lambda g, m: (add_node(g, "e:extra", "BEdge"), m),
    "sound-typing": lambda g, m: (retype_node(retype_node(g, "n:v1", "Room"), "e:e0", "BOuterName"), m),
    "sound-nesting": lambda g, m: (
        add_edge(drop_edge(g, "bPrnt:n:v1:n:v0"), "bPrnt:n:v6:n:v0", "bPrnt", "n:v6", "n:v0"),
        m,
    ),
    # Every nesting is mirrored, and one more 'bPrnt' edge is not.
    "extra-nesting-edge": lambda g, m: (add_edge(g, "bPrnt:n:v6:n:v0", "bPrnt", "n:v6", "n:v0"), m),
    "sound-linking": lambda g, m: (
        add_edge(drop_edge(g, "bLink:p:v0:0:e:e0"), "bLink:p:v3:0:e:e2", "bLink", "p:v3:0", "e:e2"),
        m,
    ),
    "unmapped-endpoints": lambda g, m: (g, remap(m, node__v4="n:gone")),
    # The graph's one nesting edge without a source ends where the
    # unmapped child's nesting would: the pairs (None, n:v5) must not match.
    "unmapped-child-of-a-sourceless-edge": lambda g, m: (
        drop_src(g, "bPrnt:n:v6:n:v5"),
        remap(m, drop={("node", "v6")}),
    ),
    "sound-root-index": lambda g, m: (add_node(set_attr(g, "r:0", "index", 1), "r:extra", "BRoot", 0), m),
    "sound-site-index": lambda g, m: (set_attr(g, "s:0", "index", 1), m),
    # s:1 is the image of sites 0 and 1 and carries the later index.
    "twice-mapped-site": lambda g, m: (g, ElementMap({**m.forward, ("site", 0): "s:1"})),
    # p:v1:0 is the image of ports (v1,0) and (v1,1) and carries index 0.
    "twice-mapped-port": lambda g, m: (g, ElementMap({**m.forward, ("port", Port("v1", 1)): "p:v1:0"})),
    # p:v3:0 keeps its index but is owned by v4, whose port 0 is another.
    "port-owned-elsewhere": lambda g, m: (
        add_edge(drop_edge(g, "bNode:p:v3:0:n:v3"), "bNode:p:v3:0:n:v4", "bNode", "p:v3:0", "n:v4"),
        m,
    ),
    "sound-port-index": lambda g, m: (
        add_edge(
            drop_edge(set_attr(g, "p:v1:0", "index", 1), "bNode:p:v2:0:n:v2"),
            "bNode:p:v3:0:n:v4", "bNode", "p:v3:0", "n:v4",
        ),
        m,
    ),
}

EXPECTED = {
    "map-domain": [
        "error map-domain ('edge', 'e0') bigraph element is not mapped",
        "error map-domain ('node', 'ghost') map entry for a non-element",
        "error map-injective n:v6 two elements map to the same graph node",
        "error map-surjective e:e0 graph node is not the image of any element",
        "error sound-linking ('port', Port(node='v0', index=0)) linking endpoints are not mapped into the graph",
        "error sound-linking ('port', Port(node='v4', index=0)) linking endpoints are not mapped into the graph",
        "error sound-linking bLink[p:v0:0->e:e0] 'bLink' edge has no bigraph linking (graph->bigraph)",
        "error sound-linking bLink[p:v4:0->e:e0] 'bLink' edge has no bigraph linking (graph->bigraph)",
    ],
    "map-injective": [
        "error map-injective e:e0 two elements map to the same graph node",
        "error map-surjective e:e1 graph node is not the image of any element",
        "error sound-linking ('port', Port(node='v1', index=0)) no 'bLink' edge mirrors the bigraph linking (bigraph->graph)",
        "error sound-linking ('port', Port(node='v3', index=0)) no 'bLink' edge mirrors the bigraph linking (bigraph->graph)",
        "error sound-linking bLink[p:v1:0->e:e1] 'bLink' edge has no bigraph linking (graph->bigraph)",
        "error sound-linking bLink[p:v3:0->e:e1] 'bLink' edge has no bigraph linking (graph->bigraph)",
    ],
    "map-image": [
        "error map-image n:nowhere image of ('node', 'v6') is not a graph node",
        "error map-surjective n:v6 graph node is not the image of any element",
        "error sound-nesting ('node', 'v6') nesting endpoints are not mapped into the graph",
        "error sound-nesting bPrnt[n:v6->n:v5] 'bPrnt' edge has no bigraph nesting (graph->bigraph)",
    ],
    "map-surjective": [
        "error map-surjective e:extra graph node is not the image of any element",
    ],
    "sound-typing": [
        "error sound-typing e:e0 edge element typed 'BOuterName', expected 'BEdge'",
        "error sound-typing n:v1 node element typed 'Room', expected 'Printer'",
    ],
    "sound-nesting": [
        "error sound-nesting ('node', 'v1') no 'bPrnt' edge mirrors the bigraph nesting (bigraph->graph)",
        "error sound-nesting bPrnt[n:v6->n:v0] 'bPrnt' edge has no bigraph nesting (graph->bigraph)",
    ],
    "extra-nesting-edge": [
        "error sound-nesting bPrnt[n:v6->n:v0] 'bPrnt' edge has no bigraph nesting (graph->bigraph)",
    ],
    "sound-linking": [
        "error sound-linking ('port', Port(node='v0', index=0)) no 'bLink' edge mirrors the bigraph linking (bigraph->graph)",
        "error sound-linking bLink[p:v3:0->e:e2] 'bLink' edge has no bigraph linking (graph->bigraph)",
    ],
    "unmapped-endpoints": [
        "error map-image n:gone image of ('node', 'v4') is not a graph node",
        "error map-surjective n:v4 graph node is not the image of any element",
        "error sound-nesting ('node', 'v4') nesting endpoints are not mapped into the graph",
        "error sound-nesting ('node', 'v5') nesting endpoints are not mapped into the graph",
        "error sound-nesting bPrnt[n:v4->r:0] 'bPrnt' edge has no bigraph nesting (graph->bigraph)",
        "error sound-nesting bPrnt[n:v5->n:v4] 'bPrnt' edge has no bigraph nesting (graph->bigraph)",
    ],
    "unmapped-child-of-a-sourceless-edge": [
        "error map-domain ('node', 'v6') bigraph element is not mapped",
        "error map-surjective n:v6 graph node is not the image of any element",
        "error sound-nesting ('node', 'v6') nesting endpoints are not mapped into the graph",
    ],
    "sound-root-index": [
        "error map-surjective r:extra graph node is not the image of any element",
        "error sound-root-index r:0 root 0 carries index attribute 1",
        "error sound-root-index r:extra index attribute 0 clashes with root 0 mapped elsewhere",
    ],
    "sound-site-index": [
        "error sound-site-index s:0 site 0 carries index attribute 1",
        "error sound-site-index s:0 index attribute 1 clashes with site 1 mapped elsewhere",
    ],
    "twice-mapped-site": [
        "error map-injective s:1 two elements map to the same graph node",
        "error map-surjective s:0 graph node is not the image of any element",
        "error sound-nesting ('site', 0) no 'bPrnt' edge mirrors the bigraph nesting (bigraph->graph)",
        "error sound-nesting bPrnt[s:0->n:v3] 'bPrnt' edge has no bigraph nesting (graph->bigraph)",
        "error sound-site-index s:0 index attribute 0 clashes with site 0 mapped elsewhere",
        "error sound-site-index s:1 site 0 carries index attribute 1",
    ],
    "twice-mapped-port": [
        "error map-injective p:v1:0 two elements map to the same graph node",
        "error map-surjective p:v1:1 graph node is not the image of any element",
        "error sound-linking ('port', Port(node='v1', index=1)) no 'bLink' edge mirrors the bigraph linking (bigraph->graph)",
        "error sound-linking bLink[p:v1:1->e:e2] 'bLink' edge has no bigraph linking (graph->bigraph)",
        "error sound-port-index p:v1:0 port (v1,1) carries index attribute 0",
        "error sound-port-index p:v1:1 index attribute 1 clashes with port (v1,1) mapped elsewhere",
    ],
    "port-owned-elsewhere": [
        "error sound-port-index p:v3:0 index attribute 0 clashes with port (v4,0) mapped elsewhere",
    ],
    "sound-port-index": [
        "error sound-port-index p:v2:0 port node has 0 ownership edges",
        "error sound-port-index p:v3:0 port node has 2 ownership edges",
        "error sound-port-index p:v1:0 port (v1,0) carries index attribute 1",
        "error sound-port-index p:v1:0 index attribute 1 clashes with port (v1,1) mapped elsewhere",
    ],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_soundness_findings_pinned(case, b1, g1, emap1):
    g, emap = CASES[case](g1, emap1)
    assert [f.line() for f in check_soundness(b1, g, emap).findings] == EXPECTED[case]


@st.composite
def broken_controls(draw):
    """A random bigraph with its encoding, after some node controls are
    dropped or renamed to controls the signature may not declare."""
    b = random_bigraph(random.Random(draw(st.integers(0, 1_000_000))))
    g, emap = encode(b)
    ctrl = dict(b.ctrl)
    for v in draw(st.lists(st.sampled_from(sorted(b.nodes)), max_size=3)) if b.nodes else ():
        if draw(st.booleans()):
            ctrl.pop(v, None)
        else:
            ctrl[v] = draw(st.sampled_from((*b.signature.names, "Z", "")))
    return replace(b, ctrl=ctrl), g, emap


@given(broken_controls())
@settings(max_examples=200, deadline=None)
def test_soundness_is_total_on_broken_controls(case):
    b, g, emap = case
    rep = check_soundness(b, g, emap)
    if not all(b.signature.has_control(b.ctrl.get(v)) for v in b.nodes):
        assert rep == validate_bigraph(b)
        assert {"ctrl-total", "ctrl-unknown-control"} & rep.codes()


@pytest.mark.parametrize(
    "ctrl, codes",
    [({"v0": "Room"}, {"ctrl-total"}), ({"v0": "Room", "v1": "Z"}, {"ctrl-unknown-control"})],
)
def test_soundness_reports_bigraph_findings_for_broken_controls(b1, g1, emap1, ctrl, codes):
    b = Bigraph(b1.signature, nodes={"v0", "v1"}, ctrl=ctrl, prnt={"v0": 0, "v1": "v0"})
    rep = check_soundness(b, g1, emap1)
    assert rep == validate_bigraph(b)
    assert codes <= rep.codes()
