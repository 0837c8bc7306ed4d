"""The instance-graph edge view and the helpers over it against
brute-force scanning.

Each reference (here and in ``helpers``) scans every edge or attribute
per query, which is what the view and the helpers must reproduce: the
same edges in the same order, the same attribute dicts, the same
reconfigured graphs (or the same exception) for all 54 configurations,
and the same saved text.
"""

from __future__ import annotations

import gc
import json
import weakref
from collections import Counter
from collections.abc import Callable

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bigtg import (
    Control,
    Graph,
    InstanceGraph,
    InvalidBigraph,
    NotCanonical,
    Signature,
    apply_deltas,
    enumerate_configs,
    fileio,
    replace,
)
from bigtg._value import frozen
from bigtg.mapping import check_arity_rule, check_soundness, conformance, decode, encode, extend_for_signature
from bigtg.typedgraph import _grouped, check_multiplicities, incoming, node_attrs, outgoing
from bigtg.variability import FeatureConfig, Formula, eval_formula

from helpers import (
    EDGE_TYPES,
    NODE_TYPES,
    add_edge,
    arbitrary_bigraphs,
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


# The reconfiguration deltas as they were before ``apply_deltas`` became
# one pass, verbatim but for their ``ref_`` names: ``ref_apply_deltas``
# applies them in their table order, with the scanning implicit-ports
# reference below in place of the grouped one.


def ref_delete_nodes(g: InstanceGraph, doomed: set[str]) -> InstanceGraph:
    """Remove nodes together with their incident edges."""
    keep_edges = {
        e
        for e in g.graph.edges
        if g.graph.src[e] not in doomed and g.graph.tgt[e] not in doomed
    }
    return InstanceGraph(
        graph=Graph(
            nodes=g.graph.nodes - doomed,
            edges=frozenset(keep_edges),
            src={e: g.graph.src[e] for e in keep_edges},
            tgt={e: g.graph.tgt[e] for e in keep_edges},
        ),
        node_types={n: t for n, t in g.node_types.items() if n not in doomed},
        edge_types={e: t for e, t in g.edge_types.items() if e in keep_edges},
        attrs={(n, a): v for (n, a), v in g.attrs.items() if n not in doomed},
    )


def ref_retype_controls(g: InstanceGraph, sig: Signature) -> InstanceGraph:
    controls = set(sig.names)
    ntypes = dict(g.node_types)
    attrs = dict(g.attrs)
    for n in sorted(g.graph.nodes):
        t = ntypes.get(n)
        if t in controls:
            ntypes[n] = "BNode"
            attrs[(n, "control")] = t
    return replace(g, node_types=ntypes, attrs=attrs)


def ref_unset_index(g: InstanceGraph, type_name: str) -> InstanceGraph:
    attrs = {
        (n, a): v
        for (n, a), v in g.attrs.items()
        if not (a == "index" and g.node_types.get(n) == type_name)
    }
    return replace(g, attrs=attrs)


def ref_delete_of_type(g: InstanceGraph, type_name: str) -> InstanceGraph:
    doomed = {n for n in g.graph.nodes if g.node_types.get(n) == type_name}
    return ref_delete_nodes(g, doomed) if doomed else g


def ref_grouped_implicit_ports(g: InstanceGraph, sig: Signature) -> InstanceGraph:
    """Rewire each port's link (and its opposite) to the owning node, then
    drop the port nodes with their ownership edges.

    Plain deletion would sever the link structure; rewiring keeps it on
    the owner, which is what the node-as-point variant represents.
    """
    ports = sorted(n for n in g.graph.nodes if g.node_types.get(n) == "BPort")
    if not ports:
        return g
    src = dict(g.graph.src)
    tgt = dict(g.graph.tgt)
    # Each relation is read from its own edges only, grouped once: nothing
    # checks g, so it needs no edge view. Rewiring moves the bLink and
    # bPoints edges, never the bNode ones, so ownership is read once; a
    # bLink edge moved onto a later port counts among its links.
    edges = tuple(g.graph.edges)
    of_type = _grouped(list(map(g.edge_types.get, edges)), edges)
    owned, linked = of_type.get("bNode", []), of_type.get("bLink", [])
    ownership, owner_of = Counter(map(src.get, owned)), dict(zip(map(src.get, owned), map(tgt.get, owned)))
    link_count, link_of = Counter(map(src.get, linked)), dict(zip(map(src.get, linked), linked))
    moved_links: dict[str, list[str]] = {}
    for p in ports:
        count = ownership.get(p, 0)
        if count != 1:
            raise NotCanonical(f"port {p} has {count} ownership edges; cannot rewire")
        moved = moved_links.pop(p, [])
        count = len(moved) + link_count.get(p, 0)
        if count != 1:
            raise NotCanonical(f"port {p} has {count} link edges; cannot rewire")
        link = moved[0] if moved else link_of[p]
        src[link] = owner_of[p]
        moved_links.setdefault(owner_of[p], []).append(link)
    # A bPoints edge at a port moves to its owner, and on from there when
    # the owner is a port rewired later, so each port's last stop is found
    # from the last port back.
    last_stop: dict[str, str] = {}
    for p in reversed(ports):
        last_stop[p] = last_stop.get(owner_of[p], owner_of[p])
    tgt.update({e: last_stop[tgt[e]] for e in of_type.get("bPoints", ()) if tgt[e] in last_stop})
    rewired = InstanceGraph(
        graph=Graph(nodes=g.graph.nodes, edges=g.graph.edges, src=src, tgt=tgt),
        node_types=g.node_types,
        edge_types=g.edge_types,
        attrs=g.attrs,
    )
    return ref_delete_nodes(rewired, set(ports))


@frozen
class ref_Delta:
    """A conditional instance-graph patch."""

    name: str
    condition: Formula
    patch: Callable[[InstanceGraph, Signature], InstanceGraph]


#: Reconfiguration deltas in their fixed application order: retyping
#: first, then index removal before element removal per option group.
ref_DELTAS: tuple[ref_Delta, ...] = (
    ref_Delta("weak-typing", "WT", ref_retype_controls),
    ref_Delta("drop-root-indices", ("not", "RI"), lambda g, s: ref_unset_index(g, "BRoot")),
    ref_Delta("drop-roots", ("not", "ER"), lambda g, s: ref_delete_of_type(g, "BRoot")),
    ref_Delta("drop-site-indices", ("not", "SI"), lambda g, s: ref_unset_index(g, "BSite")),
    ref_Delta("drop-sites", ("not", "ES"), lambda g, s: ref_delete_of_type(g, "BSite")),
    ref_Delta("drop-port-indices", ("not", "PI"), lambda g, s: ref_unset_index(g, "BPort")),
    ref_Delta("implicit-ports", ("not", "EP"), ref_grouped_implicit_ports),
)


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
    return ref_delete_nodes(rewired, set(ports))


def ref_apply_deltas(g: InstanceGraph, cfg, sig) -> InstanceGraph:
    lacking = sorted(e for e in g.graph.edges if e not in g.graph.src or e not in g.graph.tgt)
    if lacking:
        end = "src" if lacking[0] not in g.graph.src else "tgt"
        raise NotCanonical(f"edge {lacking[0]} has no {end}")
    for delta in ref_DELTAS:
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


@st.composite
def encodings(draw) -> tuple[InstanceGraph, Signature]:
    """An edited encoding or an encoding of an arbitrary bigraph, with its
    signature."""
    if draw(st.booleans()):
        g, b = draw(mutated_encodings())
        return g, b.signature
    b = draw(arbitrary_bigraphs())
    try:
        g, _ = encode(b)
    except InvalidBigraph:
        assume(False)  # an idle link, which encode refuses
    return g, b.signature


def _other_signature(sig: Signature, group: str) -> Signature:
    """A signature that keeps every other control of ``sig`` and adds one
    it lacks and one named after a group's node type, which signatures
    read from files refuse."""
    names = (*sig.names[::2], "Other", group)
    return Signature(tuple(map(Control, names)), dict.fromkeys(names, 1))


@given(encodings(), encodings(), st.sampled_from(("BRoot", "BSite", "BPort")), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_kept_parts_give_every_configuration_its_reference_outcome(first, second, group, rnd):
    """All 54 configurations of two graphs under two signatures, twice, in
    a shuffled order: the parts each graph keeps give the outcome of the
    scanning reference every time, value or ``NotCanonical`` reason."""
    runs = [
        (g, cfg, s)
        for g, sig in (first, second)
        for s in (sig, _other_signature(sig, group))
        for cfg in enumerate_configs()
    ] * 2
    rnd.shuffle(runs)
    for g, cfg, sig in runs:
        assert outcome(apply_deltas, g, cfg, sig) == outcome(ref_apply_deltas, g, cfg, sig), sorted(cfg.selected)


def test_kept_parts_do_not_keep_their_graph_alive(g1, sig1):
    """The parts hold no reference to their graph, so it goes with its last
    reference and takes them along; and reconfiguring builds no edge view,
    nor any edge part for a configuration that deletes nothing."""
    g = replace(g1)
    apply_deltas(g, FeatureConfig(frozenset({"WT", "ER", "RI", "ES", "SI", "EP", "PI"})), sig1)
    assert not any(make.__name__ in ("_touching", "_ends", "_rewired") for make, _ in vars(g)["_parts"])
    for cfg in enumerate_configs():
        apply_deltas(g, cfg, sig1)
    assert "edge_view" not in vars(g) and vars(g)["_parts"]
    kept = weakref.ref(g)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del g
        assert kept() is None
    finally:
        if enabled:
            gc.enable()


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


@pytest.mark.parametrize(
    "edge, ends", [("bLink:p:v0:0:e:e0", {"tgt": "p:v1:0"}), ("bPoints:e:e0:p:v0:0", {"src": "p:v1:0"})]
)
def test_a_moved_edge_goes_when_its_other_end_goes(g1, sig1, edge, ends):
    # The link moves to its port's owner and the bPoints edge to the port
    # it points at's owner, but the other end is a port that goes too.
    g = retarget_edge(g1, edge, **ends)
    for cfg in [cfg for cfg in enumerate_configs() if "EP" not in cfg.selected]:
        got = outcome(apply_deltas, g, cfg, sig1)
        assert got == outcome(ref_apply_deltas, g, cfg, sig1)
        assert edge not in got.graph.edges


def test_ends_and_types_of_no_edge_go_with_a_deletion(g1, sig1):
    # Keys of src, tgt and edge_types that are no edge, here at a port.
    stray = {"src": "n:v0", "tgt": "p:v0:0"}
    graph = replace(g1.graph, **{end: {**getattr(g1.graph, end), "stray": v} for end, v in stray.items()})
    g = replace(g1, graph=graph, edge_types={**g1.edge_types, "stray": "bLink"})
    for cfg in enumerate_configs():
        got = outcome(apply_deltas, g, cfg, sig1)
        assert got == outcome(ref_apply_deltas, g, cfg, sig1)
        assert "stray" not in got.graph.edges


@pytest.mark.parametrize("owner, explicit", [("r:0", "ER"), ("s:0", "ES")])
def test_ports_read_no_edge_of_a_deleted_root_or_site(g1, sig1, owner, explicit):
    # Roots and sites go before ports are rewired, so a port owned by a
    # deleted one has no ownership edge; one that is kept owns the port.
    g = retarget_edge(g1, "bNode:p:v0:0:n:v0", tgt=owner)
    for cfg in [cfg for cfg in enumerate_configs() if "EP" not in cfg.selected]:
        got = outcome(apply_deltas, g, cfg, sig1)
        assert got == outcome(ref_apply_deltas, g, cfg, sig1)
        if explicit in cfg.selected:
            assert isinstance(got, InstanceGraph)
        else:
            assert got == ("NotCanonical", "port p:v0:0 has 0 ownership edges; cannot rewire")


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
        picked = view.by_type.get(te, [])
        assert picked == [e for e in g.graph.edges if types.get(e) == te]
    # The nodes of each node type, also with the smallest node untyped and
    # the next one typed None, and for types that no node has.
    nodes = sorted(g.graph.nodes)
    retyped = {n: t for n, t in g.node_types.items() if n not in nodes[:1]} | dict.fromkeys(nodes[1:2])
    for h in (g, replace(g, node_types=retyped)):
        groups = h.edge_view.by_node_type
        kinds = {h.node_types.get(n) for n in h.graph.nodes}
        assert groups.keys() == kinds
        for t in kinds | set(tg.node_types) | set(NODE_TYPES) | {None, "None"}:
            assert groups.get(t, []) == [n for n in h.graph.nodes if h.node_types.get(n) == t]


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


#: The configuration that drops only the port indices and the ports.
PORTS_ONLY = FeatureConfig(frozenset({"ST", "ER", "RI", "ES", "SI"}))


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
        assert outcome(apply_deltas, g, PORTS_ONLY, sig1) == outcome(ref_implicit_ports, ref_unset_index(g, "BPort"), sig1)
        for cfg in implicit:
            assert outcome(apply_deltas, g, cfg, sig1) == outcome(ref_apply_deltas, g, cfg, sig1)
        owners.append([f.message for f in check_soundness(b1, g, emap1).findings if f.code == "sound-port-index"])
    # Beside a typed ownership edge the untyped one changes nothing; alone,
    # it leaves the port with no ownership edge.
    assert owners[0] == []
    assert owners[1] == owners[2] == ["port node has 0 ownership edges"]
    port = min(n for n in g1.graph.nodes if g1.node_types[n] == "BPort")
    assert isinstance(apply_deltas(_untyped_beside_ports(g1)[0], PORTS_ONLY, sig1), InstanceGraph)
    assert outcome(apply_deltas, _untyped_beside_ports(g1)[2], PORTS_ONLY, sig1) == (
        "NotCanonical",
        f"port {port} has 0 ownership edges; cannot rewire",
    )
