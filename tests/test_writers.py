"""The canonical writers print exactly what ``json.dumps(doc, indent=2,
sort_keys=True)`` prints for the payloads of the earlier dict-building
writers, copied here as references: on edited encodings with awkward
leaves, on every product-line variant, on random bigraphs and on pinned
small cases."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigtg import (
    Bigraph,
    Graph,
    InstanceGraph,
    Interface,
    Port,
    annotate_150,
    apply_deltas,
    derive_type_graph,
    enumerate_configs,
    extend_for_signature,
    fileio,
    replace,
)
from bigtg.generators import random_bigraph, random_signature

from helpers import assert_refused, mutated_encodings, outcome, ref_node_attrs


# ---------------------------------------------------------------------------
# Reference payloads: the dict-building writers the template writers replace.


def ref_signature_payload(sig):
    return {"controls": [{"arity": sig.arity(c.name), "name": c.name} for c in sig.controls]}


def ref_interface_payload(iface):
    return {"names": sorted(iface.names), "width": iface.width}


def ref_bigraph_payload(b):
    prnt_entries = []
    for child in sorted(b.prnt, key=lambda p: (isinstance(p, str), str(p))):
        prnt_entries.append([child, b.prnt[child]])
    link_entries = []
    for point in sorted(b.link, key=lambda p: (isinstance(p, Port), str(p))):
        ref = [point.node, point.index] if isinstance(point, Port) else point
        link_entries.append([ref, b.link[point]])
    return {
        "ctrl": {v: b.ctrl[v] for v in sorted(b.ctrl)},
        "edges": sorted(b.edges),
        "inner": ref_interface_payload(b.inner),
        "link": link_entries,
        "nodes": sorted(b.nodes),
        "outer": ref_interface_payload(b.outer),
        "prnt": prnt_entries,
        "signature": ref_signature_payload(b.signature),
    }


def ref_typegraph_payload(tg):
    node_entries = []
    for t in sorted(tg.graph.nodes):
        node_entries.append(
            {
                "abstract": t in tg.abstracts,
                "attrs": {a: dt for a, dt in sorted(tg.attr_decls.get(t, {}).items())},
                "name": t,
            }
        )
    edge_entries = []
    for e in sorted(tg.graph.edges):
        m = tg.mult[e]
        edge_entries.append(
            {
                "containment": e in tg.containments,
                "mult": {"lower": m.lb, "upper": "*" if m.ub is None else m.ub},
                "name": e,
                "src": tg.graph.src[e],
                "tgt": tg.graph.tgt[e],
            }
        )
    opposite_pairs = sorted({tuple(sorted(p)) for p in tg.opposites})
    return {
        "edgeTypes": edge_entries,
        "inherits": [list(p) for p in sorted(tg.inherits)],
        "nodeTypes": node_entries,
        "opposites": [list(p) for p in opposite_pairs],
    }


def ref_instancegraph_payload(g):
    """The earlier writer, which dropped an attribute of an id that is no node."""
    node_entries = []
    for n in sorted(g.graph.nodes):
        attrs = dict(sorted(ref_node_attrs(g, n).items()))
        node_entries.append({"attrs": attrs, "id": n, "type": g.node_types.get(n)})
    edge_entries = []
    for e in sorted(g.graph.edges):
        s, t = g.graph.src.get(e), g.graph.tgt.get(e)
        if s is None or t is None:
            raise ValueError(f"edge {e} has no {'src' if s is None else 'tgt'}")
        edge_entries.append({"id": e, "src": s, "tgt": t, "type": g.edge_types.get(e)})
    return {"edges": edge_entries, "nodes": node_entries}


def ref_dumps(kind, payload, value):
    doc = {"formatVersion": fileio.FORMAT_VERSION, "kind": kind, "payload": payload(value)}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def assert_instance_graph_written_as_before(g):
    """Byte-identical to the reference, or the same refusal; an attribute of
    an id that is no node, which the reference dropped, is refused."""
    expected = outcome(ref_dumps, fileio.KIND_INSTANCEGRAPH, ref_instancegraph_payload, g)
    kept = {key: v for key, v in g.attrs.items() if key[0] in g.graph.nodes}
    if len(kept) < len(g.attrs) and isinstance(expected, str):
        n, a = min(g.attrs.keys() - kept.keys())
        assert outcome(fileio.dumps_canonical, g) == ("ValueError", f"attribute {a} of {n} has no node")
        g = replace(g, attrs=kept)
    assert outcome(fileio.dumps_canonical, g) == expected


def assert_bigraph_written_as_before(b):
    assert fileio.dumps_canonical(b) == ref_dumps(fileio.KIND_BIGRAPH, ref_bigraph_payload, b)


# ---------------------------------------------------------------------------
# Instance graphs


class Tagged(str):
    """A ``str`` subclass, which the plain-string column pass leaves to the
    general printer."""


#: Characters that ``json`` escapes, and text beyond ASCII.
AWKWARD = ('"', "\\", "\n", "\t", "\x00", "é", " ", "\U0001f600")
IDS = st.text(st.sampled_from("ab:" + "".join(AWKWARD)), max_size=4)
LEAVES = st.one_of(
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    IDS,
    IDS.map(Tagged),
    st.none(),
    st.lists(st.integers() | IDS, max_size=3),
    st.dictionaries(IDS, st.integers() | st.booleans(), max_size=2),
)


@st.composite
def awkward_encodings(draw):
    """An edited encoding whose ids may carry escaped or non-ASCII text,
    with extra attributes of every JSON value, and untyped, ``Tagged`` and
    container types."""
    g, _ = draw(mutated_encodings())
    suffix = draw(st.sampled_from(("",) + AWKWARD))
    renamed = {x: x + suffix for x in draw(st.sets(st.sampled_from(sorted(g.graph.nodes | g.graph.edges | {"?"}))))}

    def rn(x):
        return renamed.get(x, x)

    nodes = sorted(g.graph.nodes)
    attrs = {(rn(n), a): v for (n, a), v in g.attrs.items()}
    node_ids = list(map(rn, nodes)) + ["ghost"]
    for _ in range(draw(st.integers(0, 6))):
        attrs[(draw(st.sampled_from(node_ids)), draw(IDS))] = draw(LEAVES)
    node_types = {rn(n): t for n, t in g.node_types.items()}
    for n in draw(st.sets(st.sampled_from(nodes))) if nodes else ():
        node_types[rn(n)] = draw(st.sampled_from((None, Tagged("BNode"), "Ty\"peé", ["BNode", 1])))
    edge_types = {rn(e): t for e, t in g.edge_types.items()}
    for e in draw(st.sets(st.sampled_from(sorted(g.graph.edges)))) if g.graph.edges else ():
        edge_types[rn(e)] = draw(st.sampled_from((None, Tagged("bLink"), {"k": [1]})))
    graph = Graph(
        nodes=frozenset(node_ids[:-1]),
        edges=frozenset(map(rn, g.graph.edges)),
        src={rn(e): rn(s) for e, s in g.graph.src.items()},
        tgt={rn(e): rn(t) for e, t in g.graph.tgt.items()},
    )
    return InstanceGraph(graph=graph, node_types=node_types, edge_types=edge_types, attrs=attrs)


@given(awkward_encodings())
@settings(max_examples=300, deadline=None)
def test_instance_graph_text_is_as_before(g):
    assert_instance_graph_written_as_before(g)


def test_every_variant_and_its_type_graph_are_written_as_before(g1, sig1):
    tg150 = annotate_150(extend_for_signature(sig1))
    for cfg in enumerate_configs():
        assert_instance_graph_written_as_before(apply_deltas(g1, cfg, sig1))
        tg = derive_type_graph(tg150, cfg)
        assert fileio.dumps_canonical(tg) == ref_dumps(fileio.KIND_TYPEGRAPH, ref_typegraph_payload, tg)


@pytest.mark.parametrize(
    "g",
    [
        InstanceGraph(graph=Graph()),
        InstanceGraph(graph=Graph(nodes=frozenset({"a", "b"})), node_types={"a": "BRoot"}, attrs={("a", "index"): 0}),
        InstanceGraph(graph=Graph(nodes=frozenset({"a"}), edges=frozenset({"e", "f"}), src={"f": "a"}, tgt={"f": "a"})),
        InstanceGraph(
            graph=Graph(nodes=frozenset({"n"})),
            node_types={"n": "BNode"},
            attrs={("n", "z"): "last", ("n", "a"): 10, ("n", "m"): True, ("n", "b"): 2.5, ("n", "c"): [1, "x"]},
        ),
        InstanceGraph(graph=Graph(nodes=frozenset({"n"})), attrs={("n", 3): "three", ("n", True): None}),
    ],
    ids=["empty", "edgeless", "endless-edge", "several-attributes", "names-no-strings"],
)
def test_pinned_instance_graphs(g):
    assert_instance_graph_written_as_before(g)


def test_an_attribute_of_no_node_is_refused():
    g = InstanceGraph(
        graph=Graph(nodes=frozenset({"n"})),
        attrs={("n", "index"): 0, ("ghost", "x"): 1, ("ghost", "index"): 3, ("zz", "a"): 2},
    )
    assert_refused(g, "attribute index of ghost has no node")


# ---------------------------------------------------------------------------
# Bigraphs


@given(st.integers(0, 10**6), st.sampled_from(AWKWARD))
@settings(max_examples=150, deadline=None)
def test_bigraph_text_is_as_before(seed, mark):
    """Node names carry ``mark``; arities up to 13 and up to 12 sites put
    index 10 before index 2."""
    rng = random.Random(seed)
    b = random_bigraph(rng, sig=random_signature(rng, max_arity=13), max_sites=12)

    def rn(x):
        return f'{x}{mark}"' if isinstance(x, str) and x in b.nodes else x

    renamed = Bigraph(
        signature=b.signature,
        nodes=frozenset(map(rn, b.nodes)),
        edges=b.edges,
        ctrl={rn(v): c for v, c in b.ctrl.items()},
        prnt={rn(child): rn(parent) for child, parent in b.prnt.items()},
        link={(Port(rn(p.node), p.index) if isinstance(p, Port) else p): t for p, t in b.link.items()},
        inner=b.inner,
        outer=b.outer,
    )
    assert_bigraph_written_as_before(b)
    assert_bigraph_written_as_before(renamed)


def test_pinned_bigraphs(b1, sig1):
    assert_bigraph_written_as_before(Bigraph(sig1))
    assert_bigraph_written_as_before(b1)
    many = [(f"v{i}", i) for i in range(12)]
    assert_bigraph_written_as_before(
        Bigraph(
            signature=sig1,
            nodes=frozenset({"v"}),
            ctrl={"v": "Computer"},
            prnt={"v": 0, 10: "v", 2: 1},
            link={
                **{Port("v", i): "e" for i in (2, 10, 1)},
                **{Port(n, i): "y" for n, i in many},
                Port("w", (1, "i")): "y",
                "x": "e",
            },
            edges=frozenset({"e"}),
            inner=Interface(11, frozenset({"x"})),
            outer=Interface(2, frozenset({"y"})),
        )
    )
