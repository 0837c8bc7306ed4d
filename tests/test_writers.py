"""The canonical writers print exactly what ``json.dumps(doc, indent=2,
sort_keys=True)`` prints for the payloads of the earlier dict-building
writers, copied here as references: on edited encodings with awkward
leaves, on every product-line variant, on random bigraphs and on pinned
small cases."""

from __future__ import annotations

import copy
import gc
import json
import pathlib
import pickle
import random
import sys
import tracemalloc
import types
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigtg import (
    Bigraph,
    Control,
    Graph,
    InstanceGraph,
    Interface,
    Port,
    Signature,
    annotate_150,
    apply_deltas,
    conformance,
    derive_type_graph,
    encode,
    enumerate_configs,
    extend_for_signature,
    fileio,
    replace,
    writers,
)
from bigtg.generators import random_bigraph, random_signature
from bigtg.variability import FeatureConfig

from helpers import mutated_encodings, outcome, ref_node_attrs
from test_index import encodings

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES, OFFICE = ROOT / "fixtures", ROOT / "perfbench" / "office.py"


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
    """Byte-identical to the reference."""
    assert fileio.dumps_canonical(g) == ref_dumps(fileio.KIND_INSTANCEGRAPH, ref_instancegraph_payload, g)


def assert_bigraph_written_as_before(b):
    assert fileio.dumps_canonical(b) == ref_dumps(fileio.KIND_BIGRAPH, ref_bigraph_payload, b)


# ---------------------------------------------------------------------------
# Instance graphs


class Tagged(str):
    """A ``str`` subclass, which the constructors refuse."""


#: Characters that ``json`` escapes, and text beyond ASCII.
AWKWARD = ('"', "\\", "\n", "\t", "\x00", "é", " ", "\U0001f600")
IDS = st.text(st.sampled_from("ab:" + "".join(AWKWARD)), max_size=4)
#: The attribute values an instance graph holds: ints beyond 64 bits, and text.
LEAVES = st.one_of(st.integers(-(2**70), 2**70), IDS)


@st.composite
def awkward_encodings(draw):
    """An edited encoding whose ids may carry escaped or non-ASCII text,
    with extra attributes of either value type, and escaped types. Values
    of other types are refused at construction
    (``test_values_of_other_types_are_refused_at_construction``)."""
    g, _ = draw(mutated_encodings())
    suffix = draw(st.sampled_from(("",) + AWKWARD))
    renamed = {x: x + suffix for x in draw(st.sets(st.sampled_from(sorted(g.graph.nodes | g.graph.edges | {"?"}))))}

    def rn(x):
        return renamed.get(x, x)

    nodes = sorted(g.graph.nodes)
    attrs = {(rn(n), a): v for (n, a), v in g.attrs.items()}
    node_ids = list(map(rn, nodes))
    for _ in range(draw(st.integers(0, 6)) if node_ids else 0):
        attrs[(draw(st.sampled_from(node_ids)), draw(IDS))] = draw(LEAVES)
    node_types = {rn(n): t for n, t in g.node_types.items()}
    for n in draw(st.sets(st.sampled_from(nodes))) if nodes else ():
        node_types[rn(n)] = draw(st.sampled_from(("BNode", "Ty\"peé")))
    edge_types = {rn(e): t for e, t in g.edge_types.items()}
    for e in draw(st.sets(st.sampled_from(sorted(g.graph.edges)))) if g.graph.edges else ():
        edge_types[rn(e)] = draw(st.sampled_from(("bLink", "bL\\ink")))
    graph = Graph(
        nodes=frozenset(node_ids),
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


#: The scalars that ``json`` prints by a rule of its own type, and that an
#: attribute value may be.
SCALARS = st.one_of(st.integers(-(2**70), 2**70), IDS)


@st.composite
def scalar_attributes(draw):
    """A graph of a few nodes whose attribute values are drawn from ``SCALARS``."""
    nodes = draw(st.lists(IDS, min_size=1, max_size=6, unique=True))
    attrs = draw(st.dictionaries(st.tuples(st.sampled_from(nodes), IDS), SCALARS, max_size=12))
    return InstanceGraph(graph=Graph(nodes=frozenset(nodes)), node_types=dict.fromkeys(nodes, "BNode"), attrs=attrs)


@given(scalar_attributes())
@settings(max_examples=200, deadline=None)
def test_mixed_scalar_attribute_values_are_written_as_json_writes_them(g):
    """Attribute values that mix ``int``, ``str``, ``bool`` and ``None`` in
    one column, as a weakly typed variant's ``control`` strings beside its
    ``index`` ints do, print as ``json.dumps(envelope, indent=2,
    sort_keys=True)`` prints them."""
    assert fileio.dumps_canonical(g) == ref_dumps(fileio.KIND_INSTANCEGRAPH, ref_instancegraph_payload, g)


@pytest.mark.parametrize(
    "g",
    [
        InstanceGraph(graph=Graph()),
        InstanceGraph(
            graph=Graph(nodes=frozenset({"a", "b"})), node_types={"a": "BRoot", "b": "BNode"}, attrs={("a", "index"): 0}
        ),
        InstanceGraph(
            graph=Graph(nodes=frozenset({"n"})),
            node_types={"n": "BNode"},
            attrs={("n", "z"): "last", ("n", "a"): 10, ("n", "m"): -(2**70), ("n", "b"): "", ("n", "c"): "\U0001f600"},
        ),
    ],
    ids=["empty", "edgeless", "several-attributes"],
)
def test_pinned_instance_graphs(g):
    assert_instance_graph_written_as_before(g)


def test_an_endless_edge_is_refused_where_it_is_built():
    """An edge without a ``src`` or ``tgt`` never reaches the writer."""
    with pytest.raises(ValueError, match="^Graph.src lacks 'e', which is an edge$"):
        Graph(nodes=frozenset({"a"}), edges=frozenset({"e", "f"}), src={"f": "a"}, tgt={"f": "a"})


@pytest.mark.parametrize(
    "attrs, message",
    [
        ({("n", "m"): True}, "InstanceGraph.attrs holds True, which is not an int or a str"),
        ({("n", "b"): 2.5, ("n", "c"): [1, "x"]}, "InstanceGraph.attrs holds 2.5, which is not an int or a str"),
        ({("n", "c"): Tagged("x")}, "InstanceGraph.attrs holds 'x', which is not an int or a str"),
        ({("n", 3): "three", ("n", True): None}, "InstanceGraph.attrs holds ('n', 3), which is not a pair of str"),
    ],
    ids=["bool", "float-and-list", "str-subclass", "names-no-strings"],
)
def test_values_of_other_types_are_refused_at_construction(attrs, message):
    with pytest.raises(TypeError) as refused:
        InstanceGraph(graph=Graph(nodes=frozenset({"n"})), node_types={"n": "BNode"}, attrs=attrs)
    assert str(refused.value) == message


def test_a_writer_never_meets_an_attribute_of_no_node():
    with pytest.raises(ValueError, match="^InstanceGraph.attrs holds an attribute of 'ghost', which is not a node$"):
        InstanceGraph(
            graph=Graph(nodes=frozenset({"n"})),
            node_types={"n": "BNode"},
            attrs={("n", "index"): 0, ("ghost", "x"): 1, ("ghost", "index"): 3, ("zz", "a"): 2},
        )


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
                Port("w", 0): "y",
                "x": "e",
            },
            edges=frozenset({"e"}),
            inner=Interface(11, frozenset({"x"})),
            outer=Interface(2, frozenset({"y"})),
        )
    )


# ---------------------------------------------------------------------------
# Batches


@given(awkward_encodings(), st.integers(0, 10**6), st.sampled_from((1, 2, 3, 7)))
@settings(max_examples=200, deadline=None)
def test_a_batch_of_any_size_prints_the_same_text(g, seed, batch):
    """Arrays split into batches of a few entries, with each entry's
    attributes (an instance graph's) or ports (a bigraph's link) falling
    on either side of a batch's edge, print as the references do."""
    rng = random.Random(seed)
    b = random_bigraph(rng, sig=random_signature(rng, max_arity=13), max_sites=12)
    with mock.patch.object(writers, "_BATCH", batch):
        assert_instance_graph_written_as_before(g)
        assert_bigraph_written_as_before(b)


def test_values_of_many_batches_are_written_as_before():
    b = random_bigraph(random.Random(0), max_nodes=2000, max_edges=500)
    g, _ = encode(b)
    assert min(len(b.nodes), len(b.link), len(g.graph.nodes)) > 2 * writers._BATCH
    assert_bigraph_written_as_before(b)
    assert_instance_graph_written_as_before(g)


# ---------------------------------------------------------------------------
# Families: the variants of one graph share the text of their entries


@given(encodings(), st.randoms(use_true_random=False), st.sampled_from((1, 3, 512)))
@settings(max_examples=25, deadline=None)
def test_a_family_prints_each_variant_as_a_fresh_copy_of_it(case, rnd, batch):
    """All 54 configurations of one graph, twice, in a shuffled order: each
    variant prints as ``replace(variant)``, which has no family, and each
    configuration gives the outcome it gives a fresh copy of the graph,
    value or ``NotCanonical`` reason."""
    g, sig = case
    runs = enumerate_configs() * 2
    rnd.shuffle(runs)
    with mock.patch.object(writers, "_BATCH", batch):
        for cfg in runs:
            variant = outcome(apply_deltas, g, cfg, sig)
            assert variant == outcome(apply_deltas, replace(g), cfg, sig), sorted(cfg.selected)
            if isinstance(variant, InstanceGraph):
                assert outcome(fileio.dumps_canonical, variant) == outcome(fileio.dumps_canonical, replace(variant))


@st.composite
def broken_encodings(draw):
    """An edited encoding (``mutated_encodings``) with, each drawn or not,
    an ``index`` or another attribute on a node of a control, and a
    retyped node."""
    g, b = draw(mutated_encodings())
    nodes, names = sorted(g.graph.nodes), b.signature.names
    types, attrs = dict(g.node_types), dict(g.attrs)
    controlled = [n for n in nodes if types[n] in names]
    if controlled and draw(st.booleans()):
        attrs[draw(st.sampled_from(controlled)), draw(st.sampled_from(("index", "x")))] = draw(st.integers(0, 3))
    if nodes and draw(st.booleans()):
        types[draw(st.sampled_from(nodes))] = draw(st.sampled_from((*names, "BRoot", "BSite", "BPort", "BNode")))
    return replace(g, node_types=types, attrs=attrs), b.signature


@given(broken_encodings(), st.randoms(use_true_random=False), st.sampled_from((1, 3, 512)))
@settings(max_examples=40, deadline=None)
def test_a_family_selects_what_a_fresh_copy_prints_from_broken_encodings(case, rnd, batch):
    """All 54 configurations of a broken encoding, twice, in a shuffled
    order, in batches of 1, 3 and 512 entries: each variant prints as
    ``replace(variant)``, which has no family."""
    g, sig = case
    runs = enumerate_configs() * 2
    rnd.shuffle(runs)
    with mock.patch.object(writers, "_BATCH", batch):
        for cfg in runs:
            variant = outcome(apply_deltas, g, cfg, sig)
            if isinstance(variant, InstanceGraph):
                fresh = outcome(fileio.dumps_canonical, replace(variant))
                assert outcome(fileio.dumps_canonical, variant) == fresh, sorted(cfg.selected)


def test_a_family_holds_less_than_the_content_memo_did(tmp_path, monkeypatch):
    """After the 54 saves of the ``variants`` benchmark's 446-node office
    model (seed 3), the family that the graph holds is traced at no more
    than the 0.72 MiB that the memo of each entry's text by its content
    held."""
    office = types.ModuleType("perfbench_office")
    monkeypatch.setitem(sys.modules, office.__name__, office)  # which ``dataclass`` reads
    # Executed from its source text, so nothing is written under perfbench/.
    exec(compile(OFFICE.read_text(encoding="utf-8"), str(OFFICE), "exec"), office.__dict__)
    sig_path = FIXTURES / "printer.sig.json"
    model = office.office_model(3, 27, 115, 9, json.loads(sig_path.read_text(encoding="utf-8")))
    path = tmp_path / "model.ig.json"
    path.write_text(json.dumps(office.envelope("instancegraph", model.encoding)), encoding="utf-8")
    g, sig = fileio.load_instance_graph(str(path)), fileio.load_signature(str(sig_path))
    assert len(g.graph.nodes) == 446
    tracemalloc.start()
    try:
        for cfg in enumerate_configs():
            fileio.save(apply_deltas(g, cfg, sig), str(tmp_path / "variant.ig.json"))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del g._parts[writers.Family, ()]
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < held <= 0.72 * 2**20


def _kin(nodes: dict, edges: dict, attrs: dict) -> InstanceGraph:
    """A graph of nodes ``n`` and ``m`` and edge ``e``: ``nodes`` gives the
    node types, ``edges`` the edge's ``src``, ``tgt`` and type."""
    graph = Graph(frozenset({"n", "m"}), frozenset({"e"}), {"e": edges["src"]}, {"e": edges["tgt"]})
    return InstanceGraph(graph, nodes, {"e": edges["type"]}, attrs)


def test_a_graph_whose_record_apply_deltas_did_not_make_prints_its_own_entries():
    """Graphs that share their ids with a graph that holds a family, but
    not their ends, types, or attribute names and values (an ``int`` and
    the ``str`` that prints it among them), each print their own text, and
    so does a graph with ids that the family lacks. Only a graph that
    ``apply_deltas`` returned holds a record of its input: a copy, a deep
    copy or a pickle of one is rebuilt from its fields, holds none, and
    prints the same text from its own entries."""
    ends, types = {"src": "n", "tgt": "m", "type": "bLink"}, {"n": "BNode", "m": "BPort"}
    kin = [_kin(types, ends, {}), _kin(types, {**ends, "src": "m"}, {}), _kin(types, {**ends, "tgt": "n"}, {})]
    kin += [_kin(types, {**ends, "type": t}, {}) for t in ("bPoints", "bLink ")]
    kin += [_kin({**types, "n": t}, ends, {}) for t in ("BRoot", "BNode ")]
    kin += [_kin(types, ends, {("n", "index"): v}) for v in (1, "1", 0, "0", -1)]
    kin += [_kin(types, ends, {("n", name): 1}) for name in ("1", "", "index ")]
    kin += [_kin(types, ends, {("m", "index"): 1}), _kin(types, ends, {("n", "index"): 1, ("n", "control"): "Job"})]
    wider = Graph(frozenset({"n", "m", "o"}), frozenset({"e", "d"}), {"e": "n", "d": "o"}, {"e": "m", "d": "m"})
    kin.append(InstanceGraph(wider, {**types, "o": "BNode"}, {"e": "bLink", "d": "bLink"}))
    owner, sig = kin[0], Signature((Control("Job"),), {"Job": 0})
    for features in ({"ST", "EP", "PI"}, {"ST", "EP"}):  # each returns the owner itself, recorded
        assert apply_deltas(owner, FeatureConfig(frozenset(features)), sig) is owner
    family = owner._parts[writers.Family, ()]
    copies = [copy.copy(owner), copy.deepcopy(owner), pickle.loads(pickle.dumps(owner))]
    assert "_origin" in vars(owner) and not any("_origin" in vars(c) or "_parts" in vars(c) for c in copies)
    texts = [fileio.dumps_canonical(replace(g)) for g in kin]
    assert len(set(texts)) == len(kin)
    for _ in range(2):
        assert [fileio.dumps_canonical(g) for g in kin] == texts
        assert [fileio.dumps_canonical(c) for c in copies] == texts[:1] * len(copies)
    assert family.ids == (["e"], ["m", "n"]) and family.texts == tuple(map(list, writers._entries(owner, *family.ids)))


def test_a_checked_graph_forms_its_family_at_the_second_reconfiguration(g1, sig1, tg_sigma1):
    """The checkers keep their reports among the graph's parts, which do
    not count as a reconfiguration: a graph checked first still keeps no
    family memo after its first reconfiguration, only after its second."""
    g = replace(g1)
    assert conformance(g, tg_sigma1, sig1).ok
    apply_deltas(g, enumerate_configs()[0], sig1)
    assert (writers.Family, ()) not in g._parts
    apply_deltas(g, enumerate_configs()[-1], sig1)
    assert (writers.Family, ()) in g._parts


def test_a_family_forms_at_the_second_reconfiguration(g1, sig1, tmp_path):
    """A graph configured once, and its variant, keep no printed text after
    a save; from the second configuration on, the graph holds one family
    among its parts, which its variants reach through their origin and
    which holds what their saves print. Only that graph holds the family:
    a variant kept without it keeps no printed text, and prints as
    before."""
    g = replace(g1)
    first, second, weak = enumerate_configs()[0], enumerate_configs()[-1], FeatureConfig(frozenset({"WT"}))
    variant = apply_deltas(g, first, sig1)
    fileio.save(variant, str(tmp_path / "first.ig.json"))
    assert variant._origin.input() is g and (writers.Family, ()) not in g._parts
    again = apply_deltas(g, second, sig1)
    family = g._parts[writers.Family, ()]
    assert again._origin.input() is g and family.ids is None and family.texts is None
    assert apply_deltas(variant, weak, sig1)._origin.input() is variant and (writers.Family, ()) not in variant._parts
    fileio.save(again, str(tmp_path / "second.ig.json"))
    assert family.ids == (sorted(g.graph.edges), sorted(g.graph.nodes))
    assert list(map(len, family.texts)) == [len(again.graph.edges), len(again.graph.nodes)]
    del g, family
    gc.collect()
    assert again._origin.input() is None
    assert fileio.dumps_canonical(again) == (tmp_path / "second.ig.json").read_text(encoding="utf-8")
