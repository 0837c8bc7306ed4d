from __future__ import annotations

import builtins
import copy
import json
import os
import pickle
import random
import tempfile
import tracemalloc
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigtg import (
    Bigraph,
    FeatureConfig,
    Graph,
    InstanceGraph,
    annotate_150,
    apply_deltas,
    check_multiplicities,
    check_typing,
    check_validity,
    conformance,
    derive_type_graph,
    encode,
    enumerate_configs,
    extend_for_signature,
    fileio,
    replace,
    writers,
)
from bigtg.fileio import SchemaError
from bigtg.generators import random_bigraph

from helpers import arbitrary_bigraphs, assert_refused, mutated_encodings, outcome


def test_a_copy_or_a_pickle_is_rebuilt_from_the_fields(fixtures_dir):
    """A checked graph, a variant born with its family's verdict, a
    bigraph, a signature, its type graph with its 150% type graph kept and
    a derived type graph with its text kept each survive ``copy``,
    ``deepcopy`` and ``pickle`` as an equal value with the same canonical
    text; what each kept beside its fields (its view, parts, record,
    derivations, text or type-graph tables) does not travel. A variant
    that was never built is built by the copy, which carries neither its
    build nor its record."""
    g = fileio.load_instance_graph(str(fixtures_dir / "printer.ig.json"))
    sig = fileio.load_signature(str(fixtures_dir / "printer.sig.json"))
    b = fileio.load_bigraph(str(fixtures_dir / "printer.bg.json"))
    tg = extend_for_signature(sig)
    assert conformance(g, tg, sig).ok
    configs = enumerate_configs()
    apply_deltas(g, configs[0], sig)
    variant = apply_deltas(g, configs[-1], sig)
    derived = derive_type_graph(annotate_150(tg), configs[-1])
    fileio.dumps_canonical(derived)
    assert {"_origin", "_parts"} <= vars(variant).keys() and "_150" in vars(tg) and "_text" in vars(derived)
    # The variant was born with its verdict, so the checkers' bodies run here.
    assert all(checker.__wrapped__(variant, derived).ok for checker in (check_typing, check_validity, check_multiplicities))
    tables = {"_supertypes", "_subtypes", "_opposite", "_ends", "_attrs", "_bounds"}
    assert tables <= vars(tg).keys() and tables <= vars(derived).keys()
    for value in (g, variant, b, sig, tg, derived):
        text = fileio.dumps_canonical(value)
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and twin is not value
            assert vars(twin).keys() == set(type(value)._fields)
            assert fileio.dumps_canonical(twin) == text
    # The family's text of another variant, which its save selects unbuilt.
    text = fileio.dumps_canonical(apply_deltas(g, configs[-2], sig))
    for twin_of in (copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))):
        unbuilt = apply_deltas(g, configs[-2], sig)
        assert {"_build", "_origin"} <= vars(unbuilt).keys() and not vars(unbuilt).keys() & set(InstanceGraph._fields)
        twin = twin_of(unbuilt)
        assert type(twin) is InstanceGraph and twin == unbuilt and twin is not unbuilt
        assert vars(twin).keys() == set(InstanceGraph._fields)
        assert fileio.dumps_canonical(twin) == text


@pytest.mark.parametrize(
    "name",
    ["printer.sig.json", "printer.bg.json", "printer.tg.json", "printer.ig.json", "canonical.cfg.json"],
)
def test_load_save_byte_identity(fixtures_dir, tmp_path, name):
    src = fixtures_dir / name
    kind, value = fileio.load_document(str(src))
    out = tmp_path / name
    fileio.save(value, str(out))
    assert out.read_bytes() == src.read_bytes()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=30,
)


@given(_JSON_VALUES)
def test_canonical_text_is_sorted_two_space_json(value):
    assert writers._canonical_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_value_roundtrip(fixtures_dir, tmp_path, b1, sig1, g1, tg_sigma1):
    for value in (sig1, b1, g1, tg_sigma1, FeatureConfig.canonical()):
        path = tmp_path / "doc.json"
        fileio.save(value, str(path))
        _, loaded = fileio.load_document(str(path))
        assert loaded == value


def test_kind_mismatch_is_schema_error(fixtures_dir):
    with pytest.raises(SchemaError) as err:
        fileio.load_bigraph(str(fixtures_dir / "printer.sig.json"))
    assert err.value.path == "/kind"


def test_bigraph_payload_under_wrong_kind(fixtures_dir, tmp_path):
    doc = json.loads((fixtures_dir / "printer.sig.json").read_text())
    doc["kind"] = "bigraph"
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        fileio.load_document(str(path))
    assert err.value.path.startswith("/payload")


def test_undeclared_control_is_schema_error(fixtures_dir, tmp_path):
    doc = json.loads((fixtures_dir / "printer.bg.json").read_text())
    doc["payload"]["ctrl"]["v0"] = "Desk"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        fileio.load_document(str(path))
    assert err.value.path == "/payload/ctrl/v0"
    assert "Desk" in err.value.message


def test_unsupported_version(tmp_path):
    path = tmp_path / "v2.json"
    path.write_text('{"formatVersion": "2.0", "kind": "signature", "payload": {"controls": []}}')
    with pytest.raises(SchemaError) as err:
        fileio.load_document(str(path))
    assert err.value.path == "/formatVersion"


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(SchemaError):
        fileio.load_document(str(path))


class _FailingWrite:
    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:10])
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("fail_at", ["write", "replace"])
def test_failed_save_leaves_target_intact(fixtures_dir, tmp_path, monkeypatch, fail_at):
    target = tmp_path / "doc.ig.json"
    target.write_bytes((fixtures_dir / "printer.ig.json").read_bytes())
    before = target.read_bytes()
    if fail_at == "write":
        monkeypatch.setattr(fileio, "open", lambda *a, **k: _FailingWrite(builtins.open(*a, **k)), raising=False)
    else:

        def refuse(src, dst):
            raise OSError(13, "Permission denied")

        monkeypatch.setattr(fileio.os, "replace", refuse)
    with pytest.raises(fileio.IoError) as err:
        fileio.save(FeatureConfig.canonical(), str(target))
    assert str(err.value).startswith(f"cannot write {target}: ")
    assert target.read_bytes() == before
    assert os.listdir(tmp_path) == [target.name]


class _Recording:
    """A file whose writes are logged."""

    def __init__(self, fh, log):
        self.fh, self.log = fh, log

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.log.append(text)
        return self.fh.write(text)


def _opened(monkeypatch) -> list:
    """The arguments of each file that ``fileio`` opens from now on."""
    opened: list = []
    monkeypatch.setattr(fileio, "open", lambda *a, **k: opened.append(a) or builtins.open(*a, **k), raising=False)
    return opened


def _chain(length: int) -> InstanceGraph:
    """Nodes ``n0000`` to ``n<length>``, each the ``bChld`` target of the one before."""
    nodes = [f"n{i:04}" for i in range(length + 1)]
    edges = [f"e{i:04}" for i in range(length)]
    return InstanceGraph(
        graph=Graph(
            nodes=frozenset(nodes), edges=frozenset(edges), src=dict(zip(edges, nodes)), tgt=dict(zip(edges, nodes[1:]))
        ),
        node_types=dict.fromkeys(nodes, "BNode"),
        edge_types=dict.fromkeys(edges, "bChld"),
        attrs={(n, "index"): i for i, n in enumerate(nodes)},
    )


def test_a_save_that_fails_partway_leaves_nothing_behind(fixtures_dir, tmp_path, monkeypatch):
    """A write that fails after more than a batch of edges went to the new
    file: ``save`` raises it as ``IoError``, removes that file and leaves
    the one at ``path`` as it was."""
    g = _chain(writers._BATCH + 1)
    target = tmp_path / "doc.ig.json"
    target.write_bytes((fixtures_dir / "printer.ig.json").read_bytes())
    before = target.read_bytes()
    text, log = fileio.dumps_canonical(g), []

    class Failing(_Recording):
        def write(self, chunk):
            if '"nodes"' in "".join(self.log) + chunk:
                raise OSError(28, "No space left on device")
            return super().write(chunk)

    monkeypatch.setattr(fileio, "open", lambda *a, **k: Failing(builtins.open(*a, **k), log), raising=False)
    kind, message = outcome(fileio.save, g, str(target))
    assert kind == "IoError" and message.startswith(f"cannot write {target}: ")
    assert target.read_bytes() == before
    assert os.listdir(tmp_path) == [target.name]
    # What went to the file before the fault: more than a batch of edges, as the graph prints them.
    written = "".join(log)
    assert text.startswith(written) and written.count('"id"') > writers._BATCH


@pytest.mark.parametrize("fault", ["no src", "no tgt", "no node"])
def test_a_graph_the_writer_could_not_print_is_refused_before_any_file(fault, monkeypatch):
    """An edge past the first batch without an end, or an attribute of no
    node, is refused where the graph is built, so ``save`` opens no file."""
    opened = _opened(monkeypatch)
    g = _chain(2 * writers._BATCH)
    last = max(g.graph.edges)
    if fault == "no node":
        with pytest.raises(ValueError, match="^InstanceGraph.attrs holds an attribute of 'zz', which is not a node$"):
            replace(g, attrs={**g.attrs, ("zz", "index"): 0})
    else:
        end = fault.split()[1]
        with pytest.raises(ValueError, match=f"^Graph.{end} lacks '{last}', which is an edge$"):
            replace(g.graph, **{end: {e: n for e, n in getattr(g.graph, end).items() if e != last}})
    assert opened == []


def test_an_edge_type_without_a_bound_makes_no_file(sig1, monkeypatch):
    opened = _opened(monkeypatch)
    tg = extend_for_signature(sig1)
    assert_refused(replace(tg, mult={e: m for e, m in tg.mult.items() if e != "bPrnt"}), "edge type bPrnt has no mult")
    assert opened == []


def test_a_save_holds_less_than_the_text_it_writes(tmp_path):
    """The traced peak of a save stays below the size of the file it
    writes: it holds the value's sorted ids and one batch of text."""
    g, _ = encode(random_bigraph(random.Random(0), max_nodes=800, max_edges=200))
    assert len(g.graph.nodes) > 3 * writers._BATCH and len(g.graph.edges) > 3 * writers._BATCH
    path = tmp_path / "big.ig.json"
    fileio.save(g, str(path))  # loads the writers before the trace
    tracemalloc.start()
    try:
        fileio.save(g, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def test_load_drops_the_text_before_reading(fixtures_dir, monkeypatch):
    """The readers run after the file's text is gone."""

    class Text(str):
        """A text that can be referred to weakly."""

    texts: list = []

    def read_text(path):
        text = Text(builtins.open(path, encoding="utf-8").read())
        texts.append(weakref.ref(text))
        return text

    module, cls, read, write = fileio._KINDS[fileio.KIND_INSTANCEGRAPH]

    def reader(payload):
        assert texts and texts[0]() is None
        return read(payload)

    monkeypatch.setattr(fileio, "read_text", read_text)
    monkeypatch.setitem(fileio._KINDS, fileio.KIND_INSTANCEGRAPH, (module, cls, reader, write))
    assert fileio.load_instance_graph(str(fixtures_dir / "printer.ig.json")) == fileio.load_document(
        str(fixtures_dir / "printer.ig.json")
    )[1]


_SAVED = st.one_of(
    arbitrary_bigraphs(),
    arbitrary_bigraphs().map(lambda b: b.signature),
    mutated_encodings().map(lambda pair: pair[0]),
    mutated_encodings().map(lambda pair: extend_for_signature(pair[1].signature)),
    st.sampled_from(enumerate_configs()),
    st.just(InstanceGraph(graph=Graph())),
    arbitrary_bigraphs().map(lambda b: Bigraph(b.signature)),
)


@given(_SAVED, st.sampled_from((1, 2, 5, writers._BATCH)))
@settings(max_examples=300, deadline=None)
def test_save_writes_exactly_the_canonical_text(value, batch):
    """For every kind, at any batch size (the small ones split these values
    into many batches), ``save`` writes ``dumps_canonical(value)`` byte for
    byte, or raises what it raises and makes no file."""
    want = outcome(fileio.dumps_canonical, value)
    with tempfile.TemporaryDirectory() as d, mock.patch.object(writers, "_BATCH", batch):
        path = os.path.join(d, "doc.json")
        assert outcome(fileio.dumps_canonical, value) == want
        saved = outcome(fileio.save, value, path)
        if isinstance(want, str):
            assert saved is None
            with open(path, "rb") as fh:
                assert fh.read() == want.encode("utf-8")
        else:
            assert saved == want
            assert os.listdir(d) == []


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(fileio.IoError):
        fileio.load_document(str(tmp_path / "absent.json"))


def test_duplicate_instance_node_rejected(fixtures_dir, tmp_path):
    doc = json.loads((fixtures_dir / "printer.ig.json").read_text())
    doc["payload"]["nodes"].append(dict(doc["payload"]["nodes"][0]))
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        fileio.load_document(str(path))
    assert "duplicate node id" in err.value.message


def test_dangling_edge_endpoint_rejected(fixtures_dir, tmp_path):
    doc = json.loads((fixtures_dir / "printer.ig.json").read_text())
    doc["payload"]["edges"][0]["src"] = "ghost"
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        fileio.load_document(str(path))
    assert "unknown node id" in err.value.message


def test_type_graph_mult_star(fixtures_dir):
    tg = fileio.load_type_graph(str(fixtures_dir / "printer.tg.json"))
    assert tg.mult["bChld"].ub is None
    raw = json.loads((fixtures_dir / "printer.tg.json").read_text())
    uppers = {e["name"]: e["mult"]["upper"] for e in raw["payload"]["edgeTypes"]}
    assert uppers["bChld"] == "*"
    assert uppers["bLink"] == 1
