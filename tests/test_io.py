from __future__ import annotations

import builtins
import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bigtg import FeatureConfig, fileio, writers
from bigtg.fileio import SchemaError


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
