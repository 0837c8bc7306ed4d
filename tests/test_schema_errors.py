"""Every way ``fileio.load_document`` rejects a document, pinned.

Each case edits one fixture and names the exact ``SchemaError`` path and
message. There is at least one case for every place the loader can
reject a document, from the envelope down to each kind's own rules; the
cases with two faults pin that the first fault met is the one reported.
"""

from __future__ import annotations

import json

import pytest

from bigtg import fileio
from bigtg.fileio import SchemaError

DELETE = object()

SIG, BG, TG, IG, CFG = (
    "printer.sig.json", "printer.bg.json", "printer.tg.json", "printer.ig.json", "canonical.cfg.json",
)

# (case id, fixture, {pointer: new value}, expected path, expected message).
# A pointer "" replaces the whole document; DELETE removes the entry.
CASES = [
    # Envelope
    ("root-not-object", SIG, {"": []}, "/", "expected an object"),
    ("root-missing-field", SIG, {"kind": DELETE}, "/", "missing field 'kind'"),
    ("root-unknown-field", SIG, {"extra": 1}, "/extra", "unknown field"),
    ("version-not-string", SIG, {"formatVersion": 1}, "/formatVersion", "expected a string"),
    (
        "version-unsupported", SIG, {"formatVersion": "2.0"},
        "/formatVersion", "unsupported format version '2.0'",
    ),
    ("kind-unknown", SIG, {"kind": "graph"}, "/kind", "unknown document kind 'graph'"),
    ("payload-not-object", BG, {"payload": 5}, "/payload", "expected an object"),
    # Signature
    ("controls-not-array", SIG, {"payload/controls": {}}, "/payload/controls", "expected an array"),
    ("control-not-object", SIG, {"payload/controls/0": 5}, "/payload/controls/0", "expected an object"),
    (
        "control-missing-field", SIG, {"payload/controls/0/arity": DELETE},
        "/payload/controls/0", "missing field 'arity'",
    ),
    ("control-unknown-field", SIG, {"payload/controls/0/x": 1}, "/payload/controls/0/x", "unknown field"),
    (
        "control-name-not-string", SIG, {"payload/controls/0/name": 5},
        "/payload/controls/0/name", "expected a string",
    ),
    ("arity-bool", SIG, {"payload/controls/0/arity": True}, "/payload/controls/0/arity", "expected an integer"),
    (
        "control-twice", SIG, {"payload/controls/1/name": "Job"},
        "/payload/controls", "control 'Job' declared twice",
    ),
    (
        "control-reserved", SIG, {"payload/controls/0/name": "BNode"},
        "/payload/controls", "control name 'BNode' is reserved",
    ),
    (
        "control-empty", SIG, {"payload/controls/0/name": ""},
        "/payload/controls", "control name must be non-empty",
    ),
    (
        "arity-negative", SIG, {"payload/controls/0/arity": -1},
        "/payload/controls", "arity of 'Job' must be a non-negative integer",
    ),
    # Bigraph
    (
        "bg-signature", BG, {"payload/signature/controls/2": []},
        "/payload/signature/controls/2", "expected an object",
    ),
    ("node-not-string", BG, {"payload/nodes/3": 3}, "/payload/nodes/3", "expected a string"),
    ("node-twice", BG, {"payload/nodes/1": "v0"}, "/payload/nodes", "duplicate node identifier"),
    ("edge-twice", BG, {"payload/edges/1": "e0"}, "/payload/edges", "duplicate edge identifier"),
    ("ctrl-not-object", BG, {"payload/ctrl": []}, "/payload/ctrl", "expected an object"),
    ("ctrl-not-string", BG, {"payload/ctrl/v1": 1}, "/payload/ctrl/v1", "expected a string"),
    ("ctrl-undeclared", BG, {"payload/ctrl/v0": "Desk"}, "/payload/ctrl/v0", "undeclared control 'Desk'"),
    ("prnt-entry-not-array", BG, {"payload/prnt/2": "v0"}, "/payload/prnt/2", "expected an array"),
    ("prnt-not-pair", BG, {"payload/prnt/0": [0]}, "/payload/prnt/0", "expected a [child, parent] pair"),
    (
        "prnt-child-bool", BG, {"payload/prnt/0/0": True},
        "/payload/prnt/0/0", "expected a node id (string) or an index (integer)",
    ),
    (
        "prnt-parent-float", BG, {"payload/prnt/4/1": 1.5},
        "/payload/prnt/4/1", "expected a node id (string) or an index (integer)",
    ),
    ("prnt-child-twice", BG, {"payload/prnt/1": [0, "v0"]}, "/payload/prnt/1", "duplicate parent entry for 0"),
    (
        "link-not-pair", BG, {"payload/link/0": [["v0", 0]]},
        "/payload/link/0", "expected a [point, target] pair",
    ),
    (
        "link-point-triple", BG, {"payload/link/0/0": ["v0", 0, 1]},
        "/payload/link/0/0", "expected an inner name or a [node, index] port",
    ),
    ("link-port-node", BG, {"payload/link/2/0/0": 1}, "/payload/link/2/0/0", "expected a string"),
    ("link-port-index", BG, {"payload/link/2/0/1": "1"}, "/payload/link/2/0/1", "expected an integer"),
    ("link-point-twice", BG, {"payload/link/1/0": ["v0", 0]}, "/payload/link/1", "duplicate link entry"),
    ("link-target", BG, {"payload/link/6/1": None}, "/payload/link/6/1", "expected a string"),
    ("inner-missing-width", BG, {"payload/inner/width": DELETE}, "/payload/inner", "missing field 'width'"),
    (
        "inner-width-negative", BG, {"payload/inner/width": -1},
        "/payload/inner/width", "width must be non-negative",
    ),
    ("outer-name", BG, {"payload/outer/names/0": 7}, "/payload/outer/names/0", "expected a string"),
    (
        "outer-name-twice", BG, {"payload/outer/names": ["jeff", "jeff"]},
        "/payload/outer/names", "interface names must be distinct",
    ),
    # Type graph
    (
        "node-type-twice", TG, {"payload/nodeTypes/1/name": "BEdge"},
        "/payload/nodeTypes/1/name", "duplicate node type 'BEdge'",
    ),
    (
        "abstract-not-bool", TG, {"payload/nodeTypes/0/abstract": 0},
        "/payload/nodeTypes/0/abstract", "expected a boolean",
    ),
    (
        "attr-data-type", TG, {"payload/nodeTypes/0/attrs": {"size": "float"}},
        "/payload/nodeTypes/0/attrs/size", "unknown data type 'float'",
    ),
    (
        "edge-type-twice", TG, {"payload/edgeTypes/1/name": "bChld"},
        "/payload/edgeTypes/1/name", "duplicate edge type 'bChld'",
    ),
    (
        "edge-type-src", TG, {"payload/edgeTypes/0/src": ["BPlace"]},
        "/payload/edgeTypes/0/src", "expected a string",
    ),
    (
        "edge-type-tgt", TG, {"payload/edgeTypes/0/tgt": "Ghost"},
        "/payload/edgeTypes/0/tgt", "unknown node type 'Ghost'",
    ),
    (
        "containment-not-bool", TG, {"payload/edgeTypes/0/containment": "yes"},
        "/payload/edgeTypes/0/containment", "expected a boolean",
    ),
    (
        "mult-unknown-field", TG, {"payload/edgeTypes/0/mult/x": 0},
        "/payload/edgeTypes/0/mult/x", "unknown field",
    ),
    (
        "mult-lower", TG, {"payload/edgeTypes/0/mult/lower": "0"},
        "/payload/edgeTypes/0/mult/lower", "expected an integer",
    ),
    (
        "mult-upper", TG, {"payload/edgeTypes/0/mult/upper": "many"},
        "/payload/edgeTypes/0/mult/upper", 'expected an integer or "*"',
    ),
    (
        "mult-bounds", TG, {"payload/edgeTypes/1/mult/lower": 2},
        "/payload/edgeTypes/1/mult", "multiplicity upper bound below lower bound",
    ),
    (
        "mult-negative", TG, {"payload/edgeTypes/0/mult/lower": -1},
        "/payload/edgeTypes/0/mult", "multiplicity lower bound must be non-negative",
    ),
    (
        "inherits-not-pair", TG, {"payload/inherits/0": ["BEdge"]},
        "/payload/inherits/0", "expected a [subtype, supertype] pair",
    ),
    ("inherits-not-string", TG, {"payload/inherits/0/1": 1}, "/payload/inherits/0/1", "expected a string"),
    (
        "inherits-unknown", TG, {"payload/inherits/0/1": "Ghost"},
        "/payload/inherits/0", "unknown node type 'Ghost'",
    ),
    (
        "opposites-not-pair", TG, {"payload/opposites/0": []},
        "/payload/opposites/0", "expected an [edge, edge] pair",
    ),
    (
        "opposites-unknown", TG, {"payload/opposites/0/0": "bGhost"},
        "/payload/opposites/0", "unknown edge type 'bGhost'",
    ),
    # Instance graph
    ("ig-node-missing-type", IG, {"payload/nodes/2/type": DELETE}, "/payload/nodes/2", "missing field 'type'"),
    ("ig-node-id-twice", IG, {"payload/nodes/1/id": "e:e0"}, "/payload/nodes/1/id", "duplicate node id 'e:e0'"),
    ("ig-node-type", IG, {"payload/nodes/0/type": None}, "/payload/nodes/0/type", "expected a string"),
    ("ig-attrs-not-object", IG, {"payload/nodes/0/attrs": []}, "/payload/nodes/0/attrs", "expected an object"),
    (
        "ig-attr-value", IG, {"payload/nodes/0/attrs": {"index": 1.5}},
        "/payload/nodes/0/attrs/index", "expected an integer or string value",
    ),
    (
        "ig-edge-id-twice", IG, {"payload/edges/1/id": "bChld:n:v0:n:v1"},
        "/payload/edges/1/id", "duplicate edge id 'bChld:n:v0:n:v1'",
    ),
    ("ig-edge-src", IG, {"payload/edges/0/src": "ghost"}, "/payload/edges/0/src", "unknown node id 'ghost'"),
    ("ig-edge-tgt", IG, {"payload/edges/3/tgt": 4}, "/payload/edges/3/tgt", "expected a string"),
    ("ig-edge-type", IG, {"payload/edges/3/type": False}, "/payload/edges/3/type", "expected a string"),
    # Feature configuration
    ("feature-not-string", CFG, {"payload/selected/2": 2}, "/payload/selected/2", "expected a string"),
    ("feature-twice", CFG, {"payload/selected/1": "EP"}, "/payload/selected", "duplicate feature"),
    # Two faults: the first one met is reported.
    (
        "two-items", IG, {"payload/nodes/0/type": 5, "payload/nodes/1/id": DELETE},
        "/payload/nodes/0/type", "expected a string",
    ),
    (
        "missing-before-unknown", SIG, {"payload/controls/0/arity": DELETE, "payload/controls/0/x": 1},
        "/payload/controls/0", "missing field 'arity'",
    ),
    (
        "name-before-ends", TG, {"payload/edgeTypes/1/name": "bChld", "payload/edgeTypes/1/src": "Ghost"},
        "/payload/edgeTypes/1/name", "duplicate edge type 'bChld'",
    ),
    (
        "child-before-parent", BG, {"payload/prnt/1": [0, 1.5]},
        "/payload/prnt/1", "duplicate parent entry for 0",
    ),
    (
        "ctrl-before-prnt", BG, {"payload/ctrl/v0": "Desk", "payload/prnt": {}},
        "/payload/ctrl/v0", "undeclared control 'Desk'",
    ),
    (
        "nodes-before-edges", IG, {"payload/edges/0/id": 5, "payload/nodes/0/type": 5},
        "/payload/nodes/0/type", "expected a string",
    ),
    (
        "version-before-kind", SIG, {"formatVersion": "0.9", "kind": "graph"},
        "/formatVersion", "unsupported format version '0.9'",
    ),
]


def _edit(doc, pointer: str, value):
    if not pointer:
        return value
    *parents, last = [int(k) if k.isdigit() else k for k in pointer.split("/")]
    node = doc
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return doc


@pytest.mark.parametrize("fixture, edits, path, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_rejected_document(fixtures_dir, tmp_path, fixture, edits, path, message):
    doc = json.loads((fixtures_dir / fixture).read_text())
    for pointer, value in edits.items():
        doc = _edit(doc, pointer, value)
    target = tmp_path / "doc.json"
    target.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        fileio.load_document(str(target))
    assert (err.value.path, err.value.message) == (path, message)
    assert str(err.value) == f"{path}: {message}"


def test_text_that_is_not_json(tmp_path):
    target = tmp_path / "broken.json"
    target.write_text("{nope")
    with pytest.raises(SchemaError) as err:
        fileio.load_document(str(target))
    assert (err.value.path, err.value.message) == (
        "/",
        "not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    )


@pytest.mark.parametrize(
    "text", ["[" * 100_000 + "]" * 100_000, '{"n": ' + "9" * 5_000 + "}"], ids=["nested-too-deeply", "integer-too-long"]
)
def test_json_that_python_cannot_hold(tmp_path, text):
    target = tmp_path / "deep.json"
    target.write_text(text)
    with pytest.raises(SchemaError) as err:
        fileio.load_document(str(target))
    assert err.value.path == "/"
    assert err.value.message.startswith("not valid JSON: ")


def test_kind_other_than_expected(fixtures_dir):
    with pytest.raises(SchemaError) as err:
        fileio.load_bigraph(str(fixtures_dir / "printer.sig.json"))
    assert (err.value.path, err.value.message) == ("/kind", "expected a bigraph document, found 'signature'")
