"""The column-wise instance-graph reader reads what the per-entry reader
it replaced read, copied here verbatim as ``ref_read_instancegraph``: on
canonical payloads the same graph, with every dict in the same order, and
on edited payloads the same ``SchemaError`` path and message."""

from __future__ import annotations

import copy
import itertools
import json
import random
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigtg import Graph, InstanceGraph, encode, fileio
from bigtg.fileio import _as, _each, _Fault, _fresh, _known, _record, _read_instancegraph
from bigtg.generators import random_bigraph

from helpers import mutated_encodings, outcome


def ref_read_instancegraph(payload: Any) -> InstanceGraph:
    edges_raw, nodes_raw = _record(payload, ("edges", "nodes"))

    node_types: dict[str, str] = {}
    attrs: dict[tuple[str, str], int | str] = {}

    def read_node(entry: Any) -> None:
        attrs_obj, nid, t = _record(entry, ("attrs", "id", "type"))
        _fresh(nid, node_types, "node id", "id")
        node_types[nid] = _as(str, t, "type")
        for a, v in _as(dict, attrs_obj, "attrs").items():
            if type(v) not in (int, str):
                raise _Fault("expected an integer or string value", "attrs", a)
            attrs[(nid, a)] = v

    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    edge_types: dict[str, str] = {}

    def read_edge(entry: Any) -> None:
        eid, s, t, te = _record(entry, ("id", "src", "tgt", "type"))
        _fresh(eid, src, "edge id", "id")
        src[eid] = _known(s, node_types, "unknown node id", "src")
        tgt[eid] = _known(t, node_types, "unknown node id", "tgt")
        edge_types[eid] = _as(str, te, "type")

    _each(nodes_raw, read_node, "nodes")
    _each(edges_raw, read_edge, "edges")
    return InstanceGraph(
        graph=Graph(nodes=frozenset(node_types), edges=frozenset(src), src=src, tgt=tgt),
        node_types=node_types,
        edge_types=edge_types,
        attrs=attrs,
    )


def read(reader, payload):
    """The graph and the order of each of its dicts, or the ``SchemaError``
    path and message that ``load_document`` would give for the payload."""
    try:
        g = reader(payload)
    except _Fault as fault:
        return "/" + "/".join(str(key) for key in ("payload", *fault.path)), fault.message
    orders = [list(d.items()) for d in (g.graph.src, g.graph.tgt, g.node_types, g.edge_types, g.attrs)]
    return g, orders


def payload_of(g: InstanceGraph) -> dict:
    return json.loads(fileio.dumps_canonical(g))["payload"]


@st.composite
def payloads(draw):
    """The payload of a random bigraph's encoding, or of an edited one that
    the writer accepts (an untyped edge is written with a ``null`` type),
    with its nodes and edges shuffled."""
    if draw(st.booleans()):
        g, _ = encode(random_bigraph(random.Random(draw(st.integers(0, 1_000_000)))))
    else:
        g, _ = draw(mutated_encodings())
    payload = outcome(payload_of, g)
    if not isinstance(payload, dict):  # an end or an attribute owner the format cannot write
        payload = payload_of(encode(random_bigraph(random.Random(0)))[0])
    for entries in payload.values():
        draw(st.randoms(use_true_random=False)).shuffle(entries)
    return payload


#: Values that an edit puts in place of another: every JSON type, the
#: near misses of the readers' rules, and (drawn separately) existing ids.
ODD_VALUES = (None, True, False, 0, 1, -1, 1.5, "", "x", "ghost", [], ["a"], {}, {"a": 1}, {"index": True})
#: A copy of one of them each time, so that no edit changes the tuple.
odd_values = st.sampled_from(ODD_VALUES).map(copy.deepcopy)


ENTRY_EDITS = ("same-id", "end", "garble", "twin", "rename")
PLACE_EDITS = ("replace", "reuse-id", "drop", "add", "repeat")


def _places(value, path=()):
    """The path of every object and array in ``value``, the value first."""
    if isinstance(value, (dict, list)):
        yield path
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _places(item, (*path, key))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def edited_payloads(draw):
    """A payload after up to four edits. An edit of an entry sets its id
    to an existing id, sets an edge's end or some of its fields to odd
    values or existing ids, puts a copy of it, with some fields so set,
    after it, or renames one of its fields. An edit at a drawn place
    replaces a value by an odd value or an existing id, drops a field or
    an entry, adds one, repeats an entry, or sets a field to a copy of
    another field of its object."""
    payload = copy.deepcopy(draw(payloads()))
    ids = [e["id"] for entries in payload.values() for e in entries] or ["ghost"]
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(ENTRY_EDITS + PLACE_EDITS))
        if edit in ENTRY_EDITS:
            entries = payload.get(draw(st.sampled_from(("edges", "nodes"))))
            i = draw(st.integers(0, len(entries) - 1)) if isinstance(entries, list) and entries else None
            if i is None or not isinstance(entries[i], dict):
                continue
            entry = entries[i]
            if edit == "twin":  # its id repeats; more faults may follow in the same entry
                entry = copy.deepcopy(entry)
                entries.insert(draw(st.integers(i + 1, len(entries))), entry)
            if edit in ("twin", "garble"):
                fields = sorted(entry)  # none when an earlier edit emptied the entry
                for field in draw(st.lists(st.sampled_from(fields), min_size=min(2, len(fields)), unique=True)) if fields else ():
                    entry[field] = draw(odd_values | st.sampled_from(ids))
            elif edit == "rename":  # as many fields, but not the same ones
                value = entry.pop(draw(st.sampled_from(sorted(entry)))) if entry else None
                entry[draw(st.sampled_from(("extra", "id", "src", "attrs")))] = value
            elif edit == "same-id":
                entry["id"] = draw(st.sampled_from(ids))
            else:
                entry[draw(st.sampled_from(("src", "tgt")))] = draw(odd_values | st.sampled_from(ids))
            continue
        places = list(_places(payload))
        container = _at(payload, draw(st.sampled_from(places)))
        keys = list(container) if isinstance(container, dict) else list(range(len(container)))
        if edit == "add" or not keys:
            if isinstance(container, dict):
                container[draw(st.sampled_from(("extra", "id", "attrs", "index")))] = draw(odd_values)
            else:
                container.append(draw(odd_values))
            continue
        key = draw(st.sampled_from(keys))
        if edit == "replace":
            container[key] = draw(odd_values)
        elif edit == "reuse-id":
            container[key] = draw(st.sampled_from(ids))
        elif edit == "drop":
            del container[key]
        elif isinstance(container, list):
            container.insert(draw(st.integers(0, len(container))), copy.deepcopy(container[key]))
        else:
            container[key] = copy.deepcopy(container[draw(st.sampled_from(keys))])
    return payload


@settings(max_examples=150, deadline=None)
@given(payloads())
def test_reads_written_payloads_as_the_reference_does(payload):
    assert read(_read_instancegraph, payload) == read(ref_read_instancegraph, payload)


@settings(max_examples=600, deadline=None)
@given(edited_payloads())
def test_names_the_first_fault_as_the_reference_does(payload):
    assert read(_read_instancegraph, payload) == read(ref_read_instancegraph, payload)


def test_the_reader_is_the_one_that_loads_documents():
    assert fileio._KINDS[fileio.KIND_INSTANCEGRAPH][2] is _read_instancegraph


#: Values that break each field of an entry, ``DUP`` standing for the id
#: of the entry before it and ``[]`` for a value that cannot be hashed.
DUP = object()
FIELD_FAULTS = {
    "nodes": {"attrs": (5, {"index": True}), "id": (5, [], DUP), "type": (5,)},
    "edges": {"id": (5, [], DUP), "src": (5, [], "ghost"), "tgt": (5, [], "ghost"), "type": (5,)},
}


@pytest.mark.parametrize("entries", sorted(FIELD_FAULTS))
def test_every_mix_of_faults_in_one_entry_is_named_as_the_reference_does(fixtures_dir, entries):
    """The order of the rules within one entry: every combination of
    faults in the fields of the third entry."""
    payload = json.loads((fixtures_dir / "printer.ig.json").read_text())["payload"]
    faults = FIELD_FAULTS[entries]
    for values in itertools.product(*((None, *faults[field]) for field in faults)):
        edited = copy.deepcopy(payload)
        entry = edited[entries][2]
        for field, value in zip(faults, values):
            if value is not None:
                entry[field] = edited[entries][1]["id"] if value is DUP else value
        assert read(_read_instancegraph, edited) == read(ref_read_instancegraph, edited), values


@pytest.mark.parametrize("entries, field", [(e, f) for e in sorted(FIELD_FAULTS) for f in FIELD_FAULTS[e]])
def test_a_renamed_field_is_named_as_the_reference_does(fixtures_dir, entries, field):
    """As many fields as the rule asks for, but one of them unknown."""
    payload = json.loads((fixtures_dir / "printer.ig.json").read_text())["payload"]
    entry = payload[entries][2]
    entry["extra"] = entry.pop(field)
    assert read(_read_instancegraph, payload) == read(ref_read_instancegraph, payload)
