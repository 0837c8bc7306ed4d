"""Canonical text of every artifact kind.

Each ``<kind>_text`` writer prints a payload straight from the value, as
``json.dumps(payload, indent=2, sort_keys=True)`` would print it at the
indentation of an envelope's payload. Only :func:`bigtg.fileio.save` and
:func:`bigtg.fileio.dumps_canonical` load this module, so a command that
writes no file does not compile it.
"""

from __future__ import annotations

import json
from itertools import groupby, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .bigraph import Bigraph, Interface, Port, Signature
from .typedgraph import InstanceGraph, Multiplicity, TypeGraph, mult_of

TYPE_CHECKING = False  # read as true by static type checkers only
if TYPE_CHECKING:
    from typing import Any

    from .variability import FeatureConfig

# Canonical text: ``json.dumps(value, indent=2, sort_keys=True)``, built by
# joining. With ``indent`` set, ``json`` falls back to its pure-Python
# encoder, which took most of the time of saving a large graph. ``pad`` is
# a newline and the indentation of the line a value starts on.

_P2, _P4, _P8, _P10 = "\n  ", "\n    ", "\n        ", "\n          "


def _join(texts: list[str], pad: str, brackets: str) -> str:
    """An array or object (by ``brackets``) of items printed already."""
    if not texts:
        return brackets
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(texts) + pad + brackets[1]


#: The text of each value of these exact types, as ``json`` prints it
#: (``bool`` is an ``int`` to ``int.__repr__``, but not to ``json``).
_LITERAL = {True: "true", False: "false", None: "null"}.__getitem__
_SCALAR = {str: encode_basestring_ascii, int: int.__repr__, bool: _LITERAL, type(None): _LITERAL}


def _leaves(values: list, pad: str) -> list[str]:
    """The text of each value: one C-level pass over a column of strings or
    of plain integers, one pass that picks the printer of each value's
    type over a column of such scalars mixed (weakly typed attribute
    values: ``control`` strings beside ``index`` ints), and
    ``_canonical_json`` per value otherwise."""
    try:
        return list(map(encode_basestring_ascii, values))
    except TypeError:
        kinds = list(map(type, values))
        distinct = set(kinds)
        if distinct <= {int}:
            return list(map(int.__repr__, values))
        if _SCALAR.keys() >= distinct:
            return [text(v) for text, v in zip(map(_SCALAR.__getitem__, kinds), values)]
    return [_canonical_json(v, pad) for v in values]


def _canonical_json(value: Any, pad: str = "\n") -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = pad + "  "
    if isinstance(value, dict):
        parts = []
        for k in sorted(value):
            v = value[k]
            key = encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k))
            text = encode_basestring_ascii(v) if isinstance(v, str) else _canonical_json(v, inner)
            parts.append(f"{key}: {text}")
        return _join(parts, pad, "{}")
    if isinstance(value, (list, tuple)):
        items = [encode_basestring_ascii(v) if isinstance(v, str) else _canonical_json(v, inner) for v in value]
        return _join(items, pad, "[]")
    text = _SCALAR.get(type(value))
    return json.dumps(value) if text is None else text(value)


def _refuse_missing(what: str, ids: list, **columns: list) -> None:
    """``ValueError`` naming the first of ``ids`` with ``None`` in a column:
    the format has no way to write it."""
    if any(None in column for column in columns.values()):
        name, *values = next(row for row in zip(ids, *columns.values()) if None in row[1:])
        raise ValueError(f"{what} {name} has no {list(columns)[values.index(None)]}")


# ---------------------------------------------------------------------------
# Signature


def signature_text(sig: Signature, pad: str = _P2) -> str:
    controls = [{"arity": sig.arity(c.name), "name": c.name} for c in sig.controls]
    return _canonical_json({"controls": controls}, pad)


# ---------------------------------------------------------------------------
# Bigraph


def _interface_payload(iface: Interface) -> dict:
    return {"names": sorted(iface.names), "width": iface.width}


_PAIR = "[\n        %s,\n        %s\n      ]"
_PORT = "[\n          %s,\n          %s\n        ]"
_BIGRAPH = (
    '{\n    "ctrl": %s,\n    "edges": %s,\n    "inner": %s,\n    "link": %s,\n'
    '    "nodes": %s,\n    "outer": %s,\n    "prnt": %s,\n    "signature": %s\n  }'
)


def bigraph_text(b: Bigraph) -> str:
    """Parents in the order of ``(isinstance(child, str), str(child))``;
    inner names, then ports in the order of ``str(port)``, so that index 10
    comes before index 2."""
    children = sorted(b.prnt, key=lambda p: (isinstance(p, str), str(p)))
    names = sorted((p for p in b.link if not isinstance(p, Port)), key=str)
    ports = sorted((p for p in b.link if isinstance(p, Port)), key="Port(node=%r, index=%r)".__mod__)
    refs = map(_PORT.__mod__, zip(*(_leaves(list(map(itemgetter(i), ports)), _P10) for i in (0, 1))))
    link = zip([*_leaves(names, _P8), *refs], _leaves(list(map(b.link.get, names + ports)), _P8))
    prnt = zip(_leaves(children, _P8), _leaves(list(map(b.prnt.get, children)), _P8))
    return _BIGRAPH % (
        _canonical_json(b.ctrl, _P4),
        _canonical_json(sorted(b.edges), _P4),
        _canonical_json(_interface_payload(b.inner), _P4),
        _join(list(map(_PAIR.__mod__, link)), _P4, "[]"),
        _canonical_json(sorted(b.nodes), _P4),
        _canonical_json(_interface_payload(b.outer), _P4),
        _join(list(map(_PAIR.__mod__, prnt)), _P4, "[]"),
        signature_text(b.signature, _P4),
    )


# ---------------------------------------------------------------------------
# Type graph


def _mult_payload(m: Multiplicity) -> dict:
    return {"lower": m.lb, "upper": "*" if m.ub is None else m.ub}


def typegraph_text(tg: TypeGraph) -> str:
    node_entries = []
    for t in sorted(tg.graph.nodes):
        node_entries.append(
            {
                "abstract": t in tg.abstracts,
                "attrs": {a: dt for a, dt in sorted(tg.attr_decls.get(t, {}).items())},
                "name": t,
            }
        )
    edges = sorted(tg.graph.edges)
    src, tgt = (list(map(ends.get, edges)) for ends in (tg.graph.src, tg.graph.tgt))
    mult = [mult_of(tg, e) for e in edges]
    _refuse_missing("edge type", edges, src=src, tgt=tgt, mult=mult)
    edge_entries = [
        {"containment": e in tg.containments, "mult": _mult_payload(m), "name": e, "src": s, "tgt": t}
        for e, s, t, m in zip(edges, src, tgt, mult)
    ]
    opposite_pairs = sorted({tuple(sorted(p)) for p in tg.opposites})
    payload = {
        "edgeTypes": edge_entries,
        "inherits": [list(p) for p in sorted(tg.inherits)],
        "nodeTypes": node_entries,
        "opposites": [list(p) for p in opposite_pairs],
    }
    return _canonical_json(payload, _P2)


# ---------------------------------------------------------------------------
# Instance graph


_EDGE = '{\n        "id": %s,\n        "src": %s,\n        "tgt": %s,\n        "type": %s\n      }'
_NODE = '{\n        "attrs": %s,\n        "id": %s,\n        "type": %s\n      }'


def instancegraph_text(g: InstanceGraph) -> str:
    """Each column (ids, ends, types, attribute names and values) is printed
    in one pass, and each entry is its template filled from the columns."""
    edges = sorted(g.graph.edges)
    src, tgt = list(map(g.graph.src.get, edges)), list(map(g.graph.tgt.get, edges))
    _refuse_missing("edge", edges, src=src, tgt=tgt)
    orphans = set(map(itemgetter(0), g.attrs)) - g.graph.nodes
    if orphans:
        n, a = min(key for key in g.attrs if key[0] in orphans)
        raise ValueError(f"attribute {a} of {n} has no node")
    keys = sorted(g.attrs)
    # ``json`` quotes its text of a key that is no string.
    names = _leaves([a if isinstance(a, str) else json.dumps(a) for _, a in keys], _P10)
    values = _leaves(list(map(g.attrs.get, keys)), _P10)
    members = zip(map(itemgetter(0), keys), map("%s: %s".__mod__, zip(names, values)))
    attrs = {n: _join(list(map(itemgetter(1), group)), _P8, "{}") for n, group in groupby(members, itemgetter(0))}
    nodes = sorted(g.graph.nodes)
    node_types, edge_types = list(map(g.node_types.get, nodes)), list(map(g.edge_types.get, edges))
    node_entries = zip(map(attrs.get, nodes, repeat("{}")), _leaves(nodes, _P8), _leaves(node_types, _P8))
    edge_entries = zip(_leaves(edges, _P8), _leaves(src, _P8), _leaves(tgt, _P8), _leaves(edge_types, _P8))
    return '{\n    "edges": %s,\n    "nodes": %s\n  }' % (
        _join(list(map(_EDGE.__mod__, edge_entries)), _P4, "[]"),
        _join(list(map(_NODE.__mod__, node_entries)), _P4, "[]"),
    )


# ---------------------------------------------------------------------------
# Feature configuration


def featureconfig_text(cfg: FeatureConfig) -> str:
    return _canonical_json({"selected": sorted(cfg.selected)}, _P2)
