"""JSON envelope persistence for all artifact kinds.

Every document is ``{"formatVersion": "1.0", "kind": ..., "payload": ...}``
written in a canonical form (sorted keys, two-space indent, sorted entry
lists, trailing newline), so saving a loaded canonical file reproduces it
byte for byte. Schema problems carry a JSON-pointer-style path.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Callable, Container
from functools import partial
from importlib import import_module
from itertools import groupby, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .bigraph import Bigraph, Interface, Port, Signature, make_signature
from .typedgraph import ATTR_TYPES, Graph, InstanceGraph, Multiplicity, TypeGraph, symmetric_pairs

TYPE_CHECKING = False  # read as true by static type checkers only
if TYPE_CHECKING:
    from typing import Any

    from .variability import FeatureConfig

FORMAT_VERSION = "1.0"

KIND_SIGNATURE = "signature"
KIND_BIGRAPH = "bigraph"
KIND_TYPEGRAPH = "typegraph"
KIND_INSTANCEGRAPH = "instancegraph"
KIND_FEATURECONFIG = "featureconfig"


class IoError(Exception):
    """The file could not be read or written."""


class SchemaError(Exception):
    """The document does not match its schema; ``path`` points inside it."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


# ---------------------------------------------------------------------------
# Schema readers: each checks one shape and returns what it read.


class _Fault(Exception):
    """A fault at ``path`` below the value being read. Each reader it passes puts its
    key in front, so a JSON pointer is built only for a rejected document."""

    def __init__(self, message: str, *path: str | int):
        self.message = message
        self.path = path

    def under(self, *prefix: str | int) -> "_Fault":
        self.path = prefix + self.path
        return self


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer", bool: "a boolean"}


def _as(json_type: type, value: Any, *at: str | int) -> Any:
    """``value`` if it is of ``json_type`` (exactly: ``json`` gives no bool as int)."""
    if type(value) is not json_type:
        raise _Fault("expected " + _JSON_TYPES[json_type], *at)
    return value


def _record(value: Any, fields: tuple[str, ...]) -> tuple:
    """The values of ``fields`` in an object with exactly those fields."""
    obj = _as(dict, value)
    try:
        values = itemgetter(*fields)(obj)
    except KeyError as missing:
        raise _Fault(f"missing field {missing.args[0]!r}") from None
    if len(obj) != len(fields):
        raise _Fault("unknown field", next(key for key in obj if key not in fields))
    return values if len(fields) > 1 else (values,)


def _within(read: Callable[[Any], Any], value: Any, *at: str | int) -> Any:
    """``read(value)`` for the value found at ``at``."""
    try:
        return read(value)
    except _Fault as fault:
        raise fault.under(*at)


def _each(value: Any, read: Callable[[Any], Any], *at: str | int) -> list:
    """``read`` of each item of an array."""
    return [_within(read, item, *at, i) for i, item in enumerate(_as(list, value, *at))]


def _pair(value: Any, message: str) -> list:
    """A two-item array; ``message`` is the fault for any other length."""
    if len(_as(list, value)) != 2:
        raise _Fault(message)
    return value


def _distinct(value: Any, message: str, *at: str | int) -> frozenset[str]:
    """An array of distinct strings; ``message`` is the fault for a repeat."""
    names = _each(value, partial(_as, str), *at)
    if len(set(names)) != len(names):
        raise _Fault(message, *at)
    return frozenset(names)


def _fresh(value: Any, seen: Container[str], what: str, *at: str | int) -> str:
    """A name not yet in ``seen``."""
    if type(value) is not str or value in seen:
        _as(str, value, *at)
        raise _Fault(f"duplicate {what} {value!r}", *at)
    return value


def _known(value: Any, known: Container[str], fault: str, *at: str | int) -> str:
    """A name in ``known``, such as an edge's ``src``; ``fault`` starts the message."""
    if type(value) is not str or value not in known:
        _as(str, value, *at)
        raise _Fault(f"{fault} {value!r}", *at)
    return value


# ---------------------------------------------------------------------------
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


def _leaves(values: list, pad: str) -> list[str]:
    """The text of each value: one C-level pass over a column of strings or
    of plain integers, ``_canonical_json`` per value otherwise (``bool`` is
    an ``int`` to ``int.__repr__``, but not to ``json``)."""
    try:
        return list(map(encode_basestring_ascii, values))
    except TypeError:
        if set(map(type, values)) <= {int}:
            return list(map(int.__repr__, values))
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
    return json.dumps(value)


def _refuse_missing(what: str, ids: list, **columns: list) -> None:
    """``ValueError`` naming the first of ``ids`` with ``None`` in a column:
    the format has no way to write it."""
    if any(None in column for column in columns.values()):
        name, *values = next(row for row in zip(ids, *columns.values()) if None in row[1:])
        raise ValueError(f"{what} {name} has no {list(columns)[values.index(None)]}")


# ---------------------------------------------------------------------------
# Signature


def _signature_text(sig: Signature, pad: str = _P2) -> str:
    controls = [{"arity": sig.arity(c.name), "name": c.name} for c in sig.controls]
    return _canonical_json({"controls": controls}, pad)


def _read_signature(payload: Any) -> Signature:
    (controls,) = _record(payload, ("controls",))

    def read_control(entry: Any) -> tuple[str, int]:
        arity, name = _record(entry, ("arity", "name"))
        return _as(str, name, "name"), _as(int, arity, "arity")

    pairs = _each(controls, read_control, "controls")
    try:
        return make_signature(pairs)
    except ValueError as exc:  # DuplicateControl and ReservedControlName too
        raise _Fault(str(exc), "controls") from exc


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


def _bigraph_text(b: Bigraph) -> str:
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
        _signature_text(b.signature, _P4),
    )


def _read_interface(value: Any) -> Interface:
    names, width = _record(value, ("names", "width"))
    if _as(int, width, "width") < 0:
        raise _Fault("width must be non-negative", "width")
    return Interface(width, _distinct(names, "interface names must be distinct", "names"))


def _place_ref(value: Any, *at: str | int) -> int | str:
    if type(value) not in (int, str):
        raise _Fault("expected a node id (string) or an index (integer)", *at)
    return value


def _read_bigraph(payload: Any) -> Bigraph:
    ctrl_obj, edges, inner, link_raw, nodes, outer, prnt_raw, signature = _record(
        payload, ("ctrl", "edges", "inner", "link", "nodes", "outer", "prnt", "signature")
    )
    sig = _within(_read_signature, signature, "signature")
    nodes = _distinct(nodes, "duplicate node identifier", "nodes")
    edges = _distinct(edges, "duplicate edge identifier", "edges")
    ctrl = {
        v: _known(name, sig.arities, "undeclared control", "ctrl", v)
        for v, name in _as(dict, ctrl_obj, "ctrl").items()
    }

    prnt: dict[object, object] = {}

    def read_parent(entry: Any) -> None:
        child, parent = _pair(entry, "expected a [child, parent] pair")
        if _place_ref(child, 0) in prnt:
            raise _Fault(f"duplicate parent entry for {child!r}")
        prnt[child] = _place_ref(parent, 1)

    link: dict[object, str] = {}

    def read_link(entry: Any) -> None:
        point, target = _pair(entry, "expected a [point, target] pair")
        if type(point) is list and len(point) == 2:
            point = Port(_as(str, point[0], 0, 0), _as(int, point[1], 0, 1))
        elif type(point) is not str:
            raise _Fault("expected an inner name or a [node, index] port", 0)
        if point in link:
            raise _Fault("duplicate link entry")
        link[point] = _as(str, target, 1)

    _each(prnt_raw, read_parent, "prnt")
    _each(link_raw, read_link, "link")
    return Bigraph(
        signature=sig,
        nodes=nodes,
        edges=edges,
        ctrl=ctrl,
        prnt=prnt,
        link=link,
        inner=_within(_read_interface, inner, "inner"),
        outer=_within(_read_interface, outer, "outer"),
    )


# ---------------------------------------------------------------------------
# Type graph


def _mult_payload(m: Multiplicity) -> dict:
    return {"lower": m.lb, "upper": "*" if m.ub is None else m.ub}


def _typegraph_text(tg: TypeGraph) -> str:
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
    src, tgt, mult = (list(map(ends.get, edges)) for ends in (tg.graph.src, tg.graph.tgt, tg.mult))
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


def _read_mult(value: Any) -> Multiplicity:
    lower, upper = _record(value, ("lower", "upper"))
    _as(int, lower, "lower")
    if upper == "*":
        upper = None
    elif type(upper) is not int:
        raise _Fault('expected an integer or "*"', "upper")
    try:
        return Multiplicity(lower, upper)
    except ValueError as exc:
        raise _Fault(str(exc)) from exc


def _name_pairs(value: Any, message: str, known: Container[str], fault: str, *at: str | int) -> list:
    """An array of ``[a, b]`` pairs of names in ``known``."""

    def read(entry: Any) -> tuple[str, str]:
        a, b = _pair(entry, message)
        _as(str, a, 0), _as(str, b, 1)
        return _known(a, known, fault), _known(b, known, fault)

    return _each(value, read, *at)


def _read_typegraph(payload: Any) -> TypeGraph:
    edge_types, inherits, node_types, opposites = _record(
        payload, ("edgeTypes", "inherits", "nodeTypes", "opposites")
    )

    nodes: set[str] = set()
    abstracts: set[str] = set()
    attr_decls: dict[str, dict[str, str]] = {}

    def read_node_type(entry: Any) -> None:
        abstract, attrs, name = _record(entry, ("abstract", "attrs", "name"))
        nodes.add(_fresh(name, nodes, "node type", "name"))
        if _as(bool, abstract, "abstract"):
            abstracts.add(name)
        decls = {
            a: _known(dt, ATTR_TYPES, "unknown data type", "attrs", a)
            for a, dt in _as(dict, attrs, "attrs").items()
        }
        if decls:
            attr_decls[name] = decls

    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    containments: set[str] = set()
    mult: dict[str, Multiplicity] = {}

    def read_edge_type(entry: Any) -> None:
        containment, m, name, s, t = _record(entry, ("containment", "mult", "name", "src", "tgt"))
        _fresh(name, src, "edge type", "name")
        src[name] = _known(s, nodes, "unknown node type", "src")
        tgt[name] = _known(t, nodes, "unknown node type", "tgt")
        if _as(bool, containment, "containment"):
            containments.add(name)
        mult[name] = _within(_read_mult, m, "mult")

    _each(node_types, read_node_type, "nodeTypes")
    _each(edge_types, read_edge_type, "edgeTypes")
    return TypeGraph(
        graph=Graph(nodes=frozenset(nodes), edges=frozenset(src), src=src, tgt=tgt),
        inherits=_name_pairs(inherits, "expected a [subtype, supertype] pair", nodes, "unknown node type", "inherits"),
        abstracts=abstracts,
        containments=containments,
        opposites=symmetric_pairs(
            _name_pairs(opposites, "expected an [edge, edge] pair", src, "unknown edge type", "opposites")
        ),
        mult=mult,
        attr_decls=attr_decls,
    )


# ---------------------------------------------------------------------------
# Instance graph


_EDGE = '{\n        "id": %s,\n        "src": %s,\n        "tgt": %s,\n        "type": %s\n      }'
_NODE = '{\n        "attrs": %s,\n        "id": %s,\n        "type": %s\n      }'


def _instancegraph_text(g: InstanceGraph) -> str:
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


def _read_instancegraph(payload: Any) -> InstanceGraph:
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


# ---------------------------------------------------------------------------
# Feature configuration


def _featureconfig_text(cfg: FeatureConfig) -> str:
    return _canonical_json({"selected": sorted(cfg.selected)}, _P2)


def _read_featureconfig(payload: Any) -> FeatureConfig:
    from .variability import FeatureConfig

    (selected,) = _record(payload, ("selected",))
    return FeatureConfig(_distinct(selected, "duplicate feature", "selected"))


# ---------------------------------------------------------------------------
# Envelopes

#: Each kind's value class (as module and name, looked up on first use, so
#: that only feature configurations load ``variability``), payload reader
#: and payload writer. A writer returns the payload's canonical text at the
#: envelope's indentation, not a payload value.
_KINDS: dict[str, tuple[str, str, Callable[[Any], object], Callable[[Any], str]]] = {
    KIND_SIGNATURE: ("bigraph", "Signature", _read_signature, _signature_text),
    KIND_BIGRAPH: ("bigraph", "Bigraph", _read_bigraph, _bigraph_text),
    KIND_TYPEGRAPH: ("typedgraph", "TypeGraph", _read_typegraph, _typegraph_text),
    KIND_INSTANCEGRAPH: ("typedgraph", "InstanceGraph", _read_instancegraph, _instancegraph_text),
    KIND_FEATURECONFIG: ("variability", "FeatureConfig", _read_featureconfig, _featureconfig_text),
}

_ENVELOPE = '{\n  "formatVersion": "%s",\n  "kind": "%s",\n  "payload": %s\n}\n'


def dumps_canonical(value: object) -> str:
    """Canonical envelope text for any supported value, printed by the
    kind's writer straight from the value. Raises ``ValueError`` for what
    the format cannot write, naming the smallest offender: ``edge <e> has
    no src`` (or ``tgt``) and ``attribute <a> of <n> has no node`` in an
    instance graph, ``edge type <e> has no src`` (or ``tgt``, ``mult``) in
    a type graph."""
    for kind, (module, cls, _, write) in _KINDS.items():
        if isinstance(value, getattr(import_module(f".{module}", __package__), cls)):
            return _ENVELOPE % (FORMAT_VERSION, kind, write(value))
    raise TypeError(f"cannot serialize {type(value).__name__}")


def read_text(path: str) -> str:
    """The text of a UTF-8 file; ``IoError`` if it cannot be read or decoded."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def load_document(path: str) -> tuple[str, object]:
    """Load any envelope; returns ``(kind, value)``."""
    text = read_text(path)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise SchemaError("/", f"not valid JSON: {exc}") from exc
    try:
        version, kind, payload = _record(data, ("formatVersion", "kind", "payload"))
        _known(version, (FORMAT_VERSION,), "unsupported format version", "formatVersion")
        _known(kind, _KINDS, "unknown document kind", "kind")
        return kind, _within(_KINDS[kind][2], payload, "payload")
    except _Fault as fault:
        pointer = "/" + "/".join(str(key) for key in fault.path)
        raise SchemaError(pointer, fault.message) from fault.__cause__


def _load_kind(path: str, kind: str) -> object:
    actual, value = load_document(path)
    if actual != kind:
        raise SchemaError("/kind", f"expected a {kind} document, found {actual!r}")
    return value


def load_signature(path: str) -> Signature:
    return _load_kind(path, KIND_SIGNATURE)  # type: ignore[return-value]


def load_bigraph(path: str) -> Bigraph:
    return _load_kind(path, KIND_BIGRAPH)  # type: ignore[return-value]


def load_type_graph(path: str) -> TypeGraph:
    return _load_kind(path, KIND_TYPEGRAPH)  # type: ignore[return-value]


def load_instance_graph(path: str) -> InstanceGraph:
    return _load_kind(path, KIND_INSTANCEGRAPH)  # type: ignore[return-value]


def load_feature_config(path: str) -> FeatureConfig:
    return _load_kind(path, KIND_FEATURECONFIG)  # type: ignore[return-value]


def save(value: object, path: str) -> None:
    """Write ``value`` as a canonical envelope document.

    The text goes to a new file beside ``path`` that then replaces it, so
    a save that fails leaves an existing file at ``path`` as it was. A
    symlink or device at ``path`` is replaced too, not written through.
    A value that :func:`dumps_canonical` refuses raises its ``ValueError``
    before any file is made.
    """
    text = dumps_canonical(value)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise IoError(f"cannot write {path}: {exc}") from exc
