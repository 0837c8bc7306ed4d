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
from functools import partial
from importlib import import_module
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Container

from .bigraph import Bigraph, Interface, Port, Signature, make_signature
from .typedgraph import ATTR_TYPES, Graph, InstanceGraph, Multiplicity, TypeGraph, symmetric_pairs

if TYPE_CHECKING:
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
# Signature


def _signature_payload(sig: Signature) -> dict:
    return {
        "controls": [{"arity": sig.arity(c.name), "name": c.name} for c in sig.controls]
    }


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


def _bigraph_payload(b: Bigraph) -> dict:
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
        "inner": _interface_payload(b.inner),
        "link": link_entries,
        "nodes": sorted(b.nodes),
        "outer": _interface_payload(b.outer),
        "prnt": prnt_entries,
        "signature": _signature_payload(b.signature),
    }


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


def _typegraph_payload(tg: TypeGraph) -> dict:
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
        edge_entries.append(
            {
                "containment": e in tg.containments,
                "mult": _mult_payload(tg.mult[e]),
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


def _instancegraph_payload(g: InstanceGraph) -> dict:
    node_entries = []
    for n in sorted(g.graph.nodes):
        attrs = dict(sorted(g.attr_index.get(n, {}).items()))
        node_entries.append({"attrs": attrs, "id": n, "type": g.node_types.get(n)})
    edge_entries = []
    for e in sorted(g.graph.edges):
        s, t = g.graph.src.get(e), g.graph.tgt.get(e)
        if s is None or t is None:
            raise ValueError(f"edge {e} has no {'src' if s is None else 'tgt'}")
        edge_entries.append({"id": e, "src": s, "tgt": t, "type": g.edge_types.get(e)})
    return {"edges": edge_entries, "nodes": node_entries}


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


def _featureconfig_payload(cfg: FeatureConfig) -> dict:
    return {"selected": sorted(cfg.selected)}


def _read_featureconfig(payload: Any) -> FeatureConfig:
    from .variability import FeatureConfig

    (selected,) = _record(payload, ("selected",))
    return FeatureConfig(_distinct(selected, "duplicate feature", "selected"))


# ---------------------------------------------------------------------------
# Envelopes

#: Each kind's value class (as module and name, looked up on first use, so
#: that only feature configurations load ``variability``), payload reader
#: and payload writer.
_KINDS: dict[str, tuple[str, str, Callable[[Any], object], Callable[[Any], dict]]] = {
    KIND_SIGNATURE: ("bigraph", "Signature", _read_signature, _signature_payload),
    KIND_BIGRAPH: ("bigraph", "Bigraph", _read_bigraph, _bigraph_payload),
    KIND_TYPEGRAPH: ("typedgraph", "TypeGraph", _read_typegraph, _typegraph_payload),
    KIND_INSTANCEGRAPH: ("typedgraph", "InstanceGraph", _read_instancegraph, _instancegraph_payload),
    KIND_FEATURECONFIG: ("variability", "FeatureConfig", _read_featureconfig, _featureconfig_payload),
}


def _canonical_json(value: Any, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, built by joining:
    with ``indent`` set, ``json`` falls back to its pure-Python encoder,
    which took most of the time of saving a large graph."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        parts = []
        for k in sorted(value):
            v = value[k]
            key = encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k))
            text = encode_basestring_ascii(v) if isinstance(v, str) else _canonical_json(v, inner)
            parts.append(f"{inner}{key}: {text}")
        return "{" + ",".join(parts) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        items = [encode_basestring_ascii(v) if isinstance(v, str) else _canonical_json(v, inner) for v in value]
        return "[" + ",".join(inner + item for item in items) + pad + "]"
    return json.dumps(value)


def dumps_canonical(value: object) -> str:
    """Canonical envelope text for any supported value. Raises
    ``ValueError("edge <e> has no src")`` (or ``tgt``) for an instance
    graph with an edge that lacks an end, naming the smallest such edge,
    since the format has no way to write it."""
    for kind, (module, cls, _, serialize) in _KINDS.items():
        if isinstance(value, getattr(import_module(f".{module}", __package__), cls)):
            doc = {"formatVersion": FORMAT_VERSION, "kind": kind, "payload": serialize(value)}
            return _canonical_json(doc) + "\n"
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
