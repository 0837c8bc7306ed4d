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
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

from .bigraph import (
    Bigraph,
    DuplicateControl,
    Interface,
    Port,
    ReservedControlName,
    Signature,
    make_signature,
)
from .typedgraph import Graph, InstanceGraph, Multiplicity, TypeGraph, symmetric_pairs
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
# Schema helpers


def _as_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, "expected an object")
    return value


def _as_array(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, "expected an array")
    return value


def _as_string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, "expected a string")
    return value


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, "expected an integer")
    return value


def _check_keys(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    for key in required:
        if key not in obj:
            raise SchemaError(path, f"missing field {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError(f"{path}/{key}", "unknown field")


# ---------------------------------------------------------------------------
# Signature


def _signature_payload(sig: Signature) -> dict:
    return {
        "controls": [{"arity": sig.arity(c.name), "name": c.name} for c in sig.controls]
    }


def _parse_signature(payload: Any, path: str) -> Signature:
    obj = _as_object(payload, path)
    _check_keys(obj, path, ("controls",))
    pairs: list[tuple[str, int]] = []
    for i, entry in enumerate(_as_array(obj["controls"], f"{path}/controls")):
        epath = f"{path}/controls/{i}"
        e = _as_object(entry, epath)
        _check_keys(e, epath, ("arity", "name"))
        pairs.append((_as_string(e["name"], f"{epath}/name"), _as_int(e["arity"], f"{epath}/arity")))
    try:
        return make_signature(pairs)
    except (DuplicateControl, ReservedControlName, ValueError) as exc:
        raise SchemaError(f"{path}/controls", str(exc)) from exc


# ---------------------------------------------------------------------------
# Bigraph


def _interface_payload(iface: Interface) -> dict:
    return {"names": sorted(iface.names), "width": iface.width}


def _place_ref(p: object) -> object:
    return p  # ints are site/root indices, strings are node ids


def _bigraph_payload(b: Bigraph) -> dict:
    prnt_entries = []
    for child in sorted(b.prnt, key=lambda p: (isinstance(p, str), str(p))):
        prnt_entries.append([_place_ref(child), _place_ref(b.prnt[child])])
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


def _parse_interface(value: Any, path: str) -> Interface:
    obj = _as_object(value, path)
    _check_keys(obj, path, ("names", "width"))
    width = _as_int(obj["width"], f"{path}/width")
    if width < 0:
        raise SchemaError(f"{path}/width", "width must be non-negative")
    raw = _as_array(obj["names"], f"{path}/names")
    names = [_as_string(n, f"{path}/names/{i}") for i, n in enumerate(raw)]
    if len(set(names)) != len(names):
        raise SchemaError(f"{path}/names", "interface names must be distinct")
    return Interface(width, frozenset(names))


def _parse_place_ref(value: Any, path: str) -> int | str:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(path, "expected a node id (string) or an index (integer)")
    return value


def _parse_bigraph(payload: Any, path: str) -> Bigraph:
    obj = _as_object(payload, path)
    _check_keys(obj, path, ("ctrl", "edges", "inner", "link", "nodes", "outer", "prnt", "signature"))
    sig = _parse_signature(obj["signature"], f"{path}/signature")

    nodes = [_as_string(n, f"{path}/nodes/{i}") for i, n in enumerate(_as_array(obj["nodes"], f"{path}/nodes"))]
    if len(set(nodes)) != len(nodes):
        raise SchemaError(f"{path}/nodes", "duplicate node identifier")
    edges = [_as_string(e, f"{path}/edges/{i}") for i, e in enumerate(_as_array(obj["edges"], f"{path}/edges"))]
    if len(set(edges)) != len(edges):
        raise SchemaError(f"{path}/edges", "duplicate edge identifier")

    ctrl_obj = _as_object(obj["ctrl"], f"{path}/ctrl")
    ctrl: dict[str, str] = {}
    for v in ctrl_obj:
        name = _as_string(ctrl_obj[v], f"{path}/ctrl/{v}")
        if not sig.has_control(name):
            raise SchemaError(f"{path}/ctrl/{v}", f"undeclared control {name!r}")
        ctrl[v] = name

    prnt: dict[object, object] = {}
    for i, entry in enumerate(_as_array(obj["prnt"], f"{path}/prnt")):
        epath = f"{path}/prnt/{i}"
        pair = _as_array(entry, epath)
        if len(pair) != 2:
            raise SchemaError(epath, "expected a [child, parent] pair")
        child = _parse_place_ref(pair[0], f"{epath}/0")
        if child in prnt:
            raise SchemaError(epath, f"duplicate parent entry for {child!r}")
        prnt[child] = _parse_place_ref(pair[1], f"{epath}/1")

    link: dict[object, str] = {}
    for i, entry in enumerate(_as_array(obj["link"], f"{path}/link")):
        epath = f"{path}/link/{i}"
        pair = _as_array(entry, epath)
        if len(pair) != 2:
            raise SchemaError(epath, "expected a [point, target] pair")
        point_raw = pair[0]
        point: object
        if isinstance(point_raw, str):
            point = point_raw
        elif isinstance(point_raw, list) and len(point_raw) == 2:
            point = Port(
                _as_string(point_raw[0], f"{epath}/0/0"), _as_int(point_raw[1], f"{epath}/0/1")
            )
        else:
            raise SchemaError(f"{epath}/0", "expected an inner name or a [node, index] port")
        if point in link:
            raise SchemaError(epath, "duplicate link entry")
        link[point] = _as_string(pair[1], f"{epath}/1")

    return Bigraph(
        signature=sig,
        nodes=frozenset(nodes),
        edges=frozenset(edges),
        ctrl=ctrl,
        prnt=prnt,
        link=link,
        inner=_parse_interface(obj["inner"], f"{path}/inner"),
        outer=_parse_interface(obj["outer"], f"{path}/outer"),
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


def _parse_typegraph(payload: Any, path: str) -> TypeGraph:
    obj = _as_object(payload, path)
    _check_keys(obj, path, ("edgeTypes", "inherits", "nodeTypes", "opposites"))

    nodes: set[str] = set()
    abstracts: set[str] = set()
    attr_decls: dict[str, dict[str, str]] = {}
    for i, entry in enumerate(_as_array(obj["nodeTypes"], f"{path}/nodeTypes")):
        epath = f"{path}/nodeTypes/{i}"
        e = _as_object(entry, epath)
        _check_keys(e, epath, ("abstract", "attrs", "name"))
        name = _as_string(e["name"], f"{epath}/name")
        if name in nodes:
            raise SchemaError(f"{epath}/name", f"duplicate node type {name!r}")
        nodes.add(name)
        if not isinstance(e["abstract"], bool):
            raise SchemaError(f"{epath}/abstract", "expected a boolean")
        if e["abstract"]:
            abstracts.add(name)
        attrs_obj = _as_object(e["attrs"], f"{epath}/attrs")
        decls: dict[str, str] = {}
        for a in attrs_obj:
            dt = _as_string(attrs_obj[a], f"{epath}/attrs/{a}")
            if dt not in ("int", "string"):
                raise SchemaError(f"{epath}/attrs/{a}", f"unknown data type {dt!r}")
            decls[a] = dt
        if decls:
            attr_decls[name] = decls

    edges: set[str] = set()
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    containments: set[str] = set()
    mult: dict[str, Multiplicity] = {}
    for i, entry in enumerate(_as_array(obj["edgeTypes"], f"{path}/edgeTypes")):
        epath = f"{path}/edgeTypes/{i}"
        e = _as_object(entry, epath)
        _check_keys(e, epath, ("containment", "mult", "name", "src", "tgt"))
        name = _as_string(e["name"], f"{epath}/name")
        if name in edges:
            raise SchemaError(f"{epath}/name", f"duplicate edge type {name!r}")
        edges.add(name)
        for role in ("src", "tgt"):
            end = _as_string(e[role], f"{epath}/{role}")
            if end not in nodes:
                raise SchemaError(f"{epath}/{role}", f"unknown node type {end!r}")
            (src if role == "src" else tgt)[name] = end
        if not isinstance(e["containment"], bool):
            raise SchemaError(f"{epath}/containment", "expected a boolean")
        if e["containment"]:
            containments.add(name)
        mobj = _as_object(e["mult"], f"{epath}/mult")
        _check_keys(mobj, f"{epath}/mult", ("lower", "upper"))
        lower = _as_int(mobj["lower"], f"{epath}/mult/lower")
        upper_raw = mobj["upper"]
        upper: int | None
        if upper_raw == "*":
            upper = None
        elif isinstance(upper_raw, int) and not isinstance(upper_raw, bool):
            upper = upper_raw
        else:
            raise SchemaError(f"{epath}/mult/upper", 'expected an integer or "*"')
        try:
            mult[name] = Multiplicity(lower, upper)
        except ValueError as exc:
            raise SchemaError(f"{epath}/mult", str(exc)) from exc

    inherits: set[tuple[str, str]] = set()
    for i, entry in enumerate(_as_array(obj["inherits"], f"{path}/inherits")):
        epath = f"{path}/inherits/{i}"
        pair = _as_array(entry, epath)
        if len(pair) != 2:
            raise SchemaError(epath, "expected a [subtype, supertype] pair")
        sub = _as_string(pair[0], f"{epath}/0")
        sup = _as_string(pair[1], f"{epath}/1")
        for t in (sub, sup):
            if t not in nodes:
                raise SchemaError(epath, f"unknown node type {t!r}")
        inherits.add((sub, sup))

    opposites: set[tuple[str, str]] = set()
    for i, entry in enumerate(_as_array(obj["opposites"], f"{path}/opposites")):
        epath = f"{path}/opposites/{i}"
        pair = _as_array(entry, epath)
        if len(pair) != 2:
            raise SchemaError(epath, "expected an [edge, edge] pair")
        a = _as_string(pair[0], f"{epath}/0")
        b = _as_string(pair[1], f"{epath}/1")
        for e in (a, b):
            if e not in edges:
                raise SchemaError(epath, f"unknown edge type {e!r}")
        opposites.add((a, b))

    return TypeGraph(
        graph=Graph(nodes=frozenset(nodes), edges=frozenset(edges), src=src, tgt=tgt),
        inherits=frozenset(inherits),
        abstracts=frozenset(abstracts),
        containments=frozenset(containments),
        opposites=symmetric_pairs(opposites),
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
        edge_entries.append(
            {"id": e, "src": g.graph.src[e], "tgt": g.graph.tgt[e], "type": g.edge_types.get(e)}
        )
    return {"edges": edge_entries, "nodes": node_entries}


def _parse_instancegraph(payload: Any, path: str) -> InstanceGraph:
    obj = _as_object(payload, path)
    _check_keys(obj, path, ("edges", "nodes"))
    nodes: set[str] = set()
    node_types: dict[str, str] = {}
    attrs: dict[tuple[str, str], int | str] = {}
    for i, entry in enumerate(_as_array(obj["nodes"], f"{path}/nodes")):
        epath = f"{path}/nodes/{i}"
        e = _as_object(entry, epath)
        _check_keys(e, epath, ("attrs", "id", "type"))
        nid = _as_string(e["id"], f"{epath}/id")
        if nid in nodes:
            raise SchemaError(f"{epath}/id", f"duplicate node id {nid!r}")
        nodes.add(nid)
        node_types[nid] = _as_string(e["type"], f"{epath}/type")
        attrs_obj = _as_object(e["attrs"], f"{epath}/attrs")
        for a in attrs_obj:
            v = attrs_obj[a]
            if isinstance(v, bool) or not isinstance(v, (int, str)):
                raise SchemaError(f"{epath}/attrs/{a}", "expected an integer or string value")
            attrs[(nid, a)] = v

    edges: set[str] = set()
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    edge_types: dict[str, str] = {}
    for i, entry in enumerate(_as_array(obj["edges"], f"{path}/edges")):
        epath = f"{path}/edges/{i}"
        e = _as_object(entry, epath)
        _check_keys(e, epath, ("id", "src", "tgt", "type"))
        eid = _as_string(e["id"], f"{epath}/id")
        if eid in edges:
            raise SchemaError(f"{epath}/id", f"duplicate edge id {eid!r}")
        edges.add(eid)
        for role in ("src", "tgt"):
            end = _as_string(e[role], f"{epath}/{role}")
            if end not in nodes:
                raise SchemaError(f"{epath}/{role}", f"unknown node id {end!r}")
            (src if role == "src" else tgt)[eid] = end
        edge_types[eid] = _as_string(e["type"], f"{epath}/type")

    return InstanceGraph(
        graph=Graph(nodes=frozenset(nodes), edges=frozenset(edges), src=src, tgt=tgt),
        node_types=node_types,
        edge_types=edge_types,
        attrs=attrs,
    )


# ---------------------------------------------------------------------------
# Feature configuration


def _featureconfig_payload(cfg: FeatureConfig) -> dict:
    return {"selected": sorted(cfg.selected)}


def _parse_featureconfig(payload: Any, path: str) -> FeatureConfig:
    obj = _as_object(payload, path)
    _check_keys(obj, path, ("selected",))
    raw = _as_array(obj["selected"], f"{path}/selected")
    selected = [_as_string(f, f"{path}/selected/{i}") for i, f in enumerate(raw)]
    if len(set(selected)) != len(selected):
        raise SchemaError(f"{path}/selected", "duplicate feature")
    return FeatureConfig(frozenset(selected))


# ---------------------------------------------------------------------------
# Envelopes

_PARSERS: dict[str, Callable[[Any, str], object]] = {
    KIND_SIGNATURE: _parse_signature,
    KIND_BIGRAPH: _parse_bigraph,
    KIND_TYPEGRAPH: _parse_typegraph,
    KIND_INSTANCEGRAPH: _parse_instancegraph,
    KIND_FEATURECONFIG: _parse_featureconfig,
}

_SERIALIZERS: list[tuple[type, str, Callable[[Any], dict]]] = [
    (Signature, KIND_SIGNATURE, _signature_payload),
    (Bigraph, KIND_BIGRAPH, _bigraph_payload),
    (TypeGraph, KIND_TYPEGRAPH, _typegraph_payload),
    (InstanceGraph, KIND_INSTANCEGRAPH, _instancegraph_payload),
    (FeatureConfig, KIND_FEATURECONFIG, _featureconfig_payload),
]


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
    """Canonical envelope text for any supported value."""
    for cls, kind, serialize in _SERIALIZERS:
        if isinstance(value, cls):
            doc = {"formatVersion": FORMAT_VERSION, "kind": kind, "payload": serialize(value)}
            return _canonical_json(doc) + "\n"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def load_document(path: str) -> tuple[str, object]:
    """Load any envelope; returns ``(kind, value)``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"not valid JSON: {exc}") from exc
    obj = _as_object(data, "/")
    _check_keys(obj, "/", ("formatVersion", "kind", "payload"))
    version = _as_string(obj["formatVersion"], "/formatVersion")
    if version != FORMAT_VERSION:
        raise SchemaError("/formatVersion", f"unsupported format version {version!r}")
    kind = _as_string(obj["kind"], "/kind")
    parser = _PARSERS.get(kind)
    if parser is None:
        raise SchemaError("/kind", f"unknown document kind {kind!r}")
    return kind, parser(obj["payload"], "/payload")


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
