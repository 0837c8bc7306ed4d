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
from collections.abc import Callable, Container, Iterable, Iterator
from functools import partial
from importlib import import_module
from itertools import chain, count, repeat
from operator import is_not, itemgetter, ne, not_

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
# Signature


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


def _read_interface(value: Any) -> Interface:
    names, width = _record(value, ("names", "width"))
    if _as(int, width, "width") < 0:
        raise _Fault("width must be non-negative", "width")
    return Interface._adopt(width, _distinct(names, "interface names must be distinct", "names"))


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
    inner, outer = _within(_read_interface, inner, "inner"), _within(_read_interface, outer, "outer")
    return Bigraph._adopt(sig, nodes, edges, ctrl, prnt, link, inner, outer)


# ---------------------------------------------------------------------------
# Type graph


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
    inherits = _name_pairs(inherits, "expected a [subtype, supertype] pair", nodes, "unknown node type", "inherits")
    opposites = _name_pairs(opposites, "expected an [edge, edge] pair", src, "unknown edge type", "opposites")
    return TypeGraph._adopt(
        Graph._adopt(frozenset(nodes), frozenset(src), src, tgt),
        frozenset(inherits),
        frozenset(abstracts),
        frozenset(containments),
        symmetric_pairs(opposites),
        mult,
        attr_decls,
    )


# ---------------------------------------------------------------------------
# Instance graph: each entry list is read column by column. A rule marks
# the values of one column that break it, in C-level passes; only a list
# with a marked value is looked at again, to name its first fault.

#: The JSON types of an attribute value (``bool`` is not ``int`` here).
_VALUE_TYPES = frozenset({int, str})

if TYPE_CHECKING:
    Rule = tuple[str | None, Callable[[list], Iterable[bool]], Callable[[Any], object]]


def _read_records(entries: Any, fields: tuple[str, ...], rules: tuple[Rule, ...], *at: str | int) -> list[list]:
    """The column of each of ``fields`` in ``entries``, an array of objects
    with exactly those fields, checked by ``rules``.

    A rule is ``(field, marks, fault)``, in the order that an entry is
    read: ``marks(column)`` is true at each value of the field (of the
    entry itself for ``None``) that breaks the rule, and ``fault(value)``
    raises the ``_Fault`` that says how. The first fault in document order
    is raised: once a rule marks an entry, the later rules look only at
    the entries before it."""
    entries = _as(list, entries, *at)
    count, first = len(entries), None
    columns: dict[str | None, list] = {None: entries}
    for field, marks, fault in rules:
        if field not in columns:
            columns[field] = list(map(itemgetter(field), entries[:count]))
        column = columns[field][:count]
        if any(marks(column)):
            count = list(marks(column)).index(True)
            try:
                fault(column[count])
            except _Fault as found:
                first = found.under(*at, count, *(() if field is None else (field,)))
    if first is not None:
        raise first
    return [columns[field] for field in fields]


def _not_of(json_type: type) -> Callable[[list], Iterable[bool]]:
    """Marks each value that is not exactly of ``json_type``."""
    return lambda column: map(is_not, map(type, column), repeat(json_type))


def _record_rules(fields: tuple[str, ...]) -> tuple[Rule, Rule]:
    """An entry is an object, with exactly ``fields``; :func:`_record` names the fault."""
    keys, fault = frozenset(fields), partial(_record, fields=fields)
    return (None, _not_of(dict), fault), (None, lambda entries: map(ne, map(dict.keys, entries), repeat(keys)), fault)


def _repeats(ids: list) -> Iterable[bool]:
    """Marks each id that an earlier id equals."""
    first = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
    return map(ne, map(first.__getitem__, ids), count())


def _bad_values(objs: list[dict]) -> Iterable[bool]:
    """Marks each attribute object with a value that is no integer or string."""
    return map(not_, map(_VALUE_TYPES.issuperset, map(map, repeat(type), map(dict.values, objs))))


def _bad_value(attrs: dict) -> None:
    """Raises the fault of the first value that is no integer or string."""
    a = next(a for a, v in attrs.items() if type(v) not in _VALUE_TYPES)
    raise _Fault("expected an integer or string value", a)


_STRING = (_not_of(str), partial(_as, str))
_NODE_FIELDS = ("attrs", "id", "type")
_NODE_RULES = (
    *_record_rules(_NODE_FIELDS),
    ("id", *_STRING),
    # ``_fresh`` names a repeat as an id among those seen, here ``(nid,)``.
    ("id", _repeats, lambda nid: _fresh(nid, (nid,), "node id")),
    ("type", *_STRING),
    ("attrs", _not_of(dict), partial(_as, dict)),
    ("attrs", _bad_values, _bad_value),
)
_EDGE_FIELDS = ("id", "src", "tgt", "type")


def _read_instancegraph(payload: Any) -> InstanceGraph:
    edges_raw, nodes_raw = _record(payload, ("edges", "nodes"))
    attr_objs, ids, types = _read_records(nodes_raw, _NODE_FIELDS, _NODE_RULES, "nodes")
    node_types = dict(zip(ids, types))
    unknown = partial(_known, known=node_types, fault="unknown node id")
    node_id = (lambda ends: map(not_, map(node_types.__contains__, ends)), unknown)
    edge_rules = (
        *_record_rules(_EDGE_FIELDS),
        ("id", *_STRING),
        ("id", _repeats, lambda eid: _fresh(eid, (eid,), "edge id")),
        ("src", *_STRING),
        ("src", *node_id),
        ("tgt", *_STRING),
        ("tgt", *node_id),
        ("type", *_STRING),
    )
    eids, srcs, tgts, edge_types = _read_records(edges_raw, _EDGE_FIELDS, edge_rules, "edges")
    owners = chain.from_iterable(map(repeat, ids, map(len, attr_objs)))
    values = chain.from_iterable(map(dict.values, attr_objs))
    src = dict(zip(eids, srcs))
    return InstanceGraph._adopt(
        Graph._adopt(frozenset(node_types), frozenset(src), src, dict(zip(eids, tgts))),
        node_types,
        dict(zip(eids, edge_types)),
        dict(zip(zip(owners, chain.from_iterable(attr_objs)), values)),
    )


# ---------------------------------------------------------------------------
# Feature configuration


def _read_featureconfig(payload: Any) -> FeatureConfig:
    from .variability import FeatureConfig

    (selected,) = _record(payload, ("selected",))
    return FeatureConfig(_distinct(selected, "duplicate feature", "selected"))


# ---------------------------------------------------------------------------
# Envelopes

#: Each kind's value class (as module and name, looked up on first use, so
#: that only feature configurations load ``variability``), payload reader,
#: and the name of its payload writer in :mod:`bigtg.writers`, which only a
#: save loads. A writer yields the chunks of the payload's canonical text
#: at the envelope's indentation, not a payload value.
_KINDS: dict[str, tuple[str, str, Callable[[Any], object], str]] = {
    KIND_SIGNATURE: ("bigraph", "Signature", _read_signature, "signature_chunks"),
    KIND_BIGRAPH: ("bigraph", "Bigraph", _read_bigraph, "bigraph_chunks"),
    KIND_TYPEGRAPH: ("typedgraph", "TypeGraph", _read_typegraph, "typegraph_chunks"),
    KIND_INSTANCEGRAPH: ("typedgraph", "InstanceGraph", _read_instancegraph, "instancegraph_chunks"),
    KIND_FEATURECONFIG: ("variability", "FeatureConfig", _read_featureconfig, "featureconfig_chunks"),
}

_HEAD = '{\n  "formatVersion": "%s",\n  "kind": "%s",\n  "payload": '


def _chunks(value: object) -> Iterator[str]:
    """The chunks of ``value``'s canonical envelope text. The first chunk
    (the envelope's head and the writer's first chunk) comes after every
    refusal of the writer; each later one holds at most one batch of
    entries (see :mod:`bigtg.writers`)."""
    from . import writers

    for kind, (module, cls, _, write) in _KINDS.items():
        if isinstance(value, getattr(import_module(f".{module}", __package__), cls)):
            payload = getattr(writers, write)(value)
            yield _HEAD % (FORMAT_VERSION, kind) + next(payload)
            yield from payload
            yield "\n}\n"
            return
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_canonical(value: object) -> str:
    """Canonical envelope text for any supported value: the join of the
    chunks that :func:`save` writes, printed by the kind's writer straight
    from the value. Raises ``ValueError`` for what the format cannot
    write and the constructors accept, naming the smallest offender:
    ``edge type <e> has no mult`` in a type graph, and ``control <c> has
    no arity`` in a signature, a bigraph's too. An edge without an end
    and an attribute of no node are refused where a graph is built."""
    return "".join(_chunks(value))


def read_text(path: str) -> str:
    """The text of a UTF-8 file; ``IoError`` if it cannot be read or decoded."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def load_document(path: str) -> tuple[str, object]:
    """Load any envelope; returns ``(kind, value)``. The file's text is
    dropped as soon as ``json.loads`` returns, so the schema readers run
    beside the parsed tree only."""
    try:
        data = json.loads(read_text(path))
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
    """Write ``value`` as a canonical envelope document: the bytes of
    :func:`dumps_canonical`, written a chunk at a time, so a save holds the
    value, its sorted ids and one batch of text, never the whole text.

    The chunks go to a new file beside ``path`` that then replaces it. A
    value that :func:`dumps_canonical` refuses raises its ``ValueError``
    before that file is made; any later exception (an ``OSError``, raised
    as ``IoError``, or a value ``json`` cannot print halfway through)
    removes it, so an existing file at ``path`` is left as it was. A
    symlink or device at ``path`` is replaced too, not written through.
    """
    chunks = _chunks(value)
    first = next(chunks)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            for chunk in chain((first,), chunks):
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise IoError(f"cannot write {path}: {exc}") from exc
        raise
