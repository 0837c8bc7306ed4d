"""Canonical text of every artifact kind.

Each ``<kind>_chunks`` writer is a generator of text chunks whose join is
the payload printed straight from the value, byte for byte as
``json.dumps(payload, indent=2, sort_keys=True)`` would print it at the
indentation of an envelope's payload. The entries of the large arrays (an
instance graph's ``edges`` and ``nodes``, a bigraph's ``ctrl``, ``edges``,
``link``, ``nodes`` and ``prnt``) are printed ``_BATCH`` at a time, so a
writer holds the value, its sorted ids and one batch of text; a signature,
type graph or feature configuration is one chunk. A writer raises each of
its refusals before it yields its first chunk.

The variants of one graph share a :class:`Family` memo: the text of each
instance-graph entry printed, by its content, and the graph's sorted ids,
which the writer filters to a variant's. From a graph's second
reconfiguration on, :func:`bigtg.variability.apply_deltas` makes one and
keeps it among that graph's parts (``_parts``). A variant reaches it
through its record of its input (``_origin``), which refers to the input
by weak reference, so a variant kept without its input holds no printed
text. A graph without a memo is printed batch by batch as above.

Only :func:`bigtg.fileio.save` and :func:`bigtg.fileio.dumps_canonical`
load this module, so a command that writes no file does not compile it.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from itertools import groupby, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .bigraph import Bigraph, Interface, Port, Signature
from .typedgraph import InstanceGraph, Multiplicity, TypeGraph, _grouped, mult_of

TYPE_CHECKING = False  # read as true by static type checkers only
if TYPE_CHECKING:
    from collections.abc import Callable, Hashable, Iterable, Iterator
    from typing import Any

    from .variability import FeatureConfig

# Canonical text: ``json.dumps(value, indent=2, sort_keys=True)``, built by
# joining. With ``indent`` set, ``json`` falls back to its pure-Python
# encoder, which took most of the time of saving a large graph. ``pad`` is
# a newline and the indentation of the line a value starts on.

_P2, _P4, _P6, _P8, _P10 = "\n  ", "\n    ", "\n      ", "\n        ", "\n          "

#: Entries of a large array printed, and held as text, at a time.
_BATCH = 512


def _join(texts: list[str], pad: str, brackets: str) -> str:
    """An array or object (by ``brackets``) of items printed already."""
    if not texts:
        return brackets
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(texts) + pad + brackets[1]


def _batched(count: int, entries: Callable[[slice], Iterable[str]], pad: str, brackets: str = "[]") -> Iterator[str]:
    """The text that ``_join`` gives for ``count`` entries, a chunk per
    ``_BATCH`` of them: ``entries(part)`` prints the entries in the slice
    ``part`` of the writer's sorted columns."""
    if not count:
        yield brackets
        return
    inner = pad + "  "
    comma = "," + inner
    for start in range(0, count, _BATCH):
        yield (comma if start else brackets[0] + inner) + comma.join(entries(slice(start, start + _BATCH)))
    yield pad + brackets[1]


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


def _signature(sig: Signature, pad: str) -> str:
    controls = [{"arity": sig.arity(c.name), "name": c.name} for c in sig.controls]
    return _canonical_json({"controls": controls}, pad)


def signature_chunks(sig: Signature) -> Iterator[str]:
    yield _signature(sig, _P2)


# ---------------------------------------------------------------------------
# Bigraph


def _interface_payload(iface: Interface) -> dict:
    return {"names": sorted(iface.names), "width": iface.width}


_PAIR = "[\n        %s,\n        %s\n      ]"
_PORT = "[\n          %s,\n          %s\n        ]"


def bigraph_chunks(b: Bigraph) -> Iterator[str]:
    """Parents in the order of ``(isinstance(child, str), str(child))``;
    inner names, then ports in the order of ``str(port)``, so that index 10
    comes before index 2."""
    owners, edges, nodes = sorted(b.ctrl), sorted(b.edges), sorted(b.nodes)
    children = sorted(b.prnt, key=lambda p: (isinstance(p, str), str(p)))
    names = sorted((p for p in b.link if not isinstance(p, Port)), key=str)
    points = names + sorted((p for p in b.link if isinstance(p, Port)), key="Port(node=%r, index=%r)".__mod__)

    def ids(column: list) -> Callable[[slice], list[str]]:
        return lambda part: _leaves(column[part], _P6)

    def ctrl_entries(part: slice) -> Iterable[str]:
        # ``json`` quotes its text of a key that is no string.
        keys = [v if isinstance(v, str) else json.dumps(v) for v in owners[part]]
        return map("%s: %s".__mod__, zip(_leaves(keys, _P6), _leaves(list(map(b.ctrl.get, owners[part])), _P6)))

    def link_entries(part: slice) -> Iterable[str]:
        inner = names[part]  # ``points`` starts with ``names``, so these lead ``points[part]``
        ports = points[part][len(inner) :]
        refs = map(_PORT.__mod__, zip(*(_leaves(list(map(itemgetter(i), ports)), _P10) for i in (0, 1))))
        return map(_PAIR.__mod__, zip([*_leaves(inner, _P8), *refs], _leaves(list(map(b.link.get, points[part])), _P8)))

    def prnt_entries(part: slice) -> Iterable[str]:
        batch = children[part]
        return map(_PAIR.__mod__, zip(_leaves(batch, _P8), _leaves(list(map(b.prnt.get, batch)), _P8)))

    yield '{\n    "ctrl": '
    yield from _batched(len(owners), ctrl_entries, _P4, "{}")
    yield ',\n    "edges": '
    yield from _batched(len(edges), ids(edges), _P4)
    yield ',\n    "inner": %s,\n    "link": ' % _canonical_json(_interface_payload(b.inner), _P4)
    yield from _batched(len(points), link_entries, _P4)
    yield ',\n    "nodes": '
    yield from _batched(len(nodes), ids(nodes), _P4)
    yield ',\n    "outer": %s,\n    "prnt": ' % _canonical_json(_interface_payload(b.outer), _P4)
    yield from _batched(len(children), prnt_entries, _P4)
    yield ',\n    "signature": %s\n  }' % _signature(b.signature, _P4)


# ---------------------------------------------------------------------------
# Type graph


def _mult_payload(m: Multiplicity) -> dict:
    return {"lower": m.lb, "upper": "*" if m.ub is None else m.ub}


def typegraph_chunks(tg: TypeGraph) -> Iterator[str]:
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
    yield _canonical_json(payload, _P2)


# ---------------------------------------------------------------------------
# Instance graph


_EDGE = '{\n        "id": %s,\n        "src": %s,\n        "tgt": %s,\n        "type": %s\n      }'
_NODE = '{\n        "attrs": %s,\n        "id": %s,\n        "type": %s\n      }'


class Family:
    """What the saves of one graph's variants share: the graph's node and
    edge ids, which hold each variant's, sorted once; and the text of each
    edge and node entry printed, by its key (:func:`_keys`). It refers to
    no graph, and only the graph that made it holds it, in ``_parts``."""

    __slots__ = ("_ids", "edges", "nodes")

    def __init__(self, g: InstanceGraph) -> None:
        #: Each set of ids, replaced by its sorted list on first use, or by
        #: ``None`` when some id is no ``str``.
        self._ids: dict[str, frozenset[str] | list[str] | None] = {"nodes": g.graph.nodes, "edges": g.graph.edges}
        self.edges: dict[tuple, str] = {}
        self.nodes: dict[tuple, str] = {}

    def ordered(self, kind: str, ids: frozenset[str]) -> list[str]:
        """``ids``, a variant's ``kind`` (``"nodes"`` or ``"edges"``),
        sorted: the family's sorted ids filtered to ``ids`` when that keeps
        every one of them, else sorted anew."""
        whole = self._ids[kind]
        if isinstance(whole, frozenset):
            whole = self._ids[kind] = sorted(whole) if set(map(type, whole)) <= {str} else None
        if whole is not None:
            kept = list(filter(ids.__contains__, whole))
            if len(kept) == len(ids):
                return kept
        return sorted(ids)


#: The classes whose equal values of one class print alike. Equal values of
#: two classes may not (``1 == True == 1.0``), nor may equal floats
#: (``0.0 == -0.0``) or equal containers (``(1,) == (True,)``).
_KEYED = frozenset({str, int, bool, type(None)})


def _key_column(column: list) -> list | None:
    """A field of each entry as a part of its key: the values themselves
    when each is a ``str``, each value with its class when each class is
    in ``_KEYED``, and ``None`` (no key) otherwise. A ``str`` equals no
    pair, so the two forms never meet."""
    kinds = set(map(type, column))
    if kinds <= {str}:
        return column
    return list(zip(column, map(type, column))) if kinds <= _KEYED else None


def _keys(*columns: list) -> list[tuple] | None:
    """The key of each entry whose fields are ``columns``, or ``None``."""
    parts = list(map(_key_column, columns))
    return None if None in parts else list(zip(*parts))


def _remembered(memo: dict[Hashable, str], keys: list[Hashable] | None, printed: Callable[[], Iterable[str]]) -> Iterable[str]:
    """The text of a batch of entries: each entry's from ``memo`` by its
    key when every one is there; otherwise the batch as ``printed()``
    prints it, remembered by key unless ``keys`` is ``None``."""
    if keys is None:
        return printed()
    texts = list(map(memo.get, keys))
    if None in texts:
        texts = list(printed())
        memo.update(zip(keys, texts))
    return texts


def instancegraph_chunks(g: InstanceGraph) -> Iterator[str]:
    """Each column of a batch (ids, ends, types, attribute names and
    values) is printed in one pass, and each entry is its template filled
    from the columns. The sorted ids, and the text of the entries printed
    before, come from the :class:`Family` of the graph's input
    (``g._origin``), or of the graph itself when it has no origin, when
    that graph is alive and holds one."""
    origin = getattr(g, "_origin", None)
    owner = g if origin is None else origin.input()
    family: Family | None = None if owner is None else owner._parts.get((Family, ()))
    edges = sorted(g.graph.edges) if family is None else family.ordered("edges", g.graph.edges)
    src, tgt = list(map(g.graph.src.get, edges)), list(map(g.graph.tgt.get, edges))
    _refuse_missing("edge", edges, src=src, tgt=tgt)
    orphans = set(map(itemgetter(0), g.attrs)) - g.graph.nodes
    if orphans:
        n, a = min(key for key in g.attrs if key[0] in orphans)
        raise ValueError(f"attribute {a} of {n} has no node")
    nodes = sorted(g.graph.nodes) if family is None else family.ordered("nodes", g.graph.nodes)
    keys = sorted(g.attrs)
    owners = list(map(itemgetter(0), keys))

    def edge_entries(part: slice) -> Iterable[str]:
        columns = (edges[part], src[part], tgt[part], list(map(g.edge_types.get, edges[part])))

        def printed() -> Iterable[str]:
            return map(_EDGE.__mod__, zip(*(_leaves(column, _P8) for column in columns)))

        return printed() if family is None else _remembered(family.edges, _keys(*columns), printed)

    def node_entries(part: slice) -> Iterable[str]:
        batch = nodes[part]
        # The attributes of the batch's nodes, which lead ``keys`` as the nodes lead ``nodes``.
        held = keys[bisect_left(owners, batch[0]) : bisect_right(owners, batch[-1])]
        values = list(map(g.attrs.get, held))
        types = list(map(g.node_types.get, batch))

        def printed() -> Iterable[str]:
            # ``json`` quotes its text of a key that is no string.
            names = _leaves([a if isinstance(a, str) else json.dumps(a) for _, a in held], _P10)
            members = zip(map(itemgetter(0), held), map("%s: %s".__mod__, zip(names, _leaves(values, _P10))))
            attrs = {n: _join(list(map(itemgetter(1), group)), _P8, "{}") for n, group in groupby(members, itemgetter(0))}
            return map(_NODE.__mod__, zip(map(attrs.get, batch, repeat("{}")), _leaves(batch, _P8), _leaves(types, _P8)))

        if family is None:
            return printed()
        # A node's key: the key of its id and type, and that of each of its
        # attributes' name and value.
        heads, members = _keys(batch, types), _keys(list(map(itemgetter(1), held)), values)
        if heads is None or members is None:
            return printed()
        owned = _grouped(list(map(itemgetter(0), held)), members)
        owned = dict(zip(owned, map(tuple, owned.values())))
        return _remembered(family.nodes, list(zip(heads, map(owned.get, batch, repeat(())))), printed)

    yield '{\n    "edges": '
    yield from _batched(len(edges), edge_entries, _P4)
    yield ',\n    "nodes": '
    yield from _batched(len(nodes), node_entries, _P4)
    yield "\n  }"


# ---------------------------------------------------------------------------
# Feature configuration


def featureconfig_chunks(cfg: FeatureConfig) -> Iterator[str]:
    yield _canonical_json({"selected": sorted(cfg.selected)}, _P2)
