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

From a graph's second reconfiguration on, its variants share a
:class:`Family`, kept among the graph's parts (``_parts``) and reached
through the record that :func:`bigtg.variability.apply_deltas` made for a
variant (``_origin``), whose save selects its text from the family's. The
record holds the graph by weak reference, and a copy of a variant holds
no record, so a variant kept alone or copied holds no printed text and,
like a graph without a family, prints as above.

Only :func:`bigtg.fileio.save` and :func:`bigtg.fileio.dumps_canonical`
load this module, so a command that writes no file does not compile it.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import deque
from itertools import chain, compress, groupby, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter, not_

from .bigraph import Bigraph, Interface, Port, Signature
from .typedgraph import InstanceGraph, Multiplicity, TypeGraph

TYPE_CHECKING = False  # read as true by static type checkers only
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Iterator
    from typing import Any

    from .variability import FeatureConfig

# Canonical text: ``json.dumps(value, indent=2, sort_keys=True)``, built by
# joining. With ``indent`` set, ``json`` falls back to its pure-Python
# encoder, which took most of the time of saving a large graph. ``pad`` is
# a newline and the indentation of the line a value starts on.

_P2, _P4, _P8 = "\n  ", "\n    ", "\n        "

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
_SCALAR = {str: encode_basestring_ascii, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__}


def _leaves(values: list) -> list[str]:
    """The text of each value of a column, which the constructors let hold
    exactly ``str`` and ``int`` values: one C-level pass over a column of
    strings or of integers, and one pass that picks the printer of each
    value's type over a column of them mixed (weakly typed attribute
    values: ``control`` strings beside ``index`` ints, and a bigraph's
    places)."""
    try:
        return list(map(encode_basestring_ascii, values))
    except TypeError:
        pass
    try:
        return list(map(int.__repr__, values))
    except TypeError:
        return [_SCALAR[type(v)](v) for v in values]


def _canonical_json(value: Any, pad: str = "\n") -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = pad + "  "
    if isinstance(value, dict):
        parts = []
        for k in sorted(value):
            v = value[k]
            key = encode_basestring_ascii(k)
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
    names = list(sig.names)
    arities = list(map(sig.arities.get, names))
    _refuse_missing("control", names, arity=arities)
    return _canonical_json({"controls": [{"arity": a, "name": c} for a, c in zip(arities, names)]}, pad)


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
    signature = _signature(b.signature, _P4)
    owners, edges, nodes = sorted(b.ctrl), sorted(b.edges), sorted(b.nodes)
    children = sorted(b.prnt, key=lambda p: (isinstance(p, str), str(p)))
    names = sorted((p for p in b.link if not isinstance(p, Port)), key=str)
    points = names + sorted((p for p in b.link if isinstance(p, Port)), key="Port(node=%r, index=%r)".__mod__)

    def ids(column: list) -> Callable[[slice], list[str]]:
        return lambda part: _leaves(column[part])

    def ctrl_entries(part: slice) -> Iterable[str]:
        keys = owners[part]
        return map("%s: %s".__mod__, zip(_leaves(keys), _leaves(list(map(b.ctrl.get, keys)))))

    def link_entries(part: slice) -> Iterable[str]:
        inner = names[part]  # ``points`` starts with ``names``, so these lead ``points[part]``
        ports = points[part][len(inner) :]
        refs = map(_PORT.__mod__, zip(*(_leaves(list(map(itemgetter(i), ports))) for i in (0, 1))))
        return map(_PAIR.__mod__, zip([*_leaves(inner), *refs], _leaves(list(map(b.link.get, points[part])))))

    def prnt_entries(part: slice) -> Iterable[str]:
        batch = children[part]
        return map(_PAIR.__mod__, zip(_leaves(batch), _leaves(list(map(b.prnt.get, batch)))))

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
    yield ',\n    "signature": %s\n  }' % signature


# ---------------------------------------------------------------------------
# Type graph


def _mult_payload(m: Multiplicity) -> dict:
    return {"lower": m.lb, "upper": "*" if m.ub is None else m.ub}


def typegraph_chunks(tg: TypeGraph) -> Iterator[str]:
    """One chunk, printed once per ``tg`` object and kept on it (a type
    graph is saved beside each of its variants, and the ones that
    :mod:`bigtg.variability` derives are kept per set of control names);
    a copy prints anew. A type graph the format cannot write keeps no
    text, so its refusal is raised on every call."""
    text = vars(tg).get("_text")
    if text is None:
        text = vars(tg)["_text"] = _typegraph(tg)
    yield text


def _typegraph(tg: TypeGraph) -> str:
    node_entries = [
        {"abstract": t in tg.abstracts, "attrs": dict(tg.attr_decls.get(t, {})), "name": t} for t in sorted(tg.graph.nodes)
    ]
    edges = sorted(tg.graph.edges)
    src, tgt = (list(map(ends.__getitem__, edges)) for ends in (tg.graph.src, tg.graph.tgt))
    mult = list(map(tg.mult.get, edges))
    _refuse_missing("edge type", edges, mult=mult)
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


def _edge_texts(ids: list, src: list, tgt: list, types: list) -> Iterable[str]:
    """The entry of each edge, from its columns: each is printed in one pass."""
    return map(_EDGE.__mod__, zip(*(_leaves(column) for column in (ids, src, tgt, types))))


def _node_texts(ids: list, types: list, held: list, values: list) -> Iterable[str]:
    """The entry of each node of ``ids``, typed ``types``, whose attributes
    are ``held``, the sorted keys that ``ids`` own, with their ``values``."""
    names = _leaves(list(map(itemgetter(1), held)))
    members = zip(map(itemgetter(0), held), map("%s: %s".__mod__, zip(names, _leaves(values))))
    attrs = {n: _join(list(map(itemgetter(1), group)), _P8, "{}") for n, group in groupby(members, itemgetter(0))}
    return map(_NODE.__mod__, zip(map(attrs.get, ids, repeat("{}")), _leaves(ids), _leaves(types)))


class Family:
    """What the saves of one graph's variants share, each printed once:
    the graph's sorted edge and node ids and each entry's text by its
    place there (``ids`` and ``texts``, ``(edges, nodes)`` pairs, set at
    the first save); the places and texts of the entries that each piece
    of a configuration changes; and, per set of dropped groups, a mask of
    the entries that stay. Only the graph that made it holds it, in
    ``_parts``."""

    __slots__ = ("ids", "texts", "_changed", "_stays")

    def __init__(self, g: InstanceGraph) -> None:
        self.ids = self.texts = None  # ``(edges, nodes)`` pairs of lists
        self._changed: dict[tuple, tuple[list, ...]] = {}  # places and texts of edges, then of nodes
        self._stays: dict[tuple, tuple[bytes, bytes]] = {}

    def selected(self, g: InstanceGraph, dropped: tuple | None, changes: tuple[tuple, ...]) -> tuple[list[str], ...]:
        """The edge and node texts of the variant of ``g`` that the record
        describes (:class:`bigtg.variability._Origin`): the texts of ``g``
        with each changed entry's laid over them, compressed to the
        entries that stay."""
        if self.texts is None:
            self.ids = (sorted(g.graph.edges), sorted(g.graph.nodes))
            self.texts = tuple(map(list, _entries(g, *self.ids)))
        edges, nodes = self.texts
        if changes:
            edges, nodes = edges.copy(), nodes.copy()
            for edge_places, edge_texts, node_places, node_texts in map(self._piece, repeat(g), changes):
                deque(map(edges.__setitem__, edge_places, edge_texts), 0)
                deque(map(nodes.__setitem__, node_places, node_texts), 0)
        if dropped is None:
            return edges, nodes
        stays = self._stays.get(dropped)
        if stays is None:
            gone = dropped[0](g, *dropped[1:])
            stays = self._stays[dropped] = tuple(bytes(map(not_, map(d.__contains__, i))) for d, i in zip(gone, self.ids))
        return list(compress(edges, stays[0])), list(compress(nodes, stays[1]))

    def _piece(self, g: InstanceGraph, change: tuple) -> tuple[list, ...]:
        """The places and texts of what ``change`` changes, printed once from
        the columns its builder gives (ids first, each sorted); one equal to
        a piece before (edges moved alike under another cut) shares it."""
        piece = self._changed.get(change)
        if piece is None:
            edge_columns, node_columns = change[0](g, *change[1:])
            ids = (edge_columns[0], node_columns[0])
            places = (list(map(bisect_left, repeat(whole), part)) for whole, part in zip(self.ids, ids))
            texts = (list(_edge_texts(*edge_columns)), list(_node_texts(*node_columns)))
            piece = tuple(chain(*zip(places, texts)))
            piece = self._changed[change] = next((p for p in self._changed.values() if p == piece), piece)
        return piece


def _entries(g: InstanceGraph, edges: list[str], nodes: list[str]) -> tuple[Iterable[str], Iterable[str]]:
    """The texts of the entries of ``edges`` and ``nodes`` (sorted) of
    ``g``, printed in one pass per column."""
    keys = sorted(g.attrs)
    src, tgt, types = (list(map(column.__getitem__, edges)) for column in (g.graph.src, g.graph.tgt, g.edge_types))
    node_types, values = list(map(g.node_types.__getitem__, nodes)), list(map(g.attrs.__getitem__, keys))
    return _edge_texts(edges, src, tgt, types), _node_texts(nodes, node_types, keys, values)


def instancegraph_chunks(g: InstanceGraph) -> Iterator[str]:
    """Each column of a batch (ids, ends, types, attribute names and
    values) is printed in one pass, and each entry is its template filled
    from the columns. A variant whose record ``apply_deltas`` made for it
    takes the texts that its input's living :class:`Family` selects."""
    origin = vars(g).get("_origin")
    owner = None if origin is None else origin.input()
    family = None if owner is None else owner._parts.get((Family, ()))
    if family is not None:
        edges, nodes = family.selected(owner, *origin.delta)
        edge_entries, node_entries = edges.__getitem__, nodes.__getitem__
    else:
        edges = sorted(g.graph.edges)
        src, tgt = list(map(g.graph.src.__getitem__, edges)), list(map(g.graph.tgt.__getitem__, edges))
        nodes = sorted(g.graph.nodes)
        keys = sorted(g.attrs)
        owners = list(map(itemgetter(0), keys))

        def edge_entries(part: slice) -> Iterable[str]:
            return _edge_texts(edges[part], src[part], tgt[part], list(map(g.edge_types.__getitem__, edges[part])))

        def node_entries(part: slice) -> Iterable[str]:
            batch = nodes[part]
            # The attributes of the batch's nodes, which lead ``keys`` as the nodes lead ``nodes``.
            held = keys[bisect_left(owners, batch[0]) : bisect_right(owners, batch[-1])]
            types, values = list(map(g.node_types.__getitem__, batch)), list(map(g.attrs.__getitem__, held))
            return _node_texts(batch, types, held, values)

    yield '{\n    "edges": '
    yield from _batched(len(edges), edge_entries, _P4)
    yield ',\n    "nodes": '
    yield from _batched(len(nodes), node_entries, _P4)
    yield "\n  }"


# ---------------------------------------------------------------------------
# Feature configuration


def featureconfig_chunks(cfg: FeatureConfig) -> Iterator[str]:
    yield _canonical_json({"selected": sorted(cfg.selected)}, _P2)
