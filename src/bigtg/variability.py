"""Product-line variability for the graph-based bigraph representation.

The fixed feature model spans one alternative (strong vs. weak typing)
and three optional explicit/indexed element groups (roots, sites, ports),
which the one table ``_GROUPS`` states. A 150% type graph superimposes
every variant behind presence conditions; deriving a configuration keeps
the elements whose condition holds and drops whatever then dangles.
Instance graphs are reconfigured from parts of the canonical encoding,
read off the same table and kept on it, which every configuration of
that encoding shares; so is the verdict of the encoding's own checks,
which each variant made from the second reconfiguration on is born with:
the kept reports of its checks against its derived type graph.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from collections.abc import Callable, Hashable, Iterable, Mapping
from itertools import compress, repeat
from operator import eq, itemgetter
from weakref import ref

from ._value import field, frozen, replace
from .bigraph import BASE_NODE_TYPE_NAMES, ReservedControlName, Signature
from .metamodel import NotCanonical, conformance, extend_for_signature
from .report import Finding, ValidationReport, report_from
from .typedgraph import _FAMILY_CHECKERS, Graph, InstanceGraph, Multiplicity, TypeGraph, _grouped

TYPE_CHECKING = False  # read as true by static type checkers only
if TYPE_CHECKING:
    from typing import Any

#: The option groups in reconfiguration order: each group's node type, the
#: feature that makes its elements explicit, and the feature that indexes
#: them.
_GROUPS = (("BRoot", "ER", "RI"), ("BSite", "ES", "SI"), ("BPort", "EP", "PI"))

#: Selectable leaf features: the typing alternative and each group's
#: explicit/indexed pair. Structuring features of the model tree are
#: implied and never part of a configuration.
FEATURE_LEAVES = ("ST", "WT") + tuple(f for _, explicit, indexed in _GROUPS for f in (explicit, indexed))
_REQUIRES = tuple((indexed, explicit) for _, explicit, indexed in _GROUPS)

#: Each group's bit in the masks that name a set of groups.
_BIT = {node_type: 1 << i for i, (node_type, _, _) in enumerate(_GROUPS)}

# Presence conditions: a feature name, or ("not", feature). The groups'
# conditions come from _GROUPS; derivation drops what dangles.
Formula = str | tuple[str, str]


class InvalidConfig(Exception):
    def __init__(self, report: ValidationReport):
        super().__init__("invalid feature configuration: " + "; ".join(f.message for f in report.findings))
        self.report = report


def eval_formula(formula: Formula, selected: frozenset[str] | set[str]) -> bool:
    if isinstance(formula, str):
        return formula in selected
    op, feature = formula
    if op != "not":
        raise ValueError(f"unknown connective {op!r}")
    return feature not in selected


@frozen
class FeatureConfig:
    """A set of selected leaf features."""

    selected: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "selected", frozenset(self.selected))

    @classmethod
    def canonical(cls) -> "FeatureConfig":
        return cls(frozenset(FEATURE_LEAVES) - {"WT"})

    def ordered(self) -> tuple[str, ...]:
        return tuple(f for f in FEATURE_LEAVES if f in self.selected)


def validate_config(cfg: FeatureConfig) -> ValidationReport:
    """Check a configuration against the fixed feature model."""
    findings: list[Finding] = []
    for f in sorted(cfg.selected - set(FEATURE_LEAVES)):
        findings.append(Finding("cfg-unknown-feature", f, f"unknown feature {f!r}"))
    chosen = cfg.selected & {"ST", "WT"}
    if len(chosen) != 1:
        findings.append(
            Finding("cfg-alternative", "ST|WT", "alternative group requires exactly one of ST, WT")
        )
    for dependent, required in _REQUIRES:
        if dependent in cfg.selected and required not in cfg.selected:
            findings.append(Finding("cfg-requires", dependent, f"{dependent} requires {required}"))
    return report_from(findings)


def enumerate_configs() -> list[FeatureConfig]:
    """All valid configurations: the typing alternative varies slowest,
    then each group in table order through none, explicit, and both."""
    options = [((), (explicit,), (explicit, indexed)) for _, explicit, indexed in _GROUPS]
    return [
        FeatureConfig(frozenset(itertools.chain((typing,), *picks)))
        for typing in ("ST", "WT")
        for picks in itertools.product(*options)
    ]


@frozen
class AnnotatedTypeGraph:
    """A 150% type graph: the superimposition of all variants, with
    presence conditions keyed ``("node", t)``, ``("edge", e)``,
    ``("inherits", sub, sup)`` or ``("attr", t, a)``."""

    base: TypeGraph
    annotations: Mapping[tuple, Formula] = field(default_factory=dict)
    mult_overrides: Mapping[str, tuple[Formula, Multiplicity]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "annotations", dict(self.annotations))
        object.__setattr__(self, "mult_overrides", dict(self.mult_overrides))


def annotate_150(tg_sigma: TypeGraph) -> AnnotatedTypeGraph:
    """Superimpose all representation variants over a signature type graph.

    Adds the weakly-typed control attribute and the direct node-to-link
    subtyping used when ports are implicit. Presence conditions go only
    where derivation cannot infer them: on node types, attributes, and the
    node-as-point subtyping ``(BNode, BPoint)``. Edge types and inheritance
    pairs follow their node types, as derivation drops what dangles.

    Built once per ``tg_sigma`` object and kept on it, so the type graph
    that :func:`bigtg.metamodel.extend_for_signature` keeps per set of
    control names carries one 150% type graph, whose dicts must not be
    mutated. A copy of ``tg_sigma`` keeps none.
    """
    kept = vars(tg_sigma).get("_150")
    if kept is not None:
        return kept
    controls = sorted(set(tg_sigma.graph.nodes) - set(BASE_NODE_TYPE_NAMES))

    attr_decls = {t: dict(a) for t, a in tg_sigma.attr_decls.items()}
    attr_decls.setdefault("BNode", {})["control"] = "string"
    base = replace(
        tg_sigma,
        inherits=tg_sigma.inherits | {("BNode", "BPoint")},
        attr_decls=attr_decls,
    )

    ann: dict[tuple, Formula] = {("node", c): "ST" for c in controls}
    ann["attr", "BNode", "control"] = "WT"
    ann["inherits", "BNode", "BPoint"] = ("not", "EP")
    for node_type, explicit, indexed in _GROUPS:
        ann["node", node_type] = explicit
        ann["attr", node_type, "index"] = indexed

    # Without explicit ports a node carries as many links as its arity,
    # so the exactly-one bound on outgoing links cannot stay.
    overrides = {"bLink": (("not", "EP"), Multiplicity(0, None))}
    kept = vars(tg_sigma)["_150"] = AnnotatedTypeGraph(base, ann, overrides)
    return kept


def derive_type_graph(atg: AnnotatedTypeGraph, cfg: FeatureConfig) -> TypeGraph:
    """Resolve the variability: keep unannotated elements and those whose
    presence condition evaluates to true, dropping anything dangling. An
    edge type is kept when both its ends are kept node types; a missing
    bound is carried over as missing (``check_type_graph`` reports it),
    unless a bound override is in force.

    Each derived type graph is kept on ``atg``, one per ``cfg.selected``,
    so every call for equal selections returns one object, whose dicts
    must not be mutated; a copy of ``atg`` keeps none. Only valid
    configurations are kept, so ``InvalidConfig`` is raised on every call
    for an invalid one."""
    derived = vars(atg).setdefault("_derived", {})
    sel = cfg.selected
    tg = derived.get(sel)
    if tg is not None:
        return tg
    rep = validate_config(cfg)
    if not rep.ok:
        raise InvalidConfig(rep)

    def keep(key: tuple) -> bool:
        ann = atg.annotations.get(key)
        return ann is None or eval_formula(ann, sel)

    base = atg.base
    src, tgt = base.graph.src, base.graph.tgt
    nodes = {t for t in base.graph.nodes if keep(("node", t))}
    edges = {
        e
        for e in base.graph.edges
        if keep(("edge", e)) and src[e] in nodes and tgt[e] in nodes
    }
    inherits = {
        (sub, sup)
        for sub, sup in base.inherits
        if keep(("inherits", sub, sup)) and sub in nodes and sup in nodes
    }
    mult: dict[str, Multiplicity] = {}
    for e in edges:
        override = atg.mult_overrides.get(e)
        if override is not None and eval_formula(override[0], sel):
            mult[e] = override[1]
        elif e in base.mult:
            mult[e] = base.mult[e]
    attr_decls: dict[str, dict[str, str]] = {}
    for t in nodes:
        kept = {
            a: dt for a, dt in base.attr_decls.get(t, {}).items() if keep(("attr", t, a))
        }
        if kept:
            attr_decls[t] = kept
    tg = derived[sel] = TypeGraph(
        graph=Graph(
            nodes=frozenset(nodes),
            edges=frozenset(edges),
            src={e: src[e] for e in edges},
            tgt={e: tgt[e] for e in edges},
        ),
        inherits=frozenset(inherits),
        abstracts=base.abstracts & nodes,
        containments=base.containments & edges,
        opposites=frozenset((a, b) for a, b in base.opposites if a in edges and b in edges),
        mult=mult,
        attr_decls=attr_decls,
    )
    return tg


def apply_deltas(g: InstanceGraph, cfg: FeatureConfig, sig: Signature) -> InstanceGraph:
    """Reconfigure a canonical encoding for ``cfg`` from parts of ``g``
    read off ``_GROUPS``. The steps, in order:

    1. Under ``WT``, each node typed by a control is retyped ``BNode`` and
       given a ``control`` attribute naming the control.
    2. For each group whose index feature is off, the ``index`` attributes
       of the group's nodes go, by each node's type after step 1.
    3. For each group whose explicit feature is off, the group's nodes go
       with their incident edges. Without ``EP``, each port's ``bLink``
       edge first moves to the port's owner, and each ``bPoints`` edge at
       a port moves on to where that owner ends up; this reads only the
       edges that touch no deleted root or site.

    Cost: the parts that the steps read are built the first time a
    configuration needs them and kept on ``g`` (``g._parts``), so
    reconfiguring one graph many ways builds each once: the nodes of each
    group and their attribute keys, the ``index`` keys of each group's
    type, the edges by the groups they touch with their ends and types,
    the retyping for each set of controls, and the port rewiring, with
    its ``NotCanonical`` reason, for each set of deleted roots and sites.
    Each configuration then takes C-level set unions and dict merges of
    the parts it keeps, and dict copies with the dropped keys deleted:
    no Python-level pass over the nodes, edges or attributes. The steps
    build no edge view of ``g`` (its check below does). The new graph's
    edge set and edge dicts hold the same entries as before, in another
    iteration order; it takes those dicts without a copy, and shares with
    ``g`` the ones that no step changes. Each graph returned, ``g`` itself included, records
    what the steps did unless it has a record (``_origin``, an
    :class:`_Origin`): ``g``, by weak reference, and the pieces the steps
    changed (the retyping for a set of controls, a group's lost
    ``index``, a port rewiring) and the groups they dropped.

    From the second reconfiguration of ``g`` on, the graphs returned are
    a family. ``g._parts`` then holds a :class:`bigtg.writers.Family`,
    which prints each entry of ``g`` and each entry that a piece changes
    once while ``g`` lives, so a variant's save selects its text from
    these; a graph reconfigured once, and a variant kept without ``g``,
    keep no printed text. And ``g`` is checked, once per set of control
    names, by ``conformance(g, extend_for_signature(sig))``, kept in
    ``g._parts``: without the arity rule, which dropping ports breaks on
    purpose. When it passes, each graph returned is born with that
    verdict: the kept reports of ``check_typing``, ``check_validity`` and
    ``check_multiplicities`` against its derived type graph are empty
    (:func:`bigtg.typedgraph.keeps_report`), which the type safety of
    delta-oriented product lines warrants (Bettini, Damiani & Schaefer
    2013). The first reconfiguration only marks ``g`` as reconfigured
    (:func:`_reconfigured`): it runs no check and makes no family.

    When no step changes anything, ``g`` itself is returned; when nothing
    is deleted, the edges, their ends and their types are kept as they
    are. Applying the same configuration twice is a no-op the second
    time, so already-configured graphs pass through unchanged. Raises
    ``NotCanonical`` on a port without exactly one ownership edge or one
    link edge. A graph's ``src`` and ``tgt`` are total, so every edge has
    both ends to rewire or drop.
    """
    rep = validate_config(cfg)
    if not rep.ok:
        raise InvalidConfig(rep)
    family = (_reconfigured, ()) in g._parts  # reconfigured before: its variants are a family
    if family:
        from .writers import Family

        _kept(g, Family)
    _kept(g, _reconfigured)
    verdict = _verdict(g, sig) if family and isinstance(sig, Signature) else None
    sel = cfg.selected
    types, attrs, controls = g.node_types, g.attrs, frozenset()
    changes: list[tuple[Callable[..., InstanceGraph], Hashable]] = []
    if "WT" in sel:
        controls = frozenset(sig.names)
        retyped, control_attrs = _kept(g, _retyped, controls)
        if retyped:
            types, attrs = {**types, **retyped}, {**attrs, **control_attrs}
            changes.append((_retyped_entries, controls))
    gone_keys: set[tuple[str, str]] = set()
    dropped: dict[str, frozenset[str]] = {}
    for node_type, explicit, indexed in _GROUPS:
        if indexed in sel:
            continue
        nodes, keys, index = _kept(g, _group, node_type)
        if node_type in controls:  # every node of the type was retyped BNode in step 1
            gone_keys.update(index.difference(keys))
            continue
        gone_keys.update(index)
        if explicit not in sel:
            gone_keys.update(keys)
            dropped[node_type] = nodes
        elif index:
            changes.append((_indexless_entries, node_type))
    if gone_keys:
        attrs = _without(attrs, gone_keys)
    doomed = frozenset().union(*dropped.values())
    if not doomed:
        h = g if types is g.node_types and attrs is g.attrs else InstanceGraph._adopt(g.graph, types, g.edge_types, attrs)
        return _recorded(h, g, cfg, verdict, None, changes)
    cut = sum(map(_BIT.__getitem__, dropped))
    kept = [_kept(g, _ends, touched) for touched in _kept(g, _touching) if not touched & cut]
    src, tgt, edge_types = (_merged(map(itemgetter(i), kept)) for i in range(3))
    if dropped.get("BPort"):
        reason, rewired = _kept(g, _rewired, cut & ~_BIT["BPort"])
        if reason:
            raise NotCanonical(reason)
        moved, *columns = rewired
        for ends, column in zip((src, tgt, edge_types), columns):
            ends.update(zip(moved, column))
        changes.append((_moved_entries, cut & ~_BIT["BPort"]))
    graph = Graph._adopt(g.graph.nodes - doomed, frozenset(src), src, tgt)
    h = InstanceGraph._adopt(graph, _without(types, doomed), edge_types, attrs)
    return _recorded(h, g, cfg, verdict, (_dropped, cut), changes)


def _recorded(
    h: InstanceGraph,
    g: InstanceGraph,
    cfg: FeatureConfig,
    verdict: AnnotatedTypeGraph | None,
    dropped: tuple | None,
    changes: list,
) -> InstanceGraph:
    """``h``, which records ``_Origin(g, (dropped, changes))`` unless it has
    a record; given the family's ``verdict``, the slots of the three
    checkers on ``h`` hold an empty report for its derived type graph."""
    vars(h).setdefault("_origin", _Origin(g, (dropped, tuple(changes))))
    if verdict is not None:
        passed = ((derive_type_graph(verdict, cfg),), ValidationReport())
        h._parts.update(zip(_FAMILY_CHECKERS, repeat(passed)))
    return h


class _Origin:
    """What the steps of :func:`apply_deltas` did to make a graph, for the
    writer (:class:`bigtg.writers.Family`): its input ``g``, by weak
    reference (``g`` itself when no step changed it), whose parts hold
    what the family shares; and ``delta``: what it drops, a builder and
    the mask of dropped groups, or None, and its changes, each a builder
    and its key, which give the entries that a piece of the steps changes
    as they are after it. Only :func:`apply_deltas` makes one, and a copy
    of a graph does not carry it."""

    __slots__ = ("input", "delta")

    def __init__(self, g: InstanceGraph, delta: tuple) -> None:
        self.input, self.delta = ref(g), delta


def _verdict(g: InstanceGraph, sig: Signature) -> AnnotatedTypeGraph | None:
    """The 150% type graph over ``extend_for_signature(sig)`` when ``g``
    passes ``conformance`` to it, or None, also when
    ``extend_for_signature`` refuses ``sig``. No step reads more of
    ``sig`` than its control names, so ``g`` is checked once per set of
    them, and the verdict kept in ``g._parts``."""
    parts, key = g._parts, (_verdict, frozenset(sig.names))
    if key not in parts:
        try:
            tg = extend_for_signature(sig)
        except ReservedControlName:
            tg = None
        parts[key] = annotate_150(tg) if tg is not None and conformance(g, tg).ok else None
    return parts[key]


# The parts of an instance graph that ``apply_deltas`` reads. Each is
# built from ``g`` and the key after it, once, and kept on ``g``.


def _kept(g: InstanceGraph, make: Callable[..., Any], *key: Hashable) -> Any:
    """``make(g, *key)``, built on first use and kept on ``g``."""
    parts = g._parts
    try:
        return parts[make, key]
    except KeyError:
        part = parts[make, key] = make(g, *key)
        return part


def _reconfigured(g: InstanceGraph) -> bool:
    """The mark of a graph that :func:`apply_deltas` has reconfigured
    before, kept on it, so that the graphs it makes of ``g`` from then on
    are a family."""
    return True


def _merged(dicts: Iterable[dict[str, str]]) -> dict[str, str]:
    """One dict of the entries of ``dicts``, whose keys are disjoint."""
    merged: dict[str, str] = {}
    deque(map(merged.update, dicts), 0)
    return merged


def _without(d: Mapping[Any, Any], keys: Iterable[Any]) -> dict[Any, Any]:
    """A copy of ``d`` in its order, without ``keys``."""
    d = dict(d)
    deque(map(d.pop, keys, repeat(None)), 0)
    return d


def _retyped(g: InstanceGraph, controls: frozenset[str]) -> tuple[dict[str, str], dict[tuple[str, str], str]]:
    """Each node typed by one of ``controls`` mapped to ``BNode``, and its
    ``control`` attribute, in the order of ``g.node_types``."""
    retyped = {n: t for n, t in g.node_types.items() if t in controls}
    return dict.fromkeys(retyped, "BNode"), dict(zip(zip(retyped, repeat("control")), retyped.values()))


def _group(g: InstanceGraph, node_type: str) -> tuple[frozenset[str], frozenset[tuple[str, str]], set[tuple[str, str]]]:
    """The nodes of ``node_type``, the keys of ``g.attrs`` they own, and
    the ``index`` keys among those."""
    types, attrs = g.node_types, g.attrs
    nodes = frozenset(compress(types, map(eq, types.values(), repeat(node_type))))
    keys = frozenset(compress(attrs, map(nodes.__contains__, map(itemgetter(0), attrs))))
    return nodes, keys, attrs.keys() & set(zip(nodes, repeat("index")))


def _touching(g: InstanceGraph) -> dict[int, list[str]]:
    """The edges by the groups they have an end among: a mask with the
    ``_BIT`` of each such group."""
    bits: dict[str, int] = {}
    for node_type, mask in _BIT.items():
        bits.update(dict.fromkeys(_kept(g, _group, node_type)[0], mask))
    src, tgt, bit = g.graph.src, g.graph.tgt, bits.get
    # src's order (the file's) reads the dicts in turn, and the kept dicts
    # and the variants built from them inherit it; the hash order of the
    # edge set scatters every later read. The keys of src are the edges.
    edges = list(src)
    return _grouped([bit(src[e], 0) | bit(tgt[e], 0) for e in edges], edges)


def _ends(g: InstanceGraph, touched: int) -> tuple[dict[str, str], dict[str, str], dict[str, str]]:
    """The ``src``, ``tgt`` and type of each edge that touches the groups
    in the mask ``touched`` (:func:`_touching`)."""
    edges = _kept(g, _touching)[touched]
    columns = (g.graph.src, g.graph.tgt, g.edge_types)
    return tuple(dict(zip(edges, map(column.__getitem__, edges))) for column in columns)


def _rewired(g: InstanceGraph, gone: int) -> tuple[str | None, tuple[list[str], ...]]:
    """The port rewiring when the groups in the mask ``gone`` go with the
    ports: why a port cannot be rewired, or else the moved edges that keep
    both ends, with their new ``src``, ``tgt`` and their types.

    Each port's link (and its opposite) moves to the owning node before
    the ports go: plain deletion would sever the link structure, and the
    node-as-point variant keeps it on the owner. Only the edges that touch
    no node of ``gone`` are read. Rewiring moves the bLink and bPoints
    edges, never the bNode ones, so ownership is read once; a bLink edge
    moved onto a later port counts among its links. A port's own edges
    touch it, so only the edges that touch a port are grouped by type."""
    ports = sorted(_kept(g, _group, "BPort")[0])
    port = _BIT["BPort"]
    live = [e for touched, edges in _kept(g, _touching).items() if touched & port and not touched & gone for e in edges]
    of_type = _grouped(list(map(g.edge_types.get, live)), live)
    owned, linked, pointing = (of_type.get(t, []) for t in ("bNode", "bLink", "bPoints"))
    src, tgt = g.graph.src, g.graph.tgt
    ownership, owner_of = Counter(map(src.get, owned)), dict(zip(map(src.get, owned), map(tgt.get, owned)))
    link_count, link_of = Counter(map(src.get, linked)), dict(zip(map(src.get, linked), linked))
    moved_src: dict[str, str] = {}
    moved_links: dict[str, list[str]] = {}
    for p in ports:
        count = ownership.get(p, 0)
        if count != 1:
            return f"port {p} has {count} ownership edges; cannot rewire", ()
        links = moved_links.pop(p, ())
        count = len(links) + link_count.get(p, 0)
        if count != 1:
            return f"port {p} has {count} link edges; cannot rewire", ()
        link = links[0] if links else link_of[p]
        moved_src[link] = owner_of[p]
        moved_links.setdefault(owner_of[p], []).append(link)
    # A bPoints edge at a port moves to its owner, and on from there when
    # the owner is a port rewired later, so each port's last stop is found
    # from the last port back.
    last_stop: dict[str, str] = {}
    for p in reversed(ports):
        last_stop[p] = last_stop.get(owner_of[p], owner_of[p])
    moved_tgt = {e: last_stop[tgt[e]] for e in pointing if tgt[e] in last_stop}
    # The moved edges that keep both ends.
    doomed = set(ports).union(*(_kept(g, _group, t)[0] for t, bit in _BIT.items() if bit & gone))
    kept = [e for e, s in moved_src.items() if s not in doomed and tgt[e] not in doomed]
    kept += [e for e, t in moved_tgt.items() if t not in doomed and src[e] not in doomed]
    return None, (
        kept,
        list(map(moved_src.get, kept, map(src.__getitem__, kept))),
        list(map(moved_tgt.get, kept, map(tgt.__getitem__, kept))),
        list(map(g.edge_types.__getitem__, kept)),
    )


# What a piece of the steps changes, as the writer prints it
# (:class:`bigtg.writers.Family`): the printers' columns of its edges and
# of its nodes, each sorted by id, built from the kept parts of ``g``.

#: The columns of no entries: ids and three more.
_NONE = ((), (), (), ())


def _retyped_entries(g: InstanceGraph, controls: frozenset[str]) -> tuple[tuple, tuple]:
    """The nodes that weak typing under ``controls`` retypes, as step 1
    leaves them: each id and type, and their attributes' sorted keys and
    values."""
    retyped, control_attrs = _kept(g, _retyped, controls)
    owned = compress(g.attrs.items(), map(retyped.__contains__, map(itemgetter(0), g.attrs)))
    attrs = dict(sorted({**dict(owned), **control_attrs}.items()))
    nodes = sorted(retyped)
    return _NONE, (nodes, list(map(retyped.__getitem__, nodes)), list(attrs), list(attrs.values()))


def _indexless_entries(g: InstanceGraph, node_type: str) -> tuple[tuple, tuple]:
    """The nodes of ``node_type`` that own an ``index`` attribute, as step
    2 leaves them when the group stays without its index feature."""
    _, keys, index = _kept(g, _group, node_type)
    owners = set(map(itemgetter(0), index))
    held = sorted(key for key in keys - index if key[0] in owners)
    return _NONE, (sorted(owners), [node_type] * len(owners), held, list(map(g.attrs.__getitem__, held)))


def _moved_entries(g: InstanceGraph, gone: int) -> tuple[tuple, tuple]:
    """The edges that the port rewiring moves and keeps when the groups in
    the mask ``gone`` go with the ports: each id, new ends and type."""
    rows = sorted(zip(*_kept(g, _rewired, gone)[1]))
    return (tuple(map(list, zip(*rows))) or _NONE), _NONE


def _dropped(g: InstanceGraph, cut: int) -> tuple[set[str], frozenset[str]]:
    """The edges and the nodes of ``g`` that step 3 drops when the groups
    in the mask ``cut`` go: those groups' nodes, and the edges that touch
    them, but for the moved edges that the port rewiring keeps."""
    nodes = frozenset().union(*(_kept(g, _group, t)[0] for t, bit in _BIT.items() if bit & cut))
    edges = set().union(*(edges for touched, edges in _kept(g, _touching).items() if touched & cut))
    if cut & _BIT["BPort"]:
        edges.difference_update(_kept(g, _rewired, cut & ~_BIT["BPort"])[1][0])
    return edges, nodes
