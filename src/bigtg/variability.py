"""Product-line variability for the graph-based bigraph representation.

The fixed feature model spans one alternative (strong vs. weak typing)
and three optional explicit/indexed element groups (roots, sites, ports),
which the one table ``_GROUPS`` states. A 150% type graph superimposes
every variant behind presence conditions; deriving a configuration keeps
the elements whose condition holds and drops whatever then dangles.
Instance graphs are reconfigured in one pass over the canonical
encoding that reads the same table.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Mapping

from ._value import field, frozen, replace
from .bigraph import BASE_NODE_TYPE_NAMES, Signature
from .metamodel import NotCanonical
from .report import Finding, ValidationReport, report_from
from .typedgraph import Graph, InstanceGraph, Multiplicity, TypeGraph, _grouped, _stand_in

#: The option groups in reconfiguration order: each group's node type, the
#: feature that makes its elements explicit, and the feature that indexes
#: them.
_GROUPS = (("BRoot", "ER", "RI"), ("BSite", "ES", "SI"), ("BPort", "EP", "PI"))

#: Selectable leaf features: the typing alternative and each group's
#: explicit/indexed pair. Structuring features of the model tree are
#: implied and never part of a configuration.
FEATURE_LEAVES = ("ST", "WT") + tuple(f for _, explicit, indexed in _GROUPS for f in (explicit, indexed))
_REQUIRES = tuple((indexed, explicit) for _, explicit, indexed in _GROUPS)

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
    """
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
    return AnnotatedTypeGraph(base, ann, overrides)


def derive_type_graph(atg: AnnotatedTypeGraph, cfg: FeatureConfig) -> TypeGraph:
    """Resolve the variability: keep unannotated elements and those whose
    presence condition evaluates to true, dropping anything dangling. An
    edge type is kept when every end it has is a kept node type; a missing
    end or bound is carried over as missing (``check_type_graph`` reports
    it), unless a bound override is in force."""
    rep = validate_config(cfg)
    if not rep.ok:
        raise InvalidConfig(rep)
    sel = cfg.selected

    def keep(key: tuple) -> bool:
        ann = atg.annotations.get(key)
        return ann is None or eval_formula(ann, sel)

    base = atg.base
    src, tgt = base.graph.src, base.graph.tgt
    nodes = {t for t in base.graph.nodes if keep(("node", t))}
    edges = {
        e
        for e in base.graph.edges
        if keep(("edge", e)) and all(ends[e] in nodes for ends in (src, tgt) if e in ends)
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
    return TypeGraph(
        graph=Graph(
            nodes=frozenset(nodes),
            edges=frozenset(edges),
            src={e: src[e] for e in edges if e in src},
            tgt={e: tgt[e] for e in edges if e in tgt},
        ),
        inherits=frozenset(inherits),
        abstracts=base.abstracts & nodes,
        containments=base.containments & edges,
        opposites=frozenset((a, b) for a, b in base.opposites if a in edges and b in edges),
        mult=mult,
        attr_decls=attr_decls,
    )


def apply_deltas(g: InstanceGraph, cfg: FeatureConfig, sig: Signature) -> InstanceGraph:
    """Reconfigure a canonical encoding for ``cfg`` in one pass read off
    ``_GROUPS``. The steps, in order:

    1. Under ``WT``, each node typed by a control is retyped ``BNode`` and
       given a ``control`` attribute naming the control.
    2. For each group whose index feature is off, the ``index`` attributes
       of the group's nodes go, by each node's type after step 1.
    3. For each group whose explicit feature is off, the group's nodes go
       with their incident edges. Without ``EP``, each port's ``bLink``
       edge first moves to the port's owner, and each ``bPoints`` edge at
       a port moves on to where that owner ends up; this reads only the
       edges that touch no deleted root or site.
    4. The nodes, edges, ends, node and edge types and attributes are
       built once each.

    Under ``ST`` with every explicit and index feature selected, no step
    applies and ``g`` itself is returned. When nothing is deleted, the
    edges, their ends and their types are kept as they are.
    Applying the same configuration twice is a no-op the second time, so
    already-configured graphs pass through unchanged. Raises
    ``NotCanonical`` on a graph with an edge that lacks a ``src`` or
    ``tgt``, naming the smallest such edge, and on a port without exactly
    one ownership edge or one link edge.
    """
    rep = validate_config(cfg)
    if not rep.ok:
        raise InvalidConfig(rep)
    src, tgt = g.graph.src, g.graph.tgt
    lacking = g.graph.edges - (src.keys() & tgt.keys())
    if lacking:
        e = min(lacking)
        raise NotCanonical(f"edge {e} has no {'tgt' if e in src else 'src'}")
    sel = cfg.selected
    types, attrs = g.node_types, g.attrs
    if "WT" in sel:
        controls = set(sig.names)
        try:
            retyped = {n: t for n, t in types.items() if n in g.graph.nodes and t in controls}
        except TypeError:  # a node type that cannot be hashed is no control
            retyped = {n: t for n, t in types.items() if n in g.graph.nodes and t in sig.names}
        types = {**types, **dict.fromkeys(retyped, "BNode")}
        attrs = {**attrs, **{(n, "control"): t for n, t in retyped.items()}}
    # Membership in a tuple compares with ==, so a node type that cannot
    # be hashed is simply no group's type.
    unindexed = tuple(node_type for node_type, _, indexed in _GROUPS if indexed not in sel)
    dropped = tuple(node_type for node_type, explicit, _ in _GROUPS if explicit not in sel)
    doomed = {n for n in g.graph.nodes if types.get(n) in dropped}
    ports = sorted(n for n in doomed if types.get(n) == "BPort")
    if ports:
        # Rewire each port's link (and its opposite) to the owning node
        # before the ports go: plain deletion would sever the link
        # structure, and the node-as-point variant keeps it on the owner.
        # Only the edges that touch no deleted root or site are read.
        # Rewiring moves the bLink and bPoints edges, never the bNode ones,
        # so ownership is read once; a bLink edge moved onto a later port
        # counts among its links.
        gone = doomed.difference(ports)
        live = [e for e in g.graph.edges if src[e] not in gone and tgt[e] not in gone] if gone else list(g.graph.edges)
        types_of = list(map(g.edge_types.get, live))
        try:
            of_type = _grouped(types_of, live)
        except TypeError:  # an edge type that cannot be hashed is none of the three read here
            of_type = _grouped(list(map(_stand_in, types_of)), live)
        owned, linked = of_type.get("bNode", []), of_type.get("bLink", [])
        ownership, owner_of = Counter(map(src.get, owned)), dict(zip(map(src.get, owned), map(tgt.get, owned)))
        link_count, link_of = Counter(map(src.get, linked)), dict(zip(map(src.get, linked), linked))
        src, tgt = dict(src), dict(tgt)
        moved_links: dict[str, list[str]] = {}
        for p in ports:
            count = ownership.get(p, 0)
            if count != 1:
                raise NotCanonical(f"port {p} has {count} ownership edges; cannot rewire")
            moved = moved_links.pop(p, [])
            count = len(moved) + link_count.get(p, 0)
            if count != 1:
                raise NotCanonical(f"port {p} has {count} link edges; cannot rewire")
            link = moved[0] if moved else link_of[p]
            src[link] = owner_of[p]
            moved_links.setdefault(owner_of[p], []).append(link)
        # A bPoints edge at a port moves to its owner, and on from there
        # when the owner is a port rewired later, so each port's last stop
        # is found from the last port back.
        last_stop: dict[str, str] = {}
        for p in reversed(ports):
            last_stop[p] = last_stop.get(owner_of[p], owner_of[p])
        tgt.update({e: last_stop[tgt[e]] for e in of_type.get("bPoints", ()) if tgt[e] in last_stop})
    if unindexed or doomed:
        attrs = {
            (n, a): v
            for (n, a), v in attrs.items()
            if n not in doomed and (a != "index" or types.get(n) not in unindexed)
        }
    if not doomed:
        return g if types is g.node_types and attrs is g.attrs else replace(g, node_types=types, attrs=attrs)
    kept = frozenset(e for e in g.graph.edges if src[e] not in doomed and tgt[e] not in doomed)
    return InstanceGraph(
        graph=Graph(
            nodes=g.graph.nodes - doomed,
            edges=kept,
            src={e: src[e] for e in kept},
            tgt={e: tgt[e] for e in kept},
        ),
        node_types={n: t for n, t in types.items() if n not in doomed},
        edge_types={e: t for e, t in g.edge_types.items() if e in kept},
        attrs=attrs,
    )

