"""Product-line variability for the graph-based bigraph representation.

The fixed feature model spans one alternative (strong vs. weak typing)
and three optional explicit/indexed element groups (roots, sites, ports),
which the one table ``_GROUPS`` states. A 150% type graph superimposes
every variant behind presence conditions; deriving a configuration keeps
the elements whose condition holds and drops whatever then dangles.
Instance graphs are reconfigured by a fixed sequence of conditional
deltas applied to the canonical encoding.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Callable, Mapping

from ._value import field, frozen, replace
from .bigraph import BASE_NODE_TYPE_NAMES, Signature
from .metamodel import NotCanonical
from .report import Finding, ValidationReport, report_from
from .typedgraph import Graph, InstanceGraph, Multiplicity, TypeGraph, typed_edges

#: The option groups in delta order: each group's node type, the feature
#: that makes its elements explicit, and the feature that indexes them.
_GROUPS = (("BRoot", "ER", "RI"), ("BSite", "ES", "SI"), ("BPort", "EP", "PI"))

#: Selectable leaf features: the typing alternative and each group's
#: explicit/indexed pair. Structuring features of the model tree are
#: implied and never part of a configuration.
FEATURE_LEAVES = ("ST", "WT") + tuple(f for _, explicit, indexed in _GROUPS for f in (explicit, indexed))
_REQUIRES = tuple((indexed, explicit) for _, explicit, indexed in _GROUPS)

# Presence and delta conditions: a feature name, or ("not", feature). The
# groups' conditions come from _GROUPS; derivation drops what dangles.
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


def _delete_nodes(g: InstanceGraph, doomed: set[str]) -> InstanceGraph:
    """Remove nodes together with their incident edges."""
    keep_edges = {
        e
        for e in g.graph.edges
        if g.graph.src[e] not in doomed and g.graph.tgt[e] not in doomed
    }
    return InstanceGraph(
        graph=Graph(
            nodes=g.graph.nodes - doomed,
            edges=frozenset(keep_edges),
            src={e: g.graph.src[e] for e in keep_edges},
            tgt={e: g.graph.tgt[e] for e in keep_edges},
        ),
        node_types={n: t for n, t in g.node_types.items() if n not in doomed},
        edge_types={e: t for e, t in g.edge_types.items() if e in keep_edges},
        attrs={(n, a): v for (n, a), v in g.attrs.items() if n not in doomed},
    )


def _retype_controls(g: InstanceGraph, sig: Signature) -> InstanceGraph:
    controls = set(sig.names)
    ntypes = dict(g.node_types)
    attrs = dict(g.attrs)
    for n in sorted(g.graph.nodes):
        t = ntypes.get(n)
        if t in controls:
            ntypes[n] = "BNode"
            attrs[(n, "control")] = t
    return replace(g, node_types=ntypes, attrs=attrs)


def _unset_index(g: InstanceGraph, type_name: str) -> InstanceGraph:
    attrs = {
        (n, a): v
        for (n, a), v in g.attrs.items()
        if not (a == "index" and g.node_types.get(n) == type_name)
    }
    return replace(g, attrs=attrs)


def _delete_of_type(g: InstanceGraph, type_name: str) -> InstanceGraph:
    doomed = {n for n in g.graph.nodes if g.node_types.get(n) == type_name}
    return _delete_nodes(g, doomed) if doomed else g


def _implicit_ports(g: InstanceGraph, sig: Signature) -> InstanceGraph:
    """Rewire each port's link (and its opposite) to the owning node, then
    drop the port nodes with their ownership edges.

    Plain deletion would sever the link structure; rewiring keeps it on
    the owner, which is what the node-as-point variant represents.
    """
    ports = sorted(n for n in g.graph.nodes if g.node_types.get(n) == "BPort")
    if not ports:
        return g
    src = dict(g.graph.src)
    tgt = dict(g.graph.tgt)
    # Each relation is read from its own edges only. Rewiring moves the
    # bLink and bPoints edges, never the bNode ones, so ownership is read
    # once; a bLink edge moved onto a later port counts among its links.
    owned, linked = typed_edges(g, "bNode"), typed_edges(g, "bLink")
    ownership, owner_of = Counter(map(src.get, owned)), dict(zip(map(src.get, owned), map(tgt.get, owned)))
    link_count, link_of = Counter(map(src.get, linked)), dict(zip(map(src.get, linked), linked))
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
    # A bPoints edge at a port moves to its owner, and on from there when
    # the owner is a port rewired later, so each port's last stop is found
    # from the last port back.
    last_stop: dict[str, str] = {}
    for p in reversed(ports):
        last_stop[p] = last_stop.get(owner_of[p], owner_of[p])
    tgt.update({e: last_stop[tgt[e]] for e in typed_edges(g, "bPoints") if tgt[e] in last_stop})
    rewired = InstanceGraph(
        graph=Graph(nodes=g.graph.nodes, edges=g.graph.edges, src=src, tgt=tgt),
        node_types=g.node_types,
        edge_types=g.edge_types,
        attrs=g.attrs,
    )
    return _delete_nodes(rewired, set(ports))


@frozen
class Delta:
    """A conditional instance-graph patch."""

    name: str
    condition: Formula
    patch: Callable[[InstanceGraph, Signature], InstanceGraph]


#: Reconfiguration deltas in their fixed application order: retyping
#: first, then index removal before element removal per option group.
DELTAS: tuple[Delta, ...] = (
    Delta("weak-typing", "WT", _retype_controls),
    Delta("drop-root-indices", ("not", "RI"), lambda g, s: _unset_index(g, "BRoot")),
    Delta("drop-roots", ("not", "ER"), lambda g, s: _delete_of_type(g, "BRoot")),
    Delta("drop-site-indices", ("not", "SI"), lambda g, s: _unset_index(g, "BSite")),
    Delta("drop-sites", ("not", "ES"), lambda g, s: _delete_of_type(g, "BSite")),
    Delta("drop-port-indices", ("not", "PI"), lambda g, s: _unset_index(g, "BPort")),
    Delta("implicit-ports", ("not", "EP"), _implicit_ports),
)


def apply_deltas(g: InstanceGraph, cfg: FeatureConfig, sig: Signature) -> InstanceGraph:
    """Apply every delta whose condition holds, in the fixed order.

    Applying the same configuration twice is a no-op the second time, so
    already-configured graphs pass through unchanged. Raises
    ``NotCanonical`` on a graph with an edge that lacks a ``src`` or
    ``tgt``, naming the smallest such edge.
    """
    rep = validate_config(cfg)
    if not rep.ok:
        raise InvalidConfig(rep)
    lacking = g.graph.edges - (g.graph.src.keys() & g.graph.tgt.keys())
    if lacking:
        e = min(lacking)
        raise NotCanonical(f"edge {e} has no {'tgt' if e in g.graph.src else 'src'}")
    for delta in DELTAS:
        if eval_formula(delta.condition, cfg.selected):
            g = delta.patch(g, sig)
    return g
