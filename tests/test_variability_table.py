"""The feature model and the 150% type graph, which read the option
groups from one table, against verbatim copies of the code as it was
when each statement wrote the groups out on its own.

The references below are those copies, renamed with a ``ref_`` prefix,
and the key helpers they call, under their own names. The feature
leaves, the requires edges, the enumeration order and the canonical
configuration must be equal. For every configuration, on the printer
signature and on random signatures, the derived type graph must be equal
and print byte-identical canonical text. The annotations the references
carry and ``annotate_150`` lacks must be exactly those on edge types and
inheritance pairs that dangle once their node type is dropped.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from bigtg import extend_for_signature, fileio, make_signature, replace
from bigtg.bigraph import BASE_NODE_TYPE_NAMES
from bigtg.typedgraph import Graph, Multiplicity, TypeGraph
from bigtg.variability import (
    _REQUIRES,
    FEATURE_LEAVES,
    AnnotatedTypeGraph,
    FeatureConfig,
    InvalidConfig,
    annotate_150,
    derive_type_graph,
    enumerate_configs,
    eval_formula,
    validate_config,
)

REF_FEATURE_LEAVES = ("ST", "WT", "ER", "RI", "ES", "SI", "EP", "PI")
REF_REQUIRES = (("RI", "ER"), ("SI", "ES"), ("PI", "EP"))


def ref_eval_formula(formula, selected) -> bool:
    if isinstance(formula, str):
        return formula in selected
    op, *args = formula
    if op == "not":
        return not ref_eval_formula(args[0], selected)
    if op == "and":
        return all(ref_eval_formula(a, selected) for a in args)
    if op == "or":
        return any(ref_eval_formula(a, selected) for a in args)
    if op == "implies":
        return (not ref_eval_formula(args[0], selected)) or ref_eval_formula(args[1], selected)
    raise ValueError(f"unknown connective {op!r}")


def ref_canonical() -> FeatureConfig:
    return FeatureConfig(frozenset({"ST", "ER", "RI", "ES", "SI", "EP", "PI"}))


def ref_enumerate_configs() -> list[FeatureConfig]:
    """All valid configurations in a fixed, deterministic order."""
    out: list[FeatureConfig] = []
    for typing in ("ST", "WT"):
        for roots in ((), ("ER",), ("ER", "RI")):
            for sites in ((), ("ES",), ("ES", "SI")):
                for ports in ((), ("EP",), ("EP", "PI")):
                    out.append(FeatureConfig(frozenset((typing,) + roots + sites + ports)))
    return out


# Keys into the annotation table of a 150% type graph.
def node_key(t: str) -> tuple:
    return ("node", t)


def edge_key(e: str) -> tuple:
    return ("edge", e)


def inherits_key(sub: str, sup: str) -> tuple:
    return ("inherits", sub, sup)


def attr_key(t: str, a: str) -> tuple:
    return ("attr", t, a)


def ref_annotate_150(tg_sigma: TypeGraph) -> AnnotatedTypeGraph:
    """Superimpose all representation variants over a signature type graph.

    Adds the weakly-typed control attribute and the direct node-to-link
    subtyping used when ports are implicit, then annotates every variable
    element with its presence condition.
    """
    controls = sorted(set(tg_sigma.graph.nodes) - set(BASE_NODE_TYPE_NAMES))

    attr_decls = {t: dict(a) for t, a in tg_sigma.attr_decls.items()}
    attr_decls.setdefault("BNode", {})["control"] = "string"
    base = replace(
        tg_sigma,
        inherits=tg_sigma.inherits | {("BNode", "BPoint")},
        attr_decls=attr_decls,
    )

    ann: dict[tuple, object] = {attr_key("BNode", "control"): "WT"}
    for c in controls:
        ann[node_key(c)] = "ST"
        ann[inherits_key(c, "BNode")] = "ST"
    ann[node_key("BRoot")] = "ER"
    ann[inherits_key("BRoot", "BPlace")] = "ER"
    ann[attr_key("BRoot", "index")] = "RI"
    ann[node_key("BSite")] = "ES"
    ann[inherits_key("BSite", "BPlace")] = "ES"
    ann[attr_key("BSite", "index")] = "SI"
    ann[node_key("BPort")] = "EP"
    ann[inherits_key("BPort", "BPoint")] = "EP"
    ann[edge_key("bPorts")] = "EP"
    ann[edge_key("bNode")] = "EP"
    ann[attr_key("BPort", "index")] = "PI"
    ann[inherits_key("BNode", "BPoint")] = ("not", "EP")

    # Without explicit ports a node carries as many links as its arity,
    # so the exactly-one bound on outgoing links cannot stay.
    overrides = {"bLink": (("not", "EP"), Multiplicity(0, None))}
    return AnnotatedTypeGraph(base, ann, overrides)


def ref_derive_type_graph(atg: AnnotatedTypeGraph, cfg: FeatureConfig) -> TypeGraph:
    """Resolve the variability: keep unannotated elements and those whose
    presence condition evaluates to true, dropping anything dangling."""
    rep = validate_config(cfg)
    if not rep.ok:
        raise InvalidConfig(rep)
    sel = cfg.selected

    def keep(key: tuple) -> bool:
        ann = atg.annotations.get(key)
        return ann is None or ref_eval_formula(ann, sel)

    base = atg.base
    nodes = {t for t in base.graph.nodes if keep(node_key(t))}
    edges = {
        e
        for e in base.graph.edges
        if keep(edge_key(e)) and base.graph.src[e] in nodes and base.graph.tgt[e] in nodes
    }
    inherits = {
        (sub, sup)
        for sub, sup in base.inherits
        if keep(inherits_key(sub, sup)) and sub in nodes and sup in nodes
    }
    mult: dict[str, Multiplicity] = {}
    for e in edges:
        m = base.mult[e]
        override = atg.mult_overrides.get(e)
        if override is not None and ref_eval_formula(override[0], sel):
            m = override[1]
        mult[e] = m
    attr_decls: dict[str, dict[str, str]] = {}
    for t in nodes:
        kept = {
            a: dt for a, dt in base.attr_decls.get(t, {}).items() if keep(attr_key(t, a))
        }
        if kept:
            attr_decls[t] = kept
    return TypeGraph(
        graph=Graph(
            nodes=frozenset(nodes),
            edges=frozenset(edges),
            src={e: base.graph.src[e] for e in edges},
            tgt={e: base.graph.tgt[e] for e in edges},
        ),
        inherits=frozenset(inherits),
        abstracts=base.abstracts & nodes,
        containments=base.containments & edges,
        opposites=frozenset((a, b) for a, b in base.opposites if a in edges and b in edges),
        mult=mult,
        attr_decls=attr_decls,
    )


CONFIGS = enumerate_configs()


def test_feature_model_matches_reference():
    assert FEATURE_LEAVES == REF_FEATURE_LEAVES
    assert _REQUIRES == REF_REQUIRES
    assert CONFIGS == ref_enumerate_configs()
    assert FeatureConfig.canonical() == ref_canonical()


def dangling(controls: list[str]) -> dict[tuple, object]:
    """The annotations the reference adds on edge types and inheritance
    pairs whose node type derivation already drops."""
    return {
        edge_key("bPorts"): "EP",
        edge_key("bNode"): "EP",
        inherits_key("BRoot", "BPlace"): "ER",
        inherits_key("BSite", "BPlace"): "ES",
        inherits_key("BPort", "BPoint"): "EP",
        **{inherits_key(c, "BNode"): "ST" for c in controls},
    }


def assert_matches_reference(tg_sigma: TypeGraph) -> None:
    atg, ref = annotate_150(tg_sigma), ref_annotate_150(tg_sigma)
    assert atg.base == ref.base
    assert atg.mult_overrides == ref.mult_overrides

    controls = sorted(set(tg_sigma.graph.nodes) - set(BASE_NODE_TYPE_NAMES))
    dropped = dangling(controls)
    assert atg.annotations.keys().isdisjoint(dropped)
    assert ref.annotations == {**atg.annotations, **dropped}
    # Each dropped condition is that of a node type at one of its ends.
    base = atg.base.graph
    for kind, *key in dropped:
        ends = (base.src[key[0]], base.tgt[key[0]]) if kind == "edge" else key
        assert dropped[(kind, *key)] in {atg.annotations.get(("node", t)) for t in ends}

    conditions = [*atg.annotations.values(), *(f for f, _ in atg.mult_overrides.values())]
    assert all(isinstance(f, str) or (len(f) == 2 and f[0] == "not" and isinstance(f[1], str)) for f in conditions)
    for cfg in CONFIGS:
        assert [eval_formula(f, cfg.selected) for f in conditions] == [
            ref_eval_formula(f, cfg.selected) for f in conditions
        ]
        derived = derive_type_graph(atg, cfg)
        expected = ref_derive_type_graph(ref, cfg)
        assert derived == expected, sorted(cfg.selected)
        assert fileio.dumps_canonical(derived) == fileio.dumps_canonical(expected)


def test_printer_signature_matches_reference(tg_sigma1):
    assert_matches_reference(tg_sigma1)


_RESERVED = set(BASE_NODE_TYPE_NAMES)


@st.composite
def signatures(draw):
    names = draw(
        st.lists(
            st.text("BNPabxz_1", min_size=1, max_size=5).filter(lambda n: n not in _RESERVED),
            max_size=8,
            unique=True,
        )
    )
    return make_signature((n, draw(st.integers(0, 12))) for n in names)


@given(signatures())
@settings(max_examples=300, deadline=None)
def test_random_signatures_match_reference(sig):
    assert_matches_reference(extend_for_signature(sig))
