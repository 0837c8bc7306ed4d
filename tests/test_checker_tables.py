"""The per-type tables of ``check_typing`` and ``check_multiplicities``
against the per-pair code they replaced.

``ref_check_typing`` and ``ref_check_multiplicities`` are the checkers as
they were before the tables: one ``conforms`` per edge end and per
(node, bounded edge type) pair, one ``declared_attrs`` per attribute and
one ``outgoing`` per count. Both versions must give the same findings in
the same order, on arbitrarily edited encodings and on the type graphs of
all 54 configurations.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from bigtg import annotate_150, enumerate_configs, extend_for_signature
from bigtg.report import Finding, ValidationReport, report_from
from bigtg.typedgraph import (
    InstanceGraph,
    TypeGraph,
    check_multiplicities,
    check_typing,
    conforms,
    declared_attrs,
    outgoing,
)
from bigtg.variability import derive_type_graph

from helpers import mutated_encodings

CONFIGS = enumerate_configs()


def ref_check_typing(g: InstanceGraph, tg: TypeGraph) -> ValidationReport:
    """Check the typing morphism: totality, abstractness, endpoint
    compatibility under subtyping, and attribute conformance. An edge
    whose type lacks a node type as ``src`` or ``tgt`` (which
    ``check_type_graph`` reports as ``tg-edge-ends``) is reported as
    ``typing-type-ends``, and that end of the edge is not checked."""
    findings: list[Finding] = []

    def flag(code: str, location: str, message: str) -> None:
        findings.append(Finding(code, location, message))

    for n in sorted(g.graph.nodes):
        t = g.node_types.get(n)
        if t is None:
            flag("typing-total", n, "node has no type")
        elif t not in tg.node_types:
            flag("typing-unknown-type", n, f"node typed by unknown type {t!r}")
        elif t in tg.abstracts:
            flag("typing-abstract", n, f"abstract type {t!r} instantiated")
    for n in sorted(set(g.node_types) - set(g.graph.nodes)):
        flag("typing-domain", n, "typing entry for unknown node")

    # The declared src and tgt of each edge type, None where no node type.
    decls = {
        te: tuple(t if t in tg.node_types else None for t in (tg.graph.src.get(te), tg.graph.tgt.get(te)))
        for te in tg.edge_types
    }
    for e in sorted(g.graph.edges):
        for role, mapping in (("src", g.graph.src), ("tgt", g.graph.tgt)):
            end = mapping.get(e)
            if end is None:
                flag("typing-edge-ends", f"{role}[{e}]", "edge has no " + role)
            elif end not in g.graph.nodes:
                flag("typing-edge-ends", f"{role}[{e}]", f"edge {role} {end!r} is not a node")
        te = g.edge_types.get(e)
        if te is None:
            flag("typing-total", e, "edge has no type")
            continue
        if te not in tg.edge_types:
            flag("typing-unknown-type", e, f"edge typed by unknown type {te!r}")
            continue
        decl_src, decl_tgt = decls[te]
        if decl_src is None or decl_tgt is None:
            flag("typing-type-ends", e, f"edge type {te!r} lacks a node type as src or tgt")
        for role, end, decl in (
            ("source", g.graph.src.get(e), decl_src),
            ("target", g.graph.tgt.get(e), decl_tgt),
        ):
            t_end = g.node_types.get(end) if end is not None else None
            if decl is None or t_end is None or t_end not in tg.node_types:
                continue  # reported on the edge above, or on the node
            if not conforms(tg, t_end, decl):
                flag(
                    "typing-" + ("source" if role == "source" else "target"),
                    e,
                    f"{role} type {t_end!r} incompatible with {te!r} (expects {decl!r})",
                )
    for e in sorted(set(g.edge_types) - set(g.graph.edges)):
        flag("typing-domain", e, "typing entry for unknown edge")

    for (n, a), v in sorted(g.attrs.items()):
        t = g.node_types.get(n)
        if t is None or t not in tg.node_types:
            continue
        decls = declared_attrs(tg, t)
        if a not in decls:
            flag("attr-undeclared", f"{n}.{a}", f"attribute {a!r} not declared for type {t!r}")
        elif decls[a] == "int" and (isinstance(v, bool) or not isinstance(v, int)):
            flag("attr-type", f"{n}.{a}", "attribute value is not an int")
        elif decls[a] == "string" and not isinstance(v, str):
            flag("attr-type", f"{n}.{a}", "attribute value is not a string")

    return report_from(findings)


def ref_check_multiplicities(g: InstanceGraph, tg: TypeGraph) -> ValidationReport:
    """Per-source-node bounds on outgoing edges of each applicable type.
    Edge types without a multiplicity, or without a node type as ``src``,
    are skipped (``check_type_graph`` reports them)."""
    findings: list[Finding] = []
    bounded = [te for te in sorted(tg.edge_types) if te in tg.mult and tg.graph.src.get(te) in tg.node_types]
    for n in sorted(g.graph.nodes):
        tn = g.node_types.get(n)
        if tn is None or tn not in tg.node_types:
            continue
        for te in bounded:
            m = tg.mult[te]
            if not conforms(tg, tn, tg.graph.src[te]):
                continue
            count = len(outgoing(g, n, te))
            if count < m.lb:
                findings.append(
                    Finding(
                        "mult-underflow",
                        f"{n}.{te}",
                        f"{count} outgoing {te!r} edge(s), multiplicity {m.render()}",
                    )
                )
            elif m.ub is not None and count > m.ub:
                findings.append(
                    Finding(
                        "mult-overflow",
                        f"{n}.{te}",
                        f"{count} outgoing {te!r} edge(s), multiplicity {m.render()}",
                    )
                )
    return report_from(findings)


@given(mutated_encodings(), st.sampled_from(CONFIGS))
@settings(max_examples=150, deadline=None)
def test_checker_tables_keep_findings_and_order(case, cfg):
    g, b = case
    tg = extend_for_signature(b.signature)
    for types in (tg, derive_type_graph(annotate_150(tg), cfg)):
        assert check_typing(g, types).findings == ref_check_typing(g, types).findings
        assert check_multiplicities(g, types).findings == ref_check_multiplicities(g, types).findings
