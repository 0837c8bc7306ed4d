"""The instance checkers against their walks.

``check_typing``, ``check_validity``, ``check_multiplicities`` and
``check_arity_rule`` pass a clean graph on whole-column tests over
``InstanceGraph.edge_view`` and walk only when a test fails. The
references below are verbatim copies of the four checker bodies as they
were before those tests, when each graph went through the walk. The
checkers must give the same findings, in the same order and with the same
text, on edited encodings against edited type graphs, and on one graph
for each way a whole-column test can fail: a repeated ``(type, src, tgt)``
triple, an edge type without an opposite, a missing end, an abstract
node type, an end of an incompatible type, a ``bool`` attribute value, a
lower bound of 2 and a wrong port count. A node or node type named
``None`` cannot pass for a missing one.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigtg import Signature, replace
from bigtg.mapping import check_arity_rule
from bigtg.report import Finding, ValidationReport, report_from
from bigtg.typedgraph import (
    Graph,
    InstanceGraph,
    Multiplicity,
    TypeGraph,
    _cycles,
    _reaches_cycle,
    check_multiplicities,
    check_typing,
    check_validity,
    conforms,
    declared_attrs,
    walk_suspects,
)

from helpers import (
    add_edge,
    mutated_encodings,
    ref_out_degree,
    retarget_edge,
    retype_node,
    set_attr,
    type_graph_variants,
)


def reports(g: InstanceGraph, tg: TypeGraph, sig: Signature) -> list[ValidationReport]:
    return [
        check_typing(g, tg),
        check_validity(g, tg),
        check_multiplicities(g, tg),
        check_arity_rule(g, tg, sig),
    ]


def ref_reports(g: InstanceGraph, tg: TypeGraph, sig: Signature) -> list[ValidationReport]:
    return [
        ref_check_typing(g, tg),
        ref_check_validity(g, tg),
        ref_check_multiplicities(g, tg),
        ref_check_arity_rule(g, tg, sig),
    ]


@given(mutated_encodings(), st.data())
@settings(max_examples=300, deadline=None)
def test_checkers_match_their_walks(case, data):
    """Some graphs get a twin of one edge: a second edge of the same type
    between the same ends, which the edits alone rarely make."""
    g, b = case
    tg = data.draw(type_graph_variants(b.signature))
    if g.graph.edges and data.draw(st.booleans()):
        e = data.draw(st.sampled_from(sorted(g.graph.edges)))
        ends = (g.graph.src.get(e, "ghost"), g.graph.tgt.get(e, "ghost"))
        g = add_edge(g, "twin", g.edge_types.get(e, "bogus"), *ends)
    assert reports(g, tg, b.signature) == ref_reports(g, tg, b.signature)


def _without_opposites(tg: TypeGraph, *pair: str) -> TypeGraph:
    return replace(tg, opposites={p for p in tg.opposites if set(p) != set(pair)})


def _bound(tg: TypeGraph, edge_type: str, m: Multiplicity) -> TypeGraph:
    return replace(tg, mult={**tg.mult, edge_type: m})


#: One printer-graph edit per way a whole-column test can fail: the
#: edit of the graph, of the type graph and of the signature, and every
#: finding line of the four checkers.
FAILING_TESTS = {
    "parallel-edge": (
        lambda g: add_edge(g, "bPoints:twin", "bPoints", "e:e0", "p:v0:0"),
        None,
        None,
        ["error opposite-inconsistent bLink[p:v0:0->e:e0] 1 'bLink' edge(s) but 2 opposite 'bPoints' edge(s)"],
    ),
    "parallel-pair": (
        lambda g: add_edge(
            add_edge(g, "bPoints:twin", "bPoints", "e:e0", "p:v0:0"), "bLink:twin", "bLink", "p:v0:0", "e:e0"
        ),
        lambda tg: _bound(tg, "bLink", Multiplicity(1, None)),
        None,
        [],
    ),
    "unpaired-edge-type": (
        lambda g: g,
        lambda tg: _without_opposites(tg, "bPrnt", "bChld"),
        None,
        [],
    ),
    "unpaired-edge-type-with-an-unmirrored-edge": (
        lambda g: add_edge(g, "bChld:extra", "bChld", "n:v4", "n:v6"),
        lambda tg: _without_opposites(tg, "bPrnt", "bChld"),
        None,
        ["error multi-container n:v6 node has more than one container: n:v4, n:v5"],
    ),
    "abstract-node-type": (
        lambda g: retype_node(g, "n:v6", "BPlace"),
        None,
        None,
        ["error typing-abstract n:v6 abstract type 'BPlace' instantiated"],
    ),
    "incompatible-end": (
        lambda g: retype_node(g, "p:v5:0", "BInnerName"),
        None,
        None,
        [
            "error typing-source bNode:p:v5:0:n:v5 source type 'BInnerName' incompatible with 'bNode' (expects 'BPort')",
            "error typing-target bPorts:n:v5:p:v5:0 target type 'BInnerName' incompatible with 'bPorts' (expects 'BPort')",
            "error attr-undeclared p:v5:0.index attribute 'index' not declared for type 'BInnerName'",
        ],
    ),
    "target-of-the-source-type": (
        lambda g: retarget_edge(g, "bPorts:n:v5:p:v5:0", tgt="n:v6"),
        None,
        None,
        [
            "error typing-target bPorts:n:v5:p:v5:0 target type 'Job' incompatible with 'bPorts' (expects 'BPort')",
            "error multi-container n:v6 node has more than one container: n:v5, n:v5",
            "error opposite-inconsistent bNode[p:v5:0->n:v5] 1 'bNode' edge(s) but 0 opposite 'bPorts' edge(s)",
            "error opposite-inconsistent bPorts[n:v5->n:v6] 1 'bPorts' edge(s) but 0 opposite 'bNode' edge(s)",
        ],
    ),
    "abstract-node-over-its-bound": (
        lambda g: add_edge(retype_node(g, "n:v6", "BPlace"), "bPrnt:extra", "bPrnt", "n:v6", "n:v4"),
        None,
        None,
        [
            "error typing-abstract n:v6 abstract type 'BPlace' instantiated",
            "error opposite-inconsistent bPrnt[n:v6->n:v4] 1 'bPrnt' edge(s) but 0 opposite 'bChld' edge(s)",
            "error mult-overflow n:v6.bPrnt 2 outgoing 'bPrnt' edge(s), multiplicity [0,1]",
        ],
    ),
    "str-attribute": (
        lambda g: set_attr(g, "r:0", "index", "0"),
        None,
        None,
        ["error attr-type r:0.index attribute value is not an int"],
    ),
    "lower-bound-2": (
        lambda g: g,
        lambda tg: _bound(tg, "bPoints", Multiplicity(2, None)),
        None,
        ["error mult-underflow o:jeff.bPoints 1 outgoing 'bPoints' edge(s), multiplicity [2,*]"],
    ),
    "bad-arity": (
        lambda g: g,
        None,
        lambda sig: Signature(sig.controls, {**sig.arities, "Printer": 3}),
        ["error arity n:v1 node of control 'Printer' has 2 outgoing 'bPorts' edge(s), arity is 3"],
    ),
}


@pytest.mark.parametrize("edit", FAILING_TESTS)
def test_each_failing_column_test_gives_the_walks_findings(edit, g1, tg_sigma1, sig1):
    edit_graph, edit_tg, edit_sig, lines = FAILING_TESTS[edit]
    g = edit_graph(replace(g1))
    tg = edit_tg(tg_sigma1) if edit_tg else tg_sigma1
    sig = edit_sig(sig1) if edit_sig else sig1
    got = reports(g, tg, sig)
    assert got == ref_reports(g, tg, sig)
    assert [f.line() for r in got for f in r.findings] == lines


def test_a_missing_end_is_refused_before_any_column_test(g1):
    """An edge without a ``tgt`` fails no column test: its graph is
    refused where it is built."""
    tgt = {e: t for e, t in g1.graph.tgt.items() if e != "bPorts:n:v1:p:v1:1"}
    with pytest.raises(ValueError, match="^Graph.tgt lacks 'bPorts:n:v1:p:v1:1', which is an edge$"):
        replace(g1.graph, tgt=tgt)


def test_each_end_is_checked_against_its_own_declared_type(tg_sigma1, sig1):
    """A job conforms to the declared source of ``bPorts`` (``BNode``) but
    not to its declared target (``BPort``). With no other edge to fail a
    test, only the target's own check flags it."""
    g = InstanceGraph(
        graph=Graph(nodes={"n:a", "n:b"}, edges={"x"}, src={"x": "n:a"}, tgt={"x": "n:b"}),
        node_types={"n:a": "Job", "n:b": "Job"},
        edge_types={"x": "bPorts"},
    )
    got = reports(g, tg_sigma1, sig1)
    assert got == ref_reports(g, tg_sigma1, sig1)
    assert [f.line() for r in got for f in r.findings] == [
        "error typing-target x target type 'Job' incompatible with 'bPorts' (expects 'BPort')",
        "error opposite-inconsistent bPorts[n:a->n:b] 1 'bPorts' edge(s) but 0 opposite 'bNode' edge(s)",
        "error arity n:a node of control 'Job' has 1 outgoing 'bPorts' edge(s), arity is 0",
    ]


def test_none_as_a_node_or_a_node_type_is_refused_at_construction():
    """A missing type or end reads ``None``, which no node or type can be,
    so the checkers need not tell the two apart."""
    with pytest.raises(TypeError, match="^Graph.nodes holds None, which is not a str$"):
        Graph(nodes={None, "N"}, edges={"t"}, src={"t": "N"}, tgt={"t": "N"})
    with pytest.raises(TypeError, match="^InstanceGraph.node_types holds None, which is not a str$"):
        InstanceGraph(graph=Graph(nodes={"n"}), node_types={"n": None})


def ref_check_typing(g: InstanceGraph, tg: TypeGraph) -> ValidationReport:
    """``check_typing`` as it was before the whole-column tests: every
    node, edge and attribute goes through ``walk_suspects``."""
    nodes, nt = g.graph.nodes, g.node_types

    def check_node(n: str) -> list[Finding]:
        t = nt.get(n)
        if t is None:
            return [Finding("typing-total", n, "node has no type")]
        if t not in tg.node_types:
            return [Finding("typing-unknown-type", n, f"node typed by unknown type {t!r}")]
        if t in tg.abstracts:
            return [Finding("typing-abstract", n, f"abstract type {t!r} instantiated")]
        return []

    # The declared src and tgt of each edge type, None where no node type;
    # conformance is decided once per (end type, declared type) pair.
    decls = {
        te: tuple(t if t in tg.node_types else None for t in (tg.graph.src.get(te), tg.graph.tgt.get(te)))
        for te in tg.edge_types
    }
    conforming: dict[tuple[str, str], bool] = {}

    def check_edge(e: str) -> list[Finding]:
        findings: list[Finding] = []
        for role, mapping in (("src", g.graph.src), ("tgt", g.graph.tgt)):
            end = mapping.get(e)
            if end is None:
                findings.append(Finding("typing-edge-ends", f"{role}[{e}]", "edge has no " + role))
            elif end not in nodes:
                findings.append(Finding("typing-edge-ends", f"{role}[{e}]", f"edge {role} {end!r} is not a node"))
        te = g.edge_types.get(e)
        if te is None:
            return findings + [Finding("typing-total", e, "edge has no type")]
        if te not in tg.edge_types:
            return findings + [Finding("typing-unknown-type", e, f"edge typed by unknown type {te!r}")]
        decl_src, decl_tgt = decls[te]
        if decl_src is None or decl_tgt is None:
            findings.append(Finding("typing-type-ends", e, f"edge type {te!r} lacks a node type as src or tgt"))
        for role, end, decl in (
            ("source", g.graph.src.get(e), decl_src),
            ("target", g.graph.tgt.get(e), decl_tgt),
        ):
            t_end = nt.get(end) if end is not None else None
            if decl is None or t_end is None or t_end not in tg.node_types:
                continue  # reported on the edge above, or on the node
            ok = conforming.get((t_end, decl))
            if ok is None:
                ok = conforming[t_end, decl] = conforms(tg, t_end, decl)
            if not ok:
                findings.append(
                    Finding(
                        "typing-" + ("source" if role == "source" else "target"),
                        e,
                        f"{role} type {t_end!r} incompatible with {te!r} (expects {decl!r})",
                    )
                )
        return findings

    attr_decls: dict[str, dict[str, str]] = {}

    def check_attr(item: tuple[tuple[str, str], int | str]) -> list[Finding]:
        (n, a), v = item
        if n not in nodes:
            return [Finding("attr-owner", f"{n}.{a}", f"attribute owner {n!r} is not a node")]
        t = nt.get(n)
        if t is None or t not in tg.node_types:
            return []
        decls = attr_decls.get(t)
        if decls is None:
            decls = attr_decls[t] = declared_attrs(tg, t)
        if a not in decls:
            return [Finding("attr-undeclared", f"{n}.{a}", f"attribute {a!r} not declared for type {t!r}")]
        if decls[a] == "int" and (isinstance(v, bool) or not isinstance(v, int)):
            return [Finding("attr-type", f"{n}.{a}", "attribute value is not an int")]
        if decls[a] == "string" and not isinstance(v, str):
            return [Finding("attr-type", f"{n}.{a}", "attribute value is not a string")]
        return []

    edges, is_node = g.graph.edges, nodes.__contains__
    srcs, tgts = list(map(g.graph.src.get, edges)), list(map(g.graph.tgt.get, edges))
    edge_keys = zip(
        map(g.edge_types.get, edges), map(nt.get, srcs), map(nt.get, tgts), map(is_node, srcs), map(is_node, tgts)
    )
    owners = list(map(itemgetter(0), g.attrs))
    attr_keys = zip(map(nt.get, owners), map(is_node, owners), map(itemgetter(1), g.attrs), map(type, g.attrs.values()))
    return report_from(
        walk_suspects(nodes, map(nt.get, nodes), check_node)
        + [Finding("typing-domain", n, "typing entry for unknown node") for n in sorted(nt.keys() - nodes)]
        + walk_suspects(edges, edge_keys, check_edge)
        + [Finding("typing-domain", e, "typing entry for unknown edge") for e in sorted(g.edge_types.keys() - edges)]
        + walk_suspects(g.attrs.items(), attr_keys, check_attr)
    )


def ref_check_validity(g: InstanceGraph, tg: TypeGraph) -> ValidationReport:
    """``check_validity`` as it was before the whole-column tests: the
    opposite counts are compared as two ``Counter``s."""
    findings: list[Finding] = []

    def flag(code: str, location: str, message: str) -> None:
        findings.append(Finding(code, location, message))

    edges, src, tgt = g.graph.edges, g.graph.src, g.graph.tgt
    contained = list(compress(edges, map(tg.containments.__contains__, map(g.edge_types.get, edges))))
    up = dict(zip(map(tgt.get, contained), map(src.get, contained)))
    if len(up) < len(contained) or _reaches_cycle(up):
        succ: dict[str, list[str]] = {}
        containers_of: dict[str, list[str]] = {}
        for e in sorted(contained):
            s, t = src.get(e), tgt.get(e)
            if s is not None and t is not None:
                succ.setdefault(s, []).append(t)
                containers_of.setdefault(t, []).append(s)
        for cycle in _cycles(succ):
            flag("containment-cycle", cycle[0], "containment cycle through " + ", ".join(sorted(set(cycle))))
        for n in sorted(n for n, containers in containers_of.items() if len(containers) > 1 and n in g.graph.nodes):
            flag("multi-container", n, "node has more than one container: " + ", ".join(sorted(containers_of[n])))

    # Opposite consistency: for both directions of each pair, the number
    # of t1 edges a->b must equal the number of t2 edges b->a. Keys with a
    # missing end are counted but never reported.
    opposite = tg._opposite
    paired = list(compress(edges, map(opposite.__contains__, map(g.edge_types.get, edges))))
    types, srcs, tgts = list(map(g.edge_types.get, paired)), list(map(src.get, paired)), list(map(tgt.get, paired))
    counts = Counter(zip(types, srcs, tgts))
    mirrored = Counter(zip(map(opposite.get, types), tgts, srcs))
    # Equal counts leave every pair consistent, whatever the opposites are.
    # Counter's own == runs in Python; no count is zero, so dict's is exact.
    if dict.__eq__(counts, mirrored):
        return report_from(findings)
    seen: set[tuple[str, str, str]] = set()
    for te, s, t in sorted(key for key in counts if key[1] is not None and key[2] is not None):
        rev = (opposite.get(te), t, s)
        key = min((te, s, t), rev)  # process each unordered pair once
        if key in seen:
            continue
        seen.add(key)
        fwd_count = counts[te, s, t]
        rev_count = counts.get(rev, 0)
        if fwd_count != rev_count:
            flag(
                "opposite-inconsistent",
                f"{te}[{s}->{t}]",
                f"{fwd_count} {te!r} edge(s) but {rev_count} opposite {rev[0]!r} edge(s)",
            )

    return report_from(findings)


def ref_check_multiplicities(g: InstanceGraph, tg: TypeGraph) -> ValidationReport:
    """``check_multiplicities`` as it was before the whole-column tests: a
    pass over every node in sorted order, each count a brute-force scan
    (``ref_out_degree``)."""
    findings: list[Finding] = []
    bounded = [te for te in sorted(tg.edge_types) if tg.mult.get(te) and tg.graph.src.get(te) in tg.node_types]
    # The bounded edge types that apply to each node type, with their bounds.
    applicable: dict[str, list[tuple[str, Multiplicity]]] = {}
    for n in sorted(g.graph.nodes):
        tn = g.node_types.get(n)
        if tn is None or tn not in tg.node_types:
            continue
        bounds = applicable.get(tn)
        if bounds is None:
            bounds = applicable[tn] = [(te, tg.mult.get(te)) for te in bounded if conforms(tg, tn, tg.graph.src[te])]
        for te, m in bounds:
            count = ref_out_degree(g, n, te)
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


def ref_check_arity_rule(g: InstanceGraph, tg: TypeGraph, sig: Signature) -> ValidationReport:
    """``check_arity_rule`` as it was before the whole-column tests: a pass
    over every node in sorted order."""
    arities = {c: sig.arities[c] for c in sig.names if c in tg.node_types and c in sig.arities}
    findings = []
    for n in sorted(g.graph.nodes):
        t = g.node_types.get(n)
        if t not in arities:
            continue
        want = arities[t]
        got = ref_out_degree(g, n, "bPorts")
        if got != want:
            findings.append(
                Finding(
                    "arity",
                    n,
                    f"node of control {t!r} has {got} outgoing 'bPorts' edge(s), arity is {want}",
                )
            )
    return report_from(findings)
