"""The conformance checkers against reference implementations, and a
``networkx`` oracle for the containment rules.

``ref_check_typing`` and ``ref_check_multiplicities`` state the rules as
first written: one ``conforms`` per edge end and per (node, bounded edge
type) pair, one ``declared_attrs`` per attribute and one ``outgoing`` per
count. ``memo_check_typing``, ``ref_check_validity`` and
``ref_check_arity_rule`` are verbatim copies of those checkers as they
were before shape keys and counted opposites, when each walked every
element in sorted order; ``opposite_of`` and ``_opposite_groups`` are
copies of the helpers ``ref_check_validity`` called, which the library
no longer has. The checkers must give the same findings in the
same order as each reference on edited encodings that also carry typing
entries and attributes for elements outside the graph and ``bool``
attribute values, against the signature's type graph, the type graphs of
all 54 configurations, and type graphs whose edge types have broken ends,
opposites, containments or multiplicities. The references predate the
``attr-owner`` rule (an attribute whose owner is not a node), so
``with_attr_owners`` adds its findings to theirs explicitly.
"""

from __future__ import annotations


import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from bigtg import extend_for_signature
from bigtg.bigraph import Signature
from bigtg.mapping import check_arity_rule
from bigtg.report import Finding, ValidationReport, report_from
from bigtg.typedgraph import (
    Graph,
    InstanceGraph,
    Multiplicity,
    TypeGraph,
    _cycles,
    check_multiplicities,
    check_typing,
    check_validity,
    conforms,
    declared_attrs,
    outgoing,
)

from helpers import EDGE_TYPES, NODE_TYPES, mutated_encodings, type_graph_variants

STRAY_IDS = ("ghost", "stray:1", "stray:2")


@st.composite
def encodings_with_strays(draw):
    """An edited encoding, with the bigraph, after a few more edits:
    typing entries for nodes and edges that are not in the graph, edge
    ends on such nodes, and attributes (some ``bool``, some of no declared
    type) on nodes that may not be in it."""
    g, b = draw(mutated_encodings())
    src, tgt = dict(g.graph.src), dict(g.graph.tgt)
    node_types, edge_types, attrs = dict(g.node_types), dict(g.edge_types), dict(g.attrs)
    owners = sorted(g.graph.nodes) + list(STRAY_IDS)
    types = sorted({*node_types.values(), *NODE_TYPES})
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("node-type", "stray-end", "edge-type", "attr")))
        if kind == "node-type":
            node_types[draw(st.sampled_from(STRAY_IDS))] = draw(st.sampled_from(types))
        elif kind == "stray-end" and g.graph.edges:
            edge = draw(st.sampled_from(sorted(g.graph.edges)))
            draw(st.sampled_from((src, tgt)))[edge] = draw(st.sampled_from(STRAY_IDS))
        elif kind == "edge-type":
            edge_types[draw(st.sampled_from(STRAY_IDS))] = draw(st.sampled_from(EDGE_TYPES))
        else:
            key = (draw(st.sampled_from(owners)), draw(st.sampled_from(("index", "control", "x"))))
            attrs[key] = draw(st.one_of(st.booleans(), st.integers(-1, 2), st.sampled_from(("a", 1.5))))
    graph = Graph(nodes=g.graph.nodes, edges=g.graph.edges, src=src, tgt=tgt)
    return InstanceGraph(graph=graph, node_types=node_types, edge_types=edge_types, attrs=attrs), b


@given(encodings_with_strays(), st.data())
@settings(max_examples=250, deadline=None)
def test_checker_tables_keep_findings_and_order(case, data):
    g, b = case
    sig = b.signature
    for tg in (extend_for_signature(sig), data.draw(type_graph_variants(sig))):
        assert check_typing(g, tg).findings == with_attr_owners(g, ref_check_typing(g, tg).findings)
        assert check_typing(g, tg).findings == with_attr_owners(g, memo_check_typing(g, tg).findings)
        assert check_validity(g, tg).findings == ref_check_validity(g, tg).findings
        assert check_multiplicities(g, tg).findings == ref_check_multiplicities(g, tg).findings
        assert check_arity_rule(g, tg, sig).findings == ref_check_arity_rule(g, tg, sig).findings


def test_ends_on_typed_strays_are_flagged_beside_clean_edges():
    """An edge whose src is a typing entry but not a node shares its end
    types with the clean edges of its type; only the end check tells it
    apart. Ten such edges, each among nine clean ones of its shape, make
    a walk that skips them all vanishingly unlikely."""
    owners = [f"T{i}" for i in range(10)]
    tg = TypeGraph(
        graph=Graph(nodes={"P", "T", *owners}, edges={"own"}, src={"own": "P"}, tgt={"own": "T"}),
        inherits={(t, "T") for t in owners},
        mult={"own": Multiplicity(0)},
    )
    edges = {f"own:{i}:{j}": (f"p{i}:{j}", f"t{i}") for i in range(10) for j in range(10)}
    src = {e: "ghost" if e.endswith(":0") else s for e, (s, _) in edges.items()}
    g = InstanceGraph(
        graph=Graph(
            nodes={*(s for s, _ in edges.values()), *(f"t{i}" for i in range(10))},
            edges=set(edges),
            src=src,
            tgt={e: t for e, (_, t) in edges.items()},
        ),
        node_types={"ghost": "P", **{s: "P" for s, _ in edges.values()}, **{f"t{i}": f"T{i}" for i in range(10)}},
        edge_types=dict.fromkeys(edges, "own"),
    )
    findings = check_typing(g, tg).findings
    assert findings == ref_check_typing(g, tg).findings
    assert [f.location for f in findings] == ["ghost", *(f"src[own:{i}:0]" for i in range(10))]


def test_bool_values_of_int_attributes_are_flagged():
    """``True == 1``, so only the value class tells a ``bool`` apart from
    the ``int`` values of its attribute. Each bool comes before the int
    values of its node type and name, whichever one a shape stands for."""
    tg = TypeGraph(graph=Graph(nodes={"N", "M"}), attr_decls={"N": {"index": "int"}, "M": {"index": "int"}})
    attrs = {("m0", "index"): False, ("n0", "index"): True, ("n1", "index"): 1, ("m1", "index"): 0}
    g = InstanceGraph(
        graph=Graph(nodes={"n0", "n1", "m0", "m1"}),
        node_types={"n0": "N", "n1": "N", "m0": "M", "m1": "M"},
        attrs=attrs,
    )
    findings = check_typing(g, tg).findings
    assert findings == ref_check_typing(g, tg).findings
    assert [f.location for f in findings] == ["m0.index", "n0.index"]


def test_one_sided_opposites_walk_every_pair():
    """Where the opposites do not pair the edge types off, a consistent
    pair can hide an inconsistent one: a walk of only the keys whose count
    differs from their mirror's would miss both findings."""
    types = ("a", "b", "c")
    tg = TypeGraph(
        graph=Graph(nodes={"N"}, edges=set(types), src=dict.fromkeys(types, "N"), tgt=dict.fromkeys(types, "N")),
        opposites={("a", "c"), ("b", "a"), ("b", "c"), ("c", "a")},
        mult=dict.fromkeys(types, Multiplicity(0)),
    )
    edges = {"e0": ("a", "y", "y"), "e1": ("c", "x", "y"), "e2": ("b", "y", "y")}
    g = InstanceGraph(
        graph=Graph(
            nodes={"x", "y"},
            edges=set(edges),
            src={e: s for e, (_, s, _) in edges.items()},
            tgt={e: t for e, (_, _, t) in edges.items()},
        ),
        node_types={"x": "N", "y": "N"},
        edge_types={e: ty for e, (ty, _, _) in edges.items()},
    )
    assert [f.line() for f in check_validity(g, tg).findings] == [
        "error opposite-inconsistent a[y->y] 1 'a' edge(s) but 0 opposite 'c' edge(s)",
        "error opposite-inconsistent c[x->y] 1 'c' edge(s) but 0 opposite 'a' edge(s)",
    ]
    assert check_validity(g, tg).findings == ref_check_validity(g, tg).findings


CONTAINMENT_NODES = ("a", "b", "c", "d", "e")


@st.composite
def containment_graphs(draw):
    """A small graph of nesting and port edges, some without an end or
    with an end that is not a node."""
    ends = st.sampled_from((*CONTAINMENT_NODES, "ghost", None))
    edges = draw(st.lists(st.tuples(ends, ends, st.sampled_from(("bChld", "bPorts", "bPrnt", None))), max_size=12))
    ids = [f"x{i}" for i in range(len(edges))]
    src = {e: s for e, (s, _, _) in zip(ids, edges) if s is not None}
    tgt = {e: t for e, (_, t, _) in zip(ids, edges) if t is not None}
    types = {e: ty for e, (_, _, ty) in zip(ids, edges) if ty is not None}
    graph = Graph(nodes=frozenset(CONTAINMENT_NODES), edges=frozenset(ids), src=src, tgt=tgt)
    return InstanceGraph(graph=graph, edge_types=types)


@given(containment_graphs())
@settings(max_examples=300, deadline=None)
def test_containment_findings_match_networkx(g):
    tg = extend_for_signature(Signature())
    contains = nx.MultiDiGraph()
    contains.add_nodes_from(g.graph.nodes)
    for e in g.graph.edges:
        s, t = g.graph.src.get(e), g.graph.tgt.get(e)
        if g.edge_types.get(e) in tg.containments and s is not None and t is not None:
            contains.add_edge(s, t)
    findings = check_validity(g, tg).findings
    through = [
        set(f.message.removeprefix("containment cycle through ").split(", "))
        for f in findings
        if f.code == "containment-cycle"
    ]
    cyclic = [c for c in nx.strongly_connected_components(contains) if len(c) > 1 or contains.has_edge(*[*c] * 2)]
    assert bool(through) == (not nx.is_directed_acyclic_graph(contains))
    assert all(any(cycle <= c for c in cyclic) for cycle in through)
    assert all(any(cycle & c for cycle in through) for c in cyclic)
    multi = {f.location for f in findings if f.code == "multi-container"}
    assert multi == {n for n in g.graph.nodes if contains.in_degree(n) > 1}


def with_attr_owners(g: InstanceGraph, findings: tuple[Finding, ...]) -> tuple[Finding, ...]:
    """A reference's ``check_typing`` findings plus the one rule that the
    references predate: an attribute whose owner is not a node gets one
    ``attr-owner`` finding, in place of any finding on its value, among
    the attribute findings in sorted attribute order. (The references
    give at most one finding per attribute, at ``<n>.<a>``.)"""
    head = [f for f in findings if not f.code.startswith("attr-")]
    on_value = {f.location: f for f in findings if f.code.startswith("attr-")}
    tail = [
        Finding("attr-owner", f"{n}.{a}", f"attribute owner {n!r} is not a node")
        if n not in g.graph.nodes
        else on_value.get(f"{n}.{a}")
        for n, a in sorted(g.attrs)
    ]
    return tuple(head + [f for f in tail if f is not None])


# The rules as first written, one lookup per element and pair.


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


# The checkers before shape keys, verbatim but for their names.


def memo_check_typing(g: InstanceGraph, tg: TypeGraph) -> ValidationReport:
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

    # The declared src and tgt of each edge type, None where no node type;
    # conformance is decided once per (end type, declared type) pair.
    decls = {
        te: tuple(t if t in tg.node_types else None for t in (tg.graph.src.get(te), tg.graph.tgt.get(te)))
        for te in tg.edge_types
    }
    conforming: dict[tuple[str, str], bool] = {}
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
            ok = conforming.get((t_end, decl))
            if ok is None:
                ok = conforming[t_end, decl] = conforms(tg, t_end, decl)
            if not ok:
                flag(
                    "typing-" + ("source" if role == "source" else "target"),
                    e,
                    f"{role} type {t_end!r} incompatible with {te!r} (expects {decl!r})",
                )
    for e in sorted(set(g.edge_types) - set(g.graph.edges)):
        flag("typing-domain", e, "typing entry for unknown edge")

    attr_decls: dict[str, dict[str, str]] = {}
    for (n, a), v in sorted(g.attrs.items()):
        t = g.node_types.get(n)
        if t is None or t not in tg.node_types:
            continue
        decls = attr_decls.get(t)
        if decls is None:
            decls = attr_decls[t] = declared_attrs(tg, t)
        if a not in decls:
            flag("attr-undeclared", f"{n}.{a}", f"attribute {a!r} not declared for type {t!r}")
        elif decls[a] == "int" and (isinstance(v, bool) or not isinstance(v, int)):
            flag("attr-type", f"{n}.{a}", "attribute value is not an int")
        elif decls[a] == "string" and not isinstance(v, str):
            flag("attr-type", f"{n}.{a}", "attribute value is not a string")

    return report_from(findings)


def opposite_of(tg: TypeGraph, edge_type: str) -> str | None:
    """The opposite edge type of ``edge_type``, if any (the smallest one
    when the type graph pairs it with several)."""
    return tg._opposite.get(edge_type)


def _opposite_groups(g: InstanceGraph, tg: TypeGraph) -> dict[tuple[str, str, str], list[str]]:
    """Edges whose type has an opposite, grouped by ``(type, src, tgt)``;
    each group is sorted."""
    groups: dict[tuple[str, str, str], list[str]] = {}
    for e in sorted(g.graph.edges):
        te, s, t = g.edge_types.get(e), g.graph.src.get(e), g.graph.tgt.get(e)
        if te is None or s is None or t is None or opposite_of(tg, te) is None:
            continue
        groups.setdefault((te, s, t), []).append(e)
    return groups


def ref_check_validity(g: InstanceGraph, tg: TypeGraph) -> ValidationReport:
    """Containment acyclicity, unique containers, and opposite-edge
    consistency. Meant for graphs that pass ``check_typing``; edges with a
    missing end are skipped here (``check_typing`` reports them)."""
    findings: list[Finding] = []

    def flag(code: str, location: str, message: str) -> None:
        findings.append(Finding(code, location, message))

    succ: dict[str, list[str]] = {}
    containers_of: dict[str, list[str]] = {}
    for e in sorted(g.graph.edges):
        s, t = g.graph.src.get(e), g.graph.tgt.get(e)
        if g.edge_types.get(e) in tg.containments and s is not None and t is not None:
            succ.setdefault(s, []).append(t)
            containers_of.setdefault(t, []).append(s)
    for cycle in _cycles(succ):
        flag("containment-cycle", cycle[0], "containment cycle through " + ", ".join(sorted(set(cycle))))

    for n in sorted(g.graph.nodes):
        containers = sorted(containers_of.get(n, ()))
        if len(containers) > 1:
            flag("multi-container", n, "node has more than one container: " + ", ".join(containers))

    # Opposite consistency: for both directions of each pair, the number
    # of t1 edges a->b must equal the number of t2 edges b->a.
    groups = _opposite_groups(g, tg)
    seen: set[tuple[str, str, str]] = set()
    for (te, s, t), edges in sorted(groups.items()):
        rev = (opposite_of(tg, te), t, s)
        key = min((te, s, t), rev)  # process each unordered pair once
        if key in seen:
            continue
        seen.add(key)
        fwd_count = len(edges)
        rev_count = len(groups.get(rev, ()))
        if fwd_count != rev_count:
            flag(
                "opposite-inconsistent",
                f"{te}[{s}->{t}]",
                f"{fwd_count} {te!r} edge(s) but {rev_count} opposite {rev[0]!r} edge(s)",
            )

    return report_from(findings)


def ref_check_arity_rule(g: InstanceGraph, tg: TypeGraph, sig: Signature) -> ValidationReport:
    """Every node typed by a control must own exactly ``arity`` port edges."""
    control_types = {c for c in sig.names if c in tg.node_types}
    findings: list[Finding] = []
    for n in sorted(g.graph.nodes):
        t = g.node_types.get(n)
        if t not in control_types:
            continue
        want = sig.arity(t)
        got = len(outgoing(g, n, "bPorts"))
        if got != want:
            findings.append(
                Finding(
                    "arity",
                    n,
                    f"node of control {t!r} has {got} outgoing 'bPorts' edge(s), arity is {want}",
                )
            )
    return report_from(findings)
