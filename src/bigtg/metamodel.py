"""The canonical metamodel of bigraphs and conformance to it.

Provides the base type graph modeling bigraph anatomy, its
control-compatible extension for a signature, the arity well-formedness
rule, and :func:`conformance`, which runs every checker of an instance
graph. This is all of the bridge that ``bigtg validate``, ``check``,
``metamodel`` and ``configure`` run; :mod:`bigtg.mapping` adds
``encode`` and ``decode`` on top and re-exports every name here.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, repeat
from operator import eq
from weakref import ref

from .bigraph import BASE_NODE_TYPE_NAMES, ReservedControlName, Signature, bad_arities, is_arity
from .report import Finding, ValidationReport, report_from
from .typedgraph import (
    Graph,
    InstanceGraph,
    Multiplicity,
    TypeGraph,
    check_multiplicities,
    check_typing,
    check_validity,
    keeps_report,
    symmetric_pairs,
)


class NotCanonical(Exception):
    """The instance graph is not a canonical, fully indexed encoding."""

    def __init__(self, message: str, report: ValidationReport | None = None):
        super().__init__(message)
        self.report = report if report is not None else ValidationReport()


def base_type_graph() -> TypeGraph:
    """The fixed type graph describing places, links, ports and names."""
    edges = {
        # name: (src, tgt, mult)
        "bPrnt": ("BPlace", "BPlace", Multiplicity(0, 1)),
        "bChld": ("BPlace", "BPlace", Multiplicity(0, None)),
        "bLink": ("BPoint", "BLink", Multiplicity(1, 1)),
        "bPoints": ("BLink", "BPoint", Multiplicity(1, None)),
        "bPorts": ("BNode", "BPort", Multiplicity(0, None)),
        "bNode": ("BPort", "BNode", Multiplicity(1, 1)),
    }
    return TypeGraph(
        graph=Graph(
            nodes=frozenset(BASE_NODE_TYPE_NAMES),
            edges=frozenset(edges),
            src={e: s for e, (s, _, _) in edges.items()},
            tgt={e: t for e, (_, t, _) in edges.items()},
        ),
        inherits=frozenset(
            {
                ("BRoot", "BPlace"),
                ("BNode", "BPlace"),
                ("BSite", "BPlace"),
                ("BPort", "BPoint"),
                ("BInnerName", "BPoint"),
                ("BEdge", "BLink"),
                ("BOuterName", "BLink"),
            }
        ),
        abstracts=frozenset({"BPlace", "BPoint", "BLink"}),
        containments=frozenset({"bChld", "bPorts"}),
        opposites=symmetric_pairs([("bPrnt", "bChld"), ("bLink", "bPoints"), ("bPorts", "bNode")]),
        mult={e: m for e, (_, _, m) in edges.items()},
        attr_decls={
            "BRoot": {"index": "int"},
            "BSite": {"index": "int"},
            "BPort": {"index": "int"},
        },
    )


def extend_for_signature(sig: Signature) -> TypeGraph:
    """Control-compatible extension: one extra node type per control, each
    a subtype of the generic node type.

    It depends only on the controls of ``sig``, which are immutable, so it
    is kept on ``sig`` by weak reference: while anything else holds it (a
    caller, or a report kept on a graph checked against it), each call
    returns that type graph, which the kept checker reports then match by
    identity (:func:`keeps_report`). A signature whose type graph nobody
    holds keeps no memory for it."""
    kept = vars(sig).get("_type_graph")
    tg = kept() if kept is not None else None
    if tg is not None:
        return tg
    clash = set(sig.names) & set(BASE_NODE_TYPE_NAMES)
    if clash:
        raise ReservedControlName(f"controls collide with base node types: {sorted(clash)}")
    base = base_type_graph()
    tg = TypeGraph(
        graph=Graph(
            nodes=base.graph.nodes | set(sig.names),
            edges=base.graph.edges,
            src=base.graph.src,
            tgt=base.graph.tgt,
        ),
        inherits=base.inherits | {(c, "BNode") for c in sig.names},
        abstracts=base.abstracts,
        containments=base.containments,
        opposites=base.opposites,
        mult=base.mult,
        attr_decls=base.attr_decls,
    )
    vars(sig)["_type_graph"] = ref(tg)
    return tg


@keeps_report
def check_arity_rule(g: InstanceGraph, tg: TypeGraph, sig: Signature) -> ValidationReport:
    """Every node typed by a control must own exactly ``arity`` port edges.
    An arity that is not a non-negative integer gives one ``sig-arity``
    finding, as :func:`validate_bigraph` gives it, and the nodes of that
    control are not counted; so are the nodes of a control without an
    arity. The report is kept on ``g`` (:func:`keeps_report`) for these
    very ``tg`` and ``sig``, so ``sig.arities`` must not change in place.

    Cost: C-level passes count the sources of the ``bPorts`` edges
    (``g.edge_view``) and compare each counted node's count with its
    arity. Only when one differs are the nodes walked in sorted order,
    each port count one read of those counts."""
    arities = {c: sig.arities.get(c) for c in sig.names if c in tg.node_types}
    arities = {c: arity for c, arity in arities.items() if is_arity(arity)}
    findings = bad_arities(sig)
    nodes = g.graph.nodes
    types = list(map(g.node_types.get, nodes))
    counted = list(map(arities.__contains__, types))
    ports = Counter(g.edge_view.sources.get("bPorts", ()))
    port_counts = map(ports.get, compress(nodes, counted), repeat(0))
    if all(map(eq, port_counts, map(arities.__getitem__, compress(types, counted)))):
        return report_from(findings)
    for n in sorted(nodes):
        t = g.node_types.get(n)
        if t not in arities:
            continue
        want = arities[t]
        got = ports[n]
        if got != want:
            findings.append(
                Finding(
                    "arity",
                    n,
                    f"node of control {t!r} has {got} outgoing 'bPorts' edge(s), arity is {want}",
                )
            )
    return report_from(findings)


def conformance(g: InstanceGraph, tg: TypeGraph, sig: Signature | None = None) -> ValidationReport:
    """Conformance of ``g`` to ``tg``: the typing morphism, validity and
    multiplicities, then the arity rule when a signature is given, with
    the findings in that order."""
    rep = check_typing(g, tg).merged(check_validity(g, tg), check_multiplicities(g, tg))
    return rep if sig is None else rep.merged(check_arity_rule(g, tg, sig))
