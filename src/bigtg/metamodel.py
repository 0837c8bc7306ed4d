"""The canonical metamodel of bigraphs and conformance to it.

Provides the base type graph modeling bigraph anatomy, its
control-compatible extension for a signature, the arity well-formedness
rule, and :func:`conformance`, which runs every checker of an instance
graph. This is all of the bridge that ``bigtg validate``, ``check``,
``metamodel`` and ``configure`` run; :mod:`bigtg.mapping` adds
``encode`` and ``decode`` on top and re-exports every name here.
"""

from __future__ import annotations

from weakref import ref

from .bigraph import BASE_NODE_TYPE_NAMES, ReservedControlName, Signature
from .report import Finding, ValidationReport, report_from
from .typedgraph import (
    Graph,
    InstanceGraph,
    Multiplicity,
    TypeGraph,
    _bound_findings,
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
    returns that type graph, which a kept checker report then matches by
    identity, without comparing type graphs (:func:`keeps_report`). A
    signature whose type graph nobody holds, or a copy of a signature,
    keeps no memory for it."""
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
    """Every node typed by a control must own exactly ``arity`` port edges:
    one ``arity`` finding per node that does not. The nodes of a control
    without an arity are not counted. The report is kept on ``g``
    (:func:`keeps_report`) for ``tg`` and ``sig`` and any equal to them.

    Cost: the arity is one more multiplicity: the controls that share an
    arity ``a`` share one ``[a,a]`` bound on ``bPorts``, which
    :func:`_bound_findings` tests, and walks only when it fails."""
    controls: dict[int, set[str]] = {}
    for c in sig.names:
        if c in tg.node_types and c in sig.arities:
            controls.setdefault(sig.arities[c], set()).add(c)
    bounds = [("bPorts", of_arity, Multiplicity(a, a)) for a, of_arity in controls.items()]
    return report_from(_bound_findings(g, bounds, _arity_finding))


def _arity_finding(n: str, t: str, te: str, m: Multiplicity, count: int) -> Finding:
    return Finding("arity", n, f"node of control {t!r} has {count} outgoing 'bPorts' edge(s), arity is {m.lb}")


def conformance(g: InstanceGraph, tg: TypeGraph, sig: Signature | None = None) -> ValidationReport:
    """Conformance of ``g`` to ``tg``: the typing morphism, validity and
    multiplicities, then the arity rule when a signature is given, with
    the findings in that order."""
    rep = check_typing(g, tg).merged(check_validity(g, tg), check_multiplicities(g, tg))
    return rep if sig is None else rep.merged(check_arity_rule(g, tg, sig))
