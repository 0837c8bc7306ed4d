"""The canonical metamodel of bigraphs and conformance to it.

Provides the base type graph modeling bigraph anatomy, its
control-compatible extension for a signature, the arity well-formedness
rule, the canonical rules, and :func:`conformance`, which runs every
checker of an instance graph and so alone decides what decodes. This is
all of the bridge that ``bigtg validate``, ``check``, ``metamodel`` and
``configure`` run; :mod:`bigtg.mapping` adds ``encode`` and ``decode`` on
top and re-exports every name here.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import is_

from .bigraph import BASE_NODE_TYPE_NAMES, ReservedControlName, Signature
from .report import Finding, ValidationReport, report_from
from .typedgraph import (
    Graph,
    InstanceGraph,
    Multiplicity,
    TypeGraph,
    _bound_findings,
    _grouped,
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


#: The most sets of control names whose type graphs are kept at once (see
#: :func:`extend_for_signature`).
_KEPT_NAME_SETS = 8


def extend_for_signature(sig: Signature) -> TypeGraph:
    """Control-compatible extension: one extra node type per control, each
    a subtype of the generic node type. Raises ``ReservedControlName`` on
    every call whose controls name a base node type.

    It depends only on the set of control names of ``sig``, so one type
    graph per set is kept in a table of the ``_KEPT_NAME_SETS`` sets used
    last: signatures loaded anew, copied or with their controls in
    another order get the same object while its set stays in the table,
    and what is kept on it comes along (the 150% type graph of
    :func:`bigtg.variability.annotate_150`, its derived type graphs, each
    one's canonical text). A kept checker report then matches it by
    identity, without comparing type graphs (:func:`keeps_report`). A set
    pushed out of the table keeps its type graph only while something
    else holds it. The printer signature's set, with its 54 derived type
    graphs printed, holds about 460 KiB (600 KiB once a check has built
    each one's subtype closure), so the table holds a few MiB at most."""
    names = frozenset(sig.names)
    clash = names.intersection(BASE_NODE_TYPE_NAMES)
    if clash:
        raise ReservedControlName(f"controls collide with base node types: {sorted(clash)}")
    return _extension(names)


@lru_cache(maxsize=_KEPT_NAME_SETS)
def _extension(names: frozenset[str]) -> TypeGraph:
    """The extension for the control ``names``, built anew by
    ``_extension.__wrapped__``."""
    base = base_type_graph()
    return TypeGraph(
        graph=Graph(
            nodes=base.graph.nodes | names,
            edges=base.graph.edges,
            src=base.graph.src,
            tgt=base.graph.tgt,
        ),
        inherits=base.inherits | {(c, "BNode") for c in names},
        abstracts=base.abstracts,
        containments=base.containments,
        opposites=base.opposites,
        mult=base.mult,
        attr_decls=base.attr_decls,
    )


@keeps_report
def check_arity_rule(g: InstanceGraph, tg: TypeGraph, sig: Signature) -> ValidationReport:
    """Every node typed by a control must own exactly ``arity`` port edges:
    one ``arity`` finding per node that does not. The nodes of a control
    without an arity are not counted. The report is kept on ``g``
    (:func:`keeps_report`) for ``tg`` and ``sig`` and any equal to them.

    Cost: the arity is one more multiplicity: the controls that share an
    arity ``a`` share one ``[a,a]`` bound on ``bPorts``, which
    :func:`_bound_findings` tests, and walks only when it fails; each is
    built unchecked, from an arity that ``Signature`` has checked."""
    controls: dict[int, set[str]] = {}
    for c in sig.names:
        if c in tg.node_types and c in sig.arities:
            controls.setdefault(sig.arities[c], set()).add(c)
    bounds = [("bPorts", of_arity, Multiplicity._adopt(a, a)) for a, of_arity in controls.items()]
    return report_from(_bound_findings(g, bounds, _arity_finding))


def _arity_finding(n: str, t: str, te: str, m: Multiplicity, count: int) -> Finding:
    return Finding("arity", n, f"node of control {t!r} has {count} outgoing 'bPorts' edge(s), arity is {m.lb}")


def _canonical_rules(g: InstanceGraph, tg: TypeGraph, sig: Signature) -> ValidationReport:
    """The rules of a canonical encoding beyond conformance to ``tg``, in
    this order, each only where ``tg`` declares what it reads: no node is
    typed ``BNode`` when the controls are node types (``untyped-control``);
    no root has a parent and every node and site has one when there is a
    ``BRoot``, and no site is a parent (``canonical-parent``; a graph that
    passes typing has sites only where ``tg`` has ``BSite``); the roots, the sites and each owner's ports
    carry ``index`` values that form the range ``0..n-1``, for each of
    their types that declares ``index`` (``canonical-index``, on each
    member without one, then on each owner, or type, whose indices are not
    that range). Only :func:`conformance` calls it, on a graph that passes
    the other checks, so each index is an integer and each port has one
    owner. Whole-column tests decide: the roots, or the sites, pass when
    their indices sorted are ``0..n-1``, and only the ports' owners are
    counted, or a group's that fails, which alone is walked."""
    view, findings = g.edge_view, []
    of_type = view.by_node_type

    def flag(code: str, nodes: Iterable[str], message: str) -> None:
        findings.extend(Finding(code, n, message) for n in sorted(nodes))

    if "BNode" in of_type and tg.node_types.issuperset(sig.names):
        flag("untyped-control", of_type["BNode"], "node typed 'BNode' instead of a control type")
    if "BRoot" in tg.node_types:
        children = set(view.sources.get("bPrnt", ()))
        places = set(chain.from_iterable(map(of_type.get, {*sig.names, "BNode", "BSite"}, repeat(()))))
        flag("canonical-parent", children.intersection(of_type.get("BRoot", ())), "root has a parent")
        flag("canonical-parent", places - children, "node or site has no parent")
    parents = set(map(g.graph.tgt.__getitem__, view.by_type.get("bPrnt", ())))
    flag("canonical-parent", parents.intersection(of_type.get("BSite", ())), "site is a parent")

    owner_of = view.target_of("bNode")
    for t, what in (("BRoot", "root"), ("BSite", "site"), ("BPort", "port")):
        if t not in tg.node_types or "index" not in tg._attrs[t]:
            continue
        members = of_type.get(t, [])
        indices = list(map(g.attrs.get, zip(members, repeat("index"))))
        # A root or a site has one owner, its type: its group passes when
        # its indices sorted are the range.
        if t != "BPort" and None not in indices and sorted(indices) == list(range(len(indices))):
            continue
        owners = list(map(owner_of.get, members, repeat(t)))
        if t == "BPort" and None not in indices and len(set(zip(owners, indices))) == len(indices):
            count = Counter(owners)
            if all(map(range.__contains__, map(range, map(count.__getitem__, owners)), indices)):
                continue
        flag("canonical-index", compress(members, map(is_, indices, repeat(None))), f"{what} has no 'index'")
        for owner, got in sorted(_grouped(owners, indices).items()):
            if None not in got and sorted(got) != list(range(len(got))):  # type: ignore[type-var]
                message = f"{what} indices {sorted(got)} are not the gap-free range 0..{len(got) - 1}"
                findings.append(Finding("canonical-index", owner, message))
    return report_from(findings)


def conformance(g: InstanceGraph, tg: TypeGraph, sig: Signature | None = None) -> ValidationReport:
    """Conformance of ``g`` to ``tg``: the typing morphism, validity and
    multiplicities, then, given a signature, the arity rule and, if all of
    those pass, the canonical rules (:func:`_canonical_rules`), findings in
    that order. Against ``extend_for_signature(sig)`` it holds exactly when
    :func:`bigtg.mapping.decode` rebuilds, unless ids collide there."""
    rep = check_typing(g, tg).merged(check_validity(g, tg), check_multiplicities(g, tg))
    if sig is None:
        return rep
    rep = rep.merged(check_arity_rule(g, tg, sig))
    return rep if rep.findings else _canonical_rules(g, tg, sig)
