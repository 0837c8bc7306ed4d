"""``check_type_graph`` enforces the EMOF rules on opposite edge types.

Each rule is restated below as a one-line reference over the unordered
opposite pairs of known edge types; ``check_type_graph`` must give the
same findings of each code, in the same order, on random type graphs.
The system's own type graphs (the canonical one, the printer fixture and
all 54 derived variants) meet all three rules.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from bigtg import (
    Graph,
    Multiplicity,
    TypeGraph,
    annotate_150,
    check_type_graph,
    derive_type_graph,
    enumerate_configs,
    extend_for_signature,
    fileio,
    replace,
)
from bigtg.generators import random_signature
from bigtg.typedgraph import symmetric_pairs

from helpers import BOUNDS, type_graph_variants

def pairs(tg: TypeGraph) -> list[tuple[str, str]]:
    return sorted({tuple(sorted(p)) for p in tg.opposites if p[0] != p[1] and set(p) <= tg.edge_types})


def ref_rules(tg: TypeGraph) -> dict[str, list[str]]:
    """The locations each rule flags, one line per rule."""
    src, tgt, cont, mult = tg.graph.src.get, tg.graph.tgt.get, tg.containments, tg.mult
    return {
        "tg-opposite-ends": [f"({a},{b})" for a, b in pairs(tg) if (src(a), tgt(a)) != (tgt(b), src(b))],
        "tg-opposite-containments": [f"({a},{b})" for a, b in pairs(tg) if {a, b} <= cont],
        "tg-container-mult": [
            y for a, b in pairs(tg) for x, y in ((a, b), (b, a)) if x in cont and y in mult and mult[y].ub not in (0, 1)
        ],
    }


@st.composite
def opposite_type_graphs(draw):
    """A variant type graph (``helpers.type_graph_variants``) with more
    edits on the opposite pairs: an edge type's ends swapped or moved to
    another node type, a symmetric pair added, containment toggled, or a
    bound changed."""
    sig = random_signature(random.Random(draw(st.integers(0, 1_000))))
    tg = draw(type_graph_variants(sig))
    src, tgt = dict(tg.graph.src), dict(tg.graph.tgt)
    opposites, containments, mult = set(tg.opposites), set(tg.containments), dict(tg.mult)
    edge_types, node_types = sorted(tg.edge_types), sorted(tg.node_types)
    for _ in range(draw(st.integers(0, 4))):
        e = draw(st.sampled_from(edge_types))
        kind = draw(st.sampled_from(("swap", "move", "pair", "containment", "mult")))
        if kind == "swap" and e in src and e in tgt:
            src[e], tgt[e] = tgt[e], src[e]
        elif kind == "move":
            draw(st.sampled_from((src, tgt)))[e] = draw(st.sampled_from(node_types))
        elif kind == "pair":
            opposites |= symmetric_pairs([(e, draw(st.sampled_from(edge_types)))])
        elif kind == "containment":
            containments ^= {e}
        else:
            mult[e] = draw(st.sampled_from(BOUNDS))
    graph = Graph(nodes=tg.graph.nodes, edges=tg.graph.edges, src=src, tgt=tgt)
    return replace(tg, graph=graph, opposites=opposites, containments=containments, mult=mult)


@given(opposite_type_graphs())
@settings(max_examples=400, deadline=None)
def test_emof_rules_match_their_references(tg):
    findings = check_type_graph(tg).findings
    for code, want in ref_rules(tg).items():
        assert [f.location for f in findings if f.code == code] == want, code


def test_the_systems_own_type_graphs_meet_the_rules(fixtures_dir, sig1, tg_sigma1):
    printer = fileio.load_type_graph(str(fixtures_dir / "printer.tg.json"))
    derived = [derive_type_graph(annotate_150(tg_sigma1), cfg) for cfg in enumerate_configs()]
    assert len(derived) == 54
    for tg in (tg_sigma1, printer, extend_for_signature(sig1), *derived):
        assert check_type_graph(tg).ok
        assert any(pairs(tg)) and not any(ref_rules(tg).values())


def test_two_containments_opposite_each_other_break_every_rule():
    """The type graph that no EMOF tool would load: ``a`` and ``b`` both
    run from A to B, are opposite, are containments and are ``[0,*]``."""
    tg = TypeGraph(
        graph=Graph(nodes={"A", "B"}, edges={"a", "b"}, src={"a": "A", "b": "A"}, tgt={"a": "B", "b": "B"}),
        containments={"a", "b"},
        opposites=symmetric_pairs([("a", "b")]),
        mult={"a": Multiplicity(0), "b": Multiplicity(0)},
    )
    assert [f.line() for f in check_type_graph(tg).findings] == [
        "error tg-opposite-ends (a,b) opposite ends do not mirror: 'a' is A->B, 'b' is A->B",
        "error tg-opposite-containments (a,b) both edge types of an opposite pair are containments",
        "error tg-container-mult b opposite of containment 'a' has multiplicity [0,*], upper bound above 1",
        "error tg-container-mult a opposite of containment 'b' has multiplicity [0,*], upper bound above 1",
    ]


def test_a_containment_with_a_single_valued_opposite_passes():
    tg = TypeGraph(
        graph=Graph(nodes={"A", "B"}, edges={"has", "in"}, src={"has": "A", "in": "B"}, tgt={"has": "B", "in": "A"}),
        containments={"has"},
        opposites=symmetric_pairs([("has", "in")]),
        mult={"has": Multiplicity(0), "in": Multiplicity(1, 1)},
    )
    assert check_type_graph(tg).ok
    assert check_type_graph(replace(tg, mult={**tg.mult, "in": Multiplicity(0, 2)})).codes() == {"tg-container-mult"}
