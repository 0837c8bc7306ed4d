"""The checkers keep their last report on the instance graph they checked.

``check_typing``, ``check_validity``, ``check_multiplicities`` and
``check_arity_rule`` each keep one slot on the graph: the arguments of
the last check and its report, returned only for the same argument
objects. The report must be exactly what the checker itself
(``__wrapped__``) gives, whether the same arguments come again, an equal
type graph built anew for an equal signature, another type graph, another
signature, or a type graph equal to the kept one by ``==`` that prints
differently (``1 == True``). And ``decode`` after those four checks
must run none of their bodies. ``extend_for_signature`` keeps the type
graph it builds on the signature, and findings against it are those
against one built anew.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bigtg.metamodel
import bigtg.typedgraph
from bigtg import (
    Control,
    Graph,
    InstanceGraph,
    Multiplicity,
    Signature,
    TypeGraph,
    base_type_graph,
    conformance,
    decode,
    encode,
    extend_for_signature,
    ReservedControlName,
    replace,
)
from bigtg.generators import random_bigraph
from bigtg.mapping import NotCanonical, check_arity_rule
from bigtg.typedgraph import check_multiplicities, check_typing, check_validity, symmetric_pairs

from helpers import mutated_encodings, outcome, type_graph_variants

GRAPH_CHECKERS = (check_typing, check_validity, check_multiplicities)
#: Arities that are equal to an arity of 1 or 2 by ``==`` but not arities,
#: or not arities at all.
ODD_ARITIES = (0, 1, 2, True, 1.0, -0.0, "2", -1)


@st.composite
def clean_encodings(draw):
    b = random_bigraph(random.Random(draw(st.integers(0, 1_000_000))))
    return encode(b)[0], b


@st.composite
def signature_variants(draw, sig: Signature):
    """``sig`` with some arities replaced, in the same control order."""
    arities = {c: draw(st.sampled_from((a, *ODD_ARITIES))) for c, a in sig.arities.items()}
    return Signature(sig.controls, arities)


@given(st.one_of(mutated_encodings(), clean_encodings()), st.data())
@settings(max_examples=200, deadline=None)
def test_kept_reports_equal_the_checkers(case, data):
    g, b = case
    sig = b.signature
    tg, other_tg = extend_for_signature(sig), data.draw(type_graph_variants(sig))
    other_sig = data.draw(signature_variants(sig))
    calls = [(checker, (tg,), (other_tg,)) for checker in GRAPH_CHECKERS]
    calls += [(check_arity_rule, (tg, sig), (other_tg, sig)), (check_arity_rule, (tg, sig), (tg, other_sig))]
    for checker, args, other_args in calls:
        first = checker(g, *args)
        assert first == checker.__wrapped__(g, *args)
        assert checker(g, *args) is first
        fresh = (extend_for_signature(replace(sig)), *args[1:])
        assert checker(g, *fresh) == first
        assert checker(g, *other_args) == checker.__wrapped__(g, *other_args)
        assert checker(g, *args) == first


def decoded(g, sig):
    """What ``decode`` returns, or the findings and message it raises."""
    try:
        return decode(g, sig)
    except NotCanonical as exc:
        return exc.report, str(exc)


@given(st.one_of(mutated_encodings(), clean_encodings()))
@settings(max_examples=150, deadline=None)
def test_the_kept_type_graph_gives_the_findings_of_a_fresh_one(case):
    g, b = case
    sig, twin = b.signature, replace(b.signature)
    tg, fresh = extend_for_signature(sig), extend_for_signature(twin)
    assert extend_for_signature(sig) is tg and extend_for_signature(twin) is fresh
    assert fresh == tg and fresh is not tg
    assert conformance(g, tg, sig) == conformance(replace(g), fresh, twin)
    assert outcome(decoded, g, sig) == outcome(decoded, replace(g), twin)


def test_the_signature_does_not_keep_a_type_graph_alive(sig1):
    """A signature keeps its type graph only while something else holds
    it, so a run over many signatures holds no type graph it no longer uses."""
    sig = replace(sig1)
    held = weakref.ref(extend_for_signature(sig))
    gc.collect()
    assert held() is None
    tg = extend_for_signature(sig)
    assert extend_for_signature(sig) is tg == extend_for_signature(sig1)


def test_a_reserved_control_is_refused_on_every_call():
    sig = Signature((Control("BNode"),), {"BNode": 0})
    for _ in range(2):
        with pytest.raises(ReservedControlName):
            extend_for_signature(sig)


def test_an_arity_equal_by_eq_is_still_told_apart(g1, sig1, tg_sigma1):
    """``1 == True`` and ``1 == 1.0``, but only ``1`` is an arity, so a
    report kept for one signature is not the report of the other."""
    reports = []
    for arity in (1, True, 1.0, 1):
        sig = Signature(sig1.controls, dict.fromkeys(sig1.arities, arity))
        reports.append(check_arity_rule(g1, tg_sigma1, sig))
        assert reports[-1] == check_arity_rule.__wrapped__(g1, tg_sigma1, sig)
    assert reports[0] == reports[3] != reports[1] != reports[2]


def test_a_bound_equal_by_eq_is_still_told_apart():
    """``Multiplicity(1, 1) == Multiplicity(True, True)``, but the findings
    print the bounds as given."""
    tg = TypeGraph(graph=Graph(nodes={"N"}, edges={"e"}, src={"e": "N"}, tgt={"e": "N"}), mult={"e": Multiplicity(1, 1)})
    g = InstanceGraph(graph=Graph(nodes={"n"}), node_types={"n": "N"})
    for bound in (1, True, 1.0, 1):
        other = replace(tg, mult={"e": Multiplicity(bound, bound)})
        assert other == tg
        assert check_multiplicities(g, other) == check_multiplicities.__wrapped__(g, other)
        assert f"multiplicity [{bound},{bound}]" in check_multiplicities(g, other).findings[0].message


def _edge_type_graph(end):
    """Node types ``end`` and ``N``, and an edge type ``e`` from ``end`` to ``end``."""
    return TypeGraph(graph=Graph(nodes={end, "N"}, edges={"e"}, src={"e": end}, tgt={"e": end}))


def _equal_but_printed_apart(checker, g, tg, twin):
    """``twin == tg``, yet the findings against each print its own names."""
    assert twin == tg and twin is not tg
    first = checker(g, tg)
    assert not first.ok and first == checker.__wrapped__(g, tg)
    second = checker(g, twin)
    assert second == checker.__wrapped__(g, twin) != first
    return first, second


def test_typing_against_an_equal_type_graph_prints_its_own_end():
    g = InstanceGraph(
        graph=Graph(nodes={"n"}, edges={"e1"}, src={"e1": "n"}, tgt={"e1": "n"}),
        node_types={"n": "N"},
        edge_types={"e1": "e"},
    )
    first, second = _equal_but_printed_apart(check_typing, g, _edge_type_graph(1), _edge_type_graph(True))
    assert "(expects 1)" in first.findings[0].message
    assert "(expects True)" in second.findings[0].message


def test_multiplicities_against_an_equal_type_graph_print_their_own_edge_type():
    def bounded(name):
        return TypeGraph(
            graph=Graph(nodes={"N"}, edges={name}, src={name: "N"}, tgt={name: "N"}), mult={name: Multiplicity(1, 1)}
        )

    g = InstanceGraph(graph=Graph(nodes={"n"}), node_types={"n": "N"})
    first, second = _equal_but_printed_apart(check_multiplicities, g, bounded(1), bounded(True))
    assert [f.location for f in first.findings] == ["n.1"]
    assert [f.location for f in second.findings] == ["n.True"]


def test_validity_against_an_equal_type_graph_prints_its_own_opposite():
    """Every name of the type graphs is an integer, since ``_opposite``
    sorts the pairs."""

    def paired(one):
        return TypeGraph(
            graph=Graph(nodes={3}, edges={one, 2}, src={one: 3, 2: 3}, tgt={one: 3, 2: 3}),
            opposites=symmetric_pairs([(one, 2)]),
        )

    g = InstanceGraph(
        graph=Graph(nodes={"n", "m"}, edges={"x"}, src={"x": "n"}, tgt={"x": "m"}),
        node_types={"n": 3, "m": 3},
        edge_types={"x": 2},
    )
    first, second = _equal_but_printed_apart(check_validity, g, paired(1), paired(True))
    assert first.findings[0].message.endswith("0 opposite 1 edge(s)")
    assert second.findings[0].message.endswith("0 opposite True edge(s)")


def test_the_arity_rule_is_kept_per_type_graph(g1, sig1, tg_sigma1):
    """Each node owns one port too few for ``sig``, which only a type graph
    with the control types flags."""
    sig = Signature(sig1.controls, {c: arity + 1 for c, arity in sig1.arities.items()})
    flagged = check_arity_rule(g1, tg_sigma1, sig)
    assert not flagged.ok
    assert check_arity_rule(g1, base_type_graph(), sig).ok
    assert check_arity_rule(g1, tg_sigma1, sig) == flagged


def test_a_call_with_fewer_arguments_is_no_hit(g1, sig1, tg_sigma1):
    """Each kept argument is matched, so a call that leaves one out runs
    the checker, which refuses it."""
    check_arity_rule(g1, tg_sigma1, sig1)
    with pytest.raises(TypeError):
        check_arity_rule(g1, tg_sigma1)


def test_checkers_keep_their_names():
    for checker in (*GRAPH_CHECKERS, check_arity_rule):
        assert checker.__name__ == checker.__wrapped__.__name__
        assert checker.__module__ == checker.__wrapped__.__module__


@pytest.fixture
def checker_bodies(monkeypatch):
    """Counts, per module, the calls of the ``report_from`` that ends each
    of the four checker bodies: three in ``typedgraph``, one (the arity
    rule) in ``metamodel``. A clean graph runs no walk, so only this call
    shows that a body ran."""
    counts = {"typedgraph": 0, "metamodel": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (bigtg.typedgraph, bigtg.metamodel):
        name = module.__name__.rpartition(".")[2]
        monkeypatch.setattr(module, "report_from", counted(name, module.report_from))
    return counts


def _four_checks(g, tg, sig):
    return [check(g, tg) for check in GRAPH_CHECKERS] + [check_arity_rule(g, tg, sig)]


@pytest.mark.parametrize("seed", range(8))
def test_decode_after_the_four_checks_runs_no_checker(seed, checker_bodies):
    b = random_bigraph(random.Random(seed))
    g, emap = encode(b)
    reports = _four_checks(g, extend_for_signature(b.signature), b.signature)
    assert all(r.ok for r in reports)
    assert checker_bodies == {"typedgraph": 3, "metamodel": 1}
    before = dict(checker_bodies)
    assert decode(g, b.signature) == (b, emap)
    assert checker_bodies == before


def test_decode_after_conformance_runs_no_checker(g1, sig1, checker_bodies):
    g = replace(g1)  # a graph of its own, checked here first
    assert conformance(g, extend_for_signature(sig1), sig1).ok
    before = dict(checker_bodies)
    decode(g, sig1)
    assert checker_bodies == before


def test_decode_of_a_failing_graph_reuses_the_kept_findings(g1, sig1, checker_bodies):
    g = replace(g1, node_types={**g1.node_types, "r:0": "BPlace"})
    tg = extend_for_signature(sig1)
    reports = _four_checks(g, tg, sig1)
    before = dict(checker_bodies)
    with pytest.raises(NotCanonical) as raised:
        decode(g, sig1)
    assert checker_bodies == before
    assert raised.value.report.findings == tuple(f for r in reports for f in r.findings)
    assert "typing-abstract" in raised.value.report.codes()


def test_a_new_graph_is_checked_anew(g1, tg_sigma1, checker_bodies):
    """The slot belongs to the graph object: an equal graph built anew,
    or one changed through ``replace``, is checked from scratch."""
    check_typing(g1, tg_sigma1)
    for g in (replace(g1), replace(g1, attrs={**g1.attrs, ("r:0", "index"): "0"})):
        before = checker_bodies["typedgraph"]
        report = check_typing(g, tg_sigma1)
        assert checker_bodies["typedgraph"] == before + 1
        assert report == check_typing.__wrapped__(g, tg_sigma1)
