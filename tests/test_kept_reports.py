"""The checkers keep their last report on the instance graph they checked.

``check_typing``, ``check_validity``, ``check_multiplicities`` and
``check_arity_rule`` each keep one slot on the graph: the arguments of
the last check and its report, returned for arguments equal to those.
The report must be exactly what the checker itself (``__wrapped__``)
gives, whether the same arguments come again, equal ones that are other
objects (a type graph built anew, loaded from a file or copied, a
signature loaded anew), another type graph or another signature; values
that are equal by ``==`` but print apart (``1 == True``) are refused at
construction. And ``decode`` after those four checks must run none of
their bodies. ``extend_for_signature`` keeps one type graph per set of
control names in a bounded table, ``annotate_150`` and
``derive_type_graph`` keep what they build on their argument, and the
writer keeps a type graph's text on it: each kept value equals, and
prints as, one built anew, and findings against it are those against one
built anew.
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
    FeatureConfig,
    InvalidConfig,
    annotate_150,
    derive_type_graph,
    enumerate_configs,
    fileio,
    validate_config,
    Graph,
    InstanceGraph,
    Multiplicity,
    Signature,
    base_type_graph,
    conformance,
    decode,
    encode,
    extend_for_signature,
    ReservedControlName,
    replace,
)
from bigtg.bigraph import BASE_NODE_TYPE_NAMES
from bigtg.generators import random_bigraph
from bigtg.mapping import NotCanonical, check_arity_rule
from bigtg.typedgraph import check_multiplicities, check_typing, check_validity

from helpers import mutated_encodings, outcome, type_graph_variants

GRAPH_CHECKERS = (check_typing, check_validity, check_multiplicities)
#: Arities a signature variant may take; values of other types are
#: refused at construction.
ODD_ARITIES = (0, 1, 2, 3, 5)


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


@pytest.fixture(scope="module")
def reloaded(tmp_path_factory):
    """``reloaded(sig)``: ``sig`` saved and loaded anew, another object."""
    path = str(tmp_path_factory.mktemp("signatures") / "anew.sig.json")

    def reload(sig):
        fileio.save(sig, path)
        return fileio.load_signature(path)

    return reload


@given(mutated_encodings())
@settings(max_examples=150, deadline=None)
def test_a_kept_slot_answers_equal_arguments_that_are_other_objects(reloaded, fixtures_dir, case):
    """The four checks against ``extend_for_signature(sig)``, then against
    the printer's type graph loaded from its file: each report is the
    checker's own, and a check against a copy of the type graph, or that
    type graph loaded again, with a signature loaded anew, returns the
    kept report without running the checker, and it is the checker's own
    for those arguments too."""
    g, b = case
    sig, printer = b.signature, str(fixtures_dir / "printer.tg.json")
    tg, loaded = extend_for_signature(sig), fileio.load_type_graph(printer)
    for kept, twin in ((tg, replace(tg)), (loaded, fileio.load_type_graph(printer))):
        sig_anew = reloaded(sig)
        assert twin == kept and twin is not kept and sig_anew == sig and sig_anew is not sig
        calls = [(checker, (kept,), (twin,)) for checker in GRAPH_CHECKERS]
        calls.append((check_arity_rule, (kept, sig), (twin, sig_anew)))
        for checker, args, equal in calls:
            first = checker(g, *args)
            assert first == checker.__wrapped__(g, *args)
            again = checker(g, *equal)
            assert again is first and again == checker.__wrapped__(g, *equal)


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
    tg, fresh = extend_for_signature(sig), unkept_extension(twin)
    assert extend_for_signature(sig) is tg and extend_for_signature(twin) is tg
    assert fresh == tg and fresh is not tg
    assert conformance(g, tg, sig) == conformance(replace(g), fresh, twin)
    assert outcome(decoded, g, sig) == outcome(decoded, replace(g), twin)


def unkept_extension(sig):
    """``extend_for_signature(sig)`` built anew, without the table."""
    return bigtg.metamodel._extension.__wrapped__(frozenset(sig.names))


def _signature(*names):
    return Signature(tuple(map(Control, names)), dict.fromkeys(names, 0))


def test_the_signature_does_not_keep_a_type_graph_alive():
    """The table keeps the type graphs of the last ``_KEPT_NAME_SETS``
    sets of control names, whatever signature objects name them: a set
    pushed out by as many others keeps its type graph only while
    something else holds it, so a run over many sets of control names
    holds a bounded number of type graphs."""
    tg = extend_for_signature(_signature("Bound:a", "Bound:b"))
    assert extend_for_signature(_signature("Bound:b", "Bound:a")) is tg
    held = weakref.ref(tg)
    del tg
    others = [_signature(f"Bound:{i}") for i in range(bigtg.metamodel._KEPT_NAME_SETS)]
    for sig in others[:-1]:
        extend_for_signature(sig)
    gc.collect()
    assert held() is not None
    extend_for_signature(others[-1])
    gc.collect()
    assert held() is None


#: Control names to draw from, two of them reserved.
DRAWN_NAMES = ("Printer", "Room", "Job", "Spool", "BNode", "BPort")
#: Configurations that the feature model refuses.
INVALID_CONFIGS = tuple(map(FeatureConfig, ({"ST", "WT"}, {"ST", "RI"}, {"ST", "XX"}, set())))


@given(
    st.lists(st.sampled_from(DRAWN_NAMES), unique=True, max_size=4),
    st.lists(st.sampled_from(ODD_ARITIES), min_size=4, max_size=4),
    st.randoms(use_true_random=False),
)
@settings(max_examples=30, deadline=None)
def test_a_kept_derivation_equals_and_prints_as_a_fresh_one(names, arities, rnd):
    """A signature, its twin with other arities and one with its controls
    in a drawn order, twice each, every valid configuration and some
    invalid ones in a shuffled order: the extension, its 150% type graph
    and each derived type graph equal the ones built anew, without the
    table, and each prints as a copy of it, also once its text is kept.
    A reserved name and an invalid configuration are refused on every
    call."""
    sigs = [
        Signature(tuple(map(Control, names)), dict(zip(names, arities))),
        Signature(tuple(map(Control, names)), dict.fromkeys(names, 1)),
        _signature(*rnd.sample(names, len(names))),
    ]
    configs = enumerate_configs() + list(INVALID_CONFIGS)
    rnd.shuffle(configs)
    reserved = not set(names).isdisjoint(BASE_NODE_TYPE_NAMES)
    for sig in sigs * 2:
        if reserved:
            with pytest.raises(ReservedControlName):
                extend_for_signature(sig)
            continue
        tg, fresh = extend_for_signature(sig), unkept_extension(sig)
        assert tg == fresh and fileio.dumps_canonical(tg) == fileio.dumps_canonical(replace(tg))
        atg = annotate_150(tg)
        assert annotate_150(tg) is atg and atg == annotate_150(fresh)
        for config in configs:
            if not validate_config(config).ok:
                with pytest.raises(InvalidConfig):
                    derive_type_graph(atg, config)
                continue
            derived = derive_type_graph(atg, config)
            assert derived is derive_type_graph(atg, FeatureConfig(config.selected))
            assert derived == derive_type_graph(annotate_150(fresh), config)
            assert fileio.dumps_canonical(derived) == fileio.dumps_canonical(replace(derived))


def test_a_reserved_control_is_refused_on_every_call():
    sig = Signature((Control("BNode"),), {"BNode": 0})
    for _ in range(2):
        with pytest.raises(ReservedControlName):
            extend_for_signature(sig)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda sig: Signature(sig.controls, dict.fromkeys(sig.arities, True)), "Signature.arities holds True, which is not a non-negative int"),
        (lambda sig: Signature(sig.controls, dict.fromkeys(sig.arities, 1.0)), "Signature.arities holds 1.0, which is not a non-negative int"),
        (lambda sig: Multiplicity(True, True), "Multiplicity.lb holds True, which is not an int"),
        (lambda sig: Graph(nodes={1, "N"}), "Graph.nodes holds 1, which is not a str"),
        (lambda sig: Graph(nodes={"N"}, edges={True}), "Graph.edges holds True, which is not a str"),
        (lambda sig: InstanceGraph(Graph(nodes={"n"}), node_types={"n": 3}), "InstanceGraph.node_types holds 3, which is not a str"),
    ],
    ids=["arity-bool", "arity-float", "bound-bool", "node-type-int", "edge-type-bool", "typed-by-int"],
)
def test_values_equal_by_eq_but_printed_apart_are_refused_at_construction(sig1, build, message):
    """``1 == True == 1.0``, but they print apart: no argument of a kept
    checker can hold them, so a report kept for one value is never the
    report of another that prints otherwise."""
    with pytest.raises(TypeError) as refused:
        build(sig1)
    assert str(refused.value) == message


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
