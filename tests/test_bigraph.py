from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigtg import (
    Bigraph,
    DuplicateControl,
    Interface,
    Port,
    ReservedControlName,
    Signature,
    check_soundness,
    encode,
    make_signature,
    ports_of,
    replace,
    validate_bigraph,
)
from bigtg.generators import random_bigraph

SIG1_PAIRS = [("Job", 0), ("User", 1), ("Room", 1), ("Spool", 1), ("Printer", 2), ("Computer", 1)]


def test_make_signature_printer():
    sig = make_signature(SIG1_PAIRS)
    assert sig.names == ("Job", "User", "Room", "Spool", "Printer", "Computer")
    assert sig.arity("Printer") == 2
    assert sig.arity("Job") == 0


def test_make_signature_empty():
    sig = make_signature([])
    assert sig.names == ()


def test_make_signature_rejects_reserved_name():
    with pytest.raises(ReservedControlName):
        make_signature([("BNode", 1)])


def test_make_signature_rejects_duplicates():
    with pytest.raises(DuplicateControl):
        make_signature([("A", 1), ("A", 2)])


def test_make_signature_rejects_negative_arity():
    with pytest.raises(ValueError):
        make_signature([("A", -1)])


def test_ports_of_printer_example(b1):
    assert len(ports_of(b1)) == 7


def test_ports_of_empty():
    assert ports_of(Bigraph(Signature())) == set()


def test_ports_of_single_printer():
    sig = make_signature(SIG1_PAIRS)
    b = Bigraph(
        signature=sig,
        nodes={"v"},
        ctrl={"v": "Printer"},
        prnt={"v": 0},
        link={("v", 0): "e", ("v", 1): "e"},
        edges={"e"},
        outer=Interface(1),
    )
    assert ports_of(b) == {Port("v", 0), Port("v", 1)}


def test_ports_of_skips_a_node_without_a_declared_control():
    # The constructor accepts a node without a control ("w") and one with
    # a control the signature does not declare ("x"); neither has ports.
    b = Bigraph(
        signature=make_signature(SIG1_PAIRS),
        nodes={"v", "w", "x"},
        ctrl={"v": "Printer", "x": "Ghost"},
        prnt={"v": 0, "w": 0, "x": 0},
        link={("v", 0): "e", ("v", 1): "e", ("x", 0): "e"},
        edges={"e"},
        outer=Interface(1),
    )
    assert ports_of(b) == {Port("v", 0), Port("v", 1)}
    assert [f.line() for f in validate_bigraph(b).findings] == [
        "error ctrl-total ctrl[w] node has no control",
        "error ctrl-unknown-control ctrl[x] control 'Ghost' is not declared by the signature",
        "error link-domain link[(x,0)] link assigned to unknown inner name or port",
    ]


@given(st.integers(min_value=0, max_value=10_000), st.data())
@settings(max_examples=60, deadline=None)
def test_ports_of_drops_exactly_the_ports_of_edited_controls(seed, data):
    b = random_bigraph(random.Random(seed))
    if not b.nodes:
        return
    # None removes a node's control; "Ghost" is declared by no signature.
    edits = data.draw(st.dictionaries(st.sampled_from(sorted(b.nodes)), st.sampled_from([None, "Ghost"]), max_size=3))
    edited = replace(b, ctrl={v: c for v, c in {**b.ctrl, **edits}.items() if c is not None})
    lost = {p for p in ports_of(b) if p.node in edits}
    assert ports_of(edited) == ports_of(b) - lost
    assert {f.location for f in validate_bigraph(edited).findings if f.code == "link-domain"} == {
        f"link[({p.node},{p.index})]" for p in lost
    }


def test_an_unhashable_control_is_a_finding_not_a_type_error():
    b = Bigraph(make_signature([("A", 1)]), nodes={"v"}, ctrl={"v": ["A"]}, prnt={"v": 0}, outer=Interface(1))
    assert ports_of(b) == set()
    assert [f.line() for f in validate_bigraph(b).findings] == [
        "error ctrl-unknown-control ctrl[v] control ['A'] is not declared by the signature"
    ]
    g, emap = encode(replace(b, ctrl={"v": "A"}, link={("v", 0): "e"}, edges={"e"}))
    assert check_soundness(b, g, emap) == validate_bigraph(b)


#: Control values that no signature of string control names declares,
#: hashable or not.
_NON_STRING_CONTROLS = st.recursive(
    st.none() | st.integers() | st.booleans() | st.text(max_size=3).map(lambda s: [s]),
    lambda inner: st.lists(inner, max_size=2)
    | st.tuples(inner)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


@given(st.integers(min_value=0, max_value=10_000), st.data())
@settings(max_examples=100, deadline=None)
def test_non_string_controls_are_unknown_controls_without_ports(seed, data):
    b = random_bigraph(random.Random(seed))
    if not b.nodes:
        return
    edits = data.draw(st.dictionaries(st.sampled_from(sorted(b.nodes)), _NON_STRING_CONTROLS, min_size=1, max_size=3))
    edited = replace(b, ctrl={**b.ctrl, **edits})
    assert ports_of(edited) == {p for p in ports_of(b) if p.node not in edits}
    report = validate_bigraph(edited)
    assert [f.location for f in report.findings if f.code == "ctrl-unknown-control"] == [
        f"ctrl[{v}]" for v in sorted(edits)
    ]
    assert {f.location for f in report.findings if f.code == "link-domain"} == {
        f"link[({p.node},{p.index})]" for p in ports_of(b) if p.node in edits
    }
    g, emap = encode(b)
    assert check_soundness(edited, g, emap) == report


def test_validate_printer_example(b1):
    assert validate_bigraph(b1).ok


def test_validate_detects_self_parent():
    sig = make_signature([("A", 0)])
    b = Bigraph(signature=sig, nodes={"v"}, ctrl={"v": "A"}, prnt={"v": "v"}, outer=Interface(1))
    assert "parent-cycle" in validate_bigraph(b).codes()


def test_validate_detects_undeclared_outer_name():
    sig = make_signature([("A", 1)])
    b = Bigraph(
        signature=sig,
        nodes={"v"},
        ctrl={"v": "A"},
        prnt={"v": 0},
        link={("v", 0): "nowhere"},
        outer=Interface(1),
    )
    assert "link-codomain" in validate_bigraph(b).codes()


def _small_valid() -> Bigraph:
    sig = make_signature([("A", 1), ("B", 0)])
    return Bigraph(
        signature=sig,
        nodes={"a", "b"},
        edges={"e"},
        ctrl={"a": "A", "b": "B"},
        prnt={"a": 0, "b": "a", 0: "a"},
        link={"x": "e", ("a", 0): "e"},
        inner=Interface(1, frozenset({"x"})),
        outer=Interface(1, frozenset()),
    )


@pytest.mark.parametrize(
    "mutate, code",
    [
        (lambda b: replace(b, edges=b.edges | {"a"}), "id-overlap"),
        (lambda b: replace(b, outer=Interface(1, frozenset({"e"}))), "id-overlap"),
        (lambda b: replace(b, ctrl={"a": "A"}), "ctrl-total"),
        (lambda b: replace(b, ctrl={**b.ctrl, "zz": "A"}), "ctrl-domain"),
        (lambda b: replace(b, ctrl={**b.ctrl, "b": "Nope"}), "ctrl-unknown-control"),
        (lambda b: replace(b, prnt={"a": 0, 0: "a"}), "prnt-total"),
        (lambda b: replace(b, prnt={**b.prnt, 7: "a"}), "prnt-domain"),
        (lambda b: replace(b, prnt={**b.prnt, "b": 5}), "prnt-codomain"),
        (lambda b: replace(b, prnt={**b.prnt, "a": "b"}), "parent-cycle"),
        (lambda b: replace(b, link={"x": "e"}), "link-total"),
        (lambda b: replace(b, link={**b.link, ("a", 9): "e"}), "link-domain"),
        (lambda b: replace(b, link={**b.link, "x": "gone"}), "link-codomain"),
    ],
)
def test_each_violation_triggers_independently(mutate, code):
    base = _small_valid()
    assert validate_bigraph(base).ok
    assert code in validate_bigraph(mutate(base)).codes()


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_port_count_equals_arity_sum(seed):
    b = random_bigraph(random.Random(seed))
    assert validate_bigraph(b).ok
    assert len(ports_of(b)) == sum(b.signature.arity(b.ctrl[v]) for v in b.nodes)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_parent_chain_reaches_root_within_node_count(seed):
    b = random_bigraph(random.Random(seed))
    for start in b.nodes:
        cur: object = start
        for _ in range(len(b.nodes)):
            cur = b.prnt[cur]
            if isinstance(cur, int):
                break
        assert isinstance(cur, int) and 0 <= cur < b.outer.width


_CYCLE_SIG = make_signature([("K", 0)])


def _parent_cycles(prnt: dict) -> list[str]:
    nodes = {k for k in prnt if isinstance(k, str)}
    ctrl = {v: "K" for v in nodes}
    b = Bigraph(_CYCLE_SIG, nodes=nodes, ctrl=ctrl, prnt=prnt, inner=Interface(2), outer=Interface(1))
    return [f.line() for f in validate_bigraph(b).findings if f.code == "parent-cycle"]


@pytest.mark.parametrize(
    "prnt, expected",
    [
        (
            {"a": "b", "b": "a", "c": "a", "x": "y", "y": "z", "z": "x", "w": 0, 0: "w"},
            [
                "error parent-cycle prnt[a] parent map cycle through a, b",
                "error parent-cycle prnt[x] parent map cycle through x, y, z",
            ],
        ),
        ({"s": "s", "t": "s"}, ["error parent-cycle prnt[s] parent map cycle through s"]),
        # Reported where the walk from the smallest node enters the cycle.
        (
            {"a": "d", "c": "d", "d": "c", "b": "c"},
            ["error parent-cycle prnt[d] parent map cycle through c, d"],
        ),
        (
            {"a": "y", "y": "z", "z": "y", "b": "c", "c": "b"},
            [
                "error parent-cycle prnt[y] parent map cycle through y, z",
                "error parent-cycle prnt[b] parent map cycle through b, c",
            ],
        ),
        (
            {0: "m", "m": "n", "n": "m", "k": "ghost", 1: 0, "j": 1},
            ["error parent-cycle prnt[m] parent map cycle through m, n"],
        ),
    ],
)
def test_parent_cycle_findings_pinned(prnt, expected):
    assert _parent_cycles(prnt) == expected


_NAMES = ("a", "b", "c", "d", "e", "f", "g")
_SITES = st.integers(0, 2)


@given(st.dictionaries(st.sampled_from(_NAMES) | _SITES, st.sampled_from((*_NAMES, "ghost")) | _SITES))
@settings(max_examples=300, deadline=None)
def test_parent_cycles_match_networkx(prnt):
    """One finding per cycle of node-to-node parent steps, ordered by the
    smallest node whose chain reaches the cycle and placed where that
    chain enters it."""
    nodes = {k for k in prnt if isinstance(k, str)}
    steps = nx.DiGraph((v, p) for v, p in prnt.items() if v in nodes and p in nodes)
    expected = []
    for cycle in nx.simple_cycles(steps):
        first = min(set(cycle).union(*(nx.ancestors(steps, v) for v in cycle)))
        entry = first
        while entry not in cycle:
            entry = prnt[entry]
        through = ", ".join(sorted(cycle))
        expected.append((first, f"error parent-cycle prnt[{entry}] parent map cycle through {through}"))
    assert _parent_cycles(prnt) == [line for _, line in sorted(expected)]
