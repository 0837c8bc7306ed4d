"""Two findings that make ``conformance`` refuse what ``decode`` cannot
rebuild faithfully: ``sig-arity`` from the arity rule, for a signature
arity that is not a non-negative integer, and ``attr-owner`` from
``check_typing``, for an attribute whose owner is not a node."""

from __future__ import annotations

import pytest

from bigtg import (
    Bigraph,
    Control,
    Graph,
    InstanceGraph,
    Interface,
    Signature,
    TypeGraph,
    check_arity_rule,
    check_typing,
    conformance,
    decode,
    encode,
    extend_for_signature,
    make_signature,
    replace,
    validate_bigraph,
)
from bigtg.mapping import NotCanonical

SIG_ARITY_LINE = "error sig-arity arity[A] arity '2' of 'A' is not a non-negative integer"


@pytest.fixture(scope="module")
def two_ports():
    """One node of control ``A`` with two ports, encoded over arity 2."""
    sig = make_signature([("A", 2)])
    b = Bigraph(
        sig,
        nodes={"v"},
        ctrl={"v": "A"},
        prnt={"v": 0},
        link={("v", 0): "y", ("v", 1): "y"},
        outer=Interface(1, frozenset({"y"})),
    )
    return encode(b)[0]


def test_a_bad_arity_is_a_signature_finding_not_a_port_count(two_ports):
    bad = Signature((Control("A"),), {"A": "2"})
    lines = [f.line() for f in conformance(two_ports, extend_for_signature(bad), bad).findings]
    assert lines == [SIG_ARITY_LINE]
    with pytest.raises(NotCanonical) as raised:
        decode(two_ports, bad)
    assert [f.line() for f in raised.value.report.findings] == [SIG_ARITY_LINE]


@pytest.mark.parametrize("arity", ["2", -1, True, 2.0, None])
def test_the_arity_rule_states_validate_bigraphs_finding(two_ports, arity):
    bad = Signature((Control("A"),), {"A": arity, "B": 1})
    b = Bigraph(bad, nodes={"v"}, ctrl={"v": "A"}, prnt={"v": 0}, outer=Interface(1))
    sig_findings = tuple(f for f in validate_bigraph(b).findings if f.code == "sig-arity")
    assert len(sig_findings) == 1
    assert check_arity_rule(two_ports, extend_for_signature(bad), bad).findings == sig_findings


def test_a_control_without_an_arity_is_not_counted(two_ports):
    sig = Signature((Control("A"),), {})
    assert check_arity_rule(two_ports, extend_for_signature(sig), sig).ok


# --- attr-owner -------------------------------------------------------------

TG = TypeGraph(graph=Graph(nodes={"N"}), attr_decls={"N": {"index": "int"}})


def test_an_attribute_of_no_node_is_flagged(g1, sig1):
    g = replace(g1, attrs={**g1.attrs, ("ghost", "index"): 0})
    want = ["error attr-owner ghost.index attribute owner 'ghost' is not a node"]
    assert [f.line() for f in check_typing(g, extend_for_signature(sig1)).findings] == want
    with pytest.raises(NotCanonical) as raised:
        decode(g, sig1)
    assert [f.line() for f in raised.value.report.findings] == want


@pytest.mark.parametrize("orphan_first", [True, False])
def test_an_orphan_does_not_share_the_shape_of_an_untyped_nodes_attribute(orphan_first):
    """Neither owner has a type, and both values are ints of one name: only
    whether the owner is a node tells the two shapes apart, whichever of
    the two a shape would stand for."""
    entries = [(("ghost", "index"), 1), (("n", "index"), 2)]
    attrs = dict(entries if orphan_first else entries[::-1])
    g = InstanceGraph(graph=Graph(nodes={"n"}), attrs=attrs)
    assert [(f.code, f.location) for f in check_typing(g, TG).findings] == [
        ("typing-total", "n"),
        ("attr-owner", "ghost.index"),
    ]


def test_a_typed_strays_attribute_is_only_an_owner_finding():
    """A typing entry for a node that is not in the graph does not make its
    attributes checkable: the value of the wrong type is not reported."""
    g = InstanceGraph(graph=Graph(nodes={"n"}), node_types={"n": "N", "ghost": "N"}, attrs={("ghost", "index"): "x"})
    assert [(f.code, f.location) for f in check_typing(g, TG).findings] == [
        ("typing-domain", "ghost"),
        ("attr-owner", "ghost.index"),
    ]
