"""What ``decode`` could not rebuild faithfully: a signature arity that
is not a non-negative integer, which the signature refuses at
construction, and an attribute whose owner is not a node, which
``check_typing`` reports as ``attr-owner`` so that ``conformance``
refuses it."""

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
)
from bigtg.mapping import NotCanonical

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


@pytest.mark.parametrize("arity", ["2", -1, True, 2.0, None])
def test_a_bad_arity_is_refused_by_the_signature(arity):
    """The arity rule, ``decode`` and ``validate_bigraph`` only ever read
    non-negative ``int`` arities."""
    with pytest.raises(TypeError) as refused:
        Signature((Control("A"),), {"A": arity, "B": 1})
    assert str(refused.value) == f"Signature.arities holds {arity!r}, which is not a non-negative int"


def test_a_string_arity_is_refused_before_a_port_count(two_ports):
    """An arity of ``'2'`` never reaches ``conformance`` or ``decode``; the
    signature that holds the ``int`` reads the same encoding as canonical."""
    with pytest.raises(TypeError, match="^Signature.arities holds '2', which is not a non-negative int$"):
        Signature((Control("A"),), {"A": "2"})
    good = Signature((Control("A"),), {"A": 2, "B": 1})
    assert conformance(two_ports, extend_for_signature(good), good).ok
    assert decode(two_ports, good)[0] == Bigraph(
        good, nodes={"v"}, ctrl={"v": "A"}, prnt={"v": 0}, link={("v", 0): "y", ("v", 1): "y"}, outer=Interface(1, {"y"})
    )


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
