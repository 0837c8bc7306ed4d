"""What ``decode`` could not rebuild faithfully: a signature arity that
is not a non-negative integer, which the signature refuses at
construction, and an attribute whose owner is not a node, or a typing
entry for no node, which the instance graph refuses at construction."""

from __future__ import annotations

import pytest

from bigtg import (
    Bigraph,
    Control,
    Graph,
    InstanceGraph,
    Interface,
    Signature,
    check_arity_rule,
    conformance,
    decode,
    encode,
    extend_for_signature,
    make_signature,
    replace,
)

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


# --- attributes and typing entries of no node ----------------------------


def test_an_attribute_of_no_node_is_refused_at_construction(g1):
    with pytest.raises(ValueError) as refused:
        replace(g1, attrs={**g1.attrs, ("ghost", "index"): 0})
    assert str(refused.value) == "InstanceGraph.attrs holds an attribute of 'ghost', which is not a node"


@pytest.mark.parametrize("orphan_first", [True, False])
def test_an_orphan_attribute_is_refused_whichever_entry_comes_first(orphan_first):
    """Beside a typed node's attribute of the same name and value class,
    the orphan is named, whichever entry the dict holds first; beside an
    untyped node, the missing type is named first."""
    entries = [(("ghost", "index"), 1), (("n", "index"), 2)]
    attrs = dict(entries if orphan_first else entries[::-1])
    with pytest.raises(ValueError, match="^InstanceGraph.attrs holds an attribute of 'ghost', which is not a node$"):
        InstanceGraph(graph=Graph(nodes={"n"}), node_types={"n": "N"}, attrs=attrs)
    with pytest.raises(ValueError, match="^InstanceGraph.node_types lacks 'n', which is a node$"):
        InstanceGraph(graph=Graph(nodes={"n"}), attrs=attrs)


def test_a_typing_entry_for_a_stray_is_refused():
    """A typing entry for a node that is not in the graph is named before
    the stray's attribute."""
    with pytest.raises(ValueError, match="^InstanceGraph.node_types holds 'ghost', which is not a node$"):
        InstanceGraph(graph=Graph(nodes={"n"}), node_types={"n": "N", "ghost": "N"}, attrs={("ghost", "index"): "x"})
