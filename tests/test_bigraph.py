from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bigtg import (
    Bigraph,
    DuplicateControl,
    Interface,
    InvalidBigraph,
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
from bigtg.bigraph import PlaceChild, Point, _fmt_point, bad_arities
from bigtg.generators import random_bigraph
from bigtg.report import Finding, ValidationReport, report_from
from bigtg.typedgraph import _cycles

from helpers import arbitrary_bigraphs

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


@pytest.mark.parametrize(
    "edit, line",
    [
        ({"link": {Port("v", 0): ["e"]}}, "error link-codomain link[(v,0)] link target ['e'] is neither an edge nor an outer name"),
        ({"prnt": {"v": ["w"]}}, "error prnt-codomain prnt[v] parent ['w'] is neither a node nor a root index"),
    ],
    ids=["link-target", "parent"],
)
def test_an_unhashable_parent_or_link_target_is_a_finding_not_a_type_error(edit, line):
    sig = make_signature([("A", 1)])
    valid = Bigraph(sig, nodes={"v"}, edges={"e"}, ctrl={"v": "A"}, prnt={"v": 0}, link={Port("v", 0): "e"}, outer=Interface(1))
    b = replace(valid, **edit)
    assert [f.line() for f in validate_bigraph(b).findings] == [line]
    assert check_soundness(b, *encode(valid)) == validate_bigraph(b)
    with pytest.raises(InvalidBigraph) as caught:
        encode(b)
    assert caught.value.report == validate_bigraph(b)


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


#: Arity values a directly built signature may hold: integers on both
#: sides of zero, and values of other types, some equal to an integer.
_ARITIES = (
    st.integers(-3, 4)
    | st.booleans()
    | st.floats(-2, 3, allow_nan=False)
    | st.integers(0, 3).map(str)
    | st.none()
    | st.lists(st.integers(0, 2), max_size=2)
)


@given(st.integers(min_value=0, max_value=10_000), st.data())
@settings(max_examples=150, deadline=None)
def test_arities_that_are_no_non_negative_integer_are_findings(seed, data):
    b = random_bigraph(random.Random(seed))
    sig = b.signature
    c = data.draw(st.sampled_from(sig.names))
    arity = data.draw(_ARITIES)
    edited = replace(b, signature=Signature(sig.controls, {**sig.arities, c: arity}))
    valid = type(arity) is int and arity >= 0
    report = validate_bigraph(edited)
    assert [f.line() for f in report.findings if f.code == "sig-arity"] == (
        [] if valid else [f"error sig-arity arity[{c}] arity {arity!r} of {c!r} is not a non-negative integer"]
    )
    others = {p for p in ports_of(b) if b.ctrl[p.node] != c}
    mine = {Port(v, i) for v in b.nodes if b.ctrl[v] == c for i in range(arity if valid else 0)}
    assert ports_of(edited) == others | mine
    try:
        encode(edited)
    except InvalidBigraph as exc:
        assert exc.report == report and not report.ok
    else:
        assert report.ok
    g, emap = encode(b)
    if not valid:
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
        pytest.param(lambda b: replace(b, prnt={**b.prnt, "b": 1}), "prnt-codomain", id="root-at-width"),
        pytest.param(
            lambda b: replace(b, outer=Interface(2), prnt={**b.prnt, "b": True}), "prnt-codomain", id="bool-parent"
        ),
        (lambda b: replace(b, prnt={**b.prnt, "a": "b"}), "parent-cycle"),
        (lambda b: replace(b, link={"x": "e"}), "link-total"),
        (lambda b: replace(b, link={**b.link, ("a", 9): "e"}), "link-domain"),
        # As many port keys as ports, but one past its node's arity.
        pytest.param(
            lambda b: replace(b, link={"x": "e", ("a", 1): "e"}), "link-domain", id="port-past-arity-same-count"
        ),
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


# --- validate_bigraph against its per-element form ---------------------------
#
# ``ref_validate_bigraph`` is ``validate_bigraph`` as it was when it sorted
# and walked every entry of each map, kept verbatim but renamed. The
# current one marks the entries that break a rule by whole-map passes and
# walks only those; on bigraphs with string identifiers both must give the
# same findings in the same order.


def ref_validate_bigraph(b: Bigraph) -> ValidationReport:
    """Check every structural invariant of a bigraph.

    Violations come back as report entries; an empty report means the
    bigraph is well-formed.
    """
    findings = bad_arities(b.signature)

    def flag(code: str, location: str, message: str) -> None:
        findings.append(Finding(code, location, message))

    names = b.inner.names | b.outer.names
    for v in sorted(b.nodes & b.edges):
        flag("id-overlap", v, "identifier is both a node and an edge")
    for v in sorted((b.nodes | b.edges) & names):
        flag("id-overlap", v, "identifier is both a node/edge and a link name")

    # Control map: total on nodes, controls drawn from the signature.
    for v in sorted(b.nodes):
        if v not in b.ctrl:
            flag("ctrl-total", f"ctrl[{v}]", "node has no control")
    for v in sorted(b.ctrl):
        if v not in b.nodes:
            flag("ctrl-domain", f"ctrl[{v}]", "control assigned to unknown node")
        elif not b.signature.has_control(b.ctrl[v]):
            flag(
                "ctrl-unknown-control",
                f"ctrl[{v}]",
                f"control {b.ctrl[v]!r} is not declared by the signature",
            )

    # Parent map: total on sites and nodes, parents are nodes or roots.
    k, m = b.inner.width, b.outer.width
    place_domain: set[PlaceChild] = set(range(k)) | set(b.nodes)
    for p in sorted(place_domain, key=_fmt_point):
        if p not in b.prnt:
            flag("prnt-total", f"prnt[{p}]", "site or node has no parent")
    for p in sorted(b.prnt, key=_fmt_point):
        if p not in place_domain:
            flag("prnt-domain", f"prnt[{p}]", "parent assigned to unknown site or node")
            continue
        parent = b.prnt[p]
        if isinstance(parent, bool) or not (
            (isinstance(parent, int) and 0 <= parent < m)
            or (isinstance(parent, str) and parent in b.nodes)
        ):
            flag("prnt-codomain", f"prnt[{p}]", f"parent {parent!r} is neither a node nor a root index")
    node_parent = {v: [p] for v, p in b.prnt.items() if v in b.nodes and isinstance(p, str) and p in b.nodes}
    for cycle in _cycles(node_parent):
        flag("parent-cycle", f"prnt[{cycle[0]}]", "parent map cycle through " + ", ".join(sorted(cycle)))

    # Link map: total on inner names and ports, targets are edges or outer names.
    link_domain: set[Point] = set(b.inner.names) | ports_of(b)
    for p in sorted(link_domain, key=_fmt_point):
        if p not in b.link:
            flag("link-total", f"link[{_fmt_point(p)}]", "inner name or port is not linked")
    for p in sorted(b.link, key=_fmt_point):
        if p not in link_domain:
            flag("link-domain", f"link[{_fmt_point(p)}]", "link assigned to unknown inner name or port")
            continue
        target = b.link[p]
        if not (isinstance(target, str) and (target in b.edges or target in b.outer.names)):
            flag(
                "link-codomain",
                f"link[{_fmt_point(p)}]",
                f"link target {target!r} is neither an edge nor an outer name",
            )

    return report_from(findings)


#: The edits of ``edited_bigraphs``.
BIGRAPH_EDITS = ("drop-ctrl", "ctrl", "drop-prnt", "prnt", "cycle", "drop-link", "link", "overlap", "arity")


@st.composite
def edited_bigraphs(draw):
    """A bigraph drawn by ``arbitrary_bigraphs`` after one to five edits,
    all with string identifiers: control, parent and link entries dropped,
    set or added for an unknown node, site or point (``ghost``, a site
    past the width, a port past the arity), values of the wrong kind or
    type (undeclared or unhashable controls, a ``bool``, a float or a root
    index at or past the width, a link target that is a node or no name),
    parent cycles of one to three nodes, an
    identifier shared between nodes, edges and names, and arities that are
    no non-negative integer."""
    b = draw(arbitrary_bigraphs())
    nodes, edges = set(b.nodes), set(b.edges)
    inner, outer = set(b.inner.names), set(b.outer.names)
    ctrl, prnt, link = dict(b.ctrl), dict(b.prnt), dict(b.link)
    arities = dict(b.signature.arities)
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(BIGRAPH_EDITS))
        known = sorted(nodes)
        if kind == "drop-ctrl" and ctrl:
            del ctrl[draw(st.sampled_from(sorted(ctrl)))]
        elif kind == "ctrl":
            node = draw(st.sampled_from([*known, "ghost"]))
            ctrl[node] = draw(st.sampled_from(b.signature.names) | st.sampled_from(("Ghost", None, ["K0"])))
        elif kind == "drop-prnt" and prnt:
            del prnt[draw(st.sampled_from(sorted(prnt, key=str)))]
        elif kind == "prnt":
            child = draw(st.sampled_from([*known, "ghost"]) | st.integers(-1, b.inner.width + 1))
            prnt[child] = draw(
                st.sampled_from([*known, "ghost"])
                | st.integers(-1, b.outer.width + 1)
                | st.sampled_from((True, False, 1.0, None, ["v0"]))
            )
        elif kind == "cycle" and known:
            ring = draw(st.lists(st.sampled_from(known), min_size=1, max_size=3, unique=True))
            prnt.update(zip(ring, ring[1:] + ring[:1]))
        elif kind == "drop-link" and link:
            del link[draw(st.sampled_from(sorted(link, key=_fmt_point)))]
        elif kind == "link":
            ports = st.builds(Port, st.sampled_from([*known, "ghost"]), st.integers(-1, 4))
            point = draw(st.sampled_from([*sorted(inner), "zz"]) | ports)
            targets = [*sorted(edges), *sorted(outer)] or ["gone"]
            link[point] = draw(st.sampled_from(targets) | st.sampled_from(("gone", "v0", None, 3, ["e0"])))
        elif kind == "overlap":
            into = draw(st.sampled_from((edges, inner, outer)))
            into.add(draw(st.sampled_from(sorted(nodes | edges) or ["v0"])))
        elif kind == "arity":
            arities[draw(st.sampled_from(b.signature.names))] = draw(_ARITIES)
    return Bigraph(
        Signature(b.signature.controls, arities),
        frozenset(nodes),
        frozenset(edges),
        ctrl,
        prnt,
        link,
        Interface(b.inner.width, frozenset(inner)),
        Interface(b.outer.width, frozenset(outer)),
    )


@given(edited_bigraphs())
@settings(max_examples=300, deadline=None)
def test_validate_bigraph_matches_reference(b):
    assert validate_bigraph(b).findings == ref_validate_bigraph(b).findings


# --- Identifiers that are not strings ----------------------------------------


def test_a_non_string_node_is_a_finding_not_a_site():
    b = Bigraph(make_signature([("B", 0)]), nodes={3}, ctrl={3: "B"}, prnt={3: 0}, outer=Interface(1))
    report = validate_bigraph(b)
    assert [f.line() for f in report.findings] == ["error id-type 3 node 3 is not a string"]
    with pytest.raises(InvalidBigraph) as caught:
        encode(b)
    assert caught.value.report == report


def test_identifiers_of_mixed_types_sort_without_a_type_error():
    b = Bigraph(
        make_signature([("B", 1)]),
        nodes={3, "a"},
        edges={"e", 5},
        ctrl={3: "B", "a": "B", 4: "B", "z": "B"},
        prnt={3: 0, "a": 0},
        link={(3, 0): "e", ("a", 0): 5},
        inner=Interface(0, frozenset({None})),
        outer=Interface(1),
    )
    assert [f.line() for f in validate_bigraph(b).findings] == [
        "error id-type 3 node 3 is not a string",
        "error id-type 5 edge 5 is not a string",
        "error id-type None inner name None is not a string",
        "error ctrl-domain ctrl[4] control assigned to unknown node",
        "error ctrl-domain ctrl[z] control assigned to unknown node",
        "error link-total link[None] inner name or port is not linked",
        "error link-codomain link[(a,0)] link target 5 is neither an edge nor an outer name",
    ]


#: Values that replace identifiers in ``retyped_bigraphs``: integers, which
#: also name sites and roots, and values of other types.
_OTHER_IDS = st.integers(0, 3) | st.sampled_from((True, 1.5, None, b"v0"))


@st.composite
def retyped_bigraphs(draw):
    """A bigraph drawn by ``arbitrary_bigraphs``, and a copy in which some
    of its identifiers are replaced by values that are not strings: always
    in the sets of nodes, edges and names, and in none, some or all of the
    control, parent and link maps, so that the types may mix. In the
    parent and link maps, some of those values may be wrapped in a list,
    which cannot be hashed."""
    b = draw(arbitrary_bigraphs())
    ids = sorted(b.nodes | b.edges | b.inner.names | b.outer.names)
    assume(ids)
    new = {v: draw(_OTHER_IDS) for v in draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))}
    listed = {v for v in new if draw(st.booleans())}
    where = draw(st.sets(st.sampled_from(("ctrl", "prnt", "link"))))

    def r(x):
        return new.get(x, x) if isinstance(x, str) else x

    def target(x):
        return [r(x)] if x in listed else r(x)

    def point(p):
        return Port(r(p.node), p.index) if isinstance(p, Port) else r(p)

    edited = Bigraph(
        b.signature,
        frozenset(map(r, b.nodes)),
        frozenset(map(r, b.edges)),
        {r(v): c for v, c in b.ctrl.items()} if "ctrl" in where else b.ctrl,
        {r(c): target(p) for c, p in b.prnt.items()} if "prnt" in where else b.prnt,
        {point(p): target(y) for p, y in b.link.items()} if "link" in where else b.link,
        Interface(b.inner.width, frozenset(map(r, b.inner.names))),
        Interface(b.outer.width, frozenset(map(r, b.outer.names))),
    )
    return b, edited


@given(retyped_bigraphs())
@settings(max_examples=200, deadline=None)
def test_the_bigraph_checks_are_total_on_identifiers_of_other_types(case):
    b, edited = case
    report = validate_bigraph(edited)
    assert "id-type" in report.codes()
    # Such a bigraph has no elements to align, whatever the graph.
    assert check_soundness(edited, *encode(Bigraph(b.signature))) == report
    with pytest.raises(InvalidBigraph) as caught:
        encode(edited)
    assert caught.value.report == report
