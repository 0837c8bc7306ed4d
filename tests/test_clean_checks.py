"""What a clean graph's checks skip, and what an in-process ``main`` leaves.

The canonical rules pass the roots and the sites by their indices sorted,
without counting owners, and must give the findings of the counting
version (``ref_canonical_rules``) on any index lists: permutations,
repeats, gaps and missing indices. A report with no findings is one
shared value, equal, hashed and printed as any empty report. ``cli.main``
freezes the collector only in a command-line process, not in a caller
that passes its own arguments.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigtg import Bigraph, Interface, conformance, encode, extend_for_signature, make_signature, replace
from bigtg.cli import main
from bigtg.generators import random_bigraph
from bigtg.metamodel import _canonical_rules
from bigtg.report import Finding, ValidationReport, report_from

from helpers import ref_canonical_rules
from test_cli import run_child


def reindexed(g, indices: dict[str, list]) -> object:
    """``g`` with the ``index`` of each node of a type in ``indices`` set
    to the next value of its list, in the graph's order of nodes, or
    dropped for ``None``."""
    attrs = dict(g.attrs)
    for t, values in indices.items():
        members = [n for n in g.graph.nodes if g.node_types[n] == t]
        for n, value in zip(members, values):
            if value is None:
                attrs.pop((n, "index"), None)
            else:
                attrs[(n, "index")] = value
    return replace(g, attrs=attrs)


@st.composite
def reindexed_encodings(draw):
    """The encoding of a random bigraph, with its signature, after the
    indices of its roots, its sites and its ports are each kept, permuted
    or drawn freely from small integers and ``None``."""
    rng = random.Random(draw(st.integers(0, 1_000_000)))
    b = random_bigraph(rng, max_sites=draw(st.integers(0, 5)), max_roots=draw(st.integers(1, 5)))
    g, _ = encode(b)
    indices = {}
    for t in ("BRoot", "BSite", "BPort"):
        n = sum(1 for node_type in g.node_types.values() if node_type == t)
        mode = draw(st.sampled_from(("kept", "permuted", "free")))
        if mode == "permuted":
            indices[t] = draw(st.permutations(range(n)))
        elif mode == "free":
            indices[t] = draw(st.lists(st.one_of(st.none(), st.integers(-1, n + 1)), min_size=n, max_size=n))
    return reindexed(g, indices), b.signature


@given(reindexed_encodings())
@settings(max_examples=300, deadline=None)
def test_canonical_rules_match_the_counting_version(case):
    g, sig = case
    tg = extend_for_signature(sig)
    assert _canonical_rules(g, tg, sig) == ref_canonical_rules(g, tg, sig)


SIG = make_signature([("K", 1)])
#: Three roots and two sites: root 0 holds node v, which holds site 1;
#: site 0 sits in root 1; root 2 is empty.
THREE_ROOTS = Bigraph(
    SIG, frozenset({"v"}), frozenset({"e"}), {"v": "K"}, {"v": 0, 0: 1, 1: "v"}, {("v", 0): "e"},
    Interface(2), Interface(3),
)


@pytest.mark.parametrize(
    "roots, sites",
    [
        ([2, 0, 1], [1, 0]),
        ([None, 0, 1], [0, 1]),
        ([0, 1, 2], [None, 0]),
        ([1, None, 1], [None, None]),
        ([0, 0, 1], [1, 1]),
        ([0, 1, 3], [0, 2]),
        ([-1, 0, 1], [1, 2]),
    ],
)
def test_roots_and_sites_by_sorted_indices(roots, sites):
    g = reindexed(encode(THREE_ROOTS)[0], {"BRoot": roots, "BSite": sites})
    tg = extend_for_signature(SIG)
    want = ref_canonical_rules(g, tg, SIG)
    assert _canonical_rules(g, tg, SIG) == want
    assert want.ok == (set(roots) == {0, 1, 2} and set(sites) == {0, 1})


def test_an_empty_report_is_one_shared_value():
    empty = report_from([])
    assert report_from([]) is empty
    assert empty == ValidationReport() and hash(empty) == hash(ValidationReport(()))
    assert repr(empty) == "ValidationReport(findings=())"
    own = ValidationReport()
    assert own.merged(empty, ValidationReport()) is own
    assert empty.merged() is empty
    finding = Finding("code", "here", "message")
    full = report_from([finding])
    assert own.merged(empty, full) == full == full.merged(empty)
    assert full.merged(full).findings == (finding, finding)


def test_a_clean_graph_is_checked_to_the_shared_report(g1, tg_sigma1, sig1):
    assert conformance(g1, tg_sigma1, sig1) is report_from([])


class _Cycle:
    def __init__(self) -> None:
        self.me = self


def test_an_in_process_main_leaves_the_collector_as_it_was(capsys):
    gc.collect()
    frozen = gc.get_freeze_count()
    cycle = _Cycle()
    alive = weakref.ref(cycle)
    del cycle
    assert main(["configs"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 54
    assert gc.get_freeze_count() == frozen
    gc.collect()
    assert alive() is None


def test_a_command_line_process_freezes_the_collector():
    script = "import gc, sys\nfrom bigtg.cli import main\nsys.argv[1:] = ['configs']\nmain()\nprint(gc.get_freeze_count())"
    done = run_child("-c", script)
    assert done.returncode == 0 and done.stderr == ""
    assert int(done.stdout.splitlines()[-1]) > 0
