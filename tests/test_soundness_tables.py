"""``check_soundness`` reads what ``encode`` kept of the bigraph it encoded.

``encode``'s element map keeps a weak reference to its bigraph, the
elements it mapped and the relation triples it wrote the edges from.
``check_soundness`` reads them only for that very bigraph object; every
other map (built by the constructor, ``replace``, ``copy``, ``pickle`` or
``decode``) and every other bigraph, an equal one too, has them computed
by ``elements_of`` and ``_relations``. The findings are the same either
way, also after the graph or the map's ``forward`` is edited, in place or
through ``replace``; and the map keeps no bigraph alive.
"""

from __future__ import annotations

import copy
import gc
import pickle
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bigtg.soundness
from bigtg import ElementMap, check_soundness, decode, encode, replace
from bigtg.generators import random_bigraph

from helpers import drop_edge, drop_node, retype_node, set_attr

GRAPH_EDITS = ("drop-edge", "retarget", "set-index", "drop-node", "retype")
MAP_EDITS = ("remap", "unmap", "stray", "share")


@st.composite
def edited_encodings(draw):
    """A random bigraph, its encoding and ``encode``'s own map, after a few
    edits of the graph (each through ``replace``) and of the map's
    ``forward``, each either in place or on a copy that ``replace`` makes
    the map's."""
    b = random_bigraph(random.Random(draw(st.integers(0, 1_000_000))))
    g, emap = encode(b)
    for _ in range(draw(st.integers(0, 4))):
        nodes, edges = sorted(g.graph.nodes), sorted(g.graph.edges)
        edit = draw(st.sampled_from(GRAPH_EDITS + MAP_EDITS))
        if not nodes:
            break
        if edit == "drop-edge" and edges:
            g = drop_edge(g, draw(st.sampled_from(edges)))
        elif edit == "retarget" and edges:
            e, n = draw(st.sampled_from(edges)), draw(st.sampled_from(nodes))
            end = draw(st.sampled_from(("src", "tgt")))
            g = replace(g, graph=replace(g.graph, **{end: {**getattr(g.graph, end), e: n}}))
        elif edit == "set-index":
            g = set_attr(g, draw(st.sampled_from(nodes)), "index", draw(st.integers(-1, 3)))
        elif edit == "drop-node":
            g = drop_node(g, draw(st.sampled_from(nodes)))
        elif edit == "retype":
            g = retype_node(g, draw(st.sampled_from(nodes)), draw(st.sampled_from(("BPort", "BEdge", "BRoot"))))
        elif edit in MAP_EDITS and emap.forward:
            in_place = draw(st.booleans())
            forward = emap.forward if in_place else dict(emap.forward)
            element = draw(st.sampled_from(sorted(forward, key=str)))
            if edit == "remap":
                forward[element] = draw(st.sampled_from([*nodes, "ghost"]))
            elif edit == "unmap":
                del forward[element]
            elif edit == "stray":
                forward[("node", "ghost")] = draw(st.sampled_from(nodes))
            else:
                forward[element] = forward[draw(st.sampled_from(sorted(forward, key=str)))]
            if not in_place:
                emap = replace(emap, forward=forward)
    return b, g, emap


@given(edited_encodings())
@settings(max_examples=300, deadline=None)
def test_kept_and_computed_tables_give_the_same_findings(case):
    b, g, emap = case
    assert check_soundness(b, g, emap) == check_soundness(b, g, ElementMap(dict(emap.forward)))


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """The calls of ``elements_of`` and ``_relations`` from soundness, by name."""
    counted: Counter = Counter()
    for name in ("elements_of", "_relations"):

        def counting(b, real=getattr(bigtg.soundness, name), name=name):
            counted[name] += 1
            return real(b)

        monkeypatch.setattr(bigtg.soundness, name, counting)
    return counted


def broken(g):
    """``g`` with one nesting edge of the printer dropped and a site's
    index off its slot: a graph that soundness has findings on."""
    return set_attr(drop_edge(g, "bPrnt:n:v1:n:v0"), "s:0", "index", 1)


def test_encodes_own_map_computes_nothing(b1, calls):
    g, emap = encode(b1)
    assert check_soundness(b1, g, emap).ok
    bad = check_soundness(b1, broken(g), emap)
    assert not bad.ok
    assert calls == {}
    assert bad == check_soundness(b1, broken(g), ElementMap(dict(emap.forward)))


OTHERS = {
    "replace": lambda b, g, emap: (b, replace(emap)),
    "copy": lambda b, g, emap: (b, copy.copy(emap)),
    "pickle": lambda b, g, emap: (b, pickle.loads(pickle.dumps(emap))),
    "decode": lambda b, g, emap: (b, decode(g, b.signature)[1]),
    "equal-bigraph": lambda b, g, emap: (replace(b), emap),
}


@pytest.mark.parametrize("other", sorted(OTHERS))
def test_any_other_map_or_bigraph_computes_the_tables_once(other, b1, calls):
    g, emap = encode(b1)
    want = check_soundness(b1, broken(g), emap)
    b, m = OTHERS[other](b1, g, emap)
    assert (b, m) == (b1, emap)
    assert (b is b1) != (other == "equal-bigraph")
    assert calls == {}
    assert check_soundness(b, broken(g), m) == want
    assert calls == {"elements_of": 1, "_relations": 1}


def test_the_map_keeps_no_bigraph_alive():
    b = random_bigraph(random.Random(5))
    _, emap = encode(b)
    alive = weakref.ref(b)
    del b
    gc.collect()
    assert alive() is None
    assert emap._tables[0]() is None
