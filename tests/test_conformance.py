"""The conformance pipeline on graphs deeper than Python's recursion limit."""

from __future__ import annotations

import pytest

from bigtg import (
    Bigraph,
    Graph,
    Interface,
    TypeGraph,
    check_type_graph,
    conformance,
    decode,
    encode,
    extend_for_signature,
    fileio,
    make_signature,
)
from bigtg.cli import main

DEPTH = 1200  # beyond the default recursion limit of 1000


@pytest.fixture(scope="module")
def chain():
    """A valid bigraph of DEPTH nodes, each nested in the one before."""
    sig = make_signature([("Box", 0)])
    nodes = [f"v{i}" for i in range(DEPTH)]
    b = Bigraph(
        signature=sig,
        nodes=frozenset(nodes),
        ctrl={v: "Box" for v in nodes},
        prnt={v: f"v{i - 1}" if i else 0 for i, v in enumerate(nodes)},
        outer=Interface(1),
    )
    g, emap = encode(b)
    return b, g, emap


def test_deep_chain_conforms_and_round_trips(chain):
    b, g, emap = chain
    assert conformance(g, extend_for_signature(b.signature), b.signature).ok
    decoded, emap2 = decode(g, b.signature)
    assert decoded == b
    assert emap2.forward == emap.forward


def test_deep_chain_cli_validate_and_decode(chain, tmp_path, capsys):
    b, g, _ = chain
    sig_path, ig_path, out = tmp_path / "box.sig.json", tmp_path / "chain.ig.json", tmp_path / "chain.bg.json"
    fileio.save(b.signature, str(sig_path))
    fileio.save(g, str(ig_path))
    capsys.readouterr()

    assert main(["validate", str(ig_path), "--sig", str(sig_path)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["decode", str(ig_path), "--sig", str(sig_path), "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert fileio.load_bigraph(str(out)) == b


def test_deep_inheritance_chain_type_graph_is_ok():
    # T0000 is the deepest subtype and the first type in sorted order, so
    # the cycle search walks the whole chain from its first start.
    types = [f"T{i:04d}" for i in range(DEPTH)]
    tg = TypeGraph(
        graph=Graph(nodes=frozenset(types)),
        inherits=frozenset(zip(types, types[1:])),
    )
    assert check_type_graph(tg).ok
