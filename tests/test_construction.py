"""The constructors refuse what the readers refuse.

``Graph``, ``InstanceGraph``, ``TypeGraph``, ``Multiplicity``,
``Bigraph``, ``Interface``, ``Signature`` and ``Control`` check the types
of their fields once, as they copy them, and raise ``TypeError`` naming
the first offender. So every value they build holds what a document can
hold, and each entry point gives findings or raises what it declares on
it. What the readers build, which skips that check, is exactly what the
constructors would build from the same fields.
"""

from __future__ import annotations

import json
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigtg import (
    Bigraph,
    Control,
    InstanceGraph,
    Interface,
    InvalidBigraph,
    Multiplicity,
    Port,
    ReservedControlName,
    Signature,
    TypeGraph,
    UntypedControl,
    apply_deltas,
    check_multiplicities,
    check_soundness,
    check_type_graph,
    check_typing,
    check_validity,
    conformance,
    decode,
    encode,
    enumerate_configs,
    extend_for_signature,
    fileio,
    replace,
    validate_bigraph,
)
from bigtg.constraints import EvaluationError, TypeCheckError, evaluate, parse_constraints
from bigtg.mapping import NotCanonical

from conftest import FIXTURES

#: Values of the wrong type for some field, or of the right type for
#: another: ``bool``, ``None``, ``float``, ``list``, ``dict``, ``int`` and ``str``.
WRONG = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, width=16),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text("ab", max_size=1), st.integers(0, 1), max_size=1),
    st.integers(-1, 3),
    st.text("ab:", max_size=2),
)


def _bigraph_edits(b: Bigraph, w: object) -> dict:
    """Each way to put ``w`` into one field of ``b`` (or of a value it
    holds), by name: a function that builds the edited bigraph."""
    node = min(b.nodes)
    sig = b.signature
    return {
        "signature": lambda: replace(b, signature=w),
        "node": lambda: replace(b, nodes=[*b.nodes, w]),
        "edge": lambda: replace(b, edges=[*b.edges, w]),
        "ctrl-key": lambda: replace(b, ctrl=[*b.ctrl.items(), (w, "Job")]),
        "ctrl-value": lambda: replace(b, ctrl={**b.ctrl, node: w}),
        "prnt-key": lambda: replace(b, prnt=[*b.prnt.items(), (w, 0)]),
        "prnt-value": lambda: replace(b, prnt={**b.prnt, node: w}),
        "link-key": lambda: replace(b, link=[*b.link.items(), (w, "e")]),
        "port-index": lambda: replace(b, link=[*b.link.items(), ((node, w), "e")]),
        "port-node": lambda: replace(b, link=[*b.link.items(), (Port(w, 0), "e")]),
        "link-value": lambda: replace(b, link={**b.link, min(b.link, key=str): w}),
        "inner": lambda: replace(b, inner=w),
        "outer-width": lambda: replace(b, outer=Interface(w, b.outer.names)),
        "outer-name": lambda: replace(b, outer=Interface(b.outer.width, [*b.outer.names, w])),
        "controls": lambda: replace(b, signature=Signature((*sig.controls, w), sig.arities)),
        "control-name": lambda: replace(b, signature=Signature((*sig.controls, Control(w)), sig.arities)),
        "arity-key": lambda: replace(b, signature=Signature(sig.controls, [*sig.arities.items(), (w, 1)])),
        "arity-value": lambda: replace(b, signature=Signature(sig.controls, {**sig.arities, "Job": w})),
    }


def _graph_edits(g: InstanceGraph, w: object) -> dict:
    """Each way to put ``w`` into one field of ``g`` or of its graph."""
    node, edge = min(g.graph.nodes), min(g.graph.edges)
    graph = g.graph
    return {
        "graph": lambda: replace(g, graph=w),
        "node": lambda: replace(g, graph=replace(graph, nodes=[*graph.nodes, w])),
        "edge": lambda: replace(g, graph=replace(graph, edges=[*graph.edges, w])),
        "src-key": lambda: replace(g, graph=replace(graph, src=[*graph.src.items(), (w, node)])),
        "src-value": lambda: replace(g, graph=replace(graph, src={**graph.src, edge: w})),
        "tgt-value": lambda: replace(g, graph=replace(graph, tgt={**graph.tgt, edge: w})),
        "node-type-key": lambda: replace(g, node_types=[*g.node_types.items(), (w, "Job")]),
        "node-type": lambda: replace(g, node_types={**g.node_types, node: w}),
        "edge-type-key": lambda: replace(g, edge_types=[*g.edge_types.items(), (w, "bLink")]),
        "edge-type": lambda: replace(g, edge_types={**g.edge_types, edge: w}),
        "attr-key": lambda: replace(g, attrs=[*g.attrs.items(), (w, 0)]),
        "attr-owner": lambda: replace(g, attrs=[*g.attrs.items(), ((w, "index"), 0)]),
        "attr-name": lambda: replace(g, attrs=[*g.attrs.items(), ((node, w), 0)]),
        "attr-value": lambda: replace(g, attrs={**g.attrs, min(g.attrs): w}),
    }


def _type_graph_edits(tg: TypeGraph, w: object) -> dict:
    """Each way to put ``w`` into one field of ``tg`` or of a value it holds."""
    return {
        "graph": lambda: replace(tg, graph=w),
        "node-type": lambda: replace(tg, graph=replace(tg.graph, nodes=[*tg.graph.nodes, w])),
        "inherits": lambda: replace(tg, inherits=[*tg.inherits, ("Job", w)]),
        "inherits-pair": lambda: replace(tg, inherits=[*tg.inherits, w]),
        "abstracts": lambda: replace(tg, abstracts=[*tg.abstracts, w]),
        "containments": lambda: replace(tg, containments=[*tg.containments, w]),
        "opposites": lambda: replace(tg, opposites=[*tg.opposites, (w, "bPrnt")]),
        "mult-key": lambda: replace(tg, mult=[*tg.mult.items(), (w, Multiplicity(0))]),
        "mult-value": lambda: replace(tg, mult={**tg.mult, "bPrnt": w}),
        "mult-lower": lambda: replace(tg, mult={**tg.mult, "bPrnt": Multiplicity(w)}),
        "mult-upper": lambda: replace(tg, mult={**tg.mult, "bPrnt": Multiplicity(0, w)}),
        "attr-decls": lambda: replace(tg, attr_decls={**tg.attr_decls, "BRoot": w}),
        "attr-name": lambda: replace(tg, attr_decls={**tg.attr_decls, "BRoot": [(w, "int")]}),
        "attr-type": lambda: replace(tg, attr_decls={**tg.attr_decls, "BRoot": {"index": w}}),
    }


def _built(build):
    """The value ``build()`` makes, or None when it raises ``TypeError``;
    any other exception propagates, except the ``ValueError`` of a bound
    or width below zero, which ``Multiplicity`` and ``Interface`` declare."""
    try:
        return build()
    except TypeError:
        return None
    except ValueError as exc:
        assert "non-negative" in str(exc) or "below lower bound" in str(exc), exc
        return None


def _raises_only(declared, run) -> None:
    """``run()`` returns, or raises one of ``declared``."""
    try:
        run()
    except declared:
        pass


@pytest.fixture(scope="module")
def office_doc(office_bgc):
    return parse_constraints(office_bgc)


@given(st.sampled_from(("bigraph", "graph", "type-graph")), st.data())
@settings(max_examples=300, deadline=None)
def test_a_value_either_is_refused_at_construction_or_gives_only_findings(
    b1, g1, emap1, sig1, tg_sigma1, office_doc, kind, data
):
    w = data.draw(WRONG, label="value")
    edits = {"bigraph": _bigraph_edits(b1, w), "graph": _graph_edits(g1, w), "type-graph": _type_graph_edits(tg_sigma1, w)}[kind]
    value = _built(edits[data.draw(st.sampled_from(sorted(edits)), label="edit")])
    if value is None:
        return
    if kind == "bigraph":
        validate_bigraph(value)
        check_soundness(value, g1, emap1)
        _raises_only(InvalidBigraph, lambda: encode(value))
        _raises_only(ValueError, lambda: fileio.dumps_canonical(value))
        sig = value.signature
        _raises_only(ReservedControlName, lambda: conformance(g1, extend_for_signature(sig), sig))
        _raises_only((NotCanonical, UntypedControl, ReservedControlName), lambda: decode(g1, sig))
        for cfg in enumerate_configs():
            _raises_only(NotCanonical, lambda: apply_deltas(replace(g1), cfg, sig))
    elif kind == "graph":
        for check in (check_typing, check_validity, check_multiplicities):
            check(value, tg_sigma1)
        conformance(value, tg_sigma1, sig1)
        check_soundness(b1, value, emap1)
        _raises_only((NotCanonical, UntypedControl), lambda: decode(value, sig1))
        for cfg in enumerate_configs():
            _raises_only(NotCanonical, lambda: apply_deltas(value, cfg, sig1))
        _raises_only(EvaluationError, lambda: evaluate(office_doc, value, tg_sigma1))
        _raises_only(ValueError, lambda: fileio.dumps_canonical(value))
    else:
        check_type_graph(value)
        conformance(g1, value, sig1)
        _raises_only((TypeCheckError, EvaluationError), lambda: evaluate(office_doc, g1, value))
        _raises_only(ValueError, lambda: fileio.dumps_canonical(value))


def test_each_refusal_names_the_class_the_field_and_the_value(b1):
    with pytest.raises(TypeError) as refused:
        replace(b1, nodes=[*b1.nodes, 7, True, None])
    assert str(refused.value) == "Bigraph.nodes holds 7, which is not a str"
    with pytest.raises(TypeError) as refused:
        Signature((Control("A"),), {"A": -1})
    assert str(refused.value) == "Signature.arities holds -1, which is not a non-negative int"


def test_a_control_without_an_arity_is_refused_by_the_writers(b1):
    """The format gives each control an arity; a signature built in code
    may lack one, which the writers refuse before they print anything."""
    sig = Signature((*b1.signature.controls, Control("Fax")), b1.signature.arities)
    for value in (sig, replace(b1, signature=sig)):
        with pytest.raises(ValueError, match="^control Fax has no arity$"):
            fileio.dumps_canonical(value)


# ---------------------------------------------------------------------------
# What the readers build


def _office():
    """``perfbench/office.py``, run from its source text."""
    office = types.ModuleType("perfbench_office")
    sys.modules[office.__name__] = office  # which ``dataclass`` reads
    try:
        path = FIXTURES.parent / "perfbench" / "office.py"
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), office.__dict__)
    finally:
        del sys.modules[office.__name__]
    return office


DOCUMENTS = sorted(p.name for p in FIXTURES.glob("*.json")) + sorted(f"corpus/{p.name}" for p in FIXTURES.glob("corpus/*.json"))


def assert_adopted_exactly(value) -> None:
    """``value``, which a reader built without the constructors' check,
    is what the constructor builds from its fields, and prints alike."""
    rebuilt = replace(value)
    assert type(rebuilt) is type(value) and rebuilt == value
    assert fileio.dumps_canonical(rebuilt) == fileio.dumps_canonical(value)


@pytest.mark.parametrize("name", DOCUMENTS)
def test_each_fixture_is_read_exactly_as_the_constructor_builds_it(name):
    assert_adopted_exactly(fileio.load_document(str(FIXTURES / name))[1])


@pytest.mark.parametrize("kind", [None, *_office().MUTATIONS])
def test_an_office_model_is_read_exactly_as_the_constructor_builds_it(tmp_path, kind):
    office = _office()
    sig_doc = json.loads((FIXTURES / "printer.sig.json").read_text(encoding="utf-8"))
    model = office.office_model(11, 6, 20, 3, sig_doc, kind)
    docs = {"bg": ("bigraph", model.bigraph), "ig": ("instancegraph", model.mutated or model.encoding)}
    for name, (doc_kind, payload) in docs.items():
        path = tmp_path / f"model.{name}.json"
        path.write_text(json.dumps(office.envelope(doc_kind, payload)), encoding="utf-8")
        assert_adopted_exactly(fileio.load_document(str(path))[1])
