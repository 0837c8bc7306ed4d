"""The constructors refuse what the readers refuse.

``Graph``, ``InstanceGraph``, ``TypeGraph``, ``Multiplicity``,
``Bigraph``, ``Interface``, ``Signature`` and ``Control`` check the types
of their fields once, as they copy them, and raise ``TypeError`` naming
the first offender; an id or a type must be exactly a ``str``, so a
subclass of ``str`` is refused too. ``Graph`` and ``InstanceGraph`` then
raise ``ValueError`` for a structure that is no graph: an edge without
an end or an end that is no node, a node or edge without a type, a
typing entry for no element, and an attribute of no node. So every value
they build holds what a document can hold, and each entry point gives
findings or raises what it declares on it. What the package builds
without that check (the readers, ``encode``, ``decode`` and
``apply_deltas``) is exactly what the constructors would build from the
same fields.
"""

from __future__ import annotations

import json
import re
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigtg import (
    Bigraph,
    Control,
    Graph,
    InstanceGraph,
    Interface,
    InvalidBigraph,
    Multiplicity,
    Port,
    ReservedControlName,
    Signature,
    TypeGraph,
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
from helpers import CONFIGS, mutated_encodings


class Tagged(str):
    """A subclass of ``str``, equal to and hashed as the ``str`` it holds."""


#: Values of the wrong type for some field, or of the right type for
#: another: ``bool``, ``None``, ``float``, ``list``, ``dict``, ``int``,
#: ``str`` and a subclass of ``str``.
WRONG = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, width=16),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text("ab", max_size=1), st.integers(0, 1), max_size=1),
    st.integers(-1, 3),
    st.text("ab:", max_size=2),
    st.text("ab:", max_size=2).map(Tagged),
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
        # Structures that are no graph, whatever ``w`` is.
        "unset-src": lambda: replace(g, graph=replace(graph, src=_without(graph.src, edge))),
        "unset-tgt": lambda: replace(g, graph=replace(graph, tgt=_without(graph.tgt, edge))),
        "ghost-tgt": lambda: replace(g, graph=replace(graph, tgt={**graph.tgt, edge: "ghost"})),
        "untype-node": lambda: replace(g, node_types=_without(g.node_types, node)),
        "untype-edge": lambda: replace(g, edge_types=_without(g.edge_types, edge)),
        "type-ghost-node": lambda: replace(g, node_types={**g.node_types, "ghost": "Job"}),
        "type-ghost-edge": lambda: replace(g, edge_types={**g.edge_types, "ghost": "bLink"}),
        "ghost-owner": lambda: replace(g, attrs={**g.attrs, ("ghost", "index"): 0}),
    }


def _without(d: dict, key) -> dict:
    return {k: v for k, v in d.items() if k != key}


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
        "drop-end": lambda: replace(tg, graph=replace(tg.graph, src=_without(tg.graph.src, "bPrnt"))),
        "ghost-end": lambda: replace(tg, graph=replace(tg.graph, tgt={**tg.graph.tgt, "bPrnt": "Ghost"})),
    }


#: The ``ValueError`` of a structure that is no graph.
PARTIAL = re.compile(r"^(Graph\.(src|tgt)|InstanceGraph\.(node_types|edge_types|attrs)) (holds|lacks) ")


def _built(build):
    """The value ``build()`` makes, or None when it raises ``TypeError``;
    any other exception propagates, except the ``ValueError`` of a bound
    or width below zero, which ``Multiplicity`` and ``Interface`` declare,
    and that of a structure that is no graph."""
    try:
        return build()
    except TypeError:
        return None
    except ValueError as exc:
        assert "non-negative" in str(exc) or "below lower bound" in str(exc) or PARTIAL.match(str(exc)), exc
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
@settings(max_examples=400, deadline=None)
def test_a_value_either_is_refused_at_construction_or_gives_only_findings(
    b1, g1, emap1, sig1, tg_sigma1, office_doc, kind, data
):
    w = data.draw(WRONG, label="value")
    edits = {"bigraph": _bigraph_edits(b1, w), "graph": _graph_edits(g1, w), "type-graph": _type_graph_edits(tg_sigma1, w)}[kind]
    value = _built(edits[data.draw(st.sampled_from(sorted(edits)), label="edit")])
    if value is None:
        return
    assert_one_order(value)
    assert_one_order(getattr(value, "graph", None))
    if kind == "bigraph":
        validate_bigraph(value)
        check_soundness(value, g1, emap1)
        _raises_only(InvalidBigraph, lambda: encode(value))
        _raises_only(ValueError, lambda: fileio.dumps_canonical(value))
        sig = value.signature
        _raises_only(ReservedControlName, lambda: conformance(g1, extend_for_signature(sig), sig))
        _raises_only((NotCanonical, ReservedControlName), lambda: decode(g1, sig))
        for cfg in enumerate_configs():
            _raises_only(NotCanonical, lambda: apply_deltas(replace(g1), cfg, sig))
    elif kind == "graph":
        for check in (check_typing, check_validity, check_multiplicities):
            check(value, tg_sigma1)
        conformance(value, tg_sigma1, sig1)
        check_soundness(b1, value, emap1)
        _raises_only(NotCanonical, lambda: decode(value, sig1))
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


#: Each structure that is no graph, built from the printer encoding ``g``
#: and its type graph ``tg``, and the refusal it meets.
PARTIAL_STRUCTURES = {
    "edge-without-src": (
        lambda g, tg: replace(g.graph, src=_without(g.graph.src, "bChld:r:0:n:v0")),
        "Graph.src lacks 'bChld:r:0:n:v0', which is an edge",
    ),
    "edge-without-tgt": (
        lambda g, tg: replace(g.graph, tgt=_without(g.graph.tgt, "bChld:r:0:n:v0")),
        "Graph.tgt lacks 'bChld:r:0:n:v0', which is an edge",
    ),
    "src-of-no-edge": (
        lambda g, tg: replace(g.graph, src={**g.graph.src, "stray": "r:0"}),
        "Graph.src holds 'stray', which is not an edge",
    ),
    "tgt-of-no-edge": (
        lambda g, tg: replace(g.graph, tgt={**g.graph.tgt, "stray": "r:0"}),
        "Graph.tgt holds 'stray', which is not an edge",
    ),
    "src-no-node": (
        lambda g, tg: replace(g.graph, src={**g.graph.src, "bChld:r:0:n:v0": "ghost"}),
        "Graph.src holds 'ghost', which is not a node",
    ),
    "tgt-no-node": (
        lambda g, tg: replace(g.graph, tgt={**g.graph.tgt, "bChld:r:0:n:v0": "ghost"}),
        "Graph.tgt holds 'ghost', which is not a node",
    ),
    "untyped-node": (
        lambda g, tg: replace(g, node_types=_without(g.node_types, "n:v3")),
        "InstanceGraph.node_types lacks 'n:v3', which is a node",
    ),
    "untyped-edge": (
        lambda g, tg: replace(g, edge_types=_without(g.edge_types, "bChld:r:0:n:v0")),
        "InstanceGraph.edge_types lacks 'bChld:r:0:n:v0', which is an edge",
    ),
    "type-of-no-node": (
        lambda g, tg: replace(g, node_types={**g.node_types, "ghost": "Job"}),
        "InstanceGraph.node_types holds 'ghost', which is not a node",
    ),
    "type-of-no-edge": (
        lambda g, tg: replace(g, edge_types={**g.edge_types, "ghost": "bLink"}),
        "InstanceGraph.edge_types holds 'ghost', which is not an edge",
    ),
    "attribute-of-no-node": (
        lambda g, tg: replace(g, attrs={**g.attrs, ("ghost", "index"): 0, ("zz", "x"): 1}),
        "InstanceGraph.attrs holds an attribute of 'ghost', which is not a node",
    ),
    "edge-type-without-src": (
        lambda g, tg: replace(tg.graph, src=_without(tg.graph.src, "bPrnt")),
        "Graph.src lacks 'bPrnt', which is an edge",
    ),
    "edge-type-to-no-node-type": (
        lambda g, tg: replace(tg.graph, tgt={**tg.graph.tgt, "bPrnt": "Ghost"}),
        "Graph.tgt holds 'Ghost', which is not a node",
    ),
}


@pytest.mark.parametrize("structure", PARTIAL_STRUCTURES)
def test_each_partial_structure_is_refused_naming_its_field(g1, tg_sigma1, structure):
    build, message = PARTIAL_STRUCTURES[structure]
    with pytest.raises(ValueError) as refused:
        build(g1, tg_sigma1)
    assert str(refused.value) == message


#: An id or a type of each value class, put there as a subclass of ``str``,
#: and the field the refusal names.
STR_SUBCLASSES = {
    "graph-node": (lambda g, b: replace(g.graph, nodes=[*g.graph.nodes, Tagged("n:x")]), "Graph.nodes"),
    "graph-src": (lambda g, b: replace(g.graph, src={**g.graph.src, "bChld:r:0:n:v0": Tagged("r:0")}), "Graph.src"),
    "node-type": (
        lambda g, b: replace(g, node_types={**g.node_types, "n:v3": Tagged("Spool")}),
        "InstanceGraph.node_types",
    ),
    "edge-type": (
        lambda g, b: replace(g, edge_types={**g.edge_types, "bChld:r:0:n:v0": Tagged("bChld")}),
        "InstanceGraph.edge_types",
    ),
    "attr-value": (lambda g, b: replace(g, attrs={**g.attrs, ("r:0", "name"): Tagged("x")}), "InstanceGraph.attrs"),
    "type-graph-abstract": (lambda g, b: TypeGraph(Graph({"A"}), abstracts={Tagged("A")}), "TypeGraph.abstracts"),
    "bigraph-node": (lambda g, b: replace(b, nodes=[*b.nodes, Tagged("v9")]), "Bigraph.nodes"),
    "bigraph-control": (lambda g, b: replace(b, ctrl={**b.ctrl, "v0": Tagged("Room")}), "Bigraph.ctrl"),
    "control": (lambda g, b: Control(Tagged("Room")), "Control.name"),
    "interface-name": (lambda g, b: Interface(1, {Tagged("y")}), "Interface.names"),
}


@pytest.mark.parametrize("field", STR_SUBCLASSES)
def test_an_id_or_a_type_of_a_str_subclass_is_refused(g1, b1, field):
    """A ``str`` subclass equals the ``str`` it holds, but the readers never
    give one, and a writer that prints one column at a time would print
    it by another rule."""
    build, owner = STR_SUBCLASSES[field]
    with pytest.raises(TypeError, match=f"^{re.escape(owner)} holds '[^']*', which is not (a str|an int or a str)$"):
        build(g1, b1)


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


def assert_one_order(value) -> None:
    """A graph's ``src`` and ``tgt``, and an instance graph's
    ``edge_types`` with them, share one key order, which its edge view
    reads."""
    if isinstance(value, InstanceGraph):
        assert list(value.graph.src) == list(value.edge_types) == list(value.edge_view.edges)
        value = value.graph
    if isinstance(value, Graph):
        assert list(value.src) == list(value.tgt)


def assert_constructs(value) -> None:
    """``value``, and each value of a value class among its fields (a
    graph's ``Graph``, a bigraph's interfaces), is what the constructor
    builds from its fields: the constructors' checks pass on it, and it
    and the rebuilt value keep one key order (:func:`assert_one_order`)."""
    rebuilt = replace(value)
    assert type(rebuilt) is type(value) and rebuilt == value
    assert_one_order(value)
    assert_one_order(rebuilt)
    for name in value._fields:
        held = getattr(value, name)
        if "_adopt" in vars(type(held)):
            assert_constructs(held)


def assert_adopted_exactly(value) -> None:
    """``value``, which a reader built without the constructors' check,
    is what the constructors build from its fields, and prints alike."""
    assert_constructs(value)
    assert fileio.dumps_canonical(replace(value)) == fileio.dumps_canonical(value)


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


@given(mutated_encodings())
@settings(max_examples=40, deadline=None)
def test_every_graph_the_package_adopts_passes_the_constructor(case):
    """``encode``, ``decode`` and ``apply_deltas`` build their values
    without the constructors' check (``_adopt``): each value they return,
    on an edited encoding in all 54 configurations, on a bigraph's own
    encoding and on what decodes, is what the constructors build from its
    fields. The readers are held to the same on the fixtures and on
    office models above. The constructors give ``tgt`` and ``edge_types``
    the key order of ``src``, whatever order they are handed."""
    g, b = case
    sig = b.signature
    encoded, emap = encode(b)
    graph = encoded.graph
    shuffled = Graph(graph.nodes, graph.edges, graph.src, dict(reversed(graph.tgt.items())))
    rebuilt = InstanceGraph(shuffled, encoded.node_types, dict(reversed(encoded.edge_types.items())), encoded.attrs)
    assert_one_order(rebuilt)
    assert list(rebuilt.graph.src) == list(graph.src) and rebuilt == encoded
    for value in (encoded, emap):
        assert_constructs(value)
    for value in decode(encoded, sig):
        assert_constructs(value)
    try:
        decoded = decode(g, sig)
    except NotCanonical:
        decoded = ()
    for value in decoded:
        assert_constructs(value)
    for graph in (g, encoded):
        for cfg in CONFIGS:
            try:
                variant = apply_deltas(graph, cfg, sig)
            except NotCanonical:
                continue
            assert_constructs(variant)
