"""A reconfigured variant is built when it is first read.

``apply_deltas`` decides at once what can raise and what its record and
the family verdict need, and leaves the variant's fields to a build that
the first read of one runs (``InstanceGraph._lazy``). These tests pin
that design: a family loop of saves and kept checks builds no variant,
an unread variant outlives its input, an unbuilt variant reads as its
built twin does, and what raises still raises in ``apply_deltas``.
"""

from __future__ import annotations

import copy
import gc
import pickle
import weakref

import pytest

from bigtg import (
    FeatureConfig,
    InstanceGraph,
    NotCanonical,
    annotate_150,
    apply_deltas,
    check_multiplicities,
    check_typing,
    check_validity,
    derive_type_graph,
    enumerate_configs,
    extend_for_signature,
    fileio,
    replace,
)
from bigtg.cli import main

from helpers import drop_edge, outcome
from test_index import PORTS_ONLY, ref_apply_deltas

FIELDS = set(InstanceGraph._fields)
KEPT_CHECKERS = (check_typing, check_validity, check_multiplicities)


def _printer(fixtures_dir):
    g = fileio.load_instance_graph(str(fixtures_dir / "printer.ig.json"))
    return g, fileio.load_signature(str(fixtures_dir / "printer.sig.json"))


def _unbuilt(value: InstanceGraph) -> bool:
    """Whether ``value`` still waits for its build: it holds the build and
    no field."""
    return "_build" in vars(value) and not FIELDS & vars(value).keys()


def test_a_family_loop_builds_no_variant(fixtures_dir, tmp_path):
    """From the second reconfiguration on, a variant made, checked by the
    three kept checks and saved is never built: the checks answer from the
    family verdict and the save selects the family's text. What it saved
    is what the built variant prints."""
    g, sig = _printer(fixtures_dir)
    atg = annotate_150(extend_for_signature(sig))
    first, *rest = enumerate_configs()
    apply_deltas(g, first, sig)
    saved = []
    for cfg in rest:
        variant = apply_deltas(g, cfg, sig)
        tg = derive_type_graph(atg, cfg)
        assert all(checker(variant, tg).ok for checker in KEPT_CHECKERS)
        path = tmp_path / f"{len(saved)}.ig.json"
        fileio.save(variant, str(path))
        if variant is not g:
            assert _unbuilt(variant), cfg.ordered()
            saved.append((variant, path))
    assert len(saved) == 52
    for variant, path in saved:
        assert path.read_text(encoding="utf-8") == fileio.dumps_canonical(replace(variant))
        assert not _unbuilt(variant) and "_build" not in vars(variant)


def test_an_unread_variant_outlives_its_input(fixtures_dir, tmp_path):
    """The build holds parts and dicts of the input, never the input: a
    variant that nothing read while its input lived still builds after the
    input is collected, to the scanning reference's value in every
    configuration, and saves the bytes that ``bigtg configure`` writes."""
    g, sig = _printer(fixtures_dir)
    variants = {}
    for cfg in enumerate_configs():
        variant = apply_deltas(g, cfg, sig)
        if variant is not g:
            variants[cfg] = variant
    held = weakref.ref(g)
    del g, variant
    gc.collect()
    assert held() is None and len(variants) == 53
    assert all(map(_unbuilt, variants.values()))
    fresh, _ = _printer(fixtures_dir)
    for cfg in enumerate_configs():
        variant = variants.get(cfg, fresh)
        assert variant == ref_apply_deltas(fresh, cfg, sig), cfg.ordered()
    for i, (cfg, variant) in enumerate(variants.items()):
        features, alone, configured = (tmp_path / f"{i}.{name}.json" for name in ("cfg", "alone.ig", "configured.ig"))
        fileio.save(cfg, str(features))
        fileio.save(variant, str(alone))
        argv = ["configure", str(fixtures_dir / "printer.ig.json"), "--sig", str(fixtures_dir / "printer.sig.json")]
        assert main([*argv, "--features", str(features), "-o", str(configured)]) == 0
        assert alone.read_bytes() == configured.read_bytes(), cfg.ordered()


READS = {
    "eq": lambda v, built: (v == built, built == v, v != built),
    "hash": lambda v, built: outcome(hash, v) == outcome(hash, built),  # a graph's dicts are unhashable
    "repr": lambda v, built: repr(v) == repr(built),
    "copy": lambda v, built: copy.copy(v) == built,
    "pickle": lambda v, built: pickle.loads(pickle.dumps(v)) == built,
    "replace": lambda v, built: replace(v) == built,
}
WANT = {"eq": (True, True, False)}


@pytest.mark.parametrize("read", sorted(READS))
def test_an_unbuilt_variant_reads_as_its_built_twin(fixtures_dir, read):
    """``==``, ``hash``, ``repr``, ``copy``, ``pickle`` and ``replace``
    read the fields by ordinary lookup, so each builds an unbuilt variant
    and answers as on its twin that was built first, in every
    configuration."""
    g, sig = _printer(fixtures_dir)
    twin_of, _ = _printer(fixtures_dir)
    for cfg in enumerate_configs():
        variant, built = apply_deltas(g, cfg, sig), apply_deltas(twin_of, cfg, sig)
        if variant is g:
            continue
        built.graph
        assert _unbuilt(variant) and not _unbuilt(built)
        assert READS[read](variant, built) == WANT.get(read, True), cfg.ordered()
        assert vars(variant).keys() >= FIELDS and "_build" not in vars(variant)


@pytest.mark.parametrize("family", [False, True], ids=["first", "family"])
@pytest.mark.parametrize("edge_type, lacks", [("bNode", "0 ownership edges"), ("bLink", "0 link edges")])
def test_a_port_that_cannot_be_rewired_raises_in_apply_deltas(g1, sig1, family, edge_type, lacks):
    """The rewiring's ``NotCanonical`` is decided at once: ``apply_deltas``
    itself raises it, with the scanning reference's reason, for a port
    without its ownership or its link edge, on the first reconfiguration
    and in a family."""
    edge = min(e for e in g1.graph.edges if g1.edge_types[e] == edge_type)
    broken = drop_edge(g1, edge)
    if family:
        apply_deltas(broken, FeatureConfig.canonical(), sig1)
    with pytest.raises(NotCanonical) as raised:
        apply_deltas(broken, PORTS_ONLY, sig1)
    assert ("NotCanonical", str(raised.value)) == outcome(ref_apply_deltas, broken, PORTS_ONLY, sig1)
    assert str(raised.value) == f"port {g1.graph.src[edge]} has {lacks}; cannot rewire"


def test_an_unknown_attribute_reads_alike_built_or_not(fixtures_dir):
    """A name that is no field raises the same ``AttributeError`` on an
    unbuilt variant, on a built one and on a constructed graph, and does
    not build the variant."""
    g, sig = _printer(fixtures_dir)
    cfg = enumerate_configs()[-1]
    variant, built = apply_deltas(g, cfg, sig), replace(apply_deltas(g, cfg, sig))
    messages = []
    for value in (variant, built, g):
        with pytest.raises(AttributeError) as raised:
            value.nodes
        messages.append(str(raised.value))
    assert messages == ["'InstanceGraph' object has no attribute 'nodes'"] * 3
    assert _unbuilt(variant)
