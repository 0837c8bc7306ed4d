"""The benchmark tracer must find every function it is told to wrap."""

from __future__ import annotations

import importlib
import pathlib
import types

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # Executed from its source text, so nothing is written under perfbench/.
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_target_resolves(tracing):
    for name in tracing.NAMES:
        mod_name, fn_name = name.split(".")
        assert callable(getattr(importlib.import_module(f"bigtg.{mod_name}"), fn_name, None)), name


def test_tracer_sees_the_checkers_under_decode(tracing, g1, sig1):
    import bigtg.mapping

    tracer = tracing.Tracer()
    tracer.install()
    try:
        bigtg.mapping.decode(g1, sig1)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["mapping.decode.calls"] == 1
    for checker in sorted(tracing.CHECKERS):
        assert metrics[f"{checker}.calls"] == 1, checker
    assert 0 < metrics["mapping.decode.recheck_share"] < 1
