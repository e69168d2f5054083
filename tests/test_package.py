"""Package surface: every exported name exists, and the benchmark's tracer
can still wrap the entry points it measures."""

from __future__ import annotations

import importlib
import pathlib
import sys

import tubekernels


def test_all_names_resolve():
    missing = [name for name in tubekernels.__all__ if not hasattr(tubekernels, name)]
    assert missing == []


def _module_bindings() -> dict:
    return {
        (name, key): val
        for name, mod in list(sys.modules.items())
        if name == "tubekernels" or name.startswith("tubekernels.")
        for key, val in vars(mod).items()
    }


def test_bench_tracer_installs(monkeypatch):
    # bench/tracing.py patches names and signatures of this package from
    # outside; a rename here must fail a test, not only the benchmark
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    tracing = importlib.import_module("tracing")
    before = _module_bindings()
    original = tubekernels.quadrature.direct_pair
    tr = tracing.Tracer()
    try:
        tracing.install(tr, tubekernels, [tubekernels.model_domain(2)])
        assert tubekernels.quadrature.direct_pair is not original
    finally:
        tr.uninstall()
    assert tubekernels.quadrature.direct_pair is original
    after = _module_bindings()
    assert all(after[k] is v for k, v in before.items())
