"""The library names the benchmark harness under ``bench/`` reads.

``bench/spans.py``'s ``Tracer`` looks up every name of ``TRACED`` on its
``iumps`` module, and ``bench/workloads.py`` calls a few more; a renamed or
deleted one would break the benchmark, not the library's own tests.
``TRACED`` is read at run time, so this follows any change to it.
"""

import importlib
from pathlib import Path

import iumps

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_name_the_benchmark_reads_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    for layer, names in spans.TRACED.items():
        module = importlib.import_module(f"iumps.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"iumps.{layer}.{name}"
    for name in ("build_instance", "RandomStream", "region_entropy", "brute_force_entropy"):
        assert hasattr(iumps, name), f"iumps.{name}"
    assert callable(importlib.import_module("iumps.entropy").qcmi)
    assert issubclass(importlib.import_module("iumps.exceptions").IumpsError, Exception)
