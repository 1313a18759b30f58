"""The benchmark's layer tracer looks up each package function and method
it wraps by name, so a rename or deletion in the package breaks every
traced run. This test builds the tracer on the package as it is."""

from __future__ import annotations

import importlib
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def test_the_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    tracing = importlib.import_module("tracing")
    # The tracer reads the modules from sys.modules, so load each first.
    for _, module, _ in tracing.SPANS + tracing.COUNTERS:
        importlib.import_module(module)
    # Construction resolves every name, and raises on one that is gone.
    tracing.Tracer()
