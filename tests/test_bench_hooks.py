"""The benchmark's span tracer replaces package attributes by name
(bench/tracing.py, WRAPPED).  A refactor that renames or drops one of them
would crash every traced benchmark run, so check that each one resolves."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for _, module, attr in tracing.WRAPPED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert tracing.WRAPPED and not missing
