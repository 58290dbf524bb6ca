"""The benchmark's tracer wraps package functions by name, so a rename in
``src`` would break only ``bench/run.py --trace 1``.  This reads the
tracer's list and checks that every name still resolves."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_a_module_level_callable():
    traced = load_tracing().TRACED
    assert traced
    for module, function in traced:
        owner = importlib.import_module(f"orthologic.{module}")
        assert callable(getattr(owner, function, None)), f"orthologic.{module}.{function}"
