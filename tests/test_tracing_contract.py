"""The benchmark's tracer wraps package functions by name, so a rename in
``src`` would break only ``bench/run.py --trace 1``.  This reads the
tracer's list and checks that every name still resolves, and that the
results it counts still have a length."""

import importlib
import importlib.util
from collections import Counter
from collections.abc import Sequence
from pathlib import Path

from orthologic import associated_orthospace, blocks, enumerate_orthoclosed, fixture

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


def test_the_counted_results_are_sized_sequences():
    # orthospace.family_size and orthospace.block_count add len(result).
    after = load_tracing()._AFTER
    space = associated_orthospace(fixture("benzene6"))
    counts = Counter()
    for name, fn in (("orthospace.enumerate_orthoclosed", enumerate_orthoclosed),
                     ("orthospace.blocks", blocks)):
        result = fn(space)
        assert isinstance(result, Sequence), name
        after[name](counts, (space,), result, True)
    assert counts == {"family_size": 6, "block_count": 3}
