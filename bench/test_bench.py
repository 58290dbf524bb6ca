"""Tests of the benchmark itself: generator labels, known-answer checks,
cache isolation and metric names.  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import lattices  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from orthologic import classify, fixture, is_isomorphic, parse_algebra  # noqa: E402
from orthologic.cli import main  # noqa: E402

SMALL = [lat for lats in workloads._lattices_by_size().values() for lat in lats] + [
    lattices.boolean(1), lattices.boolean(2), lattices.mo(1),
]


@pytest.fixture(autouse=True)
def empty_caches():
    """Ops run in-process by a test must not leak into the isolation checks
    of the next."""
    for cache in run.package_caches():
        cache.cache_clear()


def _algebra(lat, name="t"):
    rng = random.Random(0)
    return parse_algebra(json.dumps(lattices.relabelled(lat, name, rng).document()))


@pytest.mark.parametrize("lat", SMALL, ids=lambda lat: lat.label)
def test_generator_labels_agree_with_brute_force_and_classify(lat):
    lattices.verify(lat)
    label = classify(_algebra(lat))
    assert label.is_iol
    assert label.is_ioml == lat.orthomodular
    assert label.is_iboolean == lat.boolean


def test_hexagon_and_mo2_are_the_fixtures():
    assert is_isomorphic(_algebra(lattices.hexagon()), fixture("benzene6")) is not None
    assert is_isomorphic(_algebra(lattices.mo(2)), fixture("ioml6-full")) is not None


def test_wrong_construction_flags_are_caught():
    hexagon = lattices.hexagon()
    lying = lattices.Ortholattice(*[getattr(hexagon, f) for f in (
        "label", "names", "le", "meet", "join", "comp", "bottom", "top")], True, False, 2)
    with pytest.raises(lattices.LatticeError):
        lattices.verify(lying)


def test_from_iol_reads_back_and_rejects_a_corrupt_table():
    lat = lattices.mo(3)
    table = [[lat.arrow(x, y) for y in range(lat.n)] for x in range(lat.n)]
    back = lattices.from_iol(lat.names, table, lat.top, lat.bottom)
    assert back.orthomodular and not back.boolean and back.center_size == 2
    table[1][2] = table[1][3]
    with pytest.raises(lattices.LatticeError):
        lattices.from_iol(lat.names, table, lat.top, lat.bottom)


# -- known answers -------------------------------------------------------------

def _run(op):
    return run.run_op(op, 0)


def _ops(workload, tmp_path, seed=3):
    return workloads.build(workload, seed, tmp_path)


def test_same_seed_same_inputs(tmp_path):
    first = [op.argv[1:] for op in _ops("registry", tmp_path / "a")]
    second = [op.argv[1:] for op in _ops("registry", tmp_path / "b")]
    assert [Path(a[0]).name for a in first] == [Path(b[0]).name for b in second]
    a, b = Path(first[0][0]), Path(second[0][0])
    assert a.read_text() == b.read_text()


def test_checks_pass_on_real_output_and_fail_on_tampered_output(tmp_path):
    ops = _ops("reports", tmp_path)
    picked = {op.argv[0]: op for op in ops if "MO7" in op.argv[1] or "hexxB4" in op.argv[1]}
    for op in picked.values():
        assert _run(op)["reason"] is None
    for op in _ops("registry", tmp_path / "r")[:3]:
        code, out = _capture(op.argv)
        assert op.check(code, out)[0] is None
        assert op.check(1 - code, out)[0] is not None
        results = json.loads(out)
        results[0]["status"] = "skipped"
        assert op.check(code, json.dumps(results))[0] is not None
    ortho = next(op for op in ops if op.argv[0] == "ortho" and "MO7" in op.argv[1])
    code, out = _capture(ortho.argv)
    doc = json.loads(out)
    doc["dacey"]["status"] = "fail"
    assert ortho.check(1, json.dumps(doc))[0] is not None
    sasaki = next(op for op in ops if op.argv[0] == "sasaki" and "MO7" in op.argv[1])
    code, out = _capture(sasaki.argv)
    doc = json.loads(out)
    doc["center"] = doc["center"][:1]
    assert sasaki.check(code, json.dumps(doc))[0] is not None


def _capture(argv):
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_models_checks_catch_wrong_counts_maps_and_witnesses(tmp_path):
    ops = _ops("models", tmp_path)
    enum6 = next(op for op in ops if op.argv[:5] == ["enumerate", "--size", "6", "--class", "iol"])
    _, out = _capture(enum6.argv)
    assert enum6.check(0, out)[0] is None
    assert enum6.check(0, out.splitlines()[0])[0] is not None
    assert enum6.check(0, out.splitlines()[0] + "\n" + out.splitlines()[0])[0] is not None
    hit = next(op for op in ops if op.argv[:5] == ["search", "--require", "impl", "--forbid", "IOM"])
    assert hit.check(*_capture(hit.argv))[0] is None
    _, mo2 = _capture(["enumerate", "--size", "6", "--class", "ioml"])
    assert hit.check(0, mo2)[0] is not None
    iso = next(op for op in ops if op.argv[0] == "iso" and _capture(op.argv)[0] == 0)
    _, mapping = _capture(iso.argv)
    assert iso.check(0, mapping)[0] is None
    pairs = mapping.split()
    swapped = [pairs[1].split("->")[0] + "->" + pairs[0].split("->")[1],
               pairs[0].split("->")[0] + "->" + pairs[1].split("->")[1]] + pairs[2:]
    assert iso.check(0, " ".join(swapped))[0] is not None


def test_disagreeing_relabelled_copies_fail():
    results = [{"group": "g", "reason": None, "invariant": v} for v in ("pass", "pass", "fail")]
    results.append({"group": None, "reason": None, "invariant": 1})
    run._check_groups(results)
    assert [r["reason"] is None for r in results] == [False, False, False, True]


# -- cache isolation -------------------------------------------------------------

def test_every_op_loads_uniquely_named_documents(tmp_path):
    for workload in workloads.WORKLOADS:
        names = [n for op in _ops(workload, tmp_path / workload) for n in op.documents]
        assert len(names) == len(set(names)), workload
        for op in _ops(workload, tmp_path / workload):
            for path in op.argv[1:]:
                if path.endswith(".json"):
                    assert json.loads(Path(path).read_text())["name"] in op.documents


def test_reused_name_and_warm_cache_are_refused(tmp_path):
    seen: set = set()
    op = _ops("registry", tmp_path)[0]
    run.claim_documents(op, seen)
    with pytest.raises(run.IsolationError):
        run.claim_documents(op, seen)
    caches = run.package_caches()
    assert caches
    run.in_child(lambda: _run(op))  # a forked op leaves this process clean
    run.assert_fresh(caches)
    _run(op)
    with pytest.raises(run.IsolationError):
        run.assert_fresh(caches)


def test_batch_runs_in_a_fresh_process(tmp_path):
    ops = [op for op in _ops("models", tmp_path) if op.argv[0] == "iso"][:2]
    caches = run.package_caches()
    batch = run.run_batch("models", ops, caches)
    assert [r["reason"] for r in batch["results"]] == [None, None]
    assert batch["peak_mb"] > 0
    run.assert_fresh(caches)


# -- metric names --------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]},
            {w["name"] for w in spec["workloads"]})


def test_emitted_metric_names_are_declared():
    end_to_end, per_layer, declared_workloads = _declared()
    assert declared_workloads == set(workloads.WORKLOADS)
    batch = {"results": [{"elapsed": 0.01 * i, "scaled": 0.01 * i} for i in range(1, 21)],
             "peak_mb": 20.0, "payloads": [{"spans": [], "counts": {}, "live_tables": 0}]}
    e2e, _ = run.end_to_end([batch], [0.2, 0.3])
    layers, _ = run.per_layer([batch], [batch])
    for name in list(e2e) + list(layers):
        assert NAME.fullmatch(name), name
    assert set(e2e) == end_to_end
    assert set(layers) == per_layer
    assert {f"theorems.check.{cid}.s" for cid in tracing.check_ids()} <= per_layer


def test_traced_run_counts_layers(tmp_path):
    ops = [op for op in _ops("models", tmp_path) if op.argv[:3] == ["enumerate", "--size", "6"]]
    caches = run.package_caches()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        batch = run.run_batch("models", ops, caches, tracer)
    finally:
        tracing.uninstall(undo)
    metrics = tracing.layer_metrics(batch["payloads"])
    assert all(r["reason"] is None for r in batch["results"])
    assert metrics["enumeration.leaves"][0] > 0
    assert metrics["enumeration.canonical_key.calls"][0] > 0
    assert metrics["algebra.live_tables_end"][0] > 0
    assert 0 < metrics["enumeration.dedup_ratio"][0] <= 1
    assert metrics["cli.self_s"][0] > 0
    run.assert_fresh(caches)
