"""Benchmark of the orthologic command line.

    python3 bench/run.py --workload registry --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; it imports the package from ``src/`` and
writes its documents and span files under ``.bench_work/``.

Load is a closed loop: one process runs one CLI command (``orthologic.cli.main``
in-process, so interpreter start-up stays out of op timings) at a time.
Batches of the workload's ops repeat until ``--seconds`` is spent, at least
once.  Each op's exit code and output are checked against an answer that
orthologic did not compute (see ``workloads``).

No op may see cache state from an earlier op.  Every batch of ``registry`` and
``reports`` runs in a fresh process forked from this one, which has run no op,
and gives each op a uniquely named document (``name`` is part of
``FiniteAlgebra`` equality, so equal tables under new names miss every
``lru_cache``).  ``models`` forks a fresh process per op, because its
enumerate and search ops build the same candidate tables.

With ``--trace 0`` the last line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see ``tracing``) next to
an untraced one.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import pickle
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5
# Typical seconds of one round of ``reference()`` on the machine the bounds
# were set on.  Op times are reported scaled by ROUND_S over the mean round
# time measured around and during the op, so that a host whose speed drifts
# by 20 to 50% from minute to minute still gives comparable runs.
ROUND_S = 0.0005
TICK_S = 0.1  # CPU seconds of an op between two reference samples
CHILD_TIMEOUT_S = 150  # a process running ops is killed after this long


class IsolationError(RuntimeError):
    """An op could see cache state left by an earlier op."""


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="generate and write the inputs, then exit (timed as setup_s)")
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """Import the package, generate the seeded inputs and write them."""
    import orthologic.cli  # noqa: F401  (import cost is part of set-up)
    from workloads import build

    return build(workload, seed, WORK / workload)


def timed_setup(workload: str, seed: int) -> float:
    """Seconds for a fresh interpreter to run ``setup``, scaled like op
    times (this process sleeps meanwhile, so only the samples just before
    and after count)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    with Speedometer() as meter:
        start = perf_counter()
        # A plain wait: waiting with a timeout polls, and rounds the time up
        # to the next poll.
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        elapsed = perf_counter() - start
    return meter.scale(elapsed)[1]


# ---------------------------------------------------------------------------
# Cache isolation.
# ---------------------------------------------------------------------------

def package_caches() -> list:
    """Every ``lru_cache`` in the package, found before any wrapper is
    installed."""
    import importlib

    from tracing import MODULES

    found = {}
    for name in MODULES:
        for value in vars(importlib.import_module(f"orthologic.{name}")).values():
            if hasattr(value, "cache_info"):
                found[id(value)] = value
    return list(found.values())


def assert_fresh(caches) -> None:
    used = [f.__qualname__ for f in caches if f.cache_info().currsize]
    if used:
        raise IsolationError(f"caches hold entries before the first op: {used}")


def claim_documents(op, seen: set) -> None:
    for name in op.documents:
        if name in seen:
            raise IsolationError(f"document name {name!r} reused in one process")
        seen.add(name)


# ---------------------------------------------------------------------------
# Running ops.
# ---------------------------------------------------------------------------

_TABLE = tuple(tuple((7 * i + 3 * j) % 64 for j in range(64)) for i in range(64))


def _step(t, x, y):
    return t[t[x][y]][x]


def reference(rounds: int = 16) -> float:
    """Seconds per round of a fixed pure-Python mix of table lookups and
    small calls, the kind of work the package does; it tracks the speed of
    the host at that moment."""
    t = _TABLE
    start = perf_counter()
    x = 1
    for _ in range(rounds):
        for i in range(64):
            row = t[i]
            for j in range(64):
                x = _step(t, row[j], x)
    return (perf_counter() - start) / rounds


class Speedometer:
    """Reference samples before, during (one every TICK_S of CPU time, by
    SIGVTALRM) and after an op.  ``scale`` removes the samples' own time and
    converts the rest to ROUND_S per round, by the mean sample."""

    def __enter__(self):
        self.rounds = [reference()]
        self.overhead = 0.0
        self.previous = signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, TICK_S, TICK_S)
        return self

    def _tick(self, signum, frame):
        start = perf_counter()
        self.rounds.append(reference(2))
        self.overhead += perf_counter() - start

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self.previous)
        self.rounds.append(reference())
        return False

    def scale(self, elapsed: float) -> tuple[float, float]:
        """(op time without the samples, that time at ROUND_S per round)."""
        own = elapsed - self.overhead
        return own, own * ROUND_S / statistics.fmean(self.rounds)


def run_op(op, op_id: int, tracer=None) -> dict:
    """Run one CLI command in this process and check its answer."""
    from orthologic import cli

    if tracer is not None:
        tracer.op_id = op_id
    out, err = io.StringIO(), io.StringIO()
    code, reason, invariant = None, None, None
    with redirect_stdout(out), redirect_stderr(err), Speedometer() as meter:
        start = perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op
            reason = f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    elapsed, scaled = meter.scale(elapsed)
    if reason is None and code == cli.EXIT_RESOURCE_CAP:
        reason = f"resource cap: {err.getvalue().strip()}"
    elif reason is None:
        try:
            reason, invariant = op.check(code, out.getvalue())
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            reason = f"unreadable output ({type(exc).__name__}: {exc})"
    return {"elapsed": elapsed, "scaled": scaled, "reason": reason,
            "invariant": invariant, "group": op.group, "argv": op.argv}


def _ops_child(ops, first_id: int, caches, tracer):
    assert_fresh(caches)
    reference()  # first touch copies the table's pages out of the parent
    if tracer is not None:
        tracer.reset()
    seen: set = set()
    results = []
    for i, op in enumerate(ops):
        claim_documents(op, seen)
        results.append(run_op(op, first_id + i, tracer))
    return results, tracer.payload() if tracer is not None else None


def in_child(fn):
    """Run ``fn()`` in a forked child that has run no op; return its result
    and the child's peak resident memory in MiB.  Forking is safe here: the
    benchmark starts no threads."""
    sys.stdout.flush()
    sys.stderr.flush()
    gc.freeze()  # the child's collections then leave the parent's pages shared
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                data = pickle.dumps(("ok", fn()))
            except Exception:
                data = pickle.dumps(("error", traceback.format_exc()))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    kind, value = pickle.loads(data) if data else ("died", f"wait status {status}")
    return kind, value, usage.ru_maxrss / 1024


def run_batch(workload: str, ops, caches, tracer=None) -> dict:
    """One pass over the workload's ops in fresh processes."""
    start = perf_counter()
    chunks = [[op] for op in ops] if workload == "models" else [ops]
    results, payloads, peak = [], [], 0.0
    for chunk in chunks:
        kind, value, rss = in_child(partial(_ops_child, chunk, len(results), caches, tracer))
        peak = max(peak, rss)
        if kind == "error" and "IsolationError" in value:
            raise IsolationError(value)
        if kind != "ok":
            results += [{"elapsed": 0.0, "scaled": 0.0, "reason": f"process {kind}: {value}",
                         "invariant": None, "group": op.group, "argv": op.argv} for op in chunk]
            continue
        chunk_results, payload = value
        results += chunk_results
        if payload is not None:
            payloads.append(payload)
    _check_groups(results)
    return {"results": results, "peak_mb": peak, "payloads": payloads,
            "elapsed": perf_counter() - start}


def _check_groups(results) -> None:
    """Relabelled copies of one construction must agree."""
    groups: dict = {}
    for r in results:
        if r["group"] is not None and r["reason"] is None:
            groups.setdefault(r["group"], set()).add(repr(r["invariant"]))
    for r in results:
        if r["reason"] is None and len(groups.get(r["group"], ())) > 1:
            r["reason"] = f"relabelled copies disagree: {sorted(groups[r['group']])}"


def measure(workload: str, ops, caches, seconds: float, tracer=None) -> list[dict]:
    """Repeat batches until the next one would end after ``seconds``."""
    batches = []
    start = perf_counter()
    while True:
        batches.append(run_batch(workload, ops, caches, tracer))
        typical = statistics.median(b["elapsed"] for b in batches)
        if perf_counter() - start + typical > seconds:
            return batches


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------

def op_medians(batches, key: str = "scaled") -> list[float]:
    """Each op's latency as its median over the passes, so that the sample
    set has the same make-up however many passes fit in the run."""
    return [statistics.median(b["results"][i][key] for b in batches)
            for i in range(len(batches[0]["results"]))]


def end_to_end(batches, setup_times) -> tuple[dict, list[str]]:
    latencies = op_medians(batches)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    metrics = {
        "wall_s": (sum(latencies), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (max(b["peak_mb"] for b in batches), "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    samples = f"{len(latencies)} ops, each the median of {len(batches)} passes"
    raw = sum(op_medians(batches, "elapsed"))
    notes = {
        "wall_s": f"one batch: {samples}; {raw:.4f} s unscaled",
        "op_p50_ms": samples,
        "op_p90_ms": f"{samples}; {sum(x > p90 for x in latencies)} beyond",
        "peak_rss_mb": "largest peak of any process that ran ops",
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
    }
    lines = [f"{k:<14} {v:>12.4f} {u:<5} ({notes[k]})" for k, (v, u) in metrics.items()]
    return metrics, lines


def per_layer(untraced, traced) -> tuple[dict, list[str]]:
    from tracing import layer_metrics

    per_batch = [layer_metrics(b["payloads"]) for b in traced]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_batch), unit)
        for name, (_, unit) in per_batch[0].items()
    }
    ratio = sum(op_medians(traced)) / sum(op_medians(untraced))
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    lines = [f"{k:<48} {v:>14.6g} {u}" for k, (v, u) in metrics.items()]
    return metrics, lines


def write_spans(path: Path, traced) -> None:
    """One line per span: batch, process, op id, name, start, end, parent."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for b, batch in enumerate(traced):
            for p, payload in enumerate(batch["payloads"]):
                for name, start, end, parent, op_id in payload["spans"]:
                    out.write(json.dumps([b, p, op_id, name, start, end, parent]) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "orthologic" / "__init__.py").is_file():
        print(f"error: no orthologic package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0

    setup_times = [] if args.trace else [
        timed_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    ops = setup(args.workload, args.seed)
    caches = package_caches()
    assert_fresh(caches)
    if args.trace:
        import tracing

        untraced = measure(args.workload, ops, caches, args.seconds / 2)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = measure(args.workload, ops, caches, args.seconds / 2, tracer)
        batches = untraced + traced
        metrics, lines = per_layer(untraced, traced)
        write_spans(WORK / f"spans-{args.workload}.jsonl", traced)
    else:
        batches = measure(args.workload, ops, caches, args.seconds)
        metrics, lines = end_to_end(batches, setup_times)

    results = [r for b in batches for r in b["results"]]
    with (WORK / f"ops-{args.workload}.jsonl").open("w", encoding="utf-8") as out:
        for r in results:
            out.write(json.dumps({k: r[k] for k in ("argv", "elapsed", "scaled", "reason")}) + "\n")
    failures = [r for r in results if r["reason"] is not None]
    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} ops per batch, "
          f"{len(batches)} batches, trace {args.trace}")
    for line in lines:
        print(line)
    print(f"failed_share {len(failures) / len(results):.4f} ({len(failures)} of {len(results)} ops)")
    for r in failures[:10]:
        print(f"FAILED {' '.join(r['argv'])}: {r['reason']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
