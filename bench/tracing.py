"""Layer spans taken from outside the package.

``install`` replaces each traced function with a wrapper in every orthologic
module namespace that holds it, which is where callers look it up (for
example ``orthologic.cli.run_check`` and ``orthologic.enumeration.classify``).
A wrapper records a span (name, start, end, parent, op id) and the counters
that ``layer_metrics`` reads; nothing under ``src/`` changes.  Spans stay in
memory until the run ends.

Only the entry points of each layer are wrapped, not the derived operations
(``star``, ``wedge_q`` ...) that are called millions of times per op.
"""

from __future__ import annotations

import functools
import gc
import importlib
from collections import Counter
from time import perf_counter

MODULES = ("cli", "documents", "algebra", "theorems", "orthospace", "sasaki", "enumeration")

# (module, function) pairs wrapped; the span is named "<module>.<function>",
# except run_check, whose span is "theorems.check.<CHECK-ID>".
TRACED = (
    ("cli", "main"),
    ("documents", "parse_algebra"),
    ("algebra", "classify"),
    ("algebra", "check_axiom"),
    ("algebra", "axiom_holds"),
    ("theorems", "run_check"),
    ("orthospace", "associated_orthospace"),
    ("orthospace", "enumerate_orthoclosed"),
    ("orthospace", "cl_algebra"),
    ("orthospace", "is_dacey"),
    ("orthospace", "blocks"),
    ("orthospace", "is_normal"),
    ("sasaki", "sasaki_projection"),
    ("sasaki", "commutes"),
    ("sasaki", "center"),
    ("sasaki", "has_full_sasaki_set"),
    ("sasaki", "is_sasaki_space"),
    ("sasaki", "sasaki_map_search"),
    ("enumeration", "enumerate_models"),
    ("enumeration", "counterexample_search"),
    ("enumeration", "canonical_key"),
    ("enumeration", "canonical_form"),
    ("enumeration", "is_isomorphic"),
)

# Functions whose calls are checked for an argument equal to an earlier one.
REPEATS = ("algebra.classify", "algebra.axiom_holds",
           "orthospace.enumerate_orthoclosed", "orthospace.blocks")


def _modules():
    return {name: importlib.import_module(f"orthologic.{name}") for name in MODULES}


class Tracer:
    """Span and counter store for one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.seen: dict[str, set] = {name: set() for name in REPEATS}

    def wrap(self, span_name: str, fn, after=None):
        tracer = self
        after = after or _AFTER.get(span_name)
        seen = self.seen.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = f"theorems.check.{args[1]}" if span_name == "theorems.run_check" else span_name
            stack = tracer.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            first = True
            if seen is not None:
                key = hash(args)
                first = key not in seen
                if first:
                    seen.add(key)
                else:
                    tracer.counts[f"repeat:{span_name}"] += 1
            if after is not None:
                after(tracer.counts, args, result, first)
            return result

        return traced

    def payload(self) -> dict:
        """Everything the parent needs from this process, after its last op."""
        from orthologic.algebra import FiniteAlgebra

        gc.collect()
        live = sum(1 for obj in gc.get_objects() if isinstance(obj, FiniteAlgebra))
        return {"spans": self.spans, "counts": dict(self.counts), "live_tables": live}


def _after_orthoclosed(counts, args, result, first):
    if first:
        counts["family_size"] += len(result)


def _after_blocks(counts, args, result, first):
    if first:
        counts["block_count"] += len(result)


def _after_map_search(counts, args, result, first):
    counts["map_found"] += result is not None


def _after_enumerate(counts, args, result, first):
    counts["models"] += len(result)


def _after_leaf(counts, args, result, first):
    if args[1] == "BE4":
        counts["leaves"] += 1


_AFTER = {
    "orthospace.enumerate_orthoclosed": _after_orthoclosed,
    "orthospace.blocks": _after_blocks,
    "sasaki.sasaki_map_search": _after_map_search,
    "enumeration.enumerate_models": _after_enumerate,
}


def install(tracer: Tracer) -> list[tuple]:
    """Install the wrappers; return what ``uninstall`` needs to undo them."""
    mods = _modules()
    package = importlib.import_module("orthologic")
    namespaces = list(mods.values()) + [package]
    undo = []
    for mod_name, fn_name in TRACED:
        original = getattr(mods[mod_name], fn_name)
        span_name = f"{mod_name}.{fn_name}"
        wrapper = tracer.wrap(span_name, original)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    undo.append((ns, attr, value))
                    # Enumeration reaches the BE4 leaf check through its own
                    # axiom_holds name; that wrapper also counts leaves.
                    leaf = ns is mods["enumeration"] and attr == "axiom_holds"
                    setattr(ns, attr, tracer.wrap(span_name, original, _after_leaf)
                            if leaf else wrapper)
    return undo


def uninstall(undo: list[tuple]) -> None:
    for ns, attr, value in reversed(undo):
        setattr(ns, attr, value)


# ---------------------------------------------------------------------------
# Per-layer metrics.
# ---------------------------------------------------------------------------

def check_ids() -> list[str]:
    from orthologic.theorems import list_checks

    return [spec.check_id for spec in list_checks()]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(payloads: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one batch from the payloads of the processes
    that ran it.  ``.s`` is inclusive time (a span nested in a span of the
    same name is not counted twice), ``.self_s`` is time minus the time of
    child spans."""
    total: Counter = Counter()
    self_time: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    enum_keys = 0
    live = 0
    for p in payloads:
        spans = p["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_time[name] += end - start - child[i]
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                total[name] += end - start
            if name == "enumeration.canonical_key":
                up = parent
                while up >= 0 and spans[up][0] != "enumeration.enumerate_models":
                    up = spans[up][3]
                enum_keys += up >= 0
        counts.update(p["counts"])
        live = max(live, p["live_tables"])

    def s(name):
        return (float(total[name]), "s")

    def n(value):
        return (float(value), "count")

    checks = {f"theorems.check.{cid}.s": s(f"theorems.check.{cid}") for cid in check_ids()}
    out = {
        "cli.self_s": (float(self_time["cli.main"]), "s"),
        "documents.parse_algebra.s": s("documents.parse_algebra"),
        "algebra.classify.s": s("algebra.classify"),
        "algebra.classify.calls": n(calls["algebra.classify"]),
        "algebra.check_axiom.s": s("algebra.check_axiom"),
        "algebra.check_axiom.calls": n(calls["algebra.check_axiom"]),
        "algebra.axiom_holds.calls": n(calls["algebra.axiom_holds"]),
        "algebra.classify.repeat_ratio": (
            _ratio(counts["repeat:algebra.classify"], calls["algebra.classify"]), "ratio"),
        "algebra.axiom_holds.repeat_ratio": (
            _ratio(counts["repeat:algebra.axiom_holds"], calls["algebra.axiom_holds"]), "ratio"),
        "algebra.live_tables_end": n(live),
        "theorems.run_check.s": (float(sum(v for v, _ in checks.values())), "s"),
        "theorems.run_check.calls": n(sum(calls[k[:-2]] for k in checks)),
        **checks,
        "orthospace.associated_orthospace.s": s("orthospace.associated_orthospace"),
        "orthospace.enumerate_orthoclosed.s": s("orthospace.enumerate_orthoclosed"),
        "orthospace.family_size": n(counts["family_size"]),
        "orthospace.cl_algebra.s": s("orthospace.cl_algebra"),
        "orthospace.is_dacey.self_s": (float(self_time["orthospace.is_dacey"]), "s"),
        "orthospace.blocks.s": s("orthospace.blocks"),
        "orthospace.block_count": n(counts["block_count"]),
        "orthospace.is_normal.s": s("orthospace.is_normal"),
        "sasaki.sasaki_projection.s": s("sasaki.sasaki_projection"),
        "sasaki.commutes.s": s("sasaki.commutes"),
        "sasaki.center.s": s("sasaki.center"),
        "sasaki.has_full_sasaki_set.s": s("sasaki.has_full_sasaki_set"),
        "sasaki.is_sasaki_space.s": s("sasaki.is_sasaki_space"),
        "sasaki.sasaki_map_search.calls": n(calls["sasaki.sasaki_map_search"]),
        "sasaki.sasaki_map_search.found_ratio": (
            _ratio(counts["map_found"], calls["sasaki.sasaki_map_search"]), "ratio"),
        "enumeration.enumerate_models.self_s": (
            float(self_time["enumeration.enumerate_models"]), "s"),
        "enumeration.counterexample_search.self_s": (
            float(self_time["enumeration.counterexample_search"]), "s"),
        "enumeration.leaves": n(counts["leaves"]),
        "enumeration.canonical_key.s": s("enumeration.canonical_key"),
        "enumeration.canonical_key.calls": n(calls["enumeration.canonical_key"]),
        "enumeration.canonical_form.s": s("enumeration.canonical_form"),
        "enumeration.accept_ratio": (
            _ratio(calls["enumeration.canonical_key"], counts["leaves"]), "ratio"),
        "enumeration.dedup_ratio": (_ratio(counts["models"], enum_keys), "ratio"),
        "enumeration.is_isomorphic.s": s("enumeration.is_isomorphic"),
    }
    return out
