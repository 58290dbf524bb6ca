"""Command-line surface.

Exit codes: 0 success / property holds, 1 property fails (witness on stdout),
2 input error, 3 resource cap exceeded.  FILE arguments accept a path or the
name of an embedded fixture.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, redirect_stdout
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator, Optional

from .algebra import (
    AlgebraError,
    CheckResult,
    CLASS_LAWS,
    FiniteAlgebra,
    InputError,
    RELATIONS,
    ResourceLimitError,
    check_axiom,
    classify,
    gather,
    is_distributive,
    max_elements,
    node_budget,
    require_iol,
    star,
)
from .documents import parse_algebra, serialize_algebra
from .enumeration import (
    _CLASS_AXIOMS,
    SearchStats,
    counterexample_search,
    enumerate_models,
    goal_from_names,
    is_isomorphic,
)
from .fixtures import FIXTURE_NAMES, fixture
from .orthospace import (
    associated_orthospace,
    blocks,
    cl_algebra,
    is_dacey,
    is_normal,
)
from .sasaki import (
    center,
    has_full_sasaki_set,
    is_sasaki_space,
    sasaki_projection,
)
from .theorems import list_checks, run_check

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_CAP = 3


def _load(path_or_name: str) -> FiniteAlgebra:
    p = Path(path_or_name)
    if p.exists():
        try:
            text = p.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {path_or_name!r}: {exc}") from None
        return parse_algebra(text, default_name=p.stem)
    if path_or_name in FIXTURE_NAMES:
        return fixture(path_or_name)
    raise InputError(f"no such file or fixture: {path_or_name}")


class _Quoted(dict):
    """Each string's JSON text, escaped on first use."""

    def __missing__(self, text: str) -> str:
        quoted = self[text] = encode_basestring_ascii(text)
        return quoted


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, with each distinct string escaped once.

    The ``--json`` reports repeat a few names many times (a 64-element
    ``ortho`` report holds a 64 x 64 table of 64 names), and ``indent`` makes
    ``json`` fall back to its pure-Python encoder, which escapes every
    occurrence again.  Dict keys must be strings."""
    parts: list[str] = []
    _emit(obj, "\n", parts, _Quoted())
    return "".join(parts)


def _emit(obj, nl: str, parts: list[str], quoted: _Quoted) -> None:
    """Append obj's text to parts; nl is a newline and obj's indent."""
    if isinstance(obj, str):
        parts.append(quoted[obj])
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = nl + "  "
        if all(map(isinstance, obj, repeat(str))):
            parts += ("[", inner, ("," + inner).join(map(quoted.__getitem__, obj)), nl, "]")
            return
        opener = "[" + inner
        for item in obj:
            parts.append(opener)
            _emit(item, inner, parts, quoted)
            opener = "," + inner
        parts.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = nl + "  "
        opener = "{" + inner
        for key, value in obj.items():
            parts.append(opener + quoted[key] + ": ")
            _emit(value, inner, parts, quoted)
            opener = "," + inner
        parts.append(nl + "}")
    else:
        parts.append(json.dumps(obj))


def _result_dict(res: CheckResult) -> dict:
    return {
        "check": res.check_id,
        "status": res.status,
        "witness": [list(pair) for pair in res.witness],
    }


def _print_result(res: CheckResult) -> None:
    if res.witness:
        detail = " ".join(f"{role}={value}" for role, value in res.witness)
        print(f"{res.check_id}: {res.status}  [{detail}]")
    else:
        print(f"{res.check_id}: {res.status}")


def _table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cmd_validate(args) -> int:
    alg = _load(args.file)
    broken = []
    for axiom_id in CLASS_LAWS["be"] + CLASS_LAWS["involutive"]:
        res = check_axiom(alg, axiom_id)
        _print_result(res)
        if res.failed:
            broken.append(axiom_id)
    if broken:
        print(f"{alg.name}: not a bounded involutive BE table ({', '.join(broken)})")
        return EXIT_INPUT_ERROR
    print(f"{alg.name}: valid document with {alg.n} elements")
    return EXIT_OK


def _cmd_classify(args) -> int:
    alg = _load(args.file)
    flags = classify(alg).as_dict() | {"distributive": is_distributive(alg)}
    if args.json:
        print(_dumps({"name": alg.name, "classification": flags}))
    else:
        for key, value in flags.items():
            print(f"{key}: {'yes' if value else 'no'}")
    return EXIT_OK


# The tables ``derive`` prints, by option name: the arrow, or a derived head.
_DERIVE_HEADS = {"arrow": "->", "wedge_q": "^Q", "vee_q": "vQ", "wedge_p": "^P",
                 "vee_p": "vP", "le": "<=", "le_l": "<=L", "le_q": "<=Q"}


def _cmd_derive(args) -> int:
    alg = _load(args.file)
    if args.op == "star":
        rows = [[alg.elements[x], alg.elements[star(alg, x)]] for x in range(alg.n)]
        print(_table(["x", "x*"], rows))
        return EXIT_OK
    head = _DERIVE_HEADS[args.op]
    table = alg.arrow if head == "->" else alg.tables.rows(head)
    # A relation's lanes hold 0 and 1, an operation's an element index.
    names = ("0", "1") if head in RELATIONS else alg.elements
    rows = [[alg.elements[x], *(names[v] for v in row)] for x, row in enumerate(table)]
    print(_table([args.op, *alg.elements], rows))
    return EXIT_OK


def _cmd_ortho(args) -> int:
    alg = _load(args.file)
    space = associated_orthospace(alg)
    out: dict = {"points": list(space.points)}
    results: list[CheckResult] = []
    out["perp"] = {p: list(space.names(space.rel[i])) for i, p in enumerate(space.points)}
    if args.cl:
        logic = cl_algebra(space)  # its elements name the orthoclosed sets in family order
        out["orthoclosed"] = list(logic.elements)
        out["cl_arrow"] = [gather(logic.elements, row) for row in logic.arrow]
    if args.dacey:
        res = is_dacey(space)
        results.append(res)
        out["dacey"] = _result_dict(res)
    if args.blocks:
        out["blocks"] = [space.subset_name(b) for b in blocks(space)]
    if args.normal:
        res = is_normal(space)
        results.append(res)
        out["normal"] = _result_dict(res)
    if args.sasaki_space:
        res = is_sasaki_space(space)
        results.append(res)
        out["sasaki_space"] = _result_dict(res)
    if args.json:
        print(_dumps(out))
    else:
        for point in space.points:
            print(f"{point}^perp = {{{','.join(out['perp'][point])}}}")
        if args.cl:
            print("orthoclosed:", " ".join(out["orthoclosed"]))
        if args.blocks:
            print("blocks:", " ".join(out["blocks"]))
        for res in results:
            _print_result(res)
    return EXIT_PROPERTY_FAILS if any(r.failed for r in results) else EXIT_OK


# A relation's lanes 0 and 1 as the characters "0" and "1".
_BITS = bytes.maketrans(b"\0\1", b"01")


def _cmd_sasaki(args) -> int:
    alg = _load(args.file)
    require_iol(alg)
    out: dict = {"name": alg.name}
    results: list[CheckResult] = []
    if args.projections:
        out["projections"] = {
            alg.elements[a]: gather(alg.elements, sasaki_projection(alg, a))
            for a in range(alg.n)
        }
    if args.commute:
        out["commute"] = [list(row.translate(_BITS).decode()) for row in alg.tables.rows("C")]
    if args.center:
        cen = center(alg)
        out["center"] = list(alg.names(cen))
        if not classify(alg).is_ioml:
            out["center_warning"] = "algebra is not orthomodular; center may not be star-closed"
    if args.full_set:
        res = has_full_sasaki_set(alg)
        results.append(res)
        out["full_set"] = _result_dict(res)
    if args.json:
        print(_dumps(out))
    else:
        if args.projections:
            rows = [[f"phi_{a}", *out["projections"][a]] for a in out["projections"]]
            print(_table(["map"] + list(alg.elements), rows))
        if args.commute:
            rows = [[alg.elements[x]] + out["commute"][x] for x in range(alg.n)]
            print(_table(["C"] + list(alg.elements), rows))
        if args.center:
            print("center:", " ".join(out["center"]))
            if "center_warning" in out:
                print("warning:", out["center_warning"])
        for res in results:
            _print_result(res)
    return EXIT_PROPERTY_FAILS if any(r.failed for r in results) else EXIT_OK


def _cmd_theorems(args) -> int:
    alg = _load(args.file)
    wanted = args.filter or [spec.check_id for spec in list_checks()]
    results = [run_check(alg, check_id) for check_id in wanted]
    if args.json:
        print(_dumps([_result_dict(r) for r in results]))
    else:
        for res in results:
            _print_result(res)
        counts = {
            "pass": sum(r.passed for r in results),
            "fail": sum(r.failed for r in results),
            "skipped": sum(r.skipped for r in results),
        }
        print(f"total: {counts['pass']} pass, {counts['fail']} fail, {counts['skipped']} skipped")
    return EXIT_PROPERTY_FAILS if any(r.failed for r in results) else EXIT_OK


@contextmanager
def _search_stats(args) -> Iterator[Optional[SearchStats]]:
    """A record of what the search did when ``--stats`` asks for one, printed
    on stderr as one JSON object when the search ends, also at a cap."""
    if not args.stats:
        yield None
        return
    stats = SearchStats()
    try:
        yield stats
    finally:
        print(json.dumps(vars(stats)), file=sys.stderr)


def _cmd_enumerate(args) -> int:
    with _search_stats(args) as stats:
        models = enumerate_models(args.size, args.cls, args.limit, stats)
    if args.count_only:
        print(len(models))
    else:
        for model in models:
            print(serialize_algebra(model, compact=True))
    return EXIT_OK


def _cmd_iso(args) -> int:
    a, b = _load(args.file1), _load(args.file2)
    mapping = is_isomorphic(a, b)
    if mapping is None:
        print("non-isomorphic")
        return EXIT_PROPERTY_FAILS
    print(" ".join(f"{a.elements[i]}->{b.elements[v]}" for i, v in enumerate(mapping)))
    return EXIT_OK


def _cmd_fixture(args) -> int:
    print(serialize_algebra(fixture(args.name)), end="")
    return EXIT_OK


def _cmd_search(args) -> int:
    require = [s for s in (args.require or "").split(",") if s]
    forbid = [s for s in (args.forbid or "").split(",") if s]
    goal = goal_from_names(require, forbid, max_size=args.max_size)
    with _search_stats(args) as stats:
        hit = counterexample_search(goal, stats)
    if hit is None:
        print("none")
        return EXIT_PROPERTY_FAILS
    print(serialize_algebra(hit, compact=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthologic",
        description="verification and exploration workbench for finite "
        "implicative-ortholattices and their orthogonality spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="classification flags")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("derive", help="print a derived table")
    p.add_argument("file")
    p.add_argument("--op", required=True, choices=["star", *_DERIVE_HEADS])
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("ortho", help="orthogonality-space reports")
    p.add_argument("file")
    p.add_argument("--cl", action="store_true")
    p.add_argument("--dacey", action="store_true")
    p.add_argument("--blocks", action="store_true")
    p.add_argument("--normal", action="store_true")
    p.add_argument("--sasaki-space", dest="sasaki_space", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ortho)

    p = sub.add_parser("sasaki", help="projection reports")
    p.add_argument("file")
    p.add_argument("--projections", action="store_true")
    p.add_argument("--commute", action="store_true")
    p.add_argument("--center", action="store_true")
    p.add_argument("--full-set", dest="full_set", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sasaki)

    p = sub.add_parser("theorems", help="run the check registry")
    p.add_argument("file")
    p.add_argument("--filter", nargs="+", metavar="ID")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_theorems)

    p = sub.add_parser("enumerate", help="stream all models of a size and class")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--class", dest="cls", required=True, choices=_CLASS_AXIOMS)
    p.add_argument("--limit", type=int)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--stats", action="store_true", help="print search counters on stderr")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("iso", help="isomorphism test")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("fixture", help="print an embedded document")
    p.add_argument("name")
    p.set_defaults(func=_cmd_fixture)

    p = sub.add_parser("search", help="counterexample search")
    p.add_argument("--require", default="")
    p.add_argument("--forbid", default="")
    p.add_argument("--max-size", type=int, default=6)
    p.add_argument("--stats", action="store_true", help="print search counters on stderr")
    p.set_defaults(func=_cmd_search)

    return parser


# Built once at import: a process that forks after importing this module
# hands the parser to its children.
_PARSER = build_parser()


class _Stdout:
    """Standard output that sends the rest of the output to the null device
    once its reader has gone, so that a command whose output is cut short
    still runs to its end and exits with its own code, without a traceback."""

    def __init__(self, stream):
        self.stream = stream

    def _discard(self) -> None:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, self.stream.fileno())
        os.close(null)

    def write(self, text: str) -> int:
        try:
            return self.stream.write(text)
        except BrokenPipeError:
            self._discard()
            return len(text)

    def flush(self) -> None:
        try:
            self.stream.flush()
        except BrokenPipeError:
            self._discard()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # Every command rejects a malformed cap, whether or not it reaches it.
        max_elements(), node_budget()
        with redirect_stdout(_Stdout(sys.stdout)):
            code = args.func(args)
            sys.stdout.flush()
        return code
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
