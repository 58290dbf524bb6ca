"""Finite algebras of signature (->, *, 1) over a named universe.

The arrow table is the single source of truth: ``arrow[x][y]`` is x -> y with
elements identified by their position in the declared element order.  All
derived operations (star, the two meet/join families, the three order
relations) and every named axiom are computed from it.  Values are immutable
and hashable, so results of the heavier classification scans are cached.

``AXIOMS`` is the single term table of the 17 laws.  Each law is compiled
once, at import, into two forms: a row scan for ``check_axiom`` and an
instance predicate for the enumeration pruner's scans of partial tables.  The
row scan loops over every role but the last, in lexicographic order, and
evaluates both sides as tuples indexed by the last role, each subterm in the
outermost loop it can live in; the first outer tuple whose two rows differ,
completed by the first index at which they differ, is the lexicographically
least violating tuple, the same witness a tuple-by-tuple scan finds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from operator import getitem, itemgetter
from typing import Callable, Iterator


class AlgebraError(Exception):
    """Base class for every error raised by this package."""


class InputError(AlgebraError):
    """Malformed or structurally invalid algebra document."""


class PreconditionError(AlgebraError):
    """Operation applied outside its declared class of algebras."""


class ResourceLimitError(AlgebraError):
    """A configured search or enumeration cap was exceeded."""


class NonLatticeError(AlgebraError):
    """A meet/join fold produced a value that is not a bound of its input."""


def _env_int(var: str, default: str) -> int:
    raw = os.environ.get(var, default)
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{var}={raw!r} is not an integer") from None


def max_elements() -> int:
    """Universe-size cap; override with ORTHO_MAX_ELEMENTS."""
    return _env_int("ORTHO_MAX_ELEMENTS", "64")


def node_budget() -> int:
    """Search-node cap for backtracking searches; override with ORTHO_NODE_BUDGET."""
    return _env_int("ORTHO_NODE_BUDGET", "5000000")


@dataclass(frozen=True)
class CheckResult:
    """Uniform outcome of an axiom or theorem check.

    ``witness`` is a tuple of (role, value) pairs: the violating assignment on
    failure, or the unmet precondition on a skip.  Empty on pass.
    """

    check_id: str
    status: str  # "pass" | "fail" | "skipped"
    witness: tuple[tuple[str, str], ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    @property
    def skipped(self) -> bool:
        return self.status == "skipped"


@dataclass(frozen=True)
class ClassLabel:
    """Classification flags; the chain iboolean => ioml => iol => involutive
    & bounded & BE holds by construction."""

    is_be: bool
    is_bounded: bool
    is_involutive: bool
    is_iol: bool
    is_ioml: bool
    is_iboolean: bool

    def as_dict(self) -> dict[str, bool]:
        return {
            "be": self.is_be,
            "bounded": self.is_bounded,
            "involutive": self.is_involutive,
            "iol": self.is_iol,
            "ioml": self.is_ioml,
            "iboolean": self.is_iboolean,
        }


@dataclass(frozen=True)
class FiniteAlgebra:
    """A finite algebra (X, ->, 1) with distinguished constants 1 and 0."""

    name: str
    elements: tuple[str, ...]
    arrow: tuple[tuple[int, ...], ...]
    one: int
    zero: int

    def __post_init__(self) -> None:
        n = len(self.elements)
        if len(self.arrow) != n or any(len(row) != n for row in self.arrow):
            raise InputError(f"{self.name}: arrow table is not {n}x{n}")
        if not (0 <= self.one < n and 0 <= self.zero < n):
            raise InputError(f"{self.name}: constants outside the universe")
        for i, row in enumerate(self.arrow):
            for j, v in enumerate(row):
                if not (0 <= v < n):
                    raise InputError(
                        f"{self.name}: arrow[{self.elements[i]}][{self.elements[j]}]"
                        f" = {v} is not an element index"
                    )

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise InputError(f"{self.name}: unknown element {name!r}") from None

    def mask(self, names: Iterator[str] | list[str] | tuple[str, ...]) -> int:
        m = 0
        for name in names:
            m |= 1 << self.index(name)
        return m

    def names(self, mask: int) -> tuple[str, ...]:
        return tuple(self.elements[i] for i in iter_bits(mask))

    def universe_mask(self) -> int:
        return (1 << self.n) - 1


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


def validate_algebra(alg: FiniteAlgebra) -> None:
    """Structural validation beyond table shape: n >= 2, the forced 1-row and
    1-column, and 0 being a lower bound.  BE1/BE4 stay with classify so that
    defective tables can still be loaded and diagnosed."""
    if alg.n < 2:
        raise InputError(f"{alg.name}: trivial algebra (0 = 1) is rejected")
    if alg.n > max_elements():
        raise ResourceLimitError(
            f"{alg.name}: {alg.n} elements exceeds cap {max_elements()}"
        )
    if alg.one == alg.zero:
        raise InputError(f"{alg.name}: constants 1 and 0 coincide")
    for x in range(alg.n):
        if alg.arrow[alg.one][x] != x:
            raise InputError(
                f"{alg.name}: 1 -> {alg.elements[x]} = "
                f"{alg.elements[alg.arrow[alg.one][x]]}, expected {alg.elements[x]}"
            )
        if alg.arrow[x][alg.one] != alg.one:
            raise InputError(
                f"{alg.name}: {alg.elements[x]} -> 1 = "
                f"{alg.elements[alg.arrow[x][alg.one]]}, expected 1"
            )
        if alg.arrow[alg.zero][x] != alg.one:
            raise InputError(
                f"{alg.name}: 0 is not a lower bound, 0 -> {alg.elements[x]} != 1"
            )


# ---------------------------------------------------------------------------
# Derived operations and order relations.
# ---------------------------------------------------------------------------

def star(alg: FiniteAlgebra, x: int) -> int:
    """x* = x -> 0."""
    return alg.arrow[x][alg.zero]


def vee_q(alg: FiniteAlgebra, x: int, y: int) -> int:
    """x vQ y = (x -> y) -> y."""
    return alg.arrow[alg.arrow[x][y]][y]


def wedge_q(alg: FiniteAlgebra, x: int, y: int) -> int:
    """x ^Q y = (x* vQ y*)*."""
    return star(alg, vee_q(alg, star(alg, x), star(alg, y)))


def wedge_p(alg: FiniteAlgebra, x: int, y: int) -> int:
    """x ^P y = (x -> y*)*; the lattice meet for the le_l order on i-OLs."""
    return star(alg, alg.arrow[x][star(alg, y)])


def vee_p(alg: FiniteAlgebra, x: int, y: int) -> int:
    """x vP y = x* -> y; the lattice join for the le_l order on i-OLs."""
    return alg.arrow[star(alg, x)][y]


def le(alg: FiniteAlgebra, x: int, y: int) -> bool:
    """x <= y iff x -> y = 1."""
    return alg.arrow[x][y] == alg.one


def le_q(alg: FiniteAlgebra, x: int, y: int) -> bool:
    """x <=Q y iff x = x ^Q y."""
    return x == wedge_q(alg, x, y)


def le_l(alg: FiniteAlgebra, x: int, y: int) -> bool:
    """x <=L y iff x = (x -> y*)*."""
    return x == star(alg, alg.arrow[x][star(alg, y)])


def ortho(alg: FiniteAlgebra, x: int, y: int) -> bool:
    """Orthogonality on the full universe: x _|_ y iff x* = x -> y."""
    return star(alg, x) == alg.arrow[x][y]


def down_set(alg: FiniteAlgebra, x: int) -> int:
    """Mask of all y with y <=L x (0 and x itself included on i-OLs)."""
    m = 0
    for y in range(alg.n):
        if le_l(alg, y, x):
            m |= 1 << y
    return m


def big_meet(alg: FiniteAlgebra, members: int) -> int:
    """Fold of ^P over the masked elements in declared order; the empty meet
    is 1.  Raises NonLatticeError when the fold is not a <=L lower bound,
    which signals that the algebra is not an i-OL."""
    acc = alg.one
    for x in iter_bits(members):
        acc = wedge_p(alg, acc, x)
    for x in iter_bits(members):
        if not le_l(alg, acc, x):
            raise NonLatticeError(
                f"{alg.name}: meet fold gave {alg.elements[acc]}, not a lower"
                f" bound of {alg.elements[x]}"
            )
    return acc


# ---------------------------------------------------------------------------
# Axioms.
# ---------------------------------------------------------------------------

# Term language: "x"/"y"/"z" are variables, "0"/"1" constants, and
# ("->", s, t) the arrow.  Star is arrow-to-0.
def _imp(s, t):
    return ("->", s, t)


def _neg(t):
    return _imp(t, "0")


def _veeq(s, t):
    return _imp(_imp(s, t), t)


def _wedgeq(s, t):
    return _neg(_veeq(_neg(s), _neg(t)))


# The single definition of every law: id -> (roles, lhs, rhs), read as the
# equation lhs = rhs for all values of the roles.
AXIOMS: dict[str, tuple[tuple[str, ...], tuple | str, tuple | str]] = {
    "BE1": (("x",), _imp("x", "x"), "1"),
    "BE2": (("x",), _imp("x", "1"), "1"),
    "BE3": (("x",), _imp("1", "x"), "x"),
    "BE4": (("x", "y", "z"), _imp("x", _imp("y", "z")), _imp("y", _imp("x", "z"))),
    "bounded": (("x",), _imp("0", "x"), "1"),
    "DN": (("x",), _neg(_neg("x")), "x"),
    "impl": (("x", "y"), _imp(_imp("x", "y"), "x"), "x"),
    "iG": (("x",), _imp(_neg("x"), "x"), "x"),
    "pi": (("x", "y"), _imp("x", _imp("x", "y")), _imp("x", "y")),
    "Iabs-i": (("x", "y"), _imp(_imp("x", _imp("x", "y")), "x"), "x"),
    "IOM": (("x", "y"), _wedgeq("x", _imp("y", "x")), "x"),
    "IOM'": (("x", "y"), _wedgeq("x", _imp(_neg("x"), "y")), "x"),
    "IOM''": (("x", "y"), _veeq("x", _neg(_imp("x", "y"))), "x"),
    "@": (("x", "y"), _imp(_imp(_neg("y"), "x"), "y"), _imp("x", "y")),
    "Idiv": (("x", "y"), _imp("x", _neg(_imp("x", "y"))), _imp("x", _neg("y"))),
    "Idis1": (
        ("x", "y", "z"),
        _neg(_imp(_imp(_neg("x"), "y"), _neg("z"))),
        _imp(_imp("x", _neg("z")), _neg(_imp("y", _neg("z")))),
    ),
    "Idis2": (
        ("x", "y", "z"),
        _neg(_imp(_imp("x", _neg("y")), "z")),
        _imp(_imp(_neg("z"), "x"), _neg(_imp(_neg("z"), "y"))),
    ),
}


def _render(term) -> str:
    if isinstance(term, tuple):
        return f"t[{_render(term[1])}][{_render(term[2])}]"
    return {"0": "Z", "1": "O"}.get(term, term)


def _compile(roles, lhs, rhs) -> Callable[..., bool]:
    """The law as one predicate ``(t, Z, O, U, *roles) -> bool`` over an
    arrow table ``t`` with 0 = Z and 1 = O: true when the instance holds or
    when either side evaluates to the marker U.  A partial table whose
    unknown cells hold U, and whose row and column U hold U throughout,
    thus rejects exactly the determined instances that fail.  Only the
    enumeration pruner uses it; ``check_axiom`` runs the row scans below."""
    body = f"(l := {_render(lhs)}) == (r := {_render(rhs)}) or l == U or r == U"
    return eval(f"lambda t, Z, O, U, {', '.join(roles)}: {body}")


def _first_diff(l: tuple, r: tuple) -> int:
    return next(i for i, (a, b) in enumerate(zip(l, r)) if a != b)


def _compile_scan(roles, lhs, rhs) -> Callable[..., tuple[int, ...] | None]:
    """The law as one scan ``(t, Z, O, n) -> failing tuple | None`` over a
    complete arrow table ``t`` with n >= 2 elements.

    The last role becomes a row: a term that reads it is a tuple indexed by
    its value, every other term a scalar.  ``t[s][v]`` for a scalar s reads
    the row ``t[s]`` at the indices ``v``, ``t[v][s]`` the column ``c[s]`` of
    the transposed table, and two vectors combine elementwise.  Each subterm
    is evaluated once, in the loop of the innermost outer role it reads; the
    sides are compared as whole rows in the innermost loop."""
    *outer, last = roles
    levels: list[list[str]] = [[] for _ in range(len(outer) + 1)]
    nodes: dict = {}  # term, or derived key -> (variable, loop depth, kind)

    def emit(key, expr, depth, kind):
        if key not in nodes:
            nodes[key] = (f"v{len(nodes)}", depth, kind)
            levels[depth].append(f"v{len(nodes) - 1} = {expr}")
        return nodes[key]

    def walk(term):
        if term in nodes:
            return nodes[term]
        if term == last:
            return ("I", 0, "identity")
        if term in outer:
            return (term, outer.index(term) + 1, "scalar")
        if not isinstance(term, tuple):
            return ({"0": "Z", "1": "O"}[term], 0, "scalar")
        (s, sd, sk), (u, ud, uk) = walk(term[1]), walk(term[2])
        depth = max(sd, ud)
        if sk == uk == "scalar":
            return emit(term, f"t[{s}][{u}]", depth, "scalar")
        if sk == "scalar":
            expr = f"t[{s}]" if uk == "identity" else f"_get(*{u})(t[{s}])"
        elif uk == "scalar":
            expr = f"c[{u}]" if sk == "identity" else f"_get(*{s})(c[{u}])"
        elif sk == "identity":
            expr = f"tuple(map(_item, t, {u}))"
        else:
            rows = emit(("rows", term[1]), f"_get(*{s})(t)", sd, "rows")[0]
            expr = f"tuple(map(_item, {rows}, {u}))"
        return emit(term, expr, depth, "vector")

    def row(term):
        name, depth, kind = walk(term)
        if kind != "scalar":
            return name
        return emit(("row", term), f"({name},) * n", depth, "vector")[0]

    l, r = row(lhs), row(rhs)
    lines = ["def scan(t, Z, O, n):", "    I, c = tuple(range(n)), tuple(zip(*t))"]
    for depth, stmts in enumerate(levels):
        if depth:
            lines.append("    " * depth + f"for {outer[depth - 1]} in I:")
        lines += ["    " * (depth + 1) + stmt for stmt in stmts]
    pad = "    " * len(levels)
    lines += [pad + f"if {l} != {r}:",
              pad + f"    return {''.join(v + ', ' for v in outer)}_first_diff({l}, {r}),",
              "    return None"]
    namespace = {"_get": itemgetter, "_item": getitem, "_first_diff": _first_diff}
    exec("\n".join(lines), namespace)
    return namespace["scan"]


# Compiled once at import from the constant terms above, never from input.
AXIOM_PREDICATES = {key: _compile(*spec) for key, spec in AXIOMS.items()}
AXIOM_SCANS = {key: _compile_scan(*spec) for key, spec in AXIOMS.items()}

# Case-insensitive lookup aliases for CLI use ("at" stands in for "@").
AXIOM_ALIASES = {key.lower(): key for key in AXIOMS} | {
    "at": "@",
    "iom-prime": "IOM'",
    "iom-second": "IOM''",
    "iabs": "Iabs-i",
}


def resolve_axiom_id(name: str) -> str:
    key = AXIOM_ALIASES.get(name.lower())
    if key is None:
        raise InputError(f"unknown axiom id {name!r}")
    return key


def check_axiom(alg: FiniteAlgebra, axiom_id: str) -> CheckResult:
    """Exhaustive scan of one axiom in lexicographic order over the declared
    element order; the first violating tuple is the canonical witness.

    The scan walks the outer roles in lexicographic order and compares the
    two sides as whole rows over the last role, so the first outer tuple
    with a differing row, completed by the first index at which the rows
    differ, is the lexicographically least violating tuple."""
    if axiom_id not in AXIOMS:
        raise InputError(f"unknown axiom id {axiom_id!r}")
    # With one element every term is 0, so every law holds.
    failing = (
        AXIOM_SCANS[axiom_id](alg.arrow, alg.zero, alg.one, alg.n) if alg.n > 1 else None
    )
    if failing is None:
        return CheckResult(axiom_id, "pass")
    roles = AXIOMS[axiom_id][0]
    witness = tuple((role, alg.elements[v]) for role, v in zip(roles, failing))
    return CheckResult(axiom_id, "fail", witness)


@lru_cache(maxsize=None)
def axiom_holds(alg: FiniteAlgebra, axiom_id: str) -> bool:
    return check_axiom(alg, axiom_id).passed


@lru_cache(maxsize=None)
def classify(alg: FiniteAlgebra) -> ClassLabel:
    """Derive all classification flags; the monotone flag chain holds by
    construction, so a defective table simply gets all-false flags."""
    is_be = all(axiom_holds(alg, a) for a in ("BE1", "BE2", "BE3", "BE4"))
    is_bounded = axiom_holds(alg, "bounded")
    is_involutive = is_bounded and axiom_holds(alg, "DN")
    is_iol = is_be and is_involutive and axiom_holds(alg, "impl")
    is_ioml = is_iol and axiom_holds(alg, "IOM")
    is_iboolean = is_iol and axiom_holds(alg, "@")
    return ClassLabel(is_be, is_bounded, is_involutive, is_iol, is_ioml, is_iboolean)


def is_distributive(alg: FiniteAlgebra) -> bool:
    """An i-OL satisfying both distributive laws Idis1 and Idis2."""
    return classify(alg).is_iol and axiom_holds(alg, "Idis1") and axiom_holds(alg, "Idis2")


def require_iol(alg: FiniteAlgebra) -> None:
    if not classify(alg).is_iol:
        raise PreconditionError(f"{alg.name}: not an i-OL")
