"""Finite algebras of signature (->, *, 1) over a named universe.

The arrow table is the single source of truth: ``arrow[x][y]`` is x -> y with
elements identified by their position in the declared element order.  Each
row is a ``bytes`` object, one byte per element index, so a table has at most
256 elements.  All derived operations (star, the two meet/join families, the
three order relations) and every named axiom are computed from it.  Values
are immutable and hashable, so results of the heavier classification scans
are cached.

``AXIOMS`` is the single term table of the 17 laws.  Each law is compiled
once, at import, into an instance predicate for the enumeration pruner,
which on a partial table says whether an instance holds, fails, or waits on
an unknown cell, and into a row scan for ``check_axiom`` in each of two row
layouts.  A scan loops over the outer roles in lexicographic order and
evaluates each subterm at once over a whole row of lanes, in the outermost
loop it can live in.  On tables of at most ``PAIR_CEILING`` = 16 elements
the row is the last two roles, n * n byte lanes, lane a * n + b holding the
pair (a, b); a lane index then fits in a byte, so one ``bytes.translate``
through the flattened table reads the table at two vectors.  On larger
tables the row is the last role.  The first outer tuple at which the two
sides differ, completed by the first lane at which they differ, is the
lexicographically least violating tuple, the same witness a tuple-by-tuple
scan finds.  Each scan takes the algebra's ``tables`` store alone, which
decides the layout once.  ``CLASS_LAWS`` maps each class to all its laws.

The derived operations and relations (the meets ^Q and ^P, the joins vQ
and vP, the three orders, orthogonality, commutation and divisibility) are
heads of the term language, each defined once in ``DERIVED`` by a term over
the arrow.  The pruner and the scans of the 17 laws expand a head into its
definition, so that classifying an algebra builds no table.  Any other scan
reads a head as a table, the way it reads the arrow: each algebra keeps, in
``tables``, one flat table per head, built the first time it is asked for by
the head's definition compiled at import by the same scan compiler, in its
table form, which returns the term's lanes instead of a failing tuple.  The
pair functions (``wedge_q``, ``le_l``, ``ortho`` ...) read one lane of that
table.

The same compiler takes any formula of the term language (equations joined
by not/and/or/iff, and binders), such as the registry's items in ``theorems``:
``first_failure`` compiles each one on first use, in the layout its table
takes, and returns its least failing tuple; ``table_of`` compiles a term
over x and y to its table form, and returns its n * n lanes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
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


# A byte holds an element index, so no table has more elements.
TABLE_CEILING = 256


def _env_int(var: str, default: str, most: int | None = None) -> int:
    raw = os.environ.get(var, default)
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise InputError(f"{var}={raw!r} is not a positive integer")
    if most is not None and value > most:
        raise InputError(f"{var}={raw!r} exceeds {most}, the largest table size")
    return value


def max_elements() -> int:
    """Universe-size cap, from 1 to 256; override with ORTHO_MAX_ELEMENTS."""
    return _env_int("ORTHO_MAX_ELEMENTS", "64", TABLE_CEILING)


def node_budget() -> int:
    """Search-node cap for backtracking searches; override with ORTHO_NODE_BUDGET."""
    return _env_int("ORTHO_NODE_BUDGET", "5000000")


def check_cap(name: str, n: int) -> None:
    """Refuse a universe larger than ``max_elements``."""
    if n > max_elements():
        raise ResourceLimitError(f"{name}: {n} elements exceeds cap {max_elements()}")


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
    """One flag per class of ``CLASS_LAWS``, in order: all its laws hold.  So iol implies be,
    bounded and involutive; iboolean implies ioml only by theorem ``P5-BOOLEAN-IS-IOML``."""

    is_be: bool
    is_bounded: bool
    is_involutive: bool
    is_iol: bool
    is_ioml: bool
    is_iboolean: bool

    def as_dict(self) -> dict[str, bool]:
        return {name: getattr(self, "is_" + name) for name in CLASS_LAWS}


@dataclass(frozen=True)
class FiniteAlgebra:
    """A finite algebra (X, ->, 1) with distinguished constants 1 and 0.

    ``arrow`` holds one ``bytes`` row per element: ``arrow[x][y]`` is the
    index of x -> y.  Rows of any integers are accepted and converted once,
    so a table given as tuples equals, and hashes as, the same table given
    as bytes.  A table has at most 256 elements.  ``tables`` holds the
    tables of the derived heads, each built on first use (``DerivedTables``);
    it takes no part in equality or hashing.  The hash is computed once, as
    algebras key the caches of ``axiom_holds``, ``classify`` and
    ``associated_orthospace``."""

    name: str
    elements: tuple[str, ...]
    arrow: tuple[bytes, ...]
    one: int
    zero: int
    tables: DerivedTables = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.elements)
        if n > TABLE_CEILING:
            raise InputError(f"{self.name}: {n} elements exceeds {TABLE_CEILING},"
                             " the largest table size")
        if len(self.arrow) != n or any(len(row) != n for row in self.arrow):
            raise InputError(f"{self.name}: arrow table is not {n}x{n}")
        if not all(isinstance(c, int) and 0 <= c < n for c in (self.one, self.zero)):
            raise InputError(f"{self.name}: constants outside the universe")
        try:
            rows = tuple(map(bytes, self.arrow))
            # Deleting every element index leaves the cells that are not one.
            valid = all(len(row) == n for row in rows) and \
                not b"".join(rows).translate(None, bytes(range(n)))
        except (TypeError, ValueError):
            valid = False
        if not valid:
            rows = tuple(map(self._checked_row, range(n), self.arrow))
        object.__setattr__(self, "arrow", rows)
        object.__setattr__(self, "tables", DerivedTables(rows, self.zero, self.one))
        object.__setattr__(self, "_hash",
                           hash((self.name, self.elements, rows, self.one, self.zero)))

    def __hash__(self) -> int:
        return self._hash

    def _checked_row(self, i: int, row) -> bytes:
        """Row i as bytes; raises at its first cell that is not an element index."""
        for j, v in enumerate(row):
            if not (isinstance(v, int) and 0 <= v < self.n):
                raise InputError(
                    f"{self.name}: arrow[{self.elements[i]}][{self.elements[j]}]"
                    f" = {v} is not an element index"
                )
        return bytes(list(row))  # bytes() of a buffer would copy its raw memory

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
    check_cap(alg.name, alg.n)
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
# Derived operations and order relations.  Each pair function reads lane
# x * n + y of its head's table, so its one definition is the head's term in
# ``DERIVED``; the star is the 0 column of the arrow table.
# ---------------------------------------------------------------------------

def gather(seq, idx) -> tuple:
    """(seq[i] for i in idx) as a tuple, in one itemgetter call."""
    return itemgetter(*idx)(seq) if len(idx) > 1 else tuple(map(seq.__getitem__, idx))


def star(alg: FiniteAlgebra, x: int) -> int:
    """x* = x -> 0."""
    return alg.arrow[x][alg.zero]


def star_row(alg: FiniteAlgebra) -> tuple[int, ...]:
    """(x* for every x): the 0 column of the arrow table."""
    return (*map(itemgetter(alg.zero), alg.arrow),)


def vee_q(alg: FiniteAlgebra, x: int, y: int) -> int:
    """x vQ y = (x -> y) -> y."""
    return alg.tables["vQ"][x * alg.n + y]


def wedge_q(alg: FiniteAlgebra, x: int, y: int) -> int:
    """x ^Q y = (x* vQ y*)*."""
    return alg.tables["^Q"][x * alg.n + y]


def wedge_p(alg: FiniteAlgebra, x: int, y: int) -> int:
    """x ^P y = (x -> y*)*; the lattice meet for the le_l order on i-OLs."""
    return alg.tables["^P"][x * alg.n + y]


def vee_p(alg: FiniteAlgebra, x: int, y: int) -> int:
    """x vP y = x* -> y; the lattice join for the le_l order on i-OLs."""
    return alg.tables["vP"][x * alg.n + y]


def le(alg: FiniteAlgebra, x: int, y: int) -> bool:
    """x <= y iff x -> y = 1."""
    return alg.tables["<="][x * alg.n + y] == 1


def le_q(alg: FiniteAlgebra, x: int, y: int) -> bool:
    """x <=Q y iff x = x ^Q y."""
    return alg.tables["<=Q"][x * alg.n + y] == 1


def le_l(alg: FiniteAlgebra, x: int, y: int) -> bool:
    """x <=L y iff x = x ^P y."""
    return alg.tables["<=L"][x * alg.n + y] == 1


def ortho(alg: FiniteAlgebra, x: int, y: int) -> bool:
    """Orthogonality on the full universe: x _|_ y iff x* = x -> y."""
    return alg.tables["_|_"][x * alg.n + y] == 1


# Translates 0/1 lanes to the digits "0" and "1".
_DIGITS = b"01" + bytes(254)


def lane_mask(lanes: bytes) -> int:
    """The mask of the lanes that hold 1 among 0/1 lanes, read as binary digits."""
    return int(lanes[::-1].translate(_DIGITS), 2)


def down_set(alg: FiniteAlgebra, x: int) -> int:
    """Mask of all y with y <=L x (0 and x itself included on i-OLs): the
    1 lanes of column x of the <=L table."""
    return lane_mask(alg.tables["<=L"][x::alg.n])


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

# Term language.  Element terms: the roles "x", "y", "z", "u", the constants
# "0" and "1", ("->", s, t), the arrow, and (head, s, t) for the operation
# heads of ``DERIVED``; star is arrow-to-0.  Formulas: ("=", s, t) of two
# element terms, (head, s, t) for the relation heads of ``DERIVED``,
# ("not", f), ("and", f, ...), ("or", f, ...), ("iff", f, g) of two formulas,
# and ("all", "v", f), which holds when f holds for every value of the bound
# element "v".  "v" is not a role, and binders do not nest.  The row scan of
# a formula with a binder loops over all of its roles and makes "v" the row,
# so each binder is the scalar "no False in the row of f" in the loop of the
# innermost role f reads.
ROLES = ("x", "y", "z", "u")
BOUND = "v"


def _imp(s, t):
    return ("->", s, t)


def _neg(t):
    return _imp(t, "0")


def _eq(s, t):
    return ("=", s, t)


def _not(f):
    return ("not", f)


def _and(*fs):
    return ("and", *fs)


def _or(*fs):
    return ("or", *fs)


def _iff(f, g):
    return ("iff", f, g)


def _all(f):
    return ("all", BOUND, f)


def _implies(*fs):
    """The premises fs[:-1] imply fs[-1], as one disjunction, so that the row
    scan skips the tuples of each premise that fails before the last role."""
    return _or(*map(_not, fs[:-1]), fs[-1])


def _head(name: str) -> Callable[[object, object], tuple]:
    """The builder of a derived head's terms."""
    return lambda s, t: (name, s, t)


# Term builders of the derived heads that other terms read: the join vQ,
# the meets ^Q and ^P, the orders <=, <=L and <=Q, orthogonality,
# commutation and divisibility.
_veeq, _wedgeq, _wedgep, _le, _lel, _leq, _ortho, _commutes, _divides = map(
    _head, ("vQ", "^Q", "^P", "<=", "<=L", "<=Q", "_|_", "C", "D"))

# The single definition of every derived head: head -> its term over the
# roles x and y, its two arguments.  A definition reads the arrow and the
# heads above it.  A head whose definition is an equation is a relation, a
# formula; the others are element operations.
DERIVED: dict[str, tuple] = {
    "vQ": _imp(_imp("x", "y"), "y"),
    "^Q": _neg(_veeq(_neg("x"), _neg("y"))),
    "^P": _neg(_imp("x", _neg("y"))),
    "vP": _imp(_neg("x"), "y"),
    "<=": _eq(_imp("x", "y"), "1"),
    "<=L": _eq("x", _wedgep("x", "y")),
    "<=Q": _eq("x", _wedgeq("x", "y")),
    "_|_": _eq(_neg("x"), _imp("x", "y")),
    "C": _eq(_wedgeq("y", "x"), _wedgep("x", "y")),
    "D": _eq(_imp("x", _neg(_imp("x", "y"))), _imp("x", _neg("y"))),
}
RELATIONS = frozenset(head for head, body in DERIVED.items() if body[0] == "=")


def expand(term):
    """The term with every derived head replaced by its definition at the
    head's arguments: a term over the arrow alone."""
    if not isinstance(term, tuple):
        return term
    head, *args = map(expand, term)
    if head not in DERIVED:
        return (head, *args)

    def put(body):
        if isinstance(body, tuple):
            return (body[0], *map(put, body[1:]))
        return {"x": args[0], "y": args[1]}.get(body, body)

    return expand(put(DERIVED[head]))


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

# The single definition of every class: its ``ClassLabel`` flag -> all of its
# laws, in flag order, as the paper defines them.
CLASS_LAWS: dict[str, tuple[str, ...]] = {
    "be": ("BE1", "BE2", "BE3", "BE4"),
    "bounded": ("bounded",),
    "involutive": ("bounded", "DN"),
}
CLASS_LAWS["iol"] = (*CLASS_LAWS["be"], *CLASS_LAWS["involutive"], "impl")
CLASS_LAWS["ioml"] = (*CLASS_LAWS["iol"], "IOM")
CLASS_LAWS["iboolean"] = (*CLASS_LAWS["iol"], "@")


def formula_roles(term) -> tuple[str, ...]:
    """The roles of a term: x, y, z, u up to the last of them it reads."""
    def read(t):
        if isinstance(t, tuple):
            for arg in t[1:]:
                yield from read(arg)
        elif t in ROLES:
            yield ROLES.index(t) + 1

    return ROLES[:max(read(term), default=0)]


def _binds(term) -> bool:
    """Whether the term contains a binder."""
    return isinstance(term, tuple) and (term[0] == "all" or any(map(_binds, term[1:])))


def _bound_body(term):
    """The body of a binder, which must not contain another."""
    if _binds(term[2]):
        raise ValueError(f"nested binder in {term!r}")
    return term[2]


# The scans' Python form of each scalar comparison and connective.
_SCALAR_OPS = {"=": "{} == {}", "iff": "{} == {}", "!=": "{} != {}", "xor": "{} != {}",
               "not": "not {}"}


def _compile(roles, lhs, rhs) -> Callable[..., tuple[int, ...] | bool | None]:
    """The law, with sides over the arrow alone (see ``expand``), as one
    instance predicate ``(t, Z, O, U, *roles)`` over an arrow table ``t``
    with 0 = Z and 1 = O whose unknown cells hold U.  It
    returns None when the instance holds, False when it fails, and the cell
    (a, b) of the first unknown arrow it reads, in evaluation order (the
    left side first, each arrow after its operands), while it is not yet
    determined.  When that arrow is the top of one side and the other side
    reads no unknown cell, it returns (a, b, v) instead: the instance holds
    iff cell (a, b) holds v, the other side's value.  Only the enumeration
    pruner uses it; ``check_axiom`` runs the row scans below."""
    lines = [f"def holds(t, Z, O, U, {', '.join(roles)}):"]
    names: dict = {}

    def walk(term, names, pad="    ", unknown=None) -> str:
        """Emit the reads of term not yet in names; an unknown read returns
        ``unknown``, by default its own cell."""
        if not isinstance(term, tuple):
            return {"0": "Z", "1": "O"}.get(term, term)
        if term not in names:
            s, u = walk(term[1], names, pad, unknown), walk(term[2], names, pad, unknown)
            names[term] = v = f"v{len(lines)}"
            lines.append(f"{pad}{v} = t[{s}][{u}]")
            lines.append(f"{pad}if {v} == U: return {unknown or f'{s}, {u}'}")
        return names[term]

    def top(side, other) -> str:
        """The side.  While its top arrow, the cell (s, u), is unknown, return
        (s, u) and the other side's value, read on a copy of the names so that
        its reads are emitted again, or (s, u) alone if the other side reads it."""
        if not isinstance(side, tuple) or side in names:
            return walk(side, names)
        s, u = walk(side[1], names), walk(side[2], names)
        names[side] = v = f"v{len(lines)}"
        lines.extend((f"    {v} = t[{s}][{u}]", f"    if {v} == U:"))
        if _mentions(other, side):
            lines.append(f"        return {s}, {u}")
        else:
            value = walk(other, dict(names), "        ", f"{s}, {u}")
            lines.append(f"        return {s}, {u}, {value}")
        return v

    left, right = top(lhs, rhs), top(rhs, lhs)
    lines.append(f"    if {left} != {right}: return False")
    scope: dict = {}
    exec("\n".join(lines), scope)
    return scope["holds"]


def _swap_roles(term, a: str, b: str):
    """The term with the roles a and b exchanged."""
    if isinstance(term, tuple):
        return (term[0], *(_swap_roles(arg, a, b) for arg in term[1:]))
    return {a: b, b: a}.get(term, term)


def _first_diff(l: bytes, r: bytes) -> int:
    """The first index at which two unequal byte strings of one length
    differ: the lowest set bit of their XOR, in byte lanes."""
    d = int.from_bytes(l, "little") ^ int.from_bytes(r, "little")
    return ((d & -d).bit_length() - 1) >> 3


def _mentions(term, name: str) -> bool:
    """Whether the term reads the role or bound element ``name``."""
    return term == name or isinstance(term, tuple) and any(_mentions(a, name) for a in term[1:])


# The largest table whose scans make the last two roles the row: a lane
# a * n + b of two element indices below 16 fits in a byte.
PAIR_CEILING = 16


@lru_cache(maxsize=None)
def _one_hot(n: int) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """The rows of the n x n identity matrix as 0/1 bytes, and their
    negations, each padded to a 256-byte translate table."""
    pad = bytes(256 - n)
    return (tuple(bytes(i == j for j in range(n)) + pad for i in range(n)),
            tuple(bytes(i != j for j in range(n)) + pad for i in range(n)))


# The names of the constants that ``_lanes`` gives a scan of each layout.
_LANE_NAMES = ("I, PAD, N, ALL1, ONES, L7F, H80",
               "I, PAD, N, ALL1, ONES, L7F, H80, P, Q, MUL, FULL, CELLS, PN, PI, QI")


@lru_cache(maxsize=None)
def _lanes(n: int, pair: bool) -> tuple:
    """The constants of a scan at n elements, named in ``_LANE_NAMES``.

    I holds every element once, and PAD pads n bytes to a translate table.
    N is the number of lanes, n, or n * n in the pair layout.  ALL1, L7F
    and H80 are ints of N byte lanes of 0x01, 0x7f and 0x80.  ONES, of n
    lanes of 0x01, times an int of 0/1 lanes holds each n-lane block's sum
    in the block's last lane.  The pair layout, for n <= ``PAIR_CEILING``,
    adds P and Q, the vectors of its two row roles, whose lane a * n + b
    holds a and b; MUL, the translate table of a -> a * n; FULL, which maps
    a block sum of n to 1 and the rest to 0; CELLS, which pads N bytes to a
    translate table; and P * n, P and Q as ints."""
    lanes = n * n if pair else n

    def spread(byte: int, count: int) -> int:
        return int.from_bytes(bytes((byte,)) * count, "little")

    common = (bytes(range(n)), bytes(256 - n), lanes, spread(1, lanes), spread(1, n),
              spread(0x7F, lanes), spread(0x80, lanes))
    if not pair:
        return common
    P, Q = b"".join(bytes((i,)) * n for i in range(n)), bytes(range(n)) * n
    MUL = bytes(range(0, lanes, n)) + bytes(256 - n)
    FULL = bytes(i == n for i in range(256))
    return common + (P, Q, MUL, FULL, bytes(256 - lanes),
                     *(int.from_bytes(v, "little") for v in (P.translate(MUL), P, Q)))


class DerivedTables(dict):
    """The one input of every compiled scan: an arrow table, its constants,
    its size ``n``, its row layout ``pair`` (n <= ``PAIR_CEILING``, decided
    here once), and its derived tables, built on first use and released
    with its algebra.

    ``tables[head]`` is one flat ``bytes`` of n * n lanes, lane a * n + b
    holding head(a, b): an element index, or, for a relation, 1 where it
    holds and 0 where it does not.  It is built by the head's builder in
    ``TABLE_BUILDERS``, its definition compiled by ``_compile_scan`` in the
    table form of the store's layout, so a definition that reads another
    head reads that head's table from this store.  ``rows(head)`` is the
    table as n rows, kept only in the one-role layout, which reads rows."""

    __slots__ = ("arrow", "zero", "one", "n", "pair")

    def __init__(self, arrow: tuple[bytes, ...], zero: int, one: int) -> None:
        super().__init__()
        self.arrow, self.zero, self.one, self.n = arrow, zero, one, len(arrow)
        self.pair = self.n <= PAIR_CEILING

    def __missing__(self, head: str) -> bytes:
        table = self[head] = TABLE_BUILDERS[head][self.pair](self)
        return table

    def rows(self, head: str) -> tuple[bytes, ...]:
        """The head's table as n rows of n lanes."""
        key = (head,)
        rows = self.get(key)
        if rows is None:
            table, n = self[head], self.n
            rows = tuple(table[i:i + n] for i in range(0, n * n, n))
            if not self.pair:
                self[key] = rows
        return rows


# The globals every compiled scan shares.
_SCAN_GLOBALS = {"_get": itemgetter, "_item": getitem, "_first_diff": _first_diff,
                 "_one_hot": _one_hot, "_lanes": _lanes, "_from": int.from_bytes}


def _compile_scan(roles, formula, pair: bool,
                  table: bool = False) -> Callable[..., tuple[int, ...] | bytes | None]:
    """The formula as one scan ``(D) -> failing tuple | None``, in one of two
    row layouts, of the store ``D`` (``DerivedTables``, an algebra's
    ``tables``): a complete arrow table ``t`` of n >= 1 bytes rows, 0 = Z,
    1 = O, and the derived tables.  ``first_failure`` and ``check_axiom``
    take the layout the store names, ``D.pair``.

    With ``table`` the formula is a term over the roles x and y, an element
    term or a formula, and the scan is its table form ``(D) -> lanes``: the
    term's n * n lanes, lane a * n + b holding its value at
    x = a and y = b, a formula's truth value as a 0/1 byte.  In the pair
    layout that is the one row, at (P, Q); in the one-role layout it is the
    rows of the loop over ``roles[0]`` joined.  ``roles`` is ("x", "y"), or
    ("y", "x") to loop over y, whose rows are the term's columns: the code
    then transposes them, n slices of the joined rows.  A formula with a
    binder takes every n-th lane of its row, whose lanes are (y, v) in the
    pair layout and v in the one-role layout, where x and y are both loops:
    one lane per (x, y).

    In the one-role layout the last role is the row, of n lanes.  In the
    pair layout the last two roles are the row, when the formula has two,
    of n * n lanes: lane a * n + b holds the term at those two values, so a
    two-role formula is straight-line code and a three-role formula loops
    n times.  Every lane index is then below 256 as long as n <= 16.  A
    term that reads a row role is a vector, every other term a scalar.  A
    vector of elements is a bytes object, one byte per lane; a vector of
    truth values is an int whose little-endian byte lanes hold 0 or 1.
    With a binder the bound element is the last role and every role an
    outer loop but, in the pair layout, the last.  A binder is the scalar
    "every lane of its body holds", or, when its body reads the first role
    of a pair row, the vector that holds where every lane of the n-lane
    block of the body holds.

    Every gather is one ``bytes.translate``: ``t[s][v]`` for a scalar s is
    ``v.translate(t[s] + PAD)`` with ``PAD = bytes(256 - n)``, which makes
    the row a translate table, and ``t[v][s]`` is v translated by column s,
    a strided slice of the flattened table, padded alike.  A padded row or
    column, and a column, is a scan node evaluated in the loop of its
    index, so a scan pads and slices only what it reads.  ``t[a][b]`` at
    two vectors is, in the pair layout, a translated by the table
    a -> a * n and added to b as one int, lane by lane with no carry, then
    translated by the flattened table, padded alike; in the one-role layout
    it reads the rows of t at a, gathered once in the loop of a, at b.
    v = s is v translated by row s of the padded identity matrix of
    ``_one_hot``; two vectors of elements are equal where the lanes of
    their XOR are zero, found with the masks L7F and H80 with no carry
    between lanes.  Truth vectors combine as ints, "not" as XOR with ALL1.

    A derived head is read the way the arrow is, in every one of these
    forms, from its table in ``D``: the flattened table is ``D[head]``,
    from which the pair layout slices a row, and the one-role layout reads
    the rows of ``D.rows(head)``.  A relation's table holds 0/1 lanes, so
    a relation read at a vector is its truth vector, and at two scalars a
    scalar truth value.

    Each subterm is evaluated once, in the loop of the innermost outer role
    it reads; one that reads one outer role, not the first, is evaluated
    instead in a loop over that role before the others, and read back from
    the table that loop fills.  A scalar disjunct of a top-level "or" skips
    the rest of its loop when it holds, since every tuple below it holds.
    An equation at the top compares its two sides as whole rows; any other
    formula is a truth vector, and its first 0 lane completes the witness
    (lane i of a pair row is the pair ``divmod(i, n)``, or, with a binder,
    the row role ``i // n``), or, with a binder in the one-role layout, a
    scalar whose first false outer tuple is the witness.

    When the right side of a top-level equation is its left side with the
    first two roles exchanged, as in BE4, and both are outer loops, the
    second runs only above the first: the diagonal holds trivially, and a
    tuple fails iff the one with those two roles exchanged does, so the
    least failing tuple has its first role below its second.  In the pair
    layout BE4's second role is in the row, where the same argument keeps
    every lane with the second role at or below the first from being the
    first to fail, so its scan needs no such rule."""
    binder = _binds(formula)
    *outer, last = (*roles, BOUND) if binder else roles
    pair = pair and bool(outer)
    first = outer.pop() if pair else None
    symmetric = formula[0] == "=" and len(outer) > 1 and \
        _swap_roles(formula[1], *outer[:2]) == formula[2]
    levels: list[list[str]] = [[] for _ in range(len(outer) + 1)]
    # term, or derived key -> (variable, kind, loop depths of the outer roles
    # it reads).  Kinds: "scalar"; "vector" of elements, of which "p" and
    # "q" are the first and the last row role itself; and "truth".
    nodes: dict = {}
    tables: set[str] = set()  # of "EQ", when the scan reads EQ and NE
    tabulated: dict[int, list[tuple[str, str]]] = {}  # loop depth -> its (variable, expr)

    def emit(key, expr, kind, reads):
        if key not in nodes:
            depth, name = max(reads, default=0), f"v{len(nodes)}"
            nodes[key] = (name, kind, reads)
            if len(reads) == 1 and depth > 1:
                tabulated.setdefault(depth, []).append((name, expr))
            else:
                levels[depth].append(f"{name} = {expr}")
        return nodes[key]

    def flat(head) -> str:
        """The flattened table of the arrow or a derived head."""
        if head == "->":
            return emit("flat", 'b"".join(t)', "table", frozenset())[0]
        return emit(("flat", head), f"D[{head!r}]", "table", frozenset())[0]

    def table_rows(head) -> str:
        """The rows of the arrow or a derived head."""
        if head == "->":
            return "t"
        return emit(("rows", head), f"D.rows({head!r})", "table", frozenset())[0]

    def row_of(head, s) -> str:
        """Row s of a table, as an expression; the pair layout slices it
        from the flattened table, which is the one it keeps."""
        if head == "->":
            return f"t[{s}]"
        return f"{flat(head)}[{s} * n:{s} * n + n]" if pair else f"{table_rows(head)}[{s}]"

    def column(head, term) -> str:
        """The column t[.][term] of a scalar term."""
        name, _, reads = walk(term)
        return emit(("column", head, term), f"{flat(head)}[{name}::n]", "table", reads)[0]

    def padded(key, expr, reads) -> str:
        """A row or column as a translate table."""
        return emit(("padded", key), f"{expr} + PAD", "table", reads)[0]

    def as_int(name, reads) -> str:
        if pair and name in ("P", "Q"):
            return name + "I"
        return emit(("int", name), f'_from({name}, "little")', "table", reads)[0]

    def read(term, s, sk, sr, u, uk, ur):
        """The arrow, or a derived head, at two terms: a read of its table.
        A relation's 0/1 lanes are its truth vector."""
        head = term[0]
        sd, ud, reads = max(sr, default=0), max(ur, default=0), sr | ur
        if sk == uk == "scalar":
            expr = f"t[{s}][{u}]" if head == "->" else f"{flat(head)}[{s} * n + {u}]"
            return emit(term, expr, "scalar", reads)
        # A row (column) read at a vector two or more loops outer than its
        # index is gathered for every row (column) once, in the vector's loop.
        repeat = " * n" if pair else ""
        if sk == "scalar":
            if uk == "q":
                expr = row_of(head, s) + repeat
            elif sd - ud > 1:
                expr = emit(("rows at", head, term[2]),
                            f"[{u}.translate(r + PAD) for r in {table_rows(head)}]",
                            "table", ur)[0] + f"[{s}]"
            else:
                expr = f"{u}.translate({padded(('row', head, term[1]), row_of(head, s), sr)})"
        elif uk == "scalar":
            if sk == "q":
                expr = column(head, term[2]) + repeat
            elif ud - sd > 1:
                expr = emit(("columns at", head, term[1]),
                            f"[{s}.translate({flat(head)}[j::n] + PAD) for j in I]",
                            "table", sr)[0] + f"[{u}]"
            else:
                column_u = padded(("column", head, term[2]), column(head, term[2]), ur)
                expr = f"{s}.translate({column_u})"
        elif pair and (sk, uk) == ("p", "q"):
            # The table at lane p * n + q is the flattened table itself.
            expr = flat(head)
            if head not in RELATIONS:
                nodes[term] = (expr, "vector", reads)
                return nodes[term]
        elif pair:
            rows = "PN" if sk == "p" else \
                emit(("times n", s), f'_from({s}.translate(MUL), "little")', "table", sr)[0]
            cells = emit(("cells", head), f"{flat(head)} + CELLS", "table", frozenset())[0]
            expr = f'({rows} + {as_int(u, ur)}).to_bytes(N, "little").translate({cells})'
        else:
            # A trailing index keeps the gathered rows a tuple at n = 1; the
            # map below stops after n of them.
            rows = table_rows(head) if sk == "q" else \
                emit(("gathered rows", head, term[1]), f"_get(*{s}, 0)({table_rows(head)})",
                     "table", sr)[0]
            # A range iterates faster than the bytes I.
            expr = f"bytes(map(_item, {rows}, {'range(n)' if uk == 'q' else u}))"
        if head in RELATIONS:
            return emit(term, f'_from({expr}, "little")', "truth", reads)
        return emit(term, expr, "vector", reads)

    def compare(key, head, parts):
        """"=" of two element terms, or "!=", their negation."""
        (s, sk, sr), (u, uk, ur) = parts
        reads = sr | ur
        if sk == uk == "scalar":
            return emit(key, _SCALAR_OPS[head].format(s, u), "scalar", reads)
        if "scalar" in (sk, uk):
            if uk == "scalar":
                s, u = u, s
            # s is the scalar, u the vector
            tables.add("EQ")
            table = "EQ" if head == "=" else "NE"
            return emit(key, f'_from({u}.translate({table}[{s}]), "little")', "truth", reads)
        d = emit(("xor", key), f"{as_int(s, sr)} ^ {as_int(u, ur)}", "table", reads)[0]
        # A lane of H80 & (d | (d & L7F) + L7F) has its top bit set iff that
        # lane of d is not 0.
        unequal = f"(H80 & ({d} | ({d} & L7F) + L7F)) >> 7"
        return emit(key, unequal + (" ^ ALL1" if head == "=" else ""), "truth", reads)

    def combine(key, head, parts):
        """A connective of two truth values, or "not" of one; "xor" is the
        negated "iff"."""
        reads = frozenset().union(*(r for _, _, r in parts))
        if all(k == "scalar" for _, k, _ in parts):
            names = [name for name, _, _ in parts]
            expr = f" {head} ".join(names) if head in ("and", "or") else \
                _SCALAR_OPS[head].format(*names)
            return emit(key, expr, "scalar", reads)
        if head == "not":
            return emit(key, f"{parts[0][0]} ^ ALL1", "truth", reads)
        (s, sk, _), (u, uk, _) = parts
        if sk == "scalar" or uk == "scalar":
            if uk == "scalar":
                s, u = u, s
            # s is the scalar, u the vector
            expr = {"iff": f"{u} if {s} else {u} ^ ALL1", "xor": f"{u} ^ ALL1 if {s} else {u}",
                    "and": f"{u} if {s} else 0", "or": f"ALL1 if {s} else {u}"}[head]
        else:
            expr = {"iff": f"{s} ^ {u} ^ ALL1", "xor": f"{s} ^ {u}",
                    "and": f"{s} & {u}", "or": f"{s} | {u}"}[head]
        return emit(key, expr, "truth", reads)

    def walk(term):
        if term in nodes:
            return nodes[term]
        if term == last:
            return ("Q" if pair else "I", "q", frozenset())
        if pair and term == first:
            return ("P", "p", frozenset())
        if term in outer:
            return (term, "scalar", frozenset({outer.index(term) + 1}))
        if not isinstance(term, tuple):
            return ({"0": "Z", "1": "O"}[term], "scalar", frozenset())
        head, *args = term
        if head == "->" or head in DERIVED:
            return read(term, *walk(args[0]), *walk(args[1]))
        if head == "all":
            body = _bound_body(term)
            b, kind, reads = walk(body)
            if kind == "scalar":  # the body does not read the bound element
                return b, kind, reads
            if pair and _mentions(body, first):
                # The product with ONES holds each block's sum in the
                # block's last lane, which is n iff the whole block holds.
                sums = f'({b} * ONES).to_bytes(N + n, "little")[n - 1:N:n].translate(FULL)'
                return emit(term, f'_from(P.translate({sums} + PAD), "little")', "truth", reads)
            # Otherwise the body repeats every n lanes.
            return emit(term, f"{b} & ONES == ONES", "scalar", reads)
        if head == "not" and args[0][0] in ("=", "iff"):
            head, args = {"=": "!=", "iff": "xor"}[args[0][0]], args[0][1:]
        if head in ("=", "!="):
            return compare(term, head, [walk(args[0]), walk(args[1])])
        acc = walk(args[0])
        if head == "not":
            return combine(term, head, [acc])
        for k in range(1, len(args)):
            acc = combine(term if k == len(args) - 1 else (head, *args[:k + 1]),
                          head, [acc, walk(args[k])])
        return acc

    def row(term) -> str:
        """An element term as a vector."""
        name, kind, reads = walk(term)
        if kind != "scalar":
            return name
        return emit(("row", term), f"bytes(({name},)) * N", "vector", reads)[0]

    def lane(i: str) -> str:
        """The row roles of the witness at lane i."""
        if not pair:
            return i
        return f"{i} // n" if binder else f"*divmod({i}, n)"

    pad, found, end = "    " * len(levels), "".join(v + ", " for v in outer), ["return None"]
    if table:
        name, kind, _ = walk(formula)
        lanes = f'{name}.to_bytes(N, "little")' if kind == "truth" else row(formula)
        lanes += "[::n]" if binder else ""  # the bound element's lanes are equal
        tail = []
        if outer:  # the one-role layout joins the rows of its loop
            levels[0].insert(0, "rows = []")
            tail, lanes = [f"rows.append({lanes})"], 'b"".join(rows)'
        # Looping over y, the rows are the term's columns.
        end = [f"lanes = {lanes}",
               "return lanes" if roles[0] == "x" else 'return b"".join([lanes[i::n] for i in I])']
    elif formula[0] == "=":
        l, r = row(formula[1]), row(formula[2])
        tail = [f"if {l} != {r}:", f"    return {found}{lane(f'_first_diff({l}, {r})')},"]
    else:
        vectors = []
        for disjunct in formula[1:] if formula[0] == "or" else (formula,):
            name, kind, reads = walk(disjunct)
            if kind == "scalar":
                depth = max(reads, default=0)
                levels[depth].append(f"if {name}: " + ("continue" if depth else "return None"))
            else:
                vectors.append(disjunct)
        if vectors:
            b = walk(_or(*vectors) if len(vectors) > 1 else vectors[0])[0]
            index = f'{b}.to_bytes(N, "little").index(0)'
            tail = [f"if {b} != ALL1:", f"    return {found}{lane(index)},"]
        else:  # a binder's scan: every disjunct failed at this outer tuple
            tail = [f"return ({found})"]
    name = ("pair_" if pair else "row_") + ("table" if table else "scan")
    lines = [f"def {name}(D):", "    t, Z, O, n = D.arrow, D.zero, D.one, D.n",
             f"    {_LANE_NAMES[pair]} = _lanes(n, {pair})"]
    if "EQ" in tables:
        lines.append("    EQ, NE = _one_hot(n)")
    lines += ["    " + stmt for stmt in levels[0]]
    for depth, assigned in tabulated.items():
        role, names = outer[depth - 1], "".join(v + ", " for v, _ in assigned)
        lines += [f"    H{depth} = []", f"    for {role} in I:"]
        lines += [f"        {v} = {expr}" for v, expr in assigned]
        lines.append(f"        H{depth}.append(({names}))")
        levels[depth].insert(0, f"{names}= H{depth}[{role}]")
    for depth, stmts in enumerate(levels[1:], 1):
        span = f"I[{outer[0]} + 1:]" if symmetric and depth == 2 else "I"
        lines.append("    " * depth + f"for {outer[depth - 1]} in {span}:")
        lines += ["    " * (depth + 1) + stmt for stmt in stmts]
    lines += [pad + line for line in tail] + ["    " + line for line in end]
    exec("\n".join(lines), _SCAN_GLOBALS)
    return _SCAN_GLOBALS.pop(name)


def _table_builder(term, pair: bool) -> Callable[..., bytes]:
    """The table form of a term over x and y in one layout.  In the
    one-role layout the loop runs over x, unless that code reads a table
    lane by lane (``_item``); it then runs over y.  Of the ``DERIVED``
    definitions only vQ = (x -> y) -> y does, at (x -> y, y), where looping
    over y reads the column at y instead."""
    build = _compile_scan(("x", "y"), term, pair, table=True)
    if "_item" in build.__code__.co_names:
        build = _compile_scan(("y", "x"), term, pair, table=True)
    return build


@lru_cache(maxsize=None)
def _scan_of(formula, pair: bool, table: bool = False) -> Callable[..., tuple | bytes | None]:
    return _compile_scan(("x", "y") if table else formula_roles(formula), formula, pair, table)


def first_failure(alg: FiniteAlgebra, formula) -> tuple[int, ...] | None:
    """The least tuple, in lexicographic order over ``formula_roles``, at
    which the formula fails; None when it holds throughout.  Formulas are
    compiled to row scans once each, on first use, and must be constants of
    this package, never input."""
    return _scan_of(formula, alg.tables.pair)(alg.tables)


def table_of(alg: FiniteAlgebra, term) -> bytes:
    """The table form of a term over the roles x and y, compiled once on first
    use: lane a * n + b holds its value at x = a and y = b, a formula's as 0
    or 1."""
    return _scan_of(term, alg.tables.pair, True)(alg.tables)


# Compiled once at import from the constant terms above, never from input:
# each law, expanded, is an instance predicate and the formula lhs = rhs,
# scanned in the one-role layout and in the pair layout, in that order.  The
# law scans read no derived table, so that classifying an algebra, as the
# model search does at every leaf, builds none.
AXIOM_PREDICATES = {key: _compile(roles, expand(lhs), expand(rhs))
                    for key, (roles, lhs, rhs) in AXIOMS.items()}
AXIOM_SCANS = {key: tuple(_compile_scan(roles, expand(_eq(lhs, rhs)), pair)
                          for pair in (False, True))
               for key, (roles, lhs, rhs) in AXIOMS.items()}
# The table builder of each derived head, in the one-role layout and in the
# pair layout, compiled at import like the law scans.
TABLE_BUILDERS = {head: tuple(_table_builder(body, pair) for pair in (False, True))
                  for head, body in DERIVED.items()}

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
    failing = AXIOM_SCANS[axiom_id][alg.tables.pair](alg.tables)
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
    """The flag of each class of ``CLASS_LAWS``: whether its laws hold, read
    in order up to the first that fails.  Each verdict is looked up once."""
    verdicts: dict[str, bool] = {}

    def holds(law: str) -> bool:
        if law not in verdicts:
            verdicts[law] = axiom_holds(alg, law)
        return verdicts[law]

    return ClassLabel(*(all(map(holds, laws)) for laws in CLASS_LAWS.values()))


def is_distributive(alg: FiniteAlgebra) -> bool:
    """An i-OL satisfying both distributive laws Idis1 and Idis2."""
    return classify(alg).is_iol and axiom_holds(alg, "Idis1") and axiom_holds(alg, "Idis2")


def require_iol(alg: FiniteAlgebra) -> None:
    if not classify(alg).is_iol:
        raise PreconditionError(f"{alg.name}: not an i-OL")
