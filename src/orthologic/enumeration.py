"""Exhaustive generation of small models up to isomorphism.

The search universe is the bounded involutive BE candidates.  The star map is
fixed first, which pins the 0-column.  Every involution on the non-constant
elements is conjugate to a standard one, pairs followed by k fixed points,
so the search runs over those, for every k of the parity of n - 2.
When the goal requires ``impl`` or ``iG`` only the fixed-point-free pairing
is searched, since both laws force x* -> x = x, which fails at a fixed point.
The forced 0/1 rows and columns and the diagonal are pre-filled.  The
remaining cells come in contrapositive pairs (x -> y = y* -> x*), halving the
free-cell count.  Backtracking assigns one cell pair at a time and prunes on
every axiom instance that is already fully determined, using the same laws
as ``check_axiom``, compiled to instance predicates that name the first
unknown cell they read.  Each instance is evaluated once at the root and then
watched, as in SEM and Mace4: it is filed under the depth that assigns the
cell it waits on, and only the instances filed under a depth are evaluated
again there.  Each leaf is then verified in full.

Leaves are deduplicated by ``canonical_key``, which only tries the
relabelings that carry the leaf's star onto the standard one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count, permutations, product
from math import isqrt
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

from .algebra import (
    AXIOM_PREDICATES,
    AXIOMS,
    FiniteAlgebra,
    InputError,
    ResourceLimitError,
    axiom_holds,
    classify,
    node_budget,
    resolve_axiom_id,
)

# Axioms that hold on every candidate by construction of the pre-fill.
_UNIVERSE_AXIOMS = frozenset({"BE1", "BE2", "BE3", "bounded", "DN"})


@dataclass(frozen=True)
class SearchGoal:
    """Counterexample-search request: axioms to require, axioms to refute,
    sizes to try."""

    require: frozenset[str]
    forbid: frozenset[str]
    min_size: int = 2
    max_size: int = 6

    def __post_init__(self) -> None:
        for name in self.require | self.forbid:
            if name not in AXIOMS:
                raise InputError(f"unknown axiom id {name!r}")
        if self.require & self.forbid:
            raise InputError("contradictory goal: require and forbid overlap")
        if self.forbid & (_UNIVERSE_AXIOMS | {"BE4"}):
            raise InputError(
                "goal lies outside the bounded involutive BE search universe"
            )
        if self.min_size < 2:
            raise InputError("sizes below 2 are rejected (trivial algebra)")
        if self.max_size < self.min_size:
            raise InputError(
                f"empty size range: max size {self.max_size} is below"
                f" min size {self.min_size}"
            )


def _standard_names(n: int) -> tuple[str, ...]:
    return ("0",) + tuple(f"x{i}" for i in range(1, n - 1)) + ("1",)


def _star_maps(n: int, required: frozenset[str]) -> Iterator[list[int]]:
    """The standard star involutions searched at size n: 0 and 1 swapped,
    then pairs (1 2)(3 4)... on the middle, then fixed points."""
    mid = n - 2
    most_fixed = 0 if "impl" in required or "iG" in required else mid
    for fixed in range(mid % 2, most_fixed + 1, 2):
        star_of = [n - 1] + list(range(1, n - 1)) + [0]
        for i in range(1, mid - fixed, 2):
            star_of[i], star_of[i + 1] = i + 1, i
        yield star_of


def _search_tables(n: int, required: frozenset[str]) -> Iterator[FiniteAlgebra]:
    """Yield completed candidate tables (unverified, undeduplicated)."""
    prune_axioms = tuple(
        a for a in (("BE4",) + tuple(sorted(required))) if a not in _UNIVERSE_AXIOMS
    )
    nodes = count(1)
    budget = node_budget()
    for star_of in _star_maps(n, required):
        yield from _fill_tables(n, star_of, required, prune_axioms, nodes, budget)


def _fill_tables(
    n: int,
    star_of: list[int],
    required: frozenset[str],
    prune_axioms: tuple[str, ...],
    nodes: Iterator[int],
    budget: int,
) -> Iterator[FiniteAlgebra]:
    """Backtrack over the free cells of one star map; ``nodes`` counts
    search nodes across all star maps of one search."""
    zero, one, unknown = 0, n - 1, n
    names = _standard_names(n)
    table = [[unknown] * n for _ in range(n)]
    for x in range(n):
        table[zero][x] = one
        table[one][x] = x
        table[x][one] = one
        table[x][x] = one
        table[x][zero] = star_of[x]
    if "impl" in required or "iG" in required:
        for x in range(1, n - 1):
            table[star_of[x]][x] = x  # x* -> x = x, taken at every element
    cells: list[tuple[int, int]] = []
    depth_of: dict[tuple[int, int], int] = {}  # cell -> depth that assigns it
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            if table[i][j] == unknown and (i, j) not in depth_of:
                depth_of[i, j] = depth_of[star_of[j], star_of[i]] = len(cells)
                cells.append((i, j))
    # watch[k]: the instances not yet determined whose first unknown cell is
    # assigned at depth k.  An instance that fails on the pre-filled cells
    # alone fails again at depth 0; with no free cell, watch[0] is never read.
    watch: list[list[tuple[Callable, tuple[int, ...]]]] = [[] for _ in range(len(cells) + 1)]
    for a in prune_axioms:
        holds = partial(AXIOM_PREDICATES[a], table, zero, one, unknown)
        for tup in product(range(n), repeat=len(AXIOMS[a][0])):
            cell = holds(*tup)
            if cell is not None:
                watch[0 if cell is False else depth_of[cell]].append((holds, tup))

    def assign(i: int, j: int, v: int) -> None:
        # x -> y = y* -> x* on involutive candidates, so the partner cell
        # carries the same value; a cell (x, x*) is its own partner.
        table[i][j] = v
        table[star_of[j]][star_of[i]] = v

    def fill(k: int) -> Iterator[FiniteAlgebra]:
        if k == len(cells):
            yield FiniteAlgebra("model", names, tuple(map(tuple, table)), one, zero)
            return
        i, j = cells[k]
        for v in range(n):
            if next(nodes) > budget:
                raise ResourceLimitError(
                    f"enumeration at size {n} exceeded node budget {budget},"
                    f" {k} of {len(cells)} free cells filled"
                )
            assign(i, j, v)
            # Only the instances waiting on this cell can change verdict;
            # each one still undetermined moves to a deeper depth until the
            # next value is tried.
            moved = []
            for holds, tup in watch[k]:
                cell = holds(*tup)
                if cell is False:
                    break
                if cell is not None:
                    depth = depth_of[cell]
                    watch[depth].append((holds, tup))
                    moved.append(depth)
            else:
                yield from fill(k + 1)
            for depth in moved:
                watch[depth].pop()
        assign(i, j, unknown)

    yield from fill(0)


_CLASS_AXIOMS = {
    "iol": frozenset({"impl"}),
    "ioml": frozenset({"impl", "IOM"}),
    "iboolean": frozenset({"impl", "@"}),
}


def canonical_key(alg: FiniteAlgebra) -> tuple[int, ...]:
    """Min-lex flattened arrow table over the relabelings that keep 0 first
    and 1 last; equal keys mean isomorphic algebras.

    Every isomorphism commutes with star.  So when star swaps 0 and 1 and is
    an involution of the other elements, only the relabelings that carry it
    onto the standard star of ``_star_maps`` are tried: each way of putting
    its p pairs, in either orientation, on the standard pairs and its k fixed
    points on the standard fixed points, p!·2^p·k! in all (384 at n = 10,
    against 8! = 40,320).  Isomorphic inputs have the same set of relabeled
    tables, so they get the same least one.  Any other input tries all
    (n - 2)! relabelings."""
    n, zero, one = alg.n, alg.zero, alg.one
    middles = [x for x in range(n) if x not in (zero, one)]
    star_of = [row[zero] for row in alg.arrow]
    if star_of[zero] == one and star_of[one] == zero and all(
        star_of[x] not in (zero, one) and star_of[star_of[x]] == x for x in middles
    ):
        pairs = [(x, star_of[x]) for x in middles if x < star_of[x]]
        fixed = [x for x in middles if star_of[x] == x]
        orders: Iterable[tuple[int, ...]] = (
            sum(oriented, ()) + rest
            for placed in permutations(pairs)
            for oriented in product(*((p, p[::-1]) for p in placed))
            for rest in permutations(fixed)
        )
    else:
        orders = permutations(middles)
    # relabeled_rows[x](pos) is row x with every value v relabeled pos[v].
    relabeled_rows = [itemgetter(*row) for row in alg.arrow]
    pos = [0] * n
    best: Optional[list[tuple[int, ...]]] = None
    for order in orders:
        at = (zero, *order, one)  # at[i] is the element moved to position i
        for i, x in enumerate(at):
            pos[x] = i
        in_order = itemgetter(*at)
        key = [in_order(relabeled_rows[x](pos)) for x in at]
        if best is None or key < best:
            best = key
    assert best is not None
    return sum(best, ())


def _from_key(name: str, key: tuple[int, ...]) -> FiniteAlgebra:
    """The algebra whose flattened arrow table is ``key``, with standard
    element names, 0 first and 1 last."""
    n = isqrt(len(key))
    arrow = tuple(key[x * n : (x + 1) * n] for x in range(n))
    return FiniteAlgebra(name, _standard_names(n), arrow, n - 1, 0)


def canonical_form(alg: FiniteAlgebra) -> FiniteAlgebra:
    """The canonically relabeled copy, with standard element names; invariant
    under any relabeling of the input."""
    return _from_key(alg.name, canonical_key(alg))


def _accepted_keys(
    n: int, required: frozenset[str], accept: Callable[[FiniteAlgebra], bool]
) -> list[tuple[int, ...]]:
    """Sorted canonical keys of the search leaves at size n that satisfy BE4
    and every required law, and pass ``accept``."""
    return sorted({
        canonical_key(cand)
        for cand in _search_tables(n, required)
        if axiom_holds(cand, "BE4")
        and all(axiom_holds(cand, a) for a in sorted(required))
        and accept(cand)
    })


def enumerate_models(
    n: int, cls: str = "iol", limit: Optional[int] = None
) -> list[FiniteAlgebra]:
    """All algebras of the class with n elements, one per isomorphism class,
    in canonical order."""
    if cls not in _CLASS_AXIOMS:
        raise InputError(f"unknown class {cls!r}; expected iol, ioml or iboolean")
    if n < 2:
        raise InputError("sizes below 2 are rejected (trivial algebra)")
    if limit is not None and limit < 0:
        raise InputError(f"negative limit {limit}")
    keys = _accepted_keys(n, _CLASS_AXIOMS[cls], lambda c: classify(c).as_dict()[cls])
    return [_from_key(f"{cls}-{n}-{i}", key) for i, key in enumerate(keys[:limit])]


def counterexample_search(goal: SearchGoal) -> Optional[FiniteAlgebra]:
    """Smallest (then canonically least) model satisfying every required
    axiom and refuting every forbidden one; None is a proof of absence for
    the whole size range."""
    for n in range(goal.min_size, goal.max_size + 1):
        keys = _accepted_keys(
            n, goal.require, lambda c: not any(axiom_holds(c, a) for a in sorted(goal.forbid))
        )
        if keys:
            return _from_key(f"counterexample-{n}", keys[0])
    return None


def goal_from_names(require, forbid, min_size=2, max_size=6) -> SearchGoal:
    return SearchGoal(
        frozenset(resolve_axiom_id(r) for r in require),
        frozenset(resolve_axiom_id(f) for f in forbid),
        min_size,
        max_size,
    )


# ---------------------------------------------------------------------------
# Isomorphism testing.
# ---------------------------------------------------------------------------

def _refine_colors(alg: FiniteAlgebra) -> tuple[int, ...]:
    colors = [0] * alg.n
    colors[alg.zero] = 1
    colors[alg.one] = 2
    while True:
        sigs = []
        for x in range(alg.n):
            profile = sorted(
                (colors[y], colors[alg.arrow[x][y]], colors[alg.arrow[y][x]])
                for y in range(alg.n)
            )
            sigs.append((colors[x], tuple(profile)))
        relabel = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple(relabel[s] for s in sigs)
        if new == tuple(colors):
            return new
        colors = list(new)


def is_isomorphic(a: FiniteAlgebra, b: FiniteAlgebra) -> Optional[tuple[int, ...]]:
    """An arrow-preserving bijection as an index map (position i of ``a`` to
    position map[i] of ``b``), or None.  Such a bijection fixes 1, and 0 on
    bounded algebras, so candidates are filtered by color refinement first.
    The backtracking counts its nodes against ``node_budget`` and raises
    ResourceLimitError at the cap."""
    if a.n != b.n:
        return None
    if a.arrow == b.arrow and a.one == b.one and a.zero == b.zero:
        return tuple(range(a.n))
    ca, cb = _refine_colors(a), _refine_colors(b)
    if sorted(ca) != sorted(cb):
        return None
    mapping: list[Optional[int]] = [None] * a.n
    used = [False] * b.n
    mapping[a.zero], used[b.zero] = b.zero, True
    mapping[a.one] = b.one
    used[b.one] = True
    if ca[a.zero] != cb[b.zero] or ca[a.one] != cb[b.one]:
        return None
    order = sorted(
        (x for x in range(a.n) if x not in (a.zero, a.one)), key=lambda x: ca[x]
    )
    nodes, budget, deepest = count(1), node_budget(), 0

    def consistent(x: int) -> bool:
        fx = mapping[x]
        for y in range(a.n):
            fy = mapping[y]
            if fy is None:
                continue
            if mapping[a.arrow[x][y]] is not None and mapping[a.arrow[x][y]] != b.arrow[fx][fy]:
                return False
            if mapping[a.arrow[y][x]] is not None and mapping[a.arrow[y][x]] != b.arrow[fy][fx]:
                return False
        return True

    def extend(k: int) -> bool:
        nonlocal deepest
        deepest = max(deepest, k)
        if next(nodes) > budget:
            raise ResourceLimitError(
                f"isomorphism search at size {a.n} exceeded node budget {budget},"
                f" deepest at {deepest} of {len(order)} elements mapped"
            )
        if k == len(order):
            for x in range(a.n):
                for y in range(a.n):
                    if mapping[a.arrow[x][y]] != b.arrow[mapping[x]][mapping[y]]:
                        return False
            return True
        x = order[k]
        for t in range(b.n):
            if used[t] or cb[t] != ca[x]:
                continue
            mapping[x] = t
            used[t] = True
            if consistent(x) and extend(k + 1):
                return True
            mapping[x] = None
            used[t] = False
        return False

    if extend(0):
        return tuple(mapping)  # type: ignore[arg-type]
    return None
