"""Exhaustive generation of small models up to isomorphism.

The search universe is the bounded involutive BE candidates, the laws of the
be and involutive classes of ``CLASS_LAWS``.  The star map is fixed first,
which pins the 0-column.  Every involution on the non-constant
elements is conjugate to a standard one, pairs followed by k fixed points,
so the search runs over those, for every k of the parity of n - 2.
When the goal requires ``impl`` or ``iG`` only the fixed-point-free pairing
is searched, since both laws force x* -> x = x, which fails at a fixed point.
The forced 0/1 rows and columns and the diagonal are pre-filled.  The
remaining cells come in contrapositive pairs (x -> y = y* -> x*), halving the
free-cell count.  Backtracking assigns one cell pair at a time and prunes on
every axiom instance that is already fully determined, using the same laws
as ``check_axiom``, compiled to instance predicates that name the first
unknown cell they read.  The instances are watched, as in SEM and Mace4: one
routine evaluates them, at the root every instance once and at each depth
the instances filed under it, and files each one still undetermined under
the depth that assigns the cell it waits on.  An instance that fails at the
root leaves the star map with no completion, so its search ends there and
every leaf meets every instance.  An instance whose first unknown cell is
the top arrow of one side, with the other side known, holds for one value
of that cell alone; it forces that value, and the depth of the cell tries no
other.  Two different values forced on one cell, a wipe-out, fail the value
that forced the second, so the branch is abandoned where it became empty,
not at the depth of the cell.  Only values that would fail are skipped, so
the leaves come out in the same order as without forcing.  Each leaf is
then verified in full.

The search breaks the symmetry of the star map with lex-leader constraints
(Crawford, Ginsberg, Luks & Roy, KR 1996), watched like the law instances:
for each permutation that fixes 0 and 1 and commutes with the star, the free
cells read in depth order must hold no more than in the relabelled table.
The lex-least member of every orbit meets them all, and two tables with the
same star are isomorphic only by a map that commutes with it, so every
isomorphism class keeps at least one leaf.

Leaves are deduplicated by ``canonical_key``, the least table over the
leaves of an individualisation-refinement tree, which the automorphisms that
equal leaf tables reveal prune without changing the least table.
``is_isomorphic`` compares the refined roots of two such trees, and when
they agree matches the trees.  Sizes above ``max_elements`` are refused
before the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, count, product, repeat
from math import isqrt
from operator import itemgetter
from time import perf_counter
from typing import Callable, Iterator, Optional

from .algebra import (
    AXIOM_PREDICATES,
    AXIOMS,
    CLASS_LAWS,
    FiniteAlgebra,
    InputError,
    ResourceLimitError,
    axiom_holds,
    classify,
    max_elements,
    node_budget,
    resolve_axiom_id,
)

# The search universe; the pre-fill meets all of its laws but BE4, which the
# search prunes on.  A class whose laws contain it is searched by those it adds.
_UNIVERSE = frozenset(CLASS_LAWS["be"] + CLASS_LAWS["involutive"])
_UNIVERSE_AXIOMS = _UNIVERSE - {"BE4"}
_CLASS_AXIOMS = {cls: frozenset(laws) - _UNIVERSE
                 for cls, laws in CLASS_LAWS.items() if _UNIVERSE <= frozenset(laws)}


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
        if self.forbid & _UNIVERSE:
            raise InputError("goal lies outside the bounded involutive BE search universe")
        if self.min_size < 2:
            raise InputError("sizes below 2 are rejected (trivial algebra)")
        if self.max_size < self.min_size:
            raise InputError(
                f"empty size range: max size {self.max_size} is below"
                f" min size {self.min_size}"
            )


@dataclass
class SearchStats:
    """What the searches of one enumeration or counterexample search did:
    search nodes (values tried), values forced on a cell by a law instance,
    wipe-outs (two different values forced on one cell), leaves, the nodes
    of keying the accepted leaves and the automorphisms that keying found,
    and the seconds spent in keying and in the rest: the search and the
    checks of its leaves."""

    nodes: int = 0
    forced: int = 0
    wipeouts: int = 0
    leaves: int = 0
    key_nodes: int = 0
    automorphisms: int = 0
    search_s: float = 0.0
    key_s: float = 0.0


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


def _search_tables(n: int, required: frozenset[str], nodes: Optional[Iterator[int]] = None,
                   stats: Optional[SearchStats] = None) -> Iterator[FiniteAlgebra]:
    """Yield completed candidate tables (unverified, undeduplicated); the
    search nodes count on ``nodes`` against ``node_budget``, and the values
    forced and the wipe-outs add to ``stats``."""
    if n > max_elements():
        raise ResourceLimitError(f"enumeration at size {n} exceeds cap {max_elements()}")
    prune_axioms = tuple(a for a in ("BE4", *sorted(required)) if a not in _UNIVERSE_AXIOMS)
    nodes, budget, stats = nodes or count(1), node_budget(), stats or SearchStats()
    for star_of in _star_maps(n, required):
        yield from _fill_tables(n, star_of, required, prune_axioms, nodes, budget, stats)


def _star_symmetries(n: int, star_of: list[int]) -> list[bytes]:
    """Permutations of 0..n-1 that fix 0 and 1 and commute with the star:
    the flip of each star pair (a a*), the straight swap (a b)(a* b*) and the
    crossed swap (a b*)(a* b) of every two pairs, and the swap of every two
    fixed points.  Each is an involution, so it is its own inverse."""
    pairs = [(a, star_of[a]) for a in range(1, n - 1) if a < star_of[a]]
    fixed = [a for a in range(1, n - 1) if star_of[a] == a]
    swaps = [[pair] for pair in pairs]
    for (a, a_), (b, b_) in combinations(pairs, 2):
        swaps += [[(a, b), (a_, b_)], [(a, b_), (a_, b)]]
    swaps += [[pair] for pair in combinations(fixed, 2)]
    perms = []
    for swap in swaps:
        g = list(range(n))
        for a, b in swap:
            g[a], g[b] = b, a
        perms.append(bytes(g))
    return perms


def _fill_tables(
    n: int,
    star_of: list[int],
    required: frozenset[str],
    prune_axioms: tuple[str, ...],
    nodes: Iterator[int],
    budget: int,
    stats: SearchStats,
) -> Iterator[FiniteAlgebra]:
    """Backtrack over the free cells of one star map in one loop over the
    depths, as a thousand nested generators would overflow the stack.  One
    routine, ``propagate``, evaluates and files the watched instances: at
    the root on every instance, where a failure leaves the star map with no
    completion, and at each depth on those filed under it.  ``nodes`` counts
    search nodes across all star maps of one search, and the values forced
    and the wipe-outs count on ``stats``."""
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
    # assigned at depth k; with no free cell, watch[0] is never read.
    # forced[k]: the value an instance forces on the cell of depth k, or -1;
    # the instance stays filed under depth k, where it holds at that value.
    last = len(cells)
    watch: list[list[tuple[Callable, tuple[int, ...]]]] = [[] for _ in range(last + 1)]
    forced = [-1] * last

    def propagate(entries, pins: list[int], undo: list[int]) -> bool:
        # Evaluate the entries and file each one still undetermined under the
        # depth of the cell it waits on, noting that depth on ``undo`` and a
        # depth whose value it forces on ``pins``.  False at the first that
        # fails, or that forces a value on a cell with another value forced:
        # a wipe-out.
        for entry in entries:
            holds, tup = entry
            cell = holds(*tup)
            if cell is None:
                continue
            if cell is False:
                return False
            if len(cell) == 3:
                d, w = depth_of[cell[:2]], cell[2]
                if forced[d] != w:
                    if forced[d] >= 0:
                        stats.wipeouts += 1
                        return False
                    forced[d] = w
                    pins.append(d)
                    stats.forced += 1
            else:
                d = depth_of[cell]
            watch[d].append(entry)
            undo.append(d)
        return True

    for a in prune_axioms:
        holds = partial(AXIOM_PREDICATES[a], table, zero, one, unknown)
        if not propagate(zip(repeat(holds), product(range(n), repeat=len(AXIOMS[a][0]))), [], []):
            return

    # Lex-leader constraints: for each symmetry g, T <= g.T on the free cells
    # in depth order, where (g.T)[i][j] = g[T[g i][g j]].  A check returns
    # None once T < g.T shows, False once T > g.T, else the first unknown
    # cell it reads.  agree[c] counts the leading free cells on which T and
    # its image under symmetry c are known and equal, so no check re-reads
    # them; rewind[k] holds the (c, agree[c]) that the checks at depth k
    # moved, to restore when depth k takes its next value or is left.
    syms = _star_symmetries(n, star_of)
    agree, rewind = [0] * len(syms), [[] for _ in cells]

    def lex_leader(c: int) -> tuple[int, int] | bool | None:
        g, start = syms[c], agree[c]
        for p in range(start, last):
            cell = i, j = cells[p]
            a, b = table[i][j], table[g[i]][g[j]]
            if a == unknown or b == unknown:
                if p != start:
                    rewind[k].append((c, start))
                    agree[c] = p
                return cell if a == unknown else (g[i], g[j])
            if a != g[b]:
                return None if a < g[b] else False
        return None

    # The first cell each constraint reads is assigned at depth 0.
    watch[0] += [(lex_leader, (c,)) for c in range(len(syms))]

    def assign(i: int, j: int, v: int) -> None:
        # x -> y = y* -> x* on involutive candidates, so the partner cell
        # carries the same value; a cell (x, x*) is its own partner.
        table[i][j] = v
        table[star_of[j]][star_of[i]] = v

    # values[k] is the value tried last at depth k, -1 before the first;
    # moved[k] the depths its watched instances moved to, and pinned[k] the
    # depths whose value it forced.  Each pass tries one value at depth k,
    # after undoing what the last value did there; a depth with a forced
    # value tries that value alone, once.  Only the instances waiting on the
    # cell of depth k can change verdict when it takes a value.
    k = 0
    values, moved, pinned = [-1] * last, [[] for _ in cells], [[] for _ in cells]
    while k >= 0:
        if k == last:
            yield FiniteAlgebra("model", names, tuple(map(bytes, table)), one, zero)
            k -= 1
            continue
        undo, back, pins, (i, j), f = moved[k], rewind[k], pinned[k], cells[k], forced[k]
        while undo:
            watch[undo.pop()].pop()
        while back:
            c, p = back.pop()
            agree[c] = p
        while pins:
            forced[pins.pop()] = -1
        v = values[k] + 1
        if f >= 0:
            v = f if v <= f else n
        if v == n:
            assign(i, j, unknown)
            values[k], k = -1, k - 1
            continue
        if next(nodes) > budget:
            raise ResourceLimitError(f"enumeration at size {n} exceeded node budget"
                                     f" {budget}, {k} of {last} free cells filled")
        values[k] = v
        assign(i, j, v)
        if propagate(watch[k], pins, undo):
            k += 1


# ---------------------------------------------------------------------------
# Isomorphism: one individualisation-refinement tree (McKay & Piperno,
# "Practical graph isomorphism II", 2014) gives the key and the test.
# ---------------------------------------------------------------------------

def _refine(rows, cols, colors: list[int], every_cell: bool) -> tuple[list[int], int]:
    """Refine a colouring until it is stable; return it and a trace.

    An element of a cell of two or more is signed by its colour and the
    colours of its row and column at the elements read: all of them, as the
    multiset of (y, x -> y, y -> x), when ``every_cell``, else the singleton
    cells in colour order.  The new colours are the signatures' ranks, which
    keep the order of the cells they split and do not depend on labelling.
    No isomorphism matches nodes whose traces, hashes of each round's
    signatures and counts, differ."""
    n, trace, cells = len(colors), 0, len(set(colors))
    while True:
        sizes, get = [0] * (2 * n + 1), colors.__getitem__
        for c in colors:
            sizes[c] += 1
        if every_cell:
            sigs = [(c, (*sorted(zip(colors, map(get, row), map(get, col))),))
                    if sizes[c] > 1 else (c,) for c, row, col in zip(colors, rows, cols)]
        else:
            reads = sorted((y for y, c in enumerate(colors) if sizes[c] == 1), key=get)
            sigs = [(c, *map(get, map(row.__getitem__, reads)),
                     *map(get, map(col.__getitem__, reads)))
                    if sizes[c] > 1 else (c,) for c, row, col in zip(colors, rows, cols)]
        ranked = sorted(set(sigs))
        rank = {sig: i for i, sig in enumerate(ranked)}
        colors = [rank[sig] for sig in sigs]
        trace = hash((trace, tuple(ranked), tuple(sorted(colors))))
        if len(ranked) in (cells, n):
            return colors, trace
        cells = len(ranked)


def _join_orbits(orbit: list[int], g: bytes) -> None:
    """Merge the orbits of x and g[x] for every x; ``orbit[x]`` is the least
    element of the orbit of x."""
    for x, y in enumerate(g):
        a, b = sorted((orbit[x], orbit[y]))
        if a != b:
            orbit[:] = [a if o == b else o for o in orbit]


def _count(nodes: Iterator[int], budget: int, task: str, deepest: list[int]) -> None:
    """Draw one node from ``nodes``; past ``budget``, the cap error names
    ``task``, the size and the elements fixed at ``deepest``, the colours of
    the deepest node."""
    if next(nodes) > budget:
        n = len(deepest)
        fixed = [deepest.count(c) for c in deepest].count(1)
        raise ResourceLimitError(f"{task} at size {n} exceeded node budget {budget},"
                                 f" {fixed} of {n} elements fixed at the deepest node")


def _root(alg: FiniteAlgebra, task: str, nodes: Iterator[int]) -> tuple[list[int], int]:
    """The root of the tree of ``alg`` and its trace: the cells {0}, the rest
    and {1}, refined on every cell.  It counts as a node on ``nodes``."""
    colors = [1] * alg.n
    colors[alg.zero], colors[alg.one] = 0, 2
    root = _refine(alg.arrow, tuple(zip(*alg.arrow)), colors, True)
    _count(nodes, node_budget(), task, root[0])
    return root


def _leaves(
    alg: FiniteAlgebra, task: str, nodes: Iterator[int], root: tuple[list[int], int],
    traces: Optional[tuple[int, ...]] = None, automorphisms: Optional[list[bytes]] = None,
) -> Iterator[tuple[list[int], tuple[int, ...]]]:
    """The leaves below ``root``, the root of the tree of ``alg``, depth
    first, with the traces of their paths; with ``traces``, only through
    nodes of the same trace at their depth.  A child of a node puts one
    element of the node's least cell of two or more before its cellmates,
    and refines.  Each child counts on ``nodes`` against ``node_budget``.

    ``automorphisms`` holds automorphisms of ``alg``, to which the consumer
    may add, while it holds a leaf, one that maps that leaf onto an earlier
    leaf.  It maps each element of the leaf's path onto the element at the
    same depth of the earlier leaf's path, so the walk goes back to the
    deepest node whose path it fixes: the subtree it leaves is the image of
    one walked before.  At each node the walk skips every child in the orbit
    of a child already walked under the automorphisms that fix the node's
    path, as their subtrees are images of each other, with the same leaf
    tables."""
    n, rows, budget, most = alg.n, alg.arrow, node_budget(), 0
    cols, autos = tuple(zip(*rows)), [] if automorphisms is None else automorphisms
    colors, path, fixed, deepest = root[0], [root[1]], [], root[0]
    # Per node on the path: its colours, the colour of the cell it splits,
    # the cellmates not yet tried, the children walked, the orbits of the
    # automorphisms that fix its path (None before the first), and how many
    # of ``autos`` those orbits have read.  fixed[d] is the element that the
    # path's node at depth d + 1 puts first.
    stack: list[list] = []
    while True:
        if max(colors) == n - 1:
            found = len(autos)
            yield colors, tuple(path)
            if len(autos) > found:
                g = autos[-1]
                del stack[next(d for d, x in enumerate(fixed) if g[x] != x) + 1:]
        else:
            ordered = sorted(colors)
            cell = next(c for c, d in zip(ordered, ordered[1:]) if c == d)
            stack.append([colors, cell, iter([x for x, c in enumerate(colors) if c == cell]),
                          [], None, 0])
        while stack:
            node = parent, cell, todo, walked, orbit, read = stack[-1]
            depth = len(stack) - 1
            for g in autos[read:]:
                if all(g[x] == x for x in fixed[:depth]):
                    if orbit is None:
                        orbit = node[4] = list(range(n))
                    _join_orbits(orbit, g)
            node[5] = len(autos)
            if orbit is None:
                x = next(todo, None)
            else:
                seen = {orbit[w] for w in walked}
                x = next((x for x in todo if orbit[x] not in seen), None)
            if x is None:
                stack.pop()
                continue
            walked.append(x)
            colors, trace = _refine(
                rows, cols, [2 * k + (k == cell and y != x) for y, k in enumerate(parent)], False)
            if depth >= most:
                most, deepest = depth + 1, colors
            _count(nodes, budget, task, deepest)
            if traces is None or depth + 1 < len(traces) and trace == traces[depth + 1]:
                fixed[depth:], path[depth + 1:] = [x], [trace]
                break
        else:
            return


def canonical_key(
    alg: FiniteAlgebra, nodes: Optional[Iterator[int]] = None,
    automorphisms: Optional[list[bytes]] = None,
) -> bytes:
    """Min-lex flattened arrow table over the leaves of the tree, which put
    each element at its colour; equal keys mean isomorphic algebras.

    The tree does not depend on the labelling, so isomorphic inputs have the
    same leaf tables, and the same least one.  0 comes first and 1 last.
    A leaf whose table equals that of the first or the least leaf so far
    gives an automorphism, the element of each colour here to the element
    of that colour there, which prunes the tree (``_leaves``); the subtrees
    it skips hold only leaf tables already seen, so the key does not change.
    MO_m has m!·2^m leaves, all with one table; the pruned tree of MO6 has
    about 30 nodes instead of 75,973.  The nodes count on ``nodes``, a fresh
    count by default.  The automorphisms found are appended to
    ``automorphisms`` when it is given; the pruning reads that list, so it
    may hold automorphisms of ``alg`` alone."""
    nodes, found = nodes or count(1), [] if automorphisms is None else automorphisms
    # Row x of a leaf table is row x read at the elements in colour order,
    # then relabelled by colour: two translates.
    pad = bytes(256 - alg.n)
    padded = [row + pad for row in alg.arrow]
    first = best = None
    for colors, _ in _leaves(alg, "canonical key", nodes, _root(alg, "canonical key", nodes),
                             automorphisms=found):
        at, relabel = bytes(sorted(range(alg.n), key=colors.__getitem__)), bytes(colors) + pad
        key = b"".join([at.translate(padded[x]).translate(relabel) for x in at])
        if best is None:
            first = best = key, at + pad
        elif key == best[0] or key == first[0]:
            found.append(relabel[:alg.n].translate((best if key == best[0] else first)[1]))
        elif key < best[0]:
            best = key, at + pad
    assert best is not None
    return best[0]


def is_isomorphic(a: FiniteAlgebra, b: FiniteAlgebra) -> Optional[tuple[int, ...]]:
    """An arrow-preserving bijection that keeps 0 and 1, as an index map
    (position i of ``a`` to position map[i] of ``b``), or None.

    It refines both roots first and returns None when their traces differ.
    Otherwise it takes the first leaf of a's tree and searches b's tree for
    the leaves reached through the same traces, whose maps it checks on
    every arrow.  Any isomorphism carries a's path onto one of them, so the
    search is complete.  The nodes of both trees count against
    ``node_budget``."""
    if a.n != b.n:
        return None
    if a.arrow == b.arrow and a.one == b.one and a.zero == b.zero:
        return tuple(range(a.n))
    nodes, task = count(1), "isomorphism search"
    root_a, root_b = _root(a, task, nodes), _root(b, task, nodes)
    if root_a[1] != root_b[1]:
        return None
    leaf, traces = next(_leaves(a, task, nodes, root_a))
    for colors, _ in _leaves(b, task, nodes, root_b, traces):
        at = sorted(range(b.n), key=colors.__getitem__)
        mapping = tuple(at[c] for c in leaf)
        image = itemgetter(*mapping)
        if all(image(b.arrow[fx]) == itemgetter(*row)(mapping)
               for fx, row in zip(mapping, a.arrow)):
            return mapping
    return None


def _from_key(name: str, key: bytes | tuple[int, ...]) -> FiniteAlgebra:
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
    n: int, required: frozenset[str], accept: Callable[[FiniteAlgebra], bool],
    stats: Optional[SearchStats] = None,
) -> list[bytes]:
    """Sorted canonical keys of the search leaves at size n that satisfy BE4
    and every required law, and pass ``accept``.  The search and the keys
    share one node budget.  What they did adds to ``stats``, also when the
    budget runs out; keying counts its nodes apart only when it is given."""
    nodes, key_count, keys = count(1), count(), set()
    # Each key node is drawn from the shared count and, with stats, from
    # key_count too.
    key_nodes = nodes if stats is None else map(lambda node, _: node, nodes, key_count)
    stats = stats or SearchStats()
    start, key_s = perf_counter(), stats.key_s
    try:
        for cand in _search_tables(n, required, nodes, stats):
            stats.leaves += 1
            if (axiom_holds(cand, "BE4") and all(axiom_holds(cand, a) for a in sorted(required))
                    and accept(cand)):
                mark, found = perf_counter(), []
                try:
                    keys.add(canonical_key(cand, key_nodes, found))
                finally:
                    stats.key_s += perf_counter() - mark
                    stats.automorphisms += len(found)
    finally:
        stats.search_s += perf_counter() - start - (stats.key_s - key_s)
        key_total = next(key_count)
        stats.key_nodes += key_total
        stats.nodes += next(nodes) - 1 - key_total
    return sorted(keys)


def enumerate_models(
    n: int, cls: str = "iol", limit: Optional[int] = None,
    stats: Optional[SearchStats] = None,
) -> list[FiniteAlgebra]:
    """All algebras of the class with n elements, one per isomorphism class,
    in canonical order; what the search did adds to ``stats``."""
    if cls not in _CLASS_AXIOMS:
        *most, last = _CLASS_AXIOMS
        raise InputError(f"unknown class {cls!r}; expected {', '.join(most)} or {last}")
    if n < 2:
        raise InputError("sizes below 2 are rejected (trivial algebra)")
    if limit is not None and limit < 0:
        raise InputError(f"negative limit {limit}")
    keys = _accepted_keys(n, _CLASS_AXIOMS[cls], lambda c: classify(c).as_dict()[cls], stats)
    return [_from_key(f"{cls}-{n}-{i}", key) for i, key in enumerate(keys[:limit])]


def counterexample_search(
    goal: SearchGoal, stats: Optional[SearchStats] = None
) -> Optional[FiniteAlgebra]:
    """Smallest (then canonically least) model satisfying every required
    axiom and refuting every forbidden one; None is a proof of absence for
    the whole size range.  What the searches did adds to ``stats``."""
    for n in range(goal.min_size, goal.max_size + 1):
        keys = _accepted_keys(
            n, goal.require, lambda c: not any(axiom_holds(c, a) for a in sorted(goal.forbid)),
            stats,
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

