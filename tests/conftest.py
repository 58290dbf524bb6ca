import random
from functools import lru_cache, partial
from itertools import combinations, count, permutations, product, starmap

import pytest

from orthologic import FiniteAlgebra, associated_orthospace, classify, enumerate_models, fixture
from orthologic.algebra import (
    AXIOMS, BOUND, CheckResult, _bound_body, expand, formula_roles, iter_bits)
from orthologic.enumeration import _UNIVERSE_AXIOMS, _from_key, _standard_names, _star_maps
from orthologic.fixtures import FIXTURE_NAMES
from orthologic.orthospace import OrthoSpace, blocks, orthoclosure, perp

from derived_reference import le_l

IOML_FIXTURES = ("ioml10", "ioml6-full", "sasaki6")


@pytest.fixture(scope="session")
def algebras():
    return {name: fixture(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def benzene6():
    return fixture("benzene6")


@pytest.fixture(scope="session")
def ioml10():
    return fixture("ioml10")


@pytest.fixture(scope="session")
def ioml6_full():
    return fixture("ioml6-full")


@pytest.fixture(scope="session")
def sasaki6():
    return fixture("sasaki6")


@pytest.fixture(scope="session")
def benzene6_space(benzene6):
    return associated_orthospace(benzene6)


@pytest.fixture(scope="session")
def sasaki6_space(sasaki6):
    return associated_orthospace(sasaki6)


def brute_force_key(alg):
    """Min-lex flattened arrow table over all relabelings that keep 0 first
    and 1 last: the all-permutation reference for ``canonical_key``."""
    middles = [i for i in range(alg.n) if i not in (alg.zero, alg.one)]
    best = None
    for perm in permutations(range(1, alg.n - 1)):
        pos = {alg.zero: 0, alg.one: alg.n - 1}
        for old, new in zip(middles, perm):
            pos[old] = new
        flat = [0] * (alg.n * alg.n)
        for x in range(alg.n):
            for y in range(alg.n):
                flat[pos[x] * alg.n + pos[y]] = pos[alg.arrow[x][y]]
        key = tuple(flat)
        if best is None or key < best:
            best = key
    return best


@lru_cache(maxsize=None)
def iols_up_to(n):
    """The i-OLs with at most n elements, one per isomorphism class, each
    labelled by its ``brute_force_key`` and named by its rank among them:
    the fixed corpus behind the golden digests, whatever labelling
    ``enumerate_models`` prints."""
    return tuple(
        _from_key(f"iol-{k}-{i}", key)
        for k in range(2, n + 1)
        for i, key in enumerate(sorted(map(brute_force_key, enumerate_models(k, "iol"))))
    )


# -- the tuple-by-tuple reference evaluator -----------------------------------------
#
# The package compiles formulas to row scans only; the tests evaluate them one
# tuple at a time from this rendering, an encoding independent of the scan
# compiler.

_RENDERED = {"->": "t[{}][{}]", "=": "{} == {}", "iff": "{} == {}", "not": "not {}"}


def render(term) -> str:
    """A term over the arrow alone (see ``expand``) as a Python expression
    over t, Z (0), O (1) and its roles."""
    if not isinstance(term, tuple):
        return {"0": "Z", "1": "O"}.get(term, term)
    head, *args = term
    if head in ("and", "or"):
        return "(" + f" {head} ".join(map(render, args)) + ")"
    if head == "all":
        return f"all({render(_bound_body(term))} for {BOUND} in range(len(t)))"
    return "(" + _RENDERED[head].format(*map(render, args)) + ")"


@lru_cache(maxsize=None)
def evaluator_of(formula):
    """The formula as a callable ``(t, Z, O, *roles)``; extra values are ignored."""
    roles = "".join(role + ", " for role in formula_roles(formula))
    return eval(f"lambda t, Z, O, {roles}*_: {render(expand(formula))}")


def holds_at(alg, formula, tup) -> bool:
    """The formula's value at one tuple of role values (extra values ignored)."""
    return evaluator_of(formula)(alg.arrow, alg.zero, alg.one, *tup)


# -- the search without symmetry breaking -----------------------------------------

def _reference_predicate(roles, lhs, rhs):
    """The law as a bool over a partial table: true when the instance holds
    or either side evaluates to the marker U, which the unknown cells and
    the extra row and column U hold."""
    body = f"(l := {render(expand(lhs))}) == (r := {render(expand(rhs))}) or l == U or r == U"
    return eval(f"lambda t, Z, O, U, {', '.join(roles)}: {body}")


REFERENCE_PREDICATES = {key: _reference_predicate(*spec) for key, spec in AXIOMS.items()}


def free_cells(n, star_of, required):
    """The pre-filled table of one star map, with n marking unknown cells in
    an extra row and column, and its free cells in the order the search
    assigns them, one per contrapositive pair."""
    zero, one, unknown = 0, n - 1, n
    table = [[unknown] * (n + 1) for _ in range(n + 1)]
    for x in range(n):
        table[zero][x] = one
        table[one][x] = x
        table[x][one] = one
        table[x][x] = one
        table[x][zero] = star_of[x]
    if "impl" in required or "iG" in required:
        for x in range(1, n - 1):
            table[star_of[x]][x] = x
    cells, paired = [], set()
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            if table[i][j] == unknown and (i, j) not in paired:
                cells.append((i, j))
                paired.add((i, j))
                paired.add((star_of[j], star_of[i]))
    return table, cells


def reference_fill_tables(n, star_of, required, prune_axioms, nodes):
    """``_fill_tables`` without symmetry breaking, re-scanning every instance
    of every prune law at every node, the root included, so a pre-filled
    table that fails a law has no leaf; each node counts on ``nodes``."""
    zero, one, unknown = 0, n - 1, n
    names = _standard_names(n)
    table, cells = free_cells(n, star_of, required)
    checks = tuple(
        (partial(REFERENCE_PREDICATES[a], table, zero, one, unknown), len(AXIOMS[a][0]))
        for a in prune_axioms
    )

    def assign(i, j, v):
        table[i][j] = v
        table[star_of[j]][star_of[i]] = v

    def meets_laws():
        return all(
            all(starmap(holds, product(range(n), repeat=arity))) for holds, arity in checks
        )

    def fill(k):
        if k == len(cells):
            yield FiniteAlgebra(
                "model", names, tuple(tuple(r[:n]) for r in table[:n]), one, zero
            )
            return
        i, j = cells[k]
        for v in range(n):
            next(nodes)
            assign(i, j, v)
            if meets_laws():
                yield from fill(k + 1)
        assign(i, j, unknown)

    if meets_laws():
        yield from fill(0)


def reference_search_tables(n, required, nodes=None):
    """Every completed candidate table at size n, over every standard star
    map, with no symmetry breaking: each labelling that keeps the star."""
    required = frozenset(required)
    prune = tuple(a for a in ("BE4", *sorted(required)) if a not in _UNIVERSE_AXIOMS)
    nodes = nodes or count(1)
    for star_of in _star_maps(n, required):
        yield from reference_fill_tables(n, star_of, required, prune, nodes)


def el(alg, name):
    return alg.index(name)


def names_of(alg, mask):
    return set(alg.names(mask))


def relabel(alg, perm):
    """A copy of the algebra with element i moved to position perm[i]."""
    n = alg.n
    elements = [None] * n
    arrow = [[None] * n for _ in range(n)]
    for i, name in enumerate(alg.elements):
        elements[perm[i]] = name
    for x in range(n):
        for y in range(n):
            arrow[perm[x]][perm[y]] = perm[alg.arrow[x][y]]
    return FiniteAlgebra(
        alg.name, tuple(elements), tuple(map(tuple, arrow)), perm[alg.one], perm[alg.zero]
    )


def relabelled(alg, seed):
    """A copy of the algebra under a seeded random relabelling."""
    perm = list(range(alg.n))
    random.Random(seed).shuffle(perm)
    return relabel(alg, perm)


# i-OLs of ortholattices, x -> y := (x meet y')', at the sizes of the
# ``reports`` benchmark.
def _iol(name, n, meet, comp, one, zero):
    arrow = tuple(tuple(comp(meet(x, comp(y))) for y in range(n)) for x in range(n))
    return FiniteAlgebra(name, tuple(f"e{i}" for i in range(n)), arrow, one, zero)


def boolean_iol(k):
    """2^k with elements the bitmasks of a k-set."""
    full = (1 << k) - 1
    return _iol(f"B{1 << k}", 1 << k, lambda x, y: x & y, lambda x: full ^ x, full, 0)


def mo_iol(m):
    """MO_m: 0, 1 and the atoms a_i (bit pattern 2 + 2i) with complements
    a_i' (3 + 2i); distinct atoms meet in 0."""
    def meet(x, y):
        return x if x == y or y == 1 else y if x == 1 else 0

    return _iol(f"MO{m}", 2 * m + 2, meet, lambda x: x ^ 1, 1, 0)


def ortholattice_iol(name, below, comp):
    """The i-OL x -> y = (x meet y')' of an ortholattice on 0..n-1, given by
    the down-set mask of each element and the complement."""
    n = len(below)
    by_mask = {m: x for x, m in enumerate(below)}
    meet = [[by_mask[below[x] & below[y]] for y in range(n)] for x in range(n)]
    arrow = tuple(tuple(comp[meet[x][comp[y]]] for y in range(n)) for x in range(n))
    bottom = next(x for x in range(n) if below[x] == 1 << x)
    alg = FiniteAlgebra(name, tuple(f"{name}{i}" for i in range(n)), arrow,
                        comp[bottom], bottom)
    assert classify(alg).is_iol
    return alg


def hexagons(k):
    """The horizontal sum of k hexagons 0 < a < b < 1, 0 < b' < a' < 1."""
    n = 4 * k + 2
    below, comp = [1], [n - 1]
    for h in range(k):
        a, b, b_, a_ = range(4 * h + 1, 4 * h + 5)
        below += [1 | 1 << a, 1 | 1 << a | 1 << b, 1 | 1 << b_, 1 | 1 << b_ | 1 << a_]
        comp += [a_, b_, b, a]
    below.append((1 << n) - 1)
    comp.append(0)
    return ortholattice_iol(f"hex{k}-", below, comp)


def ordered_partitions(block):
    """Every ordered pair (E1, E2) of non-empty cells partitioning the
    block, by the size of E1 and then its points in order."""
    bits = list(iter_bits(block))
    for r in range(1, len(bits)):
        for combo in combinations(bits, r):
            e1 = sum(1 << i for i in combo)
            yield e1, block & ~e1


def reference_is_normal(space):
    """The normality criterion over every ordered partition of each block."""
    for block in blocks(space):
        for e1, e2 in ordered_partitions(block):
            p1, p2 = perp(space, e1), perp(space, e2)
            if not (p1 != 0 and p2 != 0 and p1 == orthoclosure(space, e2)
                    and p2 == orthoclosure(space, e1)):
                return CheckResult("normal", "fail", (
                    ("block", space.subset_name(block)), ("cell", space.subset_name(e1))))
    return CheckResult("normal", "pass")


def random_spaces(count, seed, sizes=(3, 7)):
    """Seeded spaces in which each pair of points is orthogonal with
    probability 1/2."""
    rng = random.Random(seed)
    for _ in range(count):
        points = tuple(f"p{i}" for i in range(rng.randint(*sizes)))
        yield OrthoSpace.from_pairs(points, [
            pair for pair in combinations(points, 2) if rng.random() < 0.5])


def _order(alg):
    """Down-set masks and complements of the ortholattice of an i-OL."""
    below = [sum(1 << y for y in range(alg.n) if le_l(alg, y, x)) for x in range(alg.n)]
    return below, [alg.arrow[x][alg.zero] for x in range(alg.n)]


def direct_product(a, b):
    """The i-OL of the product of the two ortholattices; (i, j) is i * b.n + j."""
    (below_a, comp_a), (below_b, comp_b) = _order(a), _order(b)
    below = [sum(1 << k * b.n + m for k in iter_bits(below_a[i]) for m in iter_bits(below_b[j]))
             for i in range(a.n) for j in range(b.n)]
    comp = [comp_a[i] * b.n + comp_b[j] for i in range(a.n) for j in range(b.n)]
    return ortholattice_iol(f"{a.name}x{b.name}-", below, comp)


def horizontal_sum(a, b):
    """The i-OL of the horizontal sum of the two ortholattices: their 0s and
    1s glued, every other element of one incomparable to those of the other."""
    middle = [(k, x) for k, alg in enumerate((a, b))
              for x in range(alg.n) if x not in (alg.zero, alg.one)]
    n = len(middle) + 2
    at = {m: i + 1 for i, m in enumerate(middle)}
    for k, alg in enumerate((a, b)):
        at[(k, alg.zero)], at[(k, alg.one)] = 0, n - 1
    orders = [_order(a), _order(b)]
    below = [1] + [sum(1 << at[(k, y)] for y in iter_bits(orders[k][0][x])) for k, x in middle]
    comp = [n - 1] + [at[(k, orders[k][1][x])] for k, x in middle] + [0]
    return ortholattice_iol(f"{a.name}+{b.name}-", below + [(1 << n) - 1], comp)


def without_pair(space):
    """The space with its first orthogonal pair (in point order) removed."""
    i = next(i for i, row in enumerate(space.rel) if row)
    j = next(iter_bits(space.rel[i]))
    rel = list(space.rel)
    rel[i] &= ~(1 << j)
    rel[j] &= ~(1 << i)
    return OrthoSpace(space.points, tuple(rel))
