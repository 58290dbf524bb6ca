"""The row scans behind ``check_axiom`` against two references.

The hand-written predicates below are an independent second encoding of the
17 laws: each reads the arrow table directly.  The product loop over the
compiled instance predicates (the enumeration pruner's form of the same
terms) is the other reference.  Verdicts and witnesses must agree on the
fixtures, on the enumerated models, on every bounded involutive candidate
table of the search, on random tables that are mostly not BE, and on Boolean
and MO_m i-OLs of 16 to 64 elements with their one-cell mutations.
"""

import random
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import boolean_iol, mo_iol, reference_search_tables, relabelled
from derived_reference import vee_q, wedge_q
from orthologic import FiniteAlgebra, check_axiom, classify, enumerate_models, fixture
from orthologic.algebra import AXIOM_PREDICATES, AXIOMS, CheckResult, star
from orthologic.fixtures import FIXTURE_NAMES


def _be1(a, x):
    return a.arrow[x][x] == a.one


def _be2(a, x):
    return a.arrow[x][a.one] == a.one


def _be3(a, x):
    return a.arrow[a.one][x] == x


def _be4(a, x, y, z):
    return a.arrow[x][a.arrow[y][z]] == a.arrow[y][a.arrow[x][z]]


def _bounded(a, x):
    return a.arrow[a.zero][x] == a.one


def _dn(a, x):
    return star(a, star(a, x)) == x


def _impl(a, x, y):
    return a.arrow[a.arrow[x][y]][x] == x


def _ig(a, x):
    return a.arrow[star(a, x)][x] == x


def _pi(a, x, y):
    return a.arrow[x][a.arrow[x][y]] == a.arrow[x][y]


def _iabs(a, x, y):
    return a.arrow[a.arrow[x][a.arrow[x][y]]][x] == x


def _iom(a, x, y):
    return wedge_q(a, x, a.arrow[y][x]) == x


def _iom_prime(a, x, y):
    return wedge_q(a, x, a.arrow[star(a, x)][y]) == x


def _iom_second(a, x, y):
    return vee_q(a, x, star(a, a.arrow[x][y])) == x


def _at(a, x, y):
    return a.arrow[a.arrow[star(a, y)][x]][y] == a.arrow[x][y]


def _idiv(a, x, y):
    return a.arrow[x][star(a, a.arrow[x][y])] == a.arrow[x][star(a, y)]


def _idis1(a, x, y, z):
    lhs = star(a, a.arrow[a.arrow[star(a, x)][y]][star(a, z)])
    rhs = a.arrow[a.arrow[x][star(a, z)]][star(a, a.arrow[y][star(a, z)])]
    return lhs == rhs


def _idis2(a, x, y, z):
    lhs = star(a, a.arrow[a.arrow[x][star(a, y)]][z])
    rhs = a.arrow[a.arrow[star(a, z)][x]][star(a, a.arrow[star(a, z)][y])]
    return lhs == rhs


ORACLE = {
    "BE1": (("x",), _be1),
    "BE2": (("x",), _be2),
    "BE3": (("x",), _be3),
    "BE4": (("x", "y", "z"), _be4),
    "bounded": (("x",), _bounded),
    "DN": (("x",), _dn),
    "impl": (("x", "y"), _impl),
    "iG": (("x",), _ig),
    "pi": (("x", "y"), _pi),
    "Iabs-i": (("x", "y"), _iabs),
    "IOM": (("x", "y"), _iom),
    "IOM'": (("x", "y"), _iom_prime),
    "IOM''": (("x", "y"), _iom_second),
    "@": (("x", "y"), _at),
    "Idiv": (("x", "y"), _idiv),
    "Idis1": (("x", "y", "z"), _idis1),
    "Idis2": (("x", "y", "z"), _idis2),
}


def oracle_check(alg, axiom_id):
    """Lexicographic scan with the hand-written predicate; the first
    violating tuple is the witness."""
    roles, pred = ORACLE[axiom_id]
    for tup in product(range(alg.n), repeat=len(roles)):
        if not pred(alg, *tup):
            witness = tuple((r, alg.elements[v]) for r, v in zip(roles, tup))
            return CheckResult(axiom_id, "fail", witness)
    return CheckResult(axiom_id, "pass")


def product_loop_check(alg, axiom_id):
    """Lexicographic scan with the compiled instance predicate, one call per
    tuple; -1 is never a table value, so every instance is determined, and
    it holds exactly when the predicate returns None."""
    roles = AXIOMS[axiom_id][0]
    holds = partial(AXIOM_PREDICATES[axiom_id], alg.arrow, alg.zero, alg.one, -1)
    for tup in product(range(alg.n), repeat=len(roles)):
        if holds(*tup) is not None:
            witness = tuple((role, alg.elements[v]) for role, v in zip(roles, tup))
            return CheckResult(axiom_id, "fail", witness)
    return CheckResult(axiom_id, "pass")


def assert_agrees(alg, reference=oracle_check):
    for axiom_id in ORACLE:
        assert check_axiom(alg, axiom_id) == reference(alg, axiom_id), (
            alg.name, alg.arrow, axiom_id)


def test_oracle_covers_the_table():
    assert list(ORACLE) == list(AXIOMS)
    for axiom_id, (roles, _lhs, _rhs) in AXIOMS.items():
        assert ORACLE[axiom_id][0] == roles


@pytest.mark.parametrize("name", sorted(FIXTURE_NAMES))
def test_fixtures_agree(name):
    assert_agrees(fixture(name))


@pytest.mark.parametrize("n", range(2, 7))
def test_enumerated_models_agree(n):
    for cls in ("iol", "ioml", "iboolean"):
        for model in enumerate_models(n, cls):
            assert_agrees(model)


@pytest.mark.parametrize("n", range(2, 6))
def test_search_candidates_agree(n):
    # Every bounded involutive table the unconstrained search completes,
    # most of which fail BE4 and the lattice laws.
    for cand in reference_search_tables(n, ()):
        assert_agrees(cand)


@st.composite
def tables(draw):
    n = draw(st.integers(1, 5))
    cell = st.integers(0, n - 1)
    arrow = [[draw(cell) for _ in range(n)] for _ in range(n)]
    zero, one = 0, n - 1
    if draw(st.booleans()):
        # The cells forced by BE1-BE3 and boundedness, so that the scans of
        # the deeper laws get past the first few tuples.
        for x in range(n):
            arrow[x][x] = arrow[x][one] = arrow[zero][x] = one
            arrow[one][x] = x
    elif n > 1:
        zero, one = draw(st.permutations(range(n)))[:2]
    names = tuple(f"e{i}" for i in range(n))
    return FiniteAlgebra("random", names, tuple(map(tuple, arrow)), one, zero)


@settings(max_examples=300, deadline=None)
@given(alg=tables())
def test_random_tables_agree(alg):
    assert_agrees(alg)
    assert_agrees(alg, product_loop_check)


def test_one_element_table_satisfies_every_law():
    alg = FiniteAlgebra("trivial", ("e0",), ((0,),), 0, 0)
    assert_agrees(alg)
    assert all(check_axiom(alg, axiom_id).passed for axiom_id in AXIOMS)


LARGE = [boolean_iol(4), boolean_iol(5), boolean_iol(6), mo_iol(7), mo_iol(15), mo_iol(31)]


def _mutations(alg, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        arrow = [list(row) for row in alg.arrow]
        arrow[rng.randrange(alg.n)][rng.randrange(alg.n)] = rng.randrange(alg.n)
        yield FiniteAlgebra(alg.name, alg.elements, tuple(map(tuple, arrow)), alg.one, alg.zero)


@pytest.mark.parametrize("alg", LARGE, ids=lambda a: a.name)
def test_large_iols_agree(alg):
    shuffled = relabelled(alg, alg.n)
    lab = classify(shuffled)
    assert lab.is_ioml and lab.is_iboolean == alg.name.startswith("B")
    assert_agrees(shuffled)
    assert_agrees(shuffled, product_loop_check)


@pytest.mark.parametrize("alg", LARGE, ids=lambda a: a.name)
def test_large_mutations_agree(alg):
    failing = 0
    for mutant in _mutations(relabelled(alg, alg.n), 30, alg.n):
        assert_agrees(mutant)
        assert_agrees(mutant, product_loop_check)
        failing += sum(check_axiom(mutant, a).failed for a in AXIOMS)
    assert failing


# -- the largest table ----------------------------------------------------------
#
# A byte holds an element index, so 2^8 is the largest Boolean algebra a
# table can hold.

@pytest.fixture(scope="module")
def b256():
    return boolean_iol(8)


def test_boolean_256_is_iboolean(b256):
    assert b256.n == 256
    assert classify(b256).is_iboolean


def test_boolean_256_mutation_in_an_early_row(b256):
    # The product loop stops at the first failing tuple, so a defect in an
    # early row keeps the reference cheap at this size.
    arrow = [bytearray(row) for row in b256.arrow]
    arrow[2][5] = 7
    mutant = FiniteAlgebra("B256-mut", b256.elements, tuple(arrow), b256.one, b256.zero)
    result = check_axiom(mutant, "BE4")
    assert result.failed
    assert result == product_loop_check(mutant, "BE4")
