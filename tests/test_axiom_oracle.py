"""The compiled term table behind ``check_axiom`` against hand-written
predicates of the same 17 laws.

The predicates below are an independent second encoding, kept only as a
reference: each reads the arrow table directly.  Verdicts and witnesses must
agree on the fixtures, on the enumerated models, on every bounded involutive
candidate table of the search, and on random tables that are mostly not BE.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from orthologic import FiniteAlgebra, check_axiom, enumerate_models, fixture
from orthologic.algebra import AXIOMS, CheckResult, star, vee_q, wedge_q
from orthologic.enumeration import _search_tables
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


def assert_agrees(alg):
    for axiom_id in ORACLE:
        assert check_axiom(alg, axiom_id) == oracle_check(alg, axiom_id), (
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
    for cand in _search_tables(n, frozenset()):
        assert_agrees(cand)


@st.composite
def tables(draw):
    n = draw(st.integers(2, 5))
    cell = st.integers(0, n - 1)
    arrow = [[draw(cell) for _ in range(n)] for _ in range(n)]
    zero, one = 0, n - 1
    if draw(st.booleans()):
        # The cells forced by BE1-BE3 and boundedness, so that the scans of
        # the deeper laws get past the first few tuples.
        for x in range(n):
            arrow[x][x] = arrow[x][one] = arrow[zero][x] = one
            arrow[one][x] = x
    else:
        zero, one = draw(st.permutations(range(n)))[:2]
    names = tuple(f"e{i}" for i in range(n))
    return FiniteAlgebra("random", names, tuple(map(tuple, arrow)), one, zero)


@settings(max_examples=300, deadline=None)
@given(alg=tables())
def test_random_tables_agree(alg):
    assert_agrees(alg)
