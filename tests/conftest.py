from functools import lru_cache

import pytest

from orthologic import associated_orthospace, enumerate_models, fixture
from orthologic.fixtures import FIXTURE_NAMES

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


@lru_cache(maxsize=None)
def iols_up_to(n):
    """The i-OLs with at most n elements, one per isomorphism class."""
    return tuple(m for k in range(2, n + 1) for m in enumerate_models(k, "iol"))


def el(alg, name):
    return alg.index(name)


def names_of(alg, mask):
    return set(alg.names(mask))


def relabel(alg, perm):
    """A copy of the algebra with element i moved to position perm[i]."""
    from orthologic import FiniteAlgebra

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
