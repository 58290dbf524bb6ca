"""The registry's compiled formulas and sized scans against the
straightforward scans they replace.

Every registry formula is compiled to a row scan; ``REFERENCE`` keeps the
Python callable each one replaced, and both must give the same least failing
tuple on fixtures, small i-OLs, one-cell mutations, large relabelled i-OLs
and random tables.  ``_scan_items`` runs each item at the arity of its own
predicate; the reference runs every item over all tuples of the check's
arity, in lexicographic order, items in listed order, and reports the first
failure.  Verdicts and witnesses must agree.

L7-DOWNSET decides its items (4) and (5), which quantify over every subset,
from its element and pair items: item (5) fails only at a singleton {y},
and there it is item (1) at y.  The reference rebuilds every intersection,
meet and perp mask by mask, and must agree with ``singleton_rule``, item (5)
stated at the singletons, on i-OLs, on every table that meets the premises
of that argument, and on spaces with one orthogonal pair removed, where the
check itself must fail at item (1) at the reference's element.

The projection-family checks keep the loops over ``ProjectionMap`` families
that they replaced as whole-check references, which must give the same
verdicts on the census, on 16-64-element constructions and on mutated
tables where phi_0 and phi_1 are the constant 0 and the identity.
"""

import random
from functools import cache, lru_cache, partial
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from orthologic import (
    AlgebraError,
    FiniteAlgebra,
    associated_orthospace,
    enumerate_models,
    fixture,
    list_checks,
    run_all,
    run_check,
    theorems,
)
from orthologic import algebra
from orthologic.algebra import (
    BOUND,
    CheckResult,
    NonLatticeError,
    big_meet,
    check_axiom,
    classify,
    down_set,
    first_failure,
    formula_roles,
    iter_bits,
    star,
)
from orthologic.fixtures import FIXTURE_NAMES
from orthologic.orthospace import enumerate_orthoclosed, perp
from orthologic.sasaki import SASAKI_SET_LAWS
from orthologic.theorems import _scan_items

from conftest import (
    boolean_iol,
    direct_product,
    evaluator_of,
    hexagons,
    holds_at,
    iols_up_to,
    mo_iol,
    ortholattice_iol,
    reference_search_tables,
    relabelled,
    render,
    without_pair,
)
from derived_reference import commutes, divides, le, le_l, le_q, ortho, vee_q, wedge_p, wedge_q
from projection_families import (
    ProjectionMap,
    canonical_projection_family,
    check_sasaki_set,
    compose,
    is_full,
    trivial_projection_family,
)

ROLES = ("x", "y", "z", "u")


# -- the registry's predicates as Python callables ---------------------------
#
# The lambdas and functions the registry ran before its items, clauses and
# pointwise sides became formulas, keyed by (check id, item tag or clause
# label).  Each reads the arrow table through the functions of ``algebra`` and
# ``sasaki``, so it is an encoding independent of the term compiler.  The
# functions that loop over range(a.n) quantify over a bound element v.

def _m_pimpl(a, x, y):
    t = star(a, wedge_p(a, x, star(a, y)))
    return star(a, wedge_p(a, t, star(a, x))) == x


def _central_arrow(a, x, y, z):
    if not (commutes(a, x, z) and commutes(a, y, z)):
        return True
    t = a.arrow[x][y]
    return le_l(a, t, a.arrow[a.arrow[t][star(a, z)]][star(a, a.arrow[t][z])])


def _identity_projections_meet(a, x, y):
    if any(wedge_q(a, v, x) != v for v in range(a.n)):
        return True
    if any(wedge_q(a, v, y) != v for v in range(a.n)):
        return True
    m = wedge_q(a, x, y)
    return all(wedge_q(a, v, m) == v for v in range(a.n))


def _square_zero_kernel(a, x):
    squared_zero = all(
        wedge_q(a, wedge_q(a, v, x), x) == a.zero for v in range(a.n)
    )
    top = wedge_q(a, a.one, x)
    return squared_zero == le_l(a, top, star(a, top))


def _projections_compose(a, x, y):
    m = wedge_q(a, x, y)
    return all(
        wedge_q(a, wedge_q(a, v, y), x) == wedge_q(a, wedge_q(a, v, x), y)
        == wedge_q(a, v, m)
        for v in range(a.n)
    )


def _projections_stable(a, x, y):
    for v in range(a.n):
        if le_l(a, v, x) and not le_l(a, wedge_q(a, v, y), x):
            return False
        if le_l(a, v, y) and not le_l(a, wedge_q(a, v, x), y):
            return False
    return True


# The projection-family laws: phi(a, p, x) is the Sasaki projection phi_p at
# x, and the map roles p, q come before the element roles.  A law's copy over
# the trivial family holds wherever a map role is neither 0 nor 1.

def phi(a, p, x):
    return wedge_q(a, x, p)


def trivial(a, *maps):
    return all(m in (a.zero, a.one) for m in maps)


def central(a, p):
    return all(commutes(a, p, v) for v in range(a.n))


def _nested_projections(a, p, q, x):
    if not le_l(a, phi(a, p, a.one), phi(a, q, a.one)):
        return True
    return phi(a, p, phi(a, q, x)) == phi(a, p, x) == phi(a, q, phi(a, p, x))


def _same_top_same_map(a, p, q):
    return phi(a, p, a.one) != phi(a, q, a.one) or all(
        phi(a, p, v) == phi(a, q, v) for v in range(a.n))


def _idempotent(a, p, x):
    return phi(a, p, phi(a, p, x)) == phi(a, p, x)


def _top_fixed(a, p, q):
    return not le_l(a, phi(a, p, a.one), phi(a, q, a.one)) \
        or phi(a, q, phi(a, p, a.one)) == phi(a, p, a.one)


def _kernel(a, p, x):
    return (phi(a, p, x) == a.zero) == le_l(a, x, star(a, phi(a, p, a.one)))


def _ortho_images(a, p, x, y):
    return not ortho(a, phi(a, p, x), phi(a, p, y)) or ortho(a, x, phi(a, p, y))


def _ortho_swap(a, p, x, y):
    return ortho(a, phi(a, p, x), y) == ortho(a, x, phi(a, p, y))


def _arrow_transfer(a, p, x, y):
    return phi(a, p, a.arrow[x][y]) == a.arrow[star(a, phi(a, p, star(a, x)))][phi(a, p, y)]


REFERENCE = {
    ("L2-BE-PROPS", "(1)"): lambda a, x, y: a.arrow[x][a.arrow[y][x]] == a.one,
    ("L2-BE-PROPS", "(2)"): lambda a, x, y: le(a, x, vee_q(a, x, y)),
    ("L2-BE-PROPS", "(3)"): lambda a, x, y: a.arrow[x][star(a, y)] == a.arrow[y][star(a, x)],
    ("L2-BE-PROPS", "(4)"): lambda a, x: le(a, x, star(a, star(a, x))),
    ("L2-BE-PROPS", "(5)"): lambda a, x, y: a.arrow[star(a, x)][y] == a.arrow[star(a, y)][x],
    ("L2-BE-PROPS", "(6)"): lambda a, x, y: a.arrow[star(a, x)][star(a, y)] == a.arrow[y][x],
    ("L2-BE-PROPS", "(7)"): lambda a, x, y, z: a.arrow[star(a, a.arrow[x][y])][z]
    == a.arrow[x][a.arrow[star(a, y)][z]],
    ("L2-BE-PROPS", "(8)"): lambda a, x, y, z: a.arrow[x][a.arrow[y][z]]
    == a.arrow[star(a, a.arrow[x][star(a, y)])][z],
    ("L2-BE-PROPS", "(9)"): lambda a, x, y: a.arrow[star(a, a.arrow[star(a, x)][y])][
        a.arrow[star(a, x)][y]]
    == a.arrow[star(a, a.arrow[star(a, x)][x])][a.arrow[star(a, y)][y]],
    ("P2-QBE-PROPS", "(1)"): lambda a, x, y: not le_q(a, x, y)
    or (x == wedge_q(a, y, x) and y == vee_q(a, x, y)),
    ("P2-QBE-PROPS", "(2-refl)"): lambda a, x: le_q(a, x, x),
    ("P2-QBE-PROPS", "(2-antisym)"): lambda a, x, y: not (le_q(a, x, y) and le_q(a, y, x))
    or x == y,
    ("P2-QBE-PROPS", "(3)"): lambda a, x, y: vee_q(a, x, y)
    == star(a, wedge_q(a, star(a, x), star(a, y))),
    ("P2-QBE-PROPS", "(4)"): lambda a, x, y: not le_q(a, x, y) or le(a, x, y),
    ("P2-QBE-PROPS", "(5)"): lambda a, x, y, z: not (le_q(a, x, z) and le_q(a, y, z)
                                                     and a.arrow[z][x] == a.arrow[z][y])
    or x == y,
    ("P2-QBE-PROPS", "(6)"): lambda a, x, y: not le_l(a, x, y) or le(a, x, y),
    ("P2-QBE-PROPS", "(7-antisym)"): lambda a, x, y: not (le_l(a, x, y) and le_l(a, y, x))
    or x == y,
    ("P2-QBE-PROPS", "(7-trans)"): lambda a, x, y, z: not (le_l(a, x, y) and le_l(a, y, z))
    or le_l(a, x, z),
    ("P2-QBE-PROPS", "(8)"): lambda a, x, y, z: not (le_l(a, z, x) and le_l(a, z, y))
    or le_l(a, z, wedge_p(a, x, y)),
    ("P2-QBE-PROPS", "(9)"): lambda a, x, y, z, u: a.arrow[wedge_p(a, x, y)][
        a.arrow[z][star(a, u)]]
    == a.arrow[wedge_p(a, x, z)][a.arrow[y][star(a, u)]],
    ("R2-LEL-ORDER-IFF-IG", "reflexive"): lambda a, x: le_l(a, x, x),
    ("R2-LEL-ORDER-IFF-IG", "antisymmetric"): lambda a, x, y: not (le_l(a, x, y)
                                                                   and le_l(a, y, x))
    or x == y,
    ("R2-LEL-ORDER-IFF-IG", "transitive"): lambda a, x, y, z: not (le_l(a, x, y)
                                                                  and le_l(a, y, z))
    or le_l(a, x, z),
    ("L2-IOL-PROPS", "(1)"): lambda a, x, y: le_l(a, x, y) == le_l(a, star(a, y), star(a, x)),
    ("L2-IOL-PROPS", "(2)"): lambda a, x, y: not le_q(a, x, y) or le_l(a, x, y),
    ("L2-IOL-PROPS", "(3)"): lambda a, x, y: le_l(a, x, a.arrow[y][x])
    and le_l(a, x, a.arrow[star(a, x)][y]),
    ("L2-IOL-PROPS", "(4)"): lambda a, x, y: le_l(a, wedge_p(a, x, y), x)
    and le_l(a, wedge_p(a, x, y), y),
    ("L2-IOL-PROPS", "(5)"): lambda a, x, y: (star(a, x) == a.arrow[x][y])
    == (star(a, y) == a.arrow[y][x]),
    ("L2-IOL-PROPS", "(6)"): lambda a, x, y: wedge_q(a, x, y) != x
    or wedge_q(a, x, star(a, y)) == a.zero,
    ("L2-IOL-PROPS", "(7)"): lambda a, x, y: not le_l(a, x, y)
    or wedge_q(a, x, star(a, y)) == a.zero,
    ("L2-IOL-PROPS", "(8)"): lambda a, x, y, z: not le_l(a, x, y)
    or (le_l(a, a.arrow[y][z], a.arrow[x][z]) and le_l(a, a.arrow[z][x], a.arrow[z][y])),
    ("L2-IOL-PROPS", "(9)"): lambda a, x, y, z: not le_l(a, x, y)
    or (le_l(a, vee_q(a, x, z), vee_q(a, y, z))
        and le_l(a, wedge_q(a, x, z), wedge_q(a, y, z))),
    ("L2-IOL-PROPS", "(10)"): lambda a, x, y, z: not (le_l(a, x, z) and le_l(a, y, z))
    or le_l(a, a.arrow[star(a, x)][y], z),
    ("L2-IOL-PROPS", "(11)"): lambda a, x, y: le_l(
        a, a.arrow[a.arrow[x][star(a, y)]][star(a, a.arrow[x][y])], x),
    ("L2-IOL-PROPS", "(12)"): lambda a, x, y, z, u: not (le_l(a, x, y) and le_l(a, z, u))
    or le_l(a, a.arrow[star(a, x)][z], a.arrow[star(a, y)][u]),
    ("T2-CHAR-IOML-LE", "(b)"): lambda a, x, y: not le_l(a, x, y) or le_q(a, x, y),
    ("T2-CHAR-IOML-LE", "(c)"): lambda a, x, y: not le_l(a, x, y) or y == vee_q(a, y, x),
    ("C2-LEQ-EQ-LEL", "le_q"): le_q,
    ("C2-LEQ-EQ-LEL", "le_l"): le_l,
    ("P2-IOML-PROPS-A", "(1)"): lambda a, x, y: a.arrow[x][wedge_q(a, y, x)] == a.arrow[x][y],
    ("P2-IOML-PROPS-A", "(2)"): lambda a, x, y: a.arrow[vee_q(a, x, y)][
        star(a, a.arrow[x][y])] == star(a, y),
    ("P2-IOML-PROPS-A", "(3)"): lambda a, x, y, z: wedge_q(
        a, x, wedge_q(a, a.arrow[y][x], a.arrow[z][x])) == x,
    ("P2-IOML-PROPS-A", "(4)"): lambda a, x, y: a.arrow[a.arrow[x][y]][wedge_q(a, y, x)] == x,
    ("P2-IOML-PROPS-A", "(5)"): lambda a, x, y: not (le(a, x, y) and le_l(a, y, x)) or x == y,
    ("P2-IOML-PROPS-A", "(6)"): lambda a, x, y: le_l(a, wedge_q(a, x, y), y)
    and le_l(a, y, vee_q(a, x, y)),
    ("P2-IOML-PROPS-A", "(7)"): lambda a, x, y: a.arrow[wedge_q(a, x, y)][wedge_q(a, y, x)]
    == a.one,
    ("P2-IOML-PROPS-A", "(8)"): lambda a, x, y: a.arrow[vee_q(a, x, y)][vee_q(a, y, x)]
    == a.one,
    ("P2-IOML-PROPS-A", "(9)"): lambda a, x, y: a.arrow[vee_q(a, x, y)][y] == a.arrow[x][y],
    ("P2-IOML-PROPS-A", "(10)"): lambda a, x, y, z: wedge_q(a, wedge_q(a, x, y),
                                                           wedge_q(a, y, z))
    == wedge_q(a, wedge_q(a, x, y), z),
    ("P2-IOML-PROPS-B", "(1)"): lambda a, x, y, z: not (le_l(a, x, y) and le_l(a, x, z))
    or le_l(a, x, wedge_q(a, y, z)),
    ("P2-IOML-PROPS-B", "(2)"): lambda a, x, y, z: not le_l(a, x, y)
    or wedge_q(a, wedge_q(a, z, y), x) == wedge_q(a, z, x),
    ("P2-IOML-PROPS-B", "(3)"): lambda a, x, y: not (le(a, x, y) and le_l(a, y, x)) or x == y,
    ("P2-IOML-PROPS-B", "(4)"): lambda a, x, y, z: not (le_l(a, y, x) and le_l(a, z, x))
    or le_l(a, vee_q(a, y, z), x),
    ("P2-IOML-PROPS-B", "(5)"): lambda a, x, y: a.arrow[x][wedge_q(a, x, y)] == a.arrow[x][y],
    ("P2-IOML-PROPS-B", "(6)"): lambda a, x, y: wedge_q(a, x, star(a, y)) != a.zero
    or wedge_q(a, x, y) == x,
    ("T2-CHAR-IOML-5WAY", "(b)"): lambda a, x, y: a.arrow[a.arrow[x][y]][wedge_q(a, y, x)]
    == x,
    ("T2-CHAR-IOML-5WAY", "(c)"): lambda a, x, y: not (le(a, x, y) and le_l(a, y, x))
    or x == y,
    ("T2-CHAR-IOML-5WAY", "(d)"): lambda a, x, y: wedge_q(a, x, star(a, y)) != a.zero
    or wedge_q(a, x, y) == x,
    ("T2-CHAR-IOML-5WAY", "(e)"): lambda a, x, y: a.arrow[x][wedge_q(a, x, y)]
    == a.arrow[x][y],
    ("MBE-EQ", "PU"): lambda a, x: wedge_p(a, a.one, x) == x,
    ("MBE-EQ", "Pcomm"): lambda a, x, y: wedge_p(a, x, y) == wedge_p(a, y, x),
    ("MBE-EQ", "Pass"): lambda a, x, y, z: wedge_p(a, x, wedge_p(a, y, z))
    == wedge_p(a, wedge_p(a, x, y), z),
    ("MBE-EQ", "m-La"): lambda a, x: wedge_p(a, x, a.zero) == a.zero,
    ("MBE-EQ", "m-Re"): lambda a, x: wedge_p(a, x, star(a, x)) == a.zero,
    ("MBE-EQ", "m-Pimpl"): _m_pimpl,
    ("L3-ORTHO-BASICS", "(1)"): lambda a, x, y: ortho(a, x, y) == ortho(a, y, x),
    ("L3-ORTHO-BASICS", "(2)"): lambda a, x: ortho(a, x, x) == (x == a.zero),
    ("L3-ORTHO-BASICS", "(3)"): lambda a, x: ortho(a, a.zero, x),
    ("L3-ORTHO-BASICS", "(4)"): lambda a, x: ortho(a, a.one, x) == (x == a.zero),
    ("L3-ORTHO-BASICS", "(5)"): lambda a, x, y: not le_l(a, x, y) or ortho(a, x, star(a, y)),
    ("L3-ORTHO-BASICS", "(6)"): lambda a, x, y: ortho(a, x, star(a, a.arrow[y][x])),
    ("L3-ORTHO-BASICS", "(7)"): lambda a, x, y: ortho(a, x, y) == le_l(a, x, star(a, y)),
    ("L3-ORTHO-CONSEQ", "(1)"): lambda a, x, y: not ortho(a, x, y)
    or (a.arrow[star(a, x)][star(a, y)] == star(a, y)
        and a.arrow[star(a, y)][star(a, x)] == star(a, x)),
    ("L3-ORTHO-CONSEQ", "(2)"): lambda a, x, y: not ortho(a, x, y)
    or a.arrow[a.arrow[star(a, x)][y]][x] == star(a, y),
    ("L3-ORTHO-CONSEQ", "(3)"): lambda a, x, y: not ortho(a, x, y)
    or a.arrow[a.arrow[star(a, x)][y]][y] == star(a, x),
    ("L3-ORTHO-CONSEQ", "(4)"): lambda a, x, y: not ortho(a, x, y)
    or a.arrow[star(a, x)][star(a, a.arrow[star(a, x)][y])] == star(a, y),
    ("P3-PERP-IFF-MEETZERO", "ortho"): ortho,
    ("P3-PERP-IFF-MEETZERO", "meet-zero"): lambda a, x, y: wedge_q(a, x, y) == a.zero,
    ("P3-CHAR-IOML-ORTHO", "ortho-meet"): lambda a, x, y: not ortho(a, x, y)
    or wedge_q(a, x, star(a, y)) == x,
    ("P4-SP-BASIC", "(1)"): lambda a, x: wedge_q(a, x, x) == x
    and wedge_q(a, x, a.one) == x and wedge_q(a, a.one, x) == x
    and wedge_q(a, x, a.zero) == a.zero and wedge_q(a, a.zero, x) == a.zero
    and wedge_q(a, star(a, x), x) == a.zero
    and wedge_q(a, x, star(a, x)) == a.zero,
    ("P4-SP-BASIC", "(2)"): lambda a, x, y: not le_l(a, x, y) or wedge_q(a, y, x) == x,
    ("P4-SP-BASIC", "(3)"): lambda a, x, y: wedge_q(a, y, wedge_q(a, y, x)) == wedge_q(a, y, x),
    ("P4-SP-BASIC", "(4)"): lambda a, x, y: not le_q(a, x, y) or wedge_q(a, x, y) == x,
    ("P4-SP-BASIC", "(5)"): lambda a, x, y, z: not le_l(a, x, y)
    or le_l(a, wedge_q(a, x, z), wedge_q(a, y, z)),
    ("P4-SP-IOML", "(1)"): _identity_projections_meet,
    ("P4-SP-IOML", "(2)"): lambda a, x, y: wedge_q(a, wedge_q(a, x, y), y) == wedge_q(a, x, y),
    ("P4-SP-IOML", "(3)"): lambda a, x, y: wedge_q(a, star(a, wedge_q(a, x, y)), y)
    == star(a, a.arrow[y][x]),
    ("P4-SP-IOML", "(4)"): lambda a, x, y: le_l(
        a, wedge_q(a, star(a, wedge_q(a, x, y)), y), star(a, x)),
    ("P4-SP-IOML", "(5)"): lambda a, x, y, z: le_l(a, wedge_q(a, x, z), star(a, y))
    == le_l(a, wedge_q(a, y, z), star(a, x)),
    ("P4-SP-IOML", "(6)"): lambda a, x, y: wedge_q(a, wedge_q(a, x, y), x) == wedge_q(a, y, x),
    ("P4-SP-IOML", "(7)"): lambda a, x, y, z: x != wedge_q(a, x, y)
    or wedge_q(a, z, x) == wedge_q(a, wedge_q(a, z, y), x),
    ("P4-SP-IOML-B", "(1)"): lambda a, x, y: (wedge_q(a, x, y) == x) == le_l(a, x, y),
    ("P4-SP-IOML-B", "(2)"): lambda a, x, y: (wedge_q(a, x, y) == a.zero)
    == le_l(a, x, star(a, y)),
    ("P4-SP-IOML-B", "(3)"): lambda a, x, y, z: not le_l(a, x, y)
    or wedge_q(a, wedge_q(a, z, y), x) == wedge_q(a, z, x),
    ("P4-SP-IOML-B", "(4)"): lambda a, x, y, z: (star(a, wedge_q(a, x, z))
                                                 == a.arrow[wedge_q(a, x, z)][y])
    == (star(a, wedge_q(a, y, z)) == a.arrow[wedge_q(a, y, z)][x]),
    ("P4-SP-IOML-B", "(5)"): _square_zero_kernel,
    ("P4-SP-IOML-B", "(6)"): lambda a, x, y, z: ortho(a, wedge_q(a, x, z), y)
    == ortho(a, x, wedge_q(a, y, z)),
    ("P4-SP-IOML-B", "(7)"): lambda a, x, y: ortho(a, x, y) == (wedge_q(a, y, x) == a.zero),
    ("P4-SP-IOML-B", "(8)"): lambda a, x, y: not ortho(a, x, y)
    or ortho(a, wedge_q(a, x, y), star(a, y)),
    ("T4-SASAKI-PERP-CHAR", "swap"): lambda a, x, y, z: not ortho(a, wedge_q(a, x, y), z)
    or ortho(a, x, wedge_q(a, z, y)),
    ("L4-C-BASICS", "(1)"): lambda a, x: commutes(a, x, x) and commutes(a, x, a.zero)
    and commutes(a, a.zero, x) and commutes(a, x, a.one)
    and commutes(a, a.one, x) and commutes(a, x, star(a, x))
    and commutes(a, star(a, x), x),
    ("L4-C-BASICS", "(2)"): lambda a, x, y: not (le_l(a, x, y) or le_l(a, x, star(a, y)))
    or commutes(a, x, y),
    ("L4-C-BASICS", "(3)"): lambda a, x, y: commutes(a, x, a.arrow[y][x])
    and commutes(a, x, a.arrow[star(a, x)][y])
    and commutes(a, y, a.arrow[star(a, x)][y]),
    ("T4-C-SYMMETRIC", "C-symmetric"): lambda a, x, y: not commutes(a, x, y)
    or commutes(a, y, x),
    ("C4-C-MEET-COMM", "C-meet"): lambda a, x, y: not commutes(a, x, y)
    or wedge_q(a, x, y) == wedge_q(a, y, x),
    ("L4-C-STAR-CLOSED", ""): lambda a, x, y: not commutes(a, x, y)
    or (commutes(a, x, star(a, y)) and commutes(a, star(a, x), y)
        and commutes(a, star(a, x), star(a, y))),
    ("P4-C-FORMULA", "C"): commutes,
    ("P4-C-FORMULA", "equation"): lambda a, x, y: a.arrow[a.arrow[x][star(a, y)]][
        star(a, a.arrow[x][y])] == x,
    ("P4-C-MEET-FORMULA", "C"): commutes,
    ("P4-C-MEET-FORMULA", "meet-form"): lambda a, x, y: wedge_q(a, x, y) == wedge_p(a, x, y),
    ("C4-C-4WAY", "(a)"): commutes,
    ("C4-C-4WAY", "(b)"): lambda a, x, y: wedge_q(a, x, y) == wedge_q(a, y, x),
    ("C4-C-4WAY", "(c)"): lambda a, x, y: vee_q(a, x, y) == vee_q(a, y, x),
    ("C4-C-4WAY", "(d)"): lambda a, x, y: wedge_q(a, y, x) == wedge_q(a, x, y),
    ("T4-SP-COMPOSE", "(a)"): commutes,
    ("T4-SP-COMPOSE", "(b)"): _projections_compose,
    ("T4-SP-COMPOSE", "(c)"): _projections_stable,
    ("L5-C-IFF-D", "C"): commutes,
    ("L5-C-IFF-D", "D"): divides,
    ("L5-D-BASICS", "(1)"): lambda a, x: divides(a, x, x) and divides(a, x, a.zero)
    and divides(a, a.zero, x) and divides(a, x, a.one)
    and divides(a, a.one, x) and divides(a, x, star(a, x))
    and divides(a, star(a, x), x),
    ("L5-D-BASICS", "(2)"): lambda a, x, y: not (le_l(a, x, y) or le_l(a, x, star(a, y)))
    or divides(a, x, y),
    ("L5-D-BASICS", "(3)"): lambda a, x, y: divides(a, x, a.arrow[y][x])
    and divides(a, x, a.arrow[star(a, x)][y])
    and divides(a, y, a.arrow[star(a, x)][y]),
    ("L5-D-BASICS", "(4)"): lambda a, x, y: not ortho(a, x, y)
    or (divides(a, x, y) and divides(a, y, x)
        and divides(a, x, star(a, y)) and divides(a, star(a, y), x)),
    ("L5-D-BASICS", "(5)"): lambda a, x, y: divides(a, star(a, x), a.arrow[star(a, x)][y])
    and divides(a, star(a, y), a.arrow[star(a, x)][y])
    and divides(a, x, star(a, a.arrow[star(a, x)][y]))
    and divides(a, y, star(a, a.arrow[star(a, x)][y])),
    ("T5-BOOLEAN-6WAY", "(b)"): lambda a, x, y: wedge_q(a, x, y) == wedge_p(a, x, y),
    ("T5-BOOLEAN-6WAY", "(c)"): lambda a, x, y: wedge_q(a, x, y) == wedge_q(a, y, x),
    ("T5-BOOLEAN-6WAY", "(d)"): lambda a, x, y: vee_q(a, x, y) == vee_q(a, y, x),
    ("T5-BOOLEAN-6WAY", "(e)"): commutes,
    ("T5-BOOLEAN-6WAY", "(f)"): divides,
    ("T5-BOOLEAN-MEETLE", "(b)"): lambda a, x, y: le_l(a, wedge_q(a, x, y), x),
    ("T5-BOOLEAN-MEETLE", "(c)"): lambda a, x, y: le_l(a, x, vee_q(a, x, y)),
    ("T5-BOOLEAN-LE", "le-in-le_l"): lambda a, x, y: not le(a, x, y) or le_l(a, x, y),
    ("C5-ORDERS-COINCIDE", "le"): le,
    ("C5-ORDERS-COINCIDE", "le_l"): le_l,
    ("C5-ORDERS-COINCIDE", "le_q"): le_q,
    ("L5-CENTER-ARROW", ""): _central_arrow,
    ("P6-FULL-PROPS", "(1)"): lambda a, x, y, z: not (le_l(a, z, x) and le_l(a, z, y))
    or le(a, z, wedge_q(a, star(a, wedge_q(a, star(a, y), x)), x)),
    ("P6-FULL-PROPS", "(2)"): lambda a, x, y: wedge_q(a, star(a, wedge_q(a, star(a, y), x)), x)
    == wedge_p(a, x, y),
    ("P6-FULL-PROPS", "(3)"): lambda a, x: wedge_q(a, star(a, x), x) == a.zero,
    ("T5-SP-CENTER-MONOID", "closed"): lambda a, p, q: not (central(a, p) and central(a, q))
    or central(a, wedge_q(a, p, q)),
    ("T5-SP-CENTER-MONOID", "compose"): lambda a, p, q: not (central(a, p) and central(a, q))
    or _projections_compose(a, p, q),
    ("T5-SP-CENTER-MONOID", "identity"): lambda a, x: central(a, a.one) and phi(a, a.one, x) == x,
    ("P6-SS-PROPS", "(1)"): _nested_projections,
    ("P6-SS-PROPS", "(2)"): _same_top_same_map,
    ("P6-SS-PROPS", "(3)"): _idempotent,
    ("P6-SS-PROPS", "(4)"): _top_fixed,
    ("P6-SS-PROPS", "(5)"): _kernel,
    ("P6-SS-PROPS", "(6)"): _ortho_images,
    ("P6-SS-PROPS", "(7)"): _ortho_swap,
    ("P6-SS-PROPS", "(1) trivial"): lambda a, p, q, x: not trivial(a, p, q)
    or _nested_projections(a, p, q, x),
    ("P6-SS-PROPS", "(2) trivial"): lambda a, p, q: not trivial(a, p, q)
    or _same_top_same_map(a, p, q),
    ("P6-SS-PROPS", "(3) trivial"): lambda a, p, x: not trivial(a, p) or _idempotent(a, p, x),
    ("P6-SS-PROPS", "(4) trivial"): lambda a, p, q: not trivial(a, p, q) or _top_fixed(a, p, q),
    ("P6-SS-PROPS", "(5) trivial"): lambda a, p, x: not trivial(a, p) or _kernel(a, p, x),
    ("P6-SS-PROPS", "(6) trivial"): lambda a, p, x, y: not trivial(a, p)
    or _ortho_images(a, p, x, y),
    ("P6-SS-PROPS", "(7) trivial"): lambda a, p, x, y: not trivial(a, p)
    or _ortho_swap(a, p, x, y),
    ("P6-SS-ARROW", ""): _arrow_transfer,
    ("P6-SS-ARROW", "trivial"): lambda a, p, x, y: not trivial(a, p)
    or _arrow_transfer(a, p, x, y),
    ("P6-FULL-FORMULA", "SS1"): lambda a, p, x, y: not le_l(a, x, y)
    or le_l(a, phi(a, p, x), phi(a, p, y)),
    ("P6-FULL-FORMULA", "SS2"): lambda a, p, q, x: not le_l(a, phi(a, p, a.one), phi(a, q, a.one))
    or phi(a, p, phi(a, q, x)) == phi(a, p, x),
    ("P6-FULL-FORMULA", "SS3"): lambda a, p, x: le_l(a, phi(a, p, star(a, phi(a, p, x))),
                                                     star(a, x)),
    ("P6-FULL-FORMULA", "full"): lambda a, x: phi(a, x, a.one) == x,
}


def arity_of(pred):
    if callable(pred):
        return pred.__code__.co_argcount - 1
    return len(formula_roles(pred))


def reference_first_failure(alg, pred):
    for tup in product(range(alg.n), repeat=arity_of(pred)):
        if not pred(alg, *tup):
            return tup
    return None


def reference_of(check_id, label, formula):
    """The callable a registry formula stands for.  A formula of the
    synthetic check "SYN" stands for its rendering, evaluated tuple by tuple."""
    if check_id != "SYN":
        return REFERENCE[(check_id, label)]
    value = evaluator_of(formula)
    return lambda a, *tup: value(a.arrow, a.zero, a.one, *tup)


def reference_scan_items(alg, check_id, arity, items):
    """The full-arity scan: every item sees every tuple of the check's
    arity, and reads the prefix its formula reads."""
    roles = ROLES[:arity]
    preds = [(reference_of(check_id, tag, pred), arity_of(pred)) for tag, pred in items]
    for tup in product(range(alg.n), repeat=arity):
        for (tag, _), (pred, k) in zip(items, preds):
            if not pred(alg, *tup[:k]):
                witness = (("item", tag),) + tuple(
                    (r, alg.elements[v]) for r, v in zip(roles, tup))
                return CheckResult(check_id, "fail", witness)
    return CheckResult(check_id, "pass")


def reference_pointwise(alg, check_id, arity, sides):
    """The tuple-by-tuple scan of sides that must agree."""
    preds = [reference_of(check_id, label, pred) for label, pred in sides]
    for tup in product(range(alg.n), repeat=arity):
        values = [pred(alg, *tup) for pred in preds]
        if len(set(values)) > 1:
            names = tuple((r, alg.elements[v]) for r, v in zip(ROLES, tup))
            return CheckResult(check_id, "fail", names + tuple(
                (label, "holds" if v else "fails") for (label, _), v in zip(sides, values)))
    return CheckResult(check_id, "pass")


def space_mask(alg, space, element_mask):
    """The mask over the points of the space of the nonzero elements of an
    element mask, each point found by its name."""
    return sum(1 << space.index(alg.elements[i]) for i in iter_bits(element_mask)
               if i != alg.zero)


def reference_subset_items(alg, space):
    """Items (4) and (5) of L7-DOWNSET, mask by mask."""

    def pts(mask):
        return space_mask(alg, space, mask)

    for mask in range(1, 1 << alg.n):
        inter = alg.universe_mask()
        for y in iter_bits(mask):
            inter &= down_set(alg, y)
        if inter != down_set(alg, big_meet(alg, mask)):
            return CheckResult(
                "L7-DOWNSET", "fail", (("item", "(4)"), ("Y", ",".join(alg.names(mask)))))
    star_fold = lambda m: big_meet(alg, sum(1 << star(alg, y) for y in iter_bits(m)))
    for mask in range(1, 1 << alg.n):
        if mask & (1 << alg.zero):
            continue
        expected = pts(down_set(alg, star_fold(mask)))
        if perp(space, pts(mask)) != expected:
            return CheckResult(
                "L7-DOWNSET", "fail", (("item", "(5)"), ("Y", ",".join(alg.names(mask)))))
    return None


def singleton_rule(alg, space):
    """Item (5) of L7-DOWNSET at the singletons: the least point y, in element
    order, whose row of the space differs from the point down-set of y*."""
    for i, p in enumerate(space.points):
        y_star = star(alg, alg.index(p))
        if space.rel[i] != space_mask(alg, space, down_set(alg, y_star)):
            return CheckResult("L7-DOWNSET", "fail", (("item", "(5)"), ("Y", p)))
    return None


# -- _scan_items ---------------------------------------------------------------

# Terms for the elements e0..e3 of ``blank``.
ELEMENTS = ("0", "1", ("->", "0", "0"), ("->", "0", "1"))


def blank(n):
    """An algebra on n <= 4 elements whose only role here is to name them:
    element i is the term ELEMENTS[i]."""
    return FiniteAlgebra("blank", tuple(f"e{i}" for i in range(n)),
                         tuple(tuple((x + y + 2) % n for y in range(n)) for x in range(n)), 1, 0)


def failing_at(k, bad):
    """A formula that reads the first k roles and fails exactly at the tuples
    of ``bad`` on ``blank``."""
    roles = ROLES[:k]
    return algebra._and(algebra._eq(roles[-1], roles[-1]), *(
        algebra._not(algebra._and(*(algebra._eq(r, ELEMENTS[v]) for r, v in zip(roles, tup))))
        for tup in sorted(bad)))


@pytest.mark.parametrize("arity, items, expected", [
    # A 1-ary item listed late fails first in lexicographic order.
    (3, [("late3", failing_at(3, {(0, 1, 0)})), ("early1", failing_at(1, {(0,)}))],
     (("item", "early1"), ("x", "e0"), ("y", "e0"), ("z", "e0"))),
    # A 4-ary item fails at a smaller tuple than a 1-ary item.
    (4, [("one", failing_at(1, {(1,)})), ("four", failing_at(4, {(0, 2, 1, 0)}))],
     (("item", "four"), ("x", "e0"), ("y", "e2"), ("z", "e1"), ("u", "e0"))),
    # Equal padded tuples: the item listed first wins, whatever its arity.
    (3, [("two", failing_at(2, {(1, 0)})), ("one", failing_at(1, {(1,)}))],
     (("item", "two"), ("x", "e1"), ("y", "e0"), ("z", "e0"))),
    (3, [("one", failing_at(1, {(1,)})), ("two", failing_at(2, {(1, 0)}))],
     (("item", "one"), ("x", "e1"), ("y", "e0"), ("z", "e0"))),
    # A padded tuple loses to a longer failure that is lexicographically less.
    (2, [("one", failing_at(1, {(2,)})), ("two", failing_at(2, {(1, 2)}))],
     (("item", "two"), ("x", "e1"), ("y", "e2"))),
])
def test_scan_items_mixed_arity_cases(arity, items, expected):
    alg = blank(3)
    res = _scan_items(alg, "SYN", arity, items)
    assert res == reference_scan_items(alg, "SYN", arity, items)
    assert res.witness == expected


@st.composite
def item_lists(draw):
    n = draw(st.integers(2, 4))
    arity = draw(st.integers(1, 4))
    items = []
    for index in range(draw(st.integers(1, 5))):
        k = draw(st.integers(1, arity))
        tuples = st.tuples(*[st.integers(0, n - 1)] * k)
        bad = draw(st.sets(tuples, max_size=3))
        items.append((f"i{index}", failing_at(k, bad)))
    return n, arity, items


@settings(max_examples=300, deadline=None)
@given(case=item_lists())
def test_scan_items_matches_the_full_arity_scan(case):
    n, arity, items = case
    alg = blank(n)
    assert _scan_items(alg, "SYN", arity, items) == reference_scan_items(alg, "SYN", arity, items)


def registry_scans(monkeypatch, algebras, direct=False):
    """Run the registry on the algebras with ``_scan_items`` and
    ``_pointwise_equiv`` checked against their references on every call;
    return (check id, check arity, item or side arities, status) per call.
    ``direct`` bypasses the class preconditions."""
    calls = []

    def checking(scan, reference):
        def checked(alg, check_id, arity, items):
            res = scan(alg, check_id, arity, items)
            assert res == reference(alg, check_id, arity, items), (check_id, alg.arrow)
            calls.append((check_id, arity, tuple(arity_of(p) for _, p in items), res.status))
            return res
        return checked

    monkeypatch.setattr(theorems, "_scan_items", checking(_scan_items, reference_scan_items))
    monkeypatch.setattr(theorems, "_pointwise_equiv",
                        checking(theorems._pointwise_equiv, reference_pointwise))
    for alg in algebras:
        if not direct:
            run_all(alg)
            continue
        for fn in theorems._EVAL.values():
            try:
                fn(alg)
            except AlgebraError:
                pass
    return calls


def test_no_item_takes_more_roles_than_its_check(monkeypatch):
    calls = registry_scans(monkeypatch, [fixture(name) for name in sorted(FIXTURE_NAMES)])
    declared = {spec.check_id: spec.arity for spec in list_checks()}
    # every item check, and every pointwise one but the i-Boolean C5-ORDERS-COINCIDE
    assert len({call[0] for call in calls}) == 20 + 7
    for check_id, arity, item_arities, _ in calls:
        assert arity == declared[check_id]
        assert all(1 <= k <= arity for k in item_arities), (check_id, item_arities)


def test_registry_items_agree_on_models(monkeypatch):
    models = [m for n in (2, 4, 6) for m in enumerate_models(n, "iol")]
    registry_scans(monkeypatch, models)


def test_registry_items_agree_on_failing_tables(monkeypatch):
    # Every candidate of the unconstrained search, with each check run
    # whatever its precondition, so that most scans fail somewhere.
    tables = [c for n in range(2, 6) for c in reference_search_tables(n, ())]
    calls = registry_scans(monkeypatch, tables, direct=True)
    failing = {check_id for check_id, _, _, status in calls if status == "fail"}
    assert len(failing) >= 10


# -- the sides of the pointwise checks ------------------------------------------
#
# A pointwise check labels each side holds/fails at its failing pair with one
# lane of the side's table form.  The table forms, binders included, must be
# the rendering evaluated pair by pair, and the labels its values there.

@lru_cache(maxsize=None)
def pointwise_sides():
    """The (label, formula) sides of every pointwise check, by check id, as
    its evaluator passes them to ``_pointwise_equiv``."""
    found = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(theorems, "_pointwise_equiv",
                      lambda alg, check_id, arity, sides: found.setdefault(check_id, sides))
        for evaluate in theorems._EVAL.values():
            evaluate(fixture("ioml10"))
    return found


def rendered_table(alg, formula):
    return bytes(holds_at(alg, formula, (a, b)) for a in range(alg.n) for b in range(alg.n))


def test_pointwise_table_forms_match_their_rendering():
    # Both layouts up to PAIR_CEILING, the one-role layout above it.
    sides = {formula for found in pointwise_sides().values() for _, formula in found}
    assert len(pointwise_sides()) == 8 and len(sides) == 14
    assert sum(map(algebra._binds, sides)) == 2
    corpus = [fixture(name) for name in sorted(FIXTURE_NAMES)] + list(iols_up_to(8)) + [
        relabelled(boolean_iol(4), 4), relabelled(boolean_iol(6), 6), relabelled(mo_iol(31), 31)]
    for alg in corpus:
        for formula in sides:
            expected = rendered_table(alg, formula)
            for pair in (False, True)[:1 + (alg.n <= algebra.PAIR_CEILING)]:
                table = algebra._scan_of(formula, pair, True)(alg.tables)
                assert table == expected, (formula, alg.name, pair)
            assert algebra.table_of(alg, formula) == expected


def test_pointwise_labels_are_the_rendered_values():
    # Every pointwise check, past its precondition, on the census and on
    # one-cell mutations: its failing pair is the least at which the
    # rendered sides disagree, and each label is its side's value there.
    algs = list(iols_up_to(8)) + [alg for _, alg in mutants(300, 3)]
    labels = set()
    for alg in algs:
        for check_id, sides in pointwise_sides().items():
            res = theorems._EVAL[check_id](alg)
            pairs = product(range(alg.n), repeat=2)
            least = next((tup for tup in pairs
                          if len({holds_at(alg, f, tup) for _, f in sides}) > 1), None)
            assert res.passed == (least is None), (check_id, alg.arrow)
            if least is None:
                continue
            assert res.witness[:2] == (("x", alg.elements[least[0]]), ("y", alg.elements[least[1]]))
            assert res.witness[2:] == tuple((label, "holds" if holds_at(alg, f, least) else "fails")
                                            for label, f in sides), (check_id, alg.arrow)
            labels.update((check_id, *label) for label in res.witness[2:])
    assert {(check_id, label) for check_id, label, _ in labels} == {
        (check_id, label) for check_id, sides in pointwise_sides().items() for label, _ in sides}
    # Both binder sides of T4-SP-COMPOSE are read holding and failing.
    assert {("T4-SP-COMPOSE", side, value) for side in ("(b)", "(c)")
            for value in ("holds", "fails")} <= labels


# -- compiled formulas ---------------------------------------------------------

LONG_ROW_BUDGET = 5000  # tuples per reference scan on the large i-OLs


def random_tables(count, seed, sizes=(1, 7)):
    """Tables with arbitrary entries and constants, n in the closed range
    ``sizes``, 1..7 by default: almost every formula fails, most of them
    early."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(*sizes)
        arrow = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
        yield FiniteAlgebra(f"rand{k}", tuple(f"e{i}" for i in range(n)), arrow,
                            rng.randrange(n), rng.randrange(n))


def long_rows():
    """Relabelled 2^4..2^6, MO_7 and MO_15 (16 to 64 elements), and seeded
    one-cell mutations of the 16-element ones."""
    rng = random.Random(17)
    large = [relabelled(boolean_iol(k), k) for k in (4, 5, 6)]
    large += [relabelled(mo_iol(m), m) for m in (7, 15)]
    for alg in (large[0], large[3]) * 4:
        free = [i for i in range(alg.n) if i not in (alg.one, alg.zero)]
        arrow = [list(row) for row in alg.arrow]
        arrow[rng.choice(free)][rng.choice(free)] = rng.randrange(alg.n)
        large.append(FiniteAlgebra(f"{alg.name}-mut", alg.elements, tuple(map(tuple, arrow)),
                                   alg.one, alg.zero))
    return large


CORPORA = {
    "fixtures": lambda: [fixture(name) for name in sorted(FIXTURE_NAMES)],
    "iols": lambda: list(iols_up_to(8)),
    "mutations": lambda: [alg for _, alg in mutants(60, 11)],
    "long-rows": long_rows,
    "random": lambda: list(random_tables(200, 13)),
}


def test_every_formula_keeps_its_lambda():
    assert set(theorems._FORMULAS) == set(REFERENCE)
    for key, formula in theorems._FORMULAS.items():
        assert arity_of(formula) == arity_of(REFERENCE[key]), key


@pytest.mark.parametrize("corpus", CORPORA)
def test_formulas_match_their_lambdas(corpus):
    outcomes = set()
    for alg in CORPORA[corpus]():
        for key, formula in theorems._FORMULAS.items():
            ref = REFERENCE[key]
            if alg.n ** arity_of(ref) > LONG_ROW_BUDGET:
                continue
            tup = first_failure(alg, formula)
            assert tup == reference_first_failure(alg, ref), (key, alg.name, alg.arrow)
            outcomes.add(tup is None)
    assert outcomes == {True, False}


OPERATIONS = ("->", "->", "->", *sorted(set(algebra.DERIVED) - algebra.RELATIONS))


@st.composite
def formulas(draw, depth=3, roles=ROLES, binder=False):
    """A random formula over the roles, 0 and 1, with every connective and
    binders, whose bodies may also read the bound element, and with every
    derived head, nested and under binders.  With ``binder``, the formula
    contains a binder."""
    def element(d, atoms):
        if d == 0 or draw(st.integers(0, 2)) == 0:
            return draw(st.sampled_from(atoms))
        return (draw(st.sampled_from(OPERATIONS)), element(d - 1, atoms), element(d - 1, atoms))

    def formula(d, atoms, binder=False):
        # With ``binder``, a connective passes it on to one of its operands,
        # and at depth 0 the formula is a binder.
        kinds = ("not", "and", "or", "iff", "all") if binder else (
            "=", "=", "rel", "not", "and", "or", "iff", "all")
        kind = draw(st.sampled_from(kinds))
        if kind == "rel":
            return (draw(st.sampled_from(sorted(algebra.RELATIONS))),
                    element(1, atoms), element(1, atoms))
        if binder and d == 0:
            return ("all", BOUND, formula(0, atoms + (BOUND,)))
        if d == 0 or kind == "=" or kind == "all" and BOUND in atoms:
            return ("=", element(2, atoms), element(2, atoms))
        if kind == "all":
            return ("all", BOUND, formula(d - 1, atoms + (BOUND,)))
        if kind == "not":
            return ("not", formula(d - 1, atoms, binder))
        parts = 2 if kind == "iff" else draw(st.integers(2, 3))
        carrier = draw(st.integers(0, parts - 1)) if binder else -1
        return (kind, *(formula(d - 1, atoms, i == carrier) for i in range(parts)))

    return formula(depth, roles + ("0", "1"), binder)


@settings(max_examples=400, deadline=None)
@given(formula=formulas(), table=st.integers(0, 10 ** 6))
def test_compiled_formula_matches_its_rendering(formula, table):
    # The row scan against the tuple-by-tuple evaluation of the rendered
    # formula, on a random table with n = 1..7; a formula with a binder is
    # scanned over all of its roles, with the bound element as the row.
    assume(formula_roles(formula))
    alg = next(random_tables(1, table))
    value = evaluator_of(formula)
    expected = next((tup for tup in product(range(alg.n), repeat=len(formula_roles(formula)))
                     if not value(alg.arrow, alg.zero, alg.one, *tup)), None)
    assert first_failure(alg, formula) == expected


# -- the symmetric-loop rule ---------------------------------------------------
#
# An equation whose right side is its left side with the first two roles
# exchanged scans the second role above the first only.  The least failing
# tuple must still be the one a tuple-by-tuple evaluation of the rendered
# formula finds, on formulas that swap under x <-> y and on near misses.

def rendered_first_failure(alg, formula):
    value = evaluator_of(formula)
    return next((tup for tup in product(range(alg.n), repeat=len(formula_roles(formula)))
                 if not value(alg.arrow, alg.zero, alg.one, *tup)), None)


@lru_cache(maxsize=None)
def constructions():
    """Relabelled i-OLs of 16 to 64 elements built by ``tests/conftest.py``."""
    return (relabelled(boolean_iol(4), 4), relabelled(mo_iol(7), 7), relabelled(hexagons(4), 4),
            relabelled(direct_product(mo_iol(2), boolean_iol(2)), 24),
            relabelled(boolean_iol(5), 5), relabelled(mo_iol(15), 15),
            relabelled(boolean_iol(6), 6), relabelled(mo_iol(31), 31))


def mutated(alg, cell):
    """The algebra with arrow[i][j] = v for (i, j, v) = cell mod n, if any."""
    if cell is None:
        return alg
    arrow = [bytearray(row) for row in alg.arrow]
    i, j, v = (k % alg.n for k in cell)
    arrow[i][j] = v
    return FiniteAlgebra(alg.name, alg.elements, tuple(arrow), alg.one, alg.zero)


@settings(max_examples=150, deadline=None)
@given(formula=formulas(), pick=st.integers(0, 7),
       cell=st.none() | st.tuples(*[st.integers(0, 63)] * 3))
def test_compiled_formula_matches_its_rendering_at_scale(formula, pick, cell):
    # Long rows: the constructions, and one-cell mutations of them.
    assume(0 < len(formula_roles(formula)) <= 2)
    alg = mutated(constructions()[pick], cell)
    assert first_failure(alg, formula) == rendered_first_failure(alg, formula)


@st.composite
def three_role_formulas(draw):
    """A random formula that reads z, so that its scan can read a row or a
    column at a vector two loops outer than its index.  One in three is
    the negated equivalence of a formula over x and y with it, which
    compiles to the xor of a scalar and a vector."""
    formula = draw(formulas(roles=("x", "y", "z")))
    if draw(st.integers(0, 2)) == 0:
        formula = ("not", ("iff", draw(formulas(depth=1, roles=("x", "y"))), formula))
    return formula


@settings(max_examples=300, deadline=None)
@given(formula=three_role_formulas(), pick=st.integers(0, 2),
       cell=st.none() | st.tuples(*[st.integers(0, 17)] * 3))
def test_compiled_three_role_formula_matches_its_rendering_at_scale(formula, pick, cell):
    # Three roles reach a row or column read at a vector two loops outer
    # than its index; on the constructions of 16 and 18 elements.
    assume(len(formula_roles(formula)) == 3)
    alg = mutated(constructions()[pick], cell)
    assert first_failure(alg, formula) == rendered_first_failure(alg, formula)


# -- the kept-gather rule --------------------------------------------------------
#
# In the one-role layout a row gathered at a vector one loop outer than its
# index, a computed scalar, is kept by the index's value until the vector
# changes.  Every registry formula and projection-family law whose scan
# keeps such a gather must find the rendering's least failing tuple on the
# constructions of 17 to 32 elements, and on one-cell mutations of them,
# where the formula fails after rows that filled the kept gathers.

KEPT_MUTATIONS = 8  # seeded one-cell mutations per construction
KEPT_BUDGET = 400_000  # tuples per rendered scan


def kept_gathers(scan) -> bool:
    """Whether a compiled scan keeps gathers: its dicts are the locals m<k>."""
    return any(name[0] == "m" and name[1:].isdigit() for name in scan.__code__.co_varnames)


@lru_cache(maxsize=None)
def kept_gather_formulas():
    candidates = {**theorems._FORMULAS, **{("laws", law): f for law, _, f in SASAKI_SET_LAWS}}
    return {key: formula for key, formula in candidates.items()
            if kept_gathers(algebra._scan_of(formula, False))}


def kept_gather_tables():
    """The constructions of 17 to 32 elements, each followed by seeded
    one-cell mutations of it, flagged True."""
    rng = random.Random(41)
    for alg in constructions():
        if algebra.PAIR_CEILING < alg.n <= 32:
            yield alg, False
            for _ in range(KEPT_MUTATIONS):
                yield mutated(alg, [rng.randrange(alg.n) for _ in range(3)]), True


def test_ss1_scan_keeps_its_gathers():
    ss1 = SASAKI_SET_LAWS[0][2]
    assert kept_gathers(algebra._scan_of(ss1, False))
    assert not kept_gathers(algebra._scan_of(ss1, True))  # the pair layout has no such rule
    assert {("laws", "SS1"), ("P6-FULL-FORMULA", "SS1")} <= set(kept_gather_formulas())


def test_kept_gathers_match_the_rendering():
    formulas = kept_gather_formulas()
    failing_mutants = set()
    for alg, mutant in kept_gather_tables():
        assert not alg.tables.pair
        for key, formula in formulas.items():
            if alg.n ** len(formula_roles(formula)) > KEPT_BUDGET:
                continue
            expected = rendered_first_failure(alg, formula)
            assert first_failure(alg, formula) == expected, (key, alg.name, alg.arrow)
            if mutant and expected is not None:
                failing_mutants.add(key)
    assert failing_mutants == set(formulas)


@st.composite
def element_terms(draw, atoms=("x", "y", "z", "0", "1"), depth=3):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(atoms))
    return ("->", draw(element_terms(atoms, depth - 1)), draw(element_terms(atoms, depth - 1)))


@st.composite
def swap_equations(draw):
    """lhs = rhs where lhs reads z, and rhs is lhs under x <-> y, under
    another exchange of two roles, or under x <-> y with one leaf replaced."""
    term = draw(element_terms())
    lhs = ("->", term, "z") if draw(st.booleans()) else ("->", "z", term)
    kind = draw(st.sampled_from(("xy", "xy", "xz", "yz", "xy-mutated")))
    rhs = algebra._swap_roles(lhs, *(("x", "y") if kind.startswith("xy") else tuple(kind)))
    if kind == "xy-mutated":
        rhs = ("->", rhs[1], draw(st.sampled_from(("x", "y", "0", "1"))))
    return ("=", lhs, rhs)


@settings(max_examples=400, deadline=None)
@given(formula=swap_equations(), table=st.integers(0, 10 ** 6))
def test_symmetric_scan_matches_its_rendering(formula, table):
    alg = next(random_tables(1, table))
    assert first_failure(alg, formula) == rendered_first_failure(alg, formula)


def test_be4_witness_on_tables_with_forced_cells():
    # Tables that keep BE1-BE3 and boundedness, so that BE4 fails past its
    # first few tuples, at an x below y as well as at one above it.
    be4 = algebra._eq(*algebra.AXIOMS["BE4"][1:])
    assert algebra._swap_roles(be4[1], "x", "y") == be4[2]
    rng = random.Random(29)
    orders = set()
    for k in range(300):
        n = rng.randint(2, 6)
        arrow = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        for x in range(n):
            arrow[x][x] = arrow[x][n - 1] = arrow[0][x] = n - 1
            arrow[n - 1][x] = x
        alg = FiniteAlgebra(f"forced{k}", tuple(f"e{i}" for i in range(n)),
                            tuple(map(tuple, arrow)), n - 1, 0)
        tup = first_failure(alg, be4)
        assert tup == rendered_first_failure(alg, be4), alg.arrow
        if tup:
            orders.add(tup[0] < tup[1])
    assert orders == {True}


@pytest.mark.parametrize("alg", [relabelled(boolean_iol(6), 6), relabelled(mo_iol(31), 31)],
                         ids=lambda a: a.name)
def test_symmetric_scan_on_one_cell_mutations(alg):
    be4 = algebra._eq(*algebra.AXIOMS["BE4"][1:])
    assert first_failure(alg, be4) is None
    rng = random.Random(alg.n)
    free = [i for i in range(alg.n) if i not in (alg.one, alg.zero)]
    failing = 0
    for _ in range(8):
        arrow = [list(row) for row in alg.arrow]
        arrow[rng.choice(free)][rng.choice(free)] = rng.randrange(alg.n)
        mutant = FiniteAlgebra(alg.name, alg.elements, tuple(map(tuple, arrow)), alg.one, alg.zero)
        tup = first_failure(mutant, be4)
        assert tup == rendered_first_failure(mutant, be4)
        failing += tup is not None
    assert failing


# -- the pair layout -------------------------------------------------------------
#
# Up to PAIR_CEILING = 16 elements a scan makes its last two roles one row of
# n * n byte lanes; above it, one role.  At n = 16 the lane indices reach 255,
# and the layout changes between 16 and 17.  The pair scans must give the
# tuple-by-tuple evaluation's least failing tuple there, with binders, with
# the symmetric BE4 rule, and on one-cell mutations of relabelled B16, and
# must agree with the one-role scans of the same formulas.

def both_layouts(alg, formula):
    """The failing tuples of the one-role and the pair scan of the formula,
    each called with the algebra's derived tables."""
    return tuple(algebra._scan_of(formula, pair)(alg.tables) for pair in (False, True))


def test_every_law_and_registry_scan_on_the_one_element_table():
    # With one element every term is 0, so the one tuple decides, and its
    # rendering evaluates it.  The one-role scans gather rows at a vector of
    # one lane, which must stay a tuple of one row.
    alg = FiniteAlgebra("trivial", ("e0",), ((0,),), 0, 0)
    laws = {algebra.expand(algebra._eq(lhs, rhs)) for _, lhs, rhs in algebra.AXIOMS.values()}
    formulas = laws | set(theorems._FORMULAS.values())
    assert len(formulas) == 159
    for formula in formulas:
        at = (0,) * len(formula_roles(formula))
        expected = None if evaluator_of(formula)(alg.arrow, 0, 0, *at) else at
        assert both_layouts(alg, formula) == (expected, expected), formula
        assert first_failure(alg, formula) == expected, formula
    for key, scans in algebra.AXIOM_SCANS.items():
        assert [scan(alg.tables) for scan in scans] == [None, None], key
        assert check_axiom(alg, key).passed


@settings(max_examples=200, deadline=None)
@given(formula=formulas(roles=("x", "y", "z")), n=st.integers(8, 17),
       seed=st.integers(0, 10 ** 6))
def test_pair_layout_matches_its_rendering_on_random_tables(formula, n, seed):
    assume(formula_roles(formula))
    alg = next(random_tables(1, seed, (n, n)))
    assert first_failure(alg, formula) == rendered_first_failure(alg, formula)


@settings(max_examples=150, deadline=None)
@given(formula=formulas(roles=("x", "y", "z"), binder=True), n=st.integers(8, 17),
       seed=st.integers(0, 10 ** 6))
def test_pair_layout_matches_its_rendering_with_binders(formula, n, seed):
    assert algebra._binds(formula)
    alg = next(random_tables(1, seed, (n, n)))
    assert first_failure(alg, formula) == rendered_first_failure(alg, formula)


@settings(max_examples=200, deadline=None)
@given(formula=formulas(roles=("x", "y", "z")), seed=st.integers(0, 10 ** 6),
       cell=st.none() | st.tuples(*[st.integers(0, 15)] * 3))
def test_pair_layout_matches_its_rendering_on_b16_mutations(formula, seed, cell):
    # Near-passing tables: most formulas hold on most lanes of B16.
    assume(formula_roles(formula))
    alg = mutated(relabelled(boolean_iol(4), seed), cell)
    assert alg.n == algebra.PAIR_CEILING
    assert first_failure(alg, formula) == rendered_first_failure(alg, formula)
    one_role, pair = both_layouts(alg, formula)
    assert one_role == pair


@settings(max_examples=200, deadline=None)
@given(formula=formulas(), pick=st.integers(0, 1), cell=st.none() | st.tuples(*[st.integers(0, 15)] * 3))
def test_pair_layout_matches_the_one_role_layout_at_four_roles(formula, pick, cell):
    # Four roles are too many for the rendering at 16 elements; the two
    # layouts of one scan check each other instead.
    assume(formula_roles(formula))
    alg = mutated(constructions()[pick], cell)
    one_role, pair = both_layouts(alg, formula)
    assert one_role == pair


@settings(max_examples=200, deadline=None)
@given(formula=swap_equations(), n=st.integers(8, 17), seed=st.integers(0, 10 ** 6))
def test_symmetric_pair_scan_matches_its_rendering(formula, n, seed):
    alg = next(random_tables(1, seed, (n, n)))
    assert first_failure(alg, formula) == rendered_first_failure(alg, formula)


@pytest.mark.parametrize("seed", range(3))
def test_be4_pair_scan_on_one_cell_mutations_of_b16(seed):
    be4 = algebra._eq(*algebra.AXIOMS["BE4"][1:])
    alg = relabelled(boolean_iol(4), seed)
    rng = random.Random(seed)
    free = [i for i in range(alg.n) if i not in (alg.one, alg.zero)]
    failing = 0
    for _ in range(12):
        mutant = mutated(alg, (rng.choice(free), rng.choice(free), rng.randrange(alg.n)))
        tup = first_failure(mutant, be4)
        assert tup == rendered_first_failure(mutant, be4) == both_layouts(mutant, be4)[0]
        assert check_axiom(mutant, "BE4").witness == tuple(
            (role, mutant.elements[v]) for role, v in zip("xyz", tup or ()))
        failing += tup is not None
    assert failing


def test_binders_do_not_nest():
    inner = algebra._all(algebra._eq(BOUND, "0"))
    nested = algebra._all(algebra._and(algebra._eq("x", BOUND), inner))
    for fn in (partial(algebra._compile_scan, pair=False), partial(algebra._compile_scan, pair=True),
               lambda roles, f: render(f)):
        with pytest.raises(ValueError, match="nested binder"):
            fn(("x",), nested)


X, Y = "x", "y"
MACROS = [
    (algebra._neg(X), star),
    (algebra._veeq(X, Y), vee_q),
    (algebra._wedgeq(X, Y), wedge_q),
    (algebra._wedgep(X, Y), wedge_p),
    (algebra._le(X, Y), le),
    (algebra._lel(X, Y), le_l),
    (algebra._leq(X, Y), le_q),
    (algebra._ortho(X, Y), ortho),
    (algebra._commutes(X, Y), commutes),
    (algebra._divides(X, Y), divides),
]


@pytest.mark.parametrize("macro, fn", MACROS, ids=[fn.__name__ for _, fn in MACROS])
def test_macro_tables_match_the_functions_of_their_names(macro, fn):
    value = evaluator_of(macro)
    for alg in CORPORA["fixtures"]() + CORPORA["random"]()[:50]:
        for tup in product(range(alg.n), repeat=arity_of(fn)):
            assert value(alg.arrow, alg.zero, alg.one, *tup) == fn(alg, *tup), (alg.name, tup)


# -- L7-DOWNSET items (4) and (5) ------------------------------------------------

def mo(m):
    """MO_m: 0, 1 and m pairs of complementary atoms."""
    n = 2 * m + 2
    below = [1] + [1 | 1 << x for x in range(1, n - 1)] + [(1 << n) - 1]
    comp = [n - 1] + [x + 1 if x % 2 else x - 1 for x in range(1, n - 1)] + [0]
    return ortholattice_iol(f"mo{m}-", below, comp)


def boolean(k):
    """The Boolean algebra of the subsets of k atoms, each element its mask."""
    n = 1 << k
    below = [sum(1 << y for y in range(n) if y & ~x == 0) for x in range(n)]
    return ortholattice_iol(f"b{n}-", below, [x ^ (n - 1) for x in range(n)])


@pytest.mark.parametrize("alg", [fixture(name) for name in sorted(FIXTURE_NAMES)]
                         + [relabelled(mo(m), m) for m in (2, 4, 6)]
                         + [relabelled(hexagons(k), k) for k in (1, 2, 3)],
                         ids=lambda alg: f"{alg.name}{alg.n}")
def test_subset_items_pass_on_iols(alg):
    # Items (1)-(3) pass on an i-OL, so the check's verdict is the reference's.
    assert reference_subset_items(alg, associated_orthospace(alg)) is None
    assert run_check(alg, "L7-DOWNSET") == CheckResult("L7-DOWNSET", "pass")


def test_subset_items_pass_on_the_census():
    for alg in iols_up_to(8):
        assert reference_subset_items(alg, associated_orthospace(alg)) is None, alg.name
        assert run_check(alg, "L7-DOWNSET") == CheckResult("L7-DOWNSET", "pass"), alg.name


@pytest.mark.parametrize("alg, element", [
    pytest.param(alg, element, id=alg.name) for alg, element in (
        (fixture("benzene6"), "a"), (fixture("ioml10"), "a"),
        (relabelled(mo(3), 5), "mo3-3"), (relabelled(hexagons(2), 6), "hex2-4"))])
def test_subset_items_item5_fails_alike(monkeypatch, alg, element):
    space = without_pair(associated_orthospace(alg))
    res = singleton_rule(alg, space)
    assert res == reference_subset_items(alg, space)
    assert res.witness == (("item", "(5)"), ("Y", element))
    # The check itself reports the failing singleton as item (1) at y.
    monkeypatch.setattr(theorems, "associated_orthospace", lambda alg: space)
    assert run_check(alg, "L7-DOWNSET") == CheckResult(
        "L7-DOWNSET", "fail", (("item", "(1)"), ("x", element)))


def mutants(count, seed, cells=1):
    """Mutations of small i-OLs at one cell, or more, off the star column and
    the forced cells, so star stays an involution while meets and down-sets
    break."""
    rng = random.Random(seed)
    base = [m for n in (4, 6) for m in enumerate_models(n, "iol")]
    base += [fixture(name) for name in sorted(FIXTURE_NAMES)] + [mo(3), hexagons(2)]
    for k in range(count):
        alg = rng.choice(base)
        free = [i for i in range(alg.n) if i not in (alg.one, alg.zero)]
        arrow = [list(row) for row in alg.arrow]
        for _ in range(cells):
            arrow[rng.choice(free)][rng.choice(free)] = rng.randrange(alg.n)
        yield alg, FiniteAlgebra(f"mut{k}", alg.elements, tuple(map(tuple, arrow)),
                                 alg.one, alg.zero)


def downset_premises(alg):
    """Item (2) on every pair, down(1) the universe and x <=L x for every x:
    all that ``_l7_downset`` uses to decide items (4) and (5)."""
    down = [down_set(alg, x) for x in range(alg.n)]
    return (down[alg.one] == alg.universe_mask()
            and all(le_l(alg, x, x) for x in range(alg.n))
            and all(down[x] & down[y] == down[wedge_p(alg, x, y)]
                    for x in range(alg.n) for y in range(alg.n)))


def test_subset_items_agree_on_mutated_tables():
    # Where the premises hold, the reference reports no item (4) and raises
    # nothing, and its item (5) is the singleton rule's; where they do not,
    # the sample reaches both failures the premises exclude.
    kept, broken = 0, set()
    for parent, alg in mutants(300, 3):
        space = associated_orthospace(parent)
        try:
            res = reference_subset_items(alg, space)
        except NonLatticeError:
            res = "raised"
        if downset_premises(alg):
            kept += 1
            assert res == singleton_rule(alg, space), alg.arrow
        else:
            broken.add(res if res in (None, "raised") else res.witness[0][1])
    assert kept and {"raised", "(4)"} <= broken


# -- L7-DOWNSET and P7-CL-ISO against the perps they no longer take ------------------
#
# Both checks compare the arrow with the logic's arrow of the space row by
# row, through the family positions of the down-sets.  The bodies below take
# a perp per element and per pair instead, as the checks did before, and must
# give the same CheckResult, or raise the same error, on every space the
# checks can be handed.

def reference_downset(alg, space):
    """L7-DOWNSET items (1)-(3), with one perp per element and per pair, and
    each point down-set found by the names of its points."""
    n, zero = alg.n, alg.zero
    down = [down_set(alg, x) for x in range(n)]
    point_down = [space_mask(alg, space, d) for d in down]
    perp_of = cache(partial(perp, space))
    for x in range(n):
        lhs = perp_of(point_down[x])
        mid = point_down[star(alg, x)]
        direct = space.full() if x == zero else space.rel[x - (x > zero)]
        if not (lhs == mid == direct):
            return CheckResult("L7-DOWNSET", "fail", (("item", "(1)"), ("x", alg.elements[x])))
    meet = alg.tables["^P"]
    for x in range(n):
        for y in range(n):
            if down[x] & down[y] != down[meet[x * n + y]]:
                return CheckResult(
                    "L7-DOWNSET", "fail",
                    (("item", "(2)"), ("x", alg.elements[x]), ("y", alg.elements[y])))
            cl_arrow = perp_of(point_down[x] & perp_of(point_down[y]))
            if point_down[alg.arrow[x][y]] != cl_arrow:
                return CheckResult(
                    "L7-DOWNSET", "fail",
                    (("item", "(3)"), ("x", alg.elements[x]), ("y", alg.elements[y])))
    return CheckResult("L7-DOWNSET", "pass")


def reference_cl_iso(alg, space):
    """P7-CL-ISO with the perps of the down-sets and of A & B^perp, and each
    point down-set found by the names of its points."""
    h = [space_mask(alg, space, down_set(alg, x)) for x in range(alg.n)]
    if sorted(h) != sorted(enumerate_orthoclosed(space)) or len(set(h)) != alg.n:
        return CheckResult("P7-CL-ISO", "fail", (("map", "not a bijection"),))
    perp_of = cache(partial(perp, space))
    for x in range(alg.n):
        if perp_of(h[x]) != h[star(alg, x)]:
            return CheckResult("P7-CL-ISO", "fail", (("star-at", alg.elements[x]),))
        for y in range(alg.n):
            if perp_of(h[x] & perp_of(h[y])) != h[alg.arrow[x][y]]:
                return CheckResult(
                    "P7-CL-ISO", "fail", (("x", alg.elements[x]), ("y", alg.elements[y])))
    return CheckResult("P7-CL-ISO", "pass")


DOWNSET_REFERENCES = {"L7-DOWNSET": reference_downset, "P7-CL-ISO": reference_cl_iso}


def outcome(fn, *args):
    """fn(*args), or the type and message of the package error it raises."""
    try:
        return fn(*args)
    except AlgebraError as error:
        return type(error), str(error)


def downset_outcomes(monkeypatch, cases):
    """Assert that each check agrees with its reference on each (algebra,
    space) case, evaluated past the precondition; None stands for the
    algebra's own space.  Return the set of (check id, first witness pair)
    of the failures, or (check id, status)."""
    seen = set()
    for alg, space in cases:
        if space is None:
            monkeypatch.undo()
            own = outcome(associated_orthospace, alg)
            expected = {check_id: own if isinstance(own, tuple) else reference(alg, own)
                        for check_id, reference in DOWNSET_REFERENCES.items()}
        else:
            monkeypatch.setattr(theorems, "associated_orthospace", lambda alg: space)
            expected = {check_id: outcome(reference, alg, space)
                        for check_id, reference in DOWNSET_REFERENCES.items()}
        for check_id, reference in expected.items():
            res = outcome(theorems._EVAL[check_id], alg)
            assert res == reference, (check_id, alg.name, alg.arrow, space)
            if isinstance(res, CheckResult):
                seen.add((check_id, res.witness[0] if res.failed else res.status))
    monkeypatch.undo()
    return seen


def test_downset_checks_match_their_perp_bodies_on_iols(monkeypatch):
    census = [alg for n in (2, 4, 6, 8, 10) for alg in enumerate_models(n, "iol")]
    fixtures = [fixture(name) for name in sorted(FIXTURE_NAMES)]
    assert downset_outcomes(monkeypatch, ((alg, None) for alg in fixtures + census)) == {
        ("L7-DOWNSET", "pass"), ("P7-CL-ISO", "pass")}


def test_downset_checks_match_their_perp_bodies_on_mutants(monkeypatch):
    # Each mutant with its own space, where it is still an i-OL, and with
    # that of the i-OL it was mutated from.
    cases = [case for parent, alg in mutants(300, 3)
             for case in ((alg, None), (alg, associated_orthospace(parent)))]
    seen = downset_outcomes(monkeypatch, cases)
    assert {("L7-DOWNSET", ("item", tag)) for tag in ("(1)", "(2)", "(3)")} <= seen
    assert {("P7-CL-ISO", ("map", "not a bijection")), ("P7-CL-ISO", "pass")} <= seen
    assert any(check_id == "P7-CL-ISO" and witness[0] == "x" for check_id, witness in seen)


def test_downset_reports_item_2_before_item_3_at_one_pair(monkeypatch):
    # Three-cell mutants over the space of the i-OL they come from: where
    # items (2) and (3) both fail first at one pair, item (2) is reported.
    cases = [(alg, associated_orthospace(parent)) for parent, alg in mutants(300, 5, cells=3)]
    assert downset_outcomes(monkeypatch, cases)
    both = 0
    for alg, space in cases:
        res = reference_downset(alg, space)
        if res.witness[:1] == (("item", "(2)"),):
            x, y = (alg.index(value) for _, value in res.witness[1:])
            points = partial(space_mask, alg, space)
            arrow = perp(space, points(down_set(alg, x)) & perp(space, points(down_set(alg, y))))
            both += points(down_set(alg, alg.arrow[x][y])) != arrow
    assert both


def test_downset_checks_match_their_perp_bodies_on_substituted_spaces(monkeypatch):
    # The spaces without their first pair, and the mutated benzene6 arrows
    # of ``test_theorems.py`` over benzene6's space.
    algs = [fixture(name) for name in sorted(FIXTURE_NAMES)]
    algs += [relabelled(mo(3), 5), relabelled(hexagons(2), 6)]
    cases = [(alg, without_pair(associated_orthospace(alg))) for alg in algs]
    benzene6 = fixture("benzene6")
    for cell in (("b", "c", "a"), ("a", "a", "b")):
        x, y, value = map(benzene6.index, cell)
        arrow = [bytearray(row) for row in benzene6.arrow]
        arrow[x][y] = value
        mutant = FiniteAlgebra("benzene6-mut", benzene6.elements, tuple(arrow),
                               benzene6.one, benzene6.zero)
        cases.append((mutant, associated_orthospace(benzene6)))
    seen = downset_outcomes(monkeypatch, cases)
    assert {("L7-DOWNSET", ("item", "(1)")), ("P7-CL-ISO", ("map", "not a bijection")),
            ("L7-DOWNSET", ("item", "(2)")), ("L7-DOWNSET", ("item", "(3)"))} <= seen


@pytest.mark.parametrize("alg", [boolean(4), relabelled(mo(7), 7), relabelled(hexagons(4), 4)],
                         ids=lambda alg: f"{alg.name}{alg.n}")
def test_downset_passes_above_fourteen_elements(alg):
    # The subset items are decided without a walk over the 2^n subsets.
    assert alg.n > 14
    assert run_check(alg, "L7-DOWNSET") == CheckResult("L7-DOWNSET", "pass")


# -- the projection-family checks against the bodies they replace -------------------
#
# P6-SS-PROPS, P6-SS-ARROW, P6-FULL-FORMULA and T5-SP-CENTER-MONOID were loops
# over ProjectionMap families before they became formulas over map roles.  The
# loops are kept below as whole-check references, and the verdicts must agree
# wherever phi_0 is the constant 0 and phi_1 the identity, as on every i-OL:
# there the trivial family {0, id} is {phi_0, phi_1}.

def reference_families(alg):
    fams = [("trivial", trivial_projection_family(alg))]
    if classify(alg).is_ioml:
        fams.append(("canonical", canonical_projection_family(alg)))
    return fams


def reference_ss_props(alg):
    for fam_name, maps in reference_families(alg):
        for k, phi in enumerate(maps):
            lbl = phi.label or f"#{k}"
            if any(phi.image[phi.image[x]] != phi.image[x] for x in range(alg.n)):
                return CheckResult(
                    "P6-SS-PROPS", "fail",
                    (("item", "(3)"), ("family", fam_name), ("map", lbl)))
            for x in range(alg.n):
                lhs = phi.image[x] == alg.zero
                rhs = le_l(alg, x, star(alg, phi.image[alg.one]))
                if lhs != rhs:
                    return CheckResult(
                        "P6-SS-PROPS", "fail",
                        (("item", "(5)"), ("family", fam_name), ("map", lbl),
                         ("x", alg.elements[x])))
                for y in range(alg.n):
                    if ortho(alg, phi.image[x], phi.image[y]) and not ortho(alg, x, phi.image[y]):
                        return CheckResult(
                            "P6-SS-PROPS", "fail",
                            (("item", "(6)"), ("family", fam_name), ("map", lbl),
                             ("x", alg.elements[x]), ("y", alg.elements[y])))
                    if ortho(alg, phi.image[x], y) != ortho(alg, x, phi.image[y]):
                        return CheckResult(
                            "P6-SS-PROPS", "fail",
                            (("item", "(7)"), ("family", fam_name), ("map", lbl),
                             ("x", alg.elements[x]), ("y", alg.elements[y])))
            for m, psi in enumerate(maps):
                plbl = psi.label or f"#{m}"
                if phi.image[alg.one] == psi.image[alg.one] and phi.image != psi.image:
                    return CheckResult(
                        "P6-SS-PROPS", "fail",
                        (("item", "(2)"), ("family", fam_name), ("map", lbl),
                         ("other", plbl)))
                if le_l(alg, phi.image[alg.one], psi.image[alg.one]):
                    for x in range(alg.n):
                        if phi.image[psi.image[x]] != phi.image[x] or \
                                psi.image[phi.image[x]] != phi.image[x]:
                            return CheckResult(
                                "P6-SS-PROPS", "fail",
                                (("item", "(1)"), ("family", fam_name),
                                 ("map", lbl), ("other", plbl),
                                 ("x", alg.elements[x])))
                    if psi.image[phi.image[alg.one]] != phi.image[alg.one]:
                        return CheckResult(
                            "P6-SS-PROPS", "fail",
                            (("item", "(4)"), ("family", fam_name),
                             ("map", lbl), ("other", plbl)))
    return CheckResult("P6-SS-PROPS", "pass")


def reference_ss_arrow(alg):
    for fam_name, maps in reference_families(alg):
        for k, phi in enumerate(maps):
            for x in range(alg.n):
                for y in range(alg.n):
                    lhs = phi.image[alg.arrow[x][y]]
                    rhs = alg.arrow[star(alg, phi.image[star(alg, x)])][phi.image[y]]
                    if lhs != rhs:
                        return CheckResult(
                            "P6-SS-ARROW", "fail",
                            (("family", fam_name), ("map", phi.label or f"#{k}"),
                             ("x", alg.elements[x]), ("y", alg.elements[y])))
    return CheckResult("P6-SS-ARROW", "pass")


def reference_full_formula(alg):
    """Raises PreconditionError off an i-OL, through ``check_sasaki_set``."""
    maps = canonical_projection_family(alg)
    if not check_sasaki_set(alg, maps).passed or not is_full(alg, maps):
        return CheckResult("P6-FULL-FORMULA", "fail", (("family", "canonical"),))
    by_top = {phi.image[alg.one]: phi for phi in maps}
    for x in range(alg.n):
        phi = by_top[x]
        for y in range(alg.n):
            if phi.image[y] != wedge_q(alg, y, x):
                return CheckResult(
                    "P6-FULL-FORMULA", "fail",
                    (("x", alg.elements[x]), ("y", alg.elements[y])))
    return CheckResult("P6-FULL-FORMULA", "pass")


def sp_center_monoid_check(alg):
    """Over S = {phi_a : a central}: composition stays in S, commutes, has
    phi_1 as identity, and phi_a o phi_b = phi_(a ^Q b).  The function of
    ``sasaki`` that T5-SP-CENTER-MONOID called, less its i-OML guard and with
    the center read pair by pair, so that it runs on any table."""
    cen = sum(1 << a for a in range(alg.n) if central(alg, a))
    maps = {a: ProjectionMap(tuple(wedge_q(alg, x, a) for x in range(alg.n)))
            for a in iter_bits(cen)}
    for a, phi in maps.items():
        for b, psi in maps.items():
            ab = wedge_q(alg, a, b)
            if not cen & (1 << ab):
                return CheckResult(
                    "center-monoid",
                    "fail",
                    (("x", alg.elements[a]), ("y", alg.elements[b]), ("meet", alg.elements[ab])),
                )
            left = compose(phi, psi)
            right = compose(psi, phi)
            target = maps[ab]
            if left.image != right.image or left.image != target.image:
                return CheckResult(
                    "center-monoid",
                    "fail",
                    (("x", alg.elements[a]), ("y", alg.elements[b])),
                )
    identity = maps.get(alg.one)
    if identity is None or identity.image != tuple(range(alg.n)):
        return CheckResult("center-monoid", "fail", (("identity", "1"),))
    return CheckResult("center-monoid", "pass")


WHOLE_CHECKS = {
    "T5-SP-CENTER-MONOID": sp_center_monoid_check,
    "P6-SS-PROPS": reference_ss_props,
    "P6-SS-ARROW": reference_ss_arrow,
    "P6-FULL-FORMULA": reference_full_formula,
}


def family_premise(alg):
    """x ^Q 0 = 0 and x ^Q 1 = x for every x."""
    return all(wedge_q(alg, x, alg.zero) == alg.zero and wedge_q(alg, x, alg.one) == x
               for x in range(alg.n))


def whole_check_verdicts(algebras):
    """Assert that each check, called directly, gives its reference's
    verdict on each algebra where the reference gives one; return the
    (check id, status) pairs compared."""
    compared = set()
    for alg in algebras:
        for check_id, reference in WHOLE_CHECKS.items():
            try:
                expected = reference(alg).status
            except AlgebraError:
                continue
            assert theorems._EVAL[check_id](alg).status == expected, (check_id, alg.arrow)
            compared.add((check_id, expected))
    return compared


def test_family_checks_match_their_references_on_the_census():
    census = list(iols_up_to(8)) + enumerate_models(10, "iol")
    assert len(census) == 24
    compared = whole_check_verdicts(census)
    # Only P6-FULL-FORMULA fails on an i-OL: the canonical family of one
    # that is not orthomodular breaks the family laws.
    assert compared == {(check_id, "pass") for check_id in WHOLE_CHECKS} | {
        ("P6-FULL-FORMULA", "fail")}


def test_family_checks_match_their_references_on_long_rows():
    compared = whole_check_verdicts(long_rows())
    assert {status for _, status in compared} == {"pass", "fail"}


def any_cell_mutants(count, seed):
    """One-cell mutations, at any cell, of the base algebras of ``mutants``."""
    rng = random.Random(seed)
    base = [m for n in (4, 6) for m in enumerate_models(n, "iol")]
    base += [fixture(name) for name in sorted(FIXTURE_NAMES)] + [mo(3), hexagons(2)]
    for k in range(count):
        alg = rng.choice(base)
        arrow = [list(row) for row in alg.arrow]
        arrow[rng.randrange(alg.n)][rng.randrange(alg.n)] = rng.randrange(alg.n)
        yield FiniteAlgebra(f"cell{k}", alg.elements, tuple(map(tuple, arrow)), alg.one, alg.zero)


def test_family_checks_match_their_references_on_mutations():
    # The verdicts must agree where the premise holds.  No one-cell mutation
    # that keeps it breaks the trivial family's arrow law, but random tables
    # that keep it do.  Some trivial items cannot fail under the premise at
    # all ((2) would need 0 = 1), so every formula's failure is sought over
    # the whole sample.
    sample = list(any_cell_mutants(1000, 17)) + list(random_tables(1000, 3))
    compared = whole_check_verdicts(alg for alg in sample if family_premise(alg))
    assert {(check_id, "fail") for check_id in WHOLE_CHECKS} <= compared
    for key, formula in theorems._FORMULAS.items():
        if key[0] in WHOLE_CHECKS:
            assert any(first_failure(alg, formula) is not None for alg in sample), key
