"""Sasaki projections, commutation and divisibility, centers, and the
full projection family on top of them.

Element-level operations are defined on any table; entry points that take a
whole algebra check ``require_iol`` once.  All of them read the algebra's
derived tables (``algebra.DerivedTables``): ``commutes`` and ``divides`` one
lane of the C and D tables, ``sasaki_projection`` a column of the ^Q table,
``center`` rows of the C table, ``is_iboolean_subalgebra`` rows of the D
table, and ``non_boolean_pair`` the orthogonality table.

Each verdict has one test: ``is_iboolean_subalgebra`` decides the center,
orthogonal-pair (``orthogonal_pair_boolean_witness``, and the registry's
``non_boolean_pair``, once per distinct ``pair_hull``) and block-family
(``block_boolean_family``, whose preconditions read the space's record)
results, and ``sasaki_map_search``, one pass over the domain points, decides
every Sasaki-map question.  ``is_sasaki_space`` files its verdict in the
space's record (``orthospace.recorded``).

A projection is its image vector.  The canonical family
{phi_a : a in X} with phi_a(x) = x ^Q a decides the existence question for
full projection families: on any algebra where some full family satisfies
the three projection-family laws, that family must agree with the canonical
one pointwise, so only the canonical candidate is ever searched.  The laws
are ``SASAKI_SET_LAWS``, formulas over a map role a that names phi_a, which
the registry's P6-FULL-FORMULA check scans too; ``has_full_sasaki_set`` runs
their scans, which read the algebra's ^Q and <=L tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import (
    CheckResult,
    FiniteAlgebra,
    PreconditionError,
    ROLES,
    _eq,
    _implies,
    _lel,
    _neg,
    _wedgeq,
    first_failure,
    gather,
    iter_bits,
    ortho,
    popcount,
    require_iol,
    star,
    star_row,
    vee_p,
)
from .orthospace import (
    OrthoSpace,
    blocks,
    cl_algebra,
    closed_index,
    enumerate_orthoclosed,
    is_normal,
    is_orthoclosed,
    orthoclosure,
    perp,
    recorded,
)


@dataclass(frozen=True)
class PartialMap:
    """Result of ``sasaki_map_search``: a map defined on ``domain`` (a point
    mask), with image entries None outside it."""

    domain: int
    image: tuple[Optional[int], ...]


def sasaki_projection(alg: FiniteAlgebra, a: int) -> tuple[int, ...]:
    """The image of phi_a(x) = x ^Q a: column a of the ^Q table.  Defined on
    any table; callers check ``require_iol`` once."""
    return tuple(alg.tables["^Q"][a::alg.n])


def commutes(alg: FiniteAlgebra, x: int, y: int) -> bool:
    """x C y iff phi_x(y) = (x -> y*)*.  The orientation matters: phi_x is
    applied to y, so the relation is not symmetric outside orthomodularity.
    Defined on any table; callers check ``require_iol`` once."""
    return alg.tables["C"][x * alg.n + y] == 1


def divides(alg: FiniteAlgebra, x: int, y: int) -> bool:
    """x D y iff the pair satisfies the divisibility law
    x -> (x -> y)* = x -> y*.  Defined on any table; callers check
    ``require_iol`` once."""
    return alg.tables["D"][x * alg.n + y] == 1


def center(alg: FiniteAlgebra) -> int:
    """Mask of all elements commuting with everything: the rows of the C
    table that hold throughout.  Computed on any i-OL; outside
    orthomodularity the result need not be star-closed."""
    require_iol(alg)
    n, table = alg.n, alg.tables["C"]
    everywhere = bytes((1,)) * n
    return sum(1 << x for x in range(n) if table[x * n:x * n + n] == everywhere)


def is_subalgebra(alg: FiniteAlgebra, members: int) -> bool:
    """Contains 1 and is closed under arrow and star."""
    if not members & (1 << alg.one):
        return False
    ms = tuple(iter_bits(members))
    inside = frozenset(ms)
    return inside.issuperset(gather(star_row(alg), ms)) and all(
        inside.issuperset(gather(alg.arrow[x], ms)) for x in ms)


def is_iboolean_subalgebra(alg: FiniteAlgebra, members: int) -> CheckResult:
    """Pass iff the mask is a subalgebra whose members pairwise divide."""
    if not is_subalgebra(alg, members):
        return CheckResult("iboolean-subalgebra", "fail", (("subset", "not a subalgebra"),))
    ms, n, table = tuple(iter_bits(members)), alg.n, alg.tables["D"]
    for x in ms:
        row = gather(table[x * n:x * n + n], ms)  # 1 where x D y
        if 0 in row:
            return CheckResult(
                "iboolean-subalgebra",
                "fail",
                (("x", alg.elements[x]), ("y", alg.elements[ms[row.index(0)]])),
            )
    return CheckResult("iboolean-subalgebra", "pass")


def orthogonal_pair_boolean_witness(
    alg: FiniteAlgebra, x: int, y: int
) -> tuple[CheckResult, int]:
    """For orthogonal x, y of an i-OL: the verdict of
    ``is_iboolean_subalgebra`` on the ``pair_hull`` of x and y, and its
    mask.  No second test is needed: when the hull is an i-Boolean
    subalgebra, x, y and (x*->y)* are disjoint atoms of it, so its arrow
    table is that of the Boolean algebra they generate."""
    require_iol(alg)
    if not ortho(alg, x, y):
        raise PreconditionError(
            f"{alg.elements[x]} and {alg.elements[y]} are not orthogonal"
        )
    members = pair_hull(alg, x, y)
    verdict = is_iboolean_subalgebra(alg, members)
    return CheckResult("orthogonal-pair-boolean", verdict.status, verdict.witness), members


def pair_hull(alg: FiniteAlgebra, x: int, y: int) -> int:
    """The mask of Y = {0, x, y, x*->y, x*, y*, (x*->y)*, 1}."""
    u = vee_p(alg, x, y)
    members = 0
    for v in (alg.zero, x, y, u, star(alg, x), star(alg, y), star(alg, u), alg.one):
        members |= 1 << v
    return members


def non_boolean_pair(alg: FiniteAlgebra) -> Optional[tuple[int, int]]:
    """The least orthogonal pair (x, y), in lexicographic order, whose
    ``pair_hull`` is not an i-Boolean subalgebra; None when every
    orthogonal pair has an i-Boolean hull.  Many pairs share a hull, so
    each hull is tested once.  Defined on any table."""
    boolean_hulls, n, orthogonal = set(), alg.n, alg.tables["_|_"]
    for x in range(n):
        for y in range(n):
            if not orthogonal[x * n + y]:
                continue
            members = pair_hull(alg, x, y)
            if members not in boolean_hulls:
                if not is_iboolean_subalgebra(alg, members).passed:
                    return x, y
                boolean_hulls.add(members)
    return None


def block_boolean_family(space: OrthoSpace, block: int) -> tuple[CheckResult, tuple[int, ...]]:
    """The family {closure(A) : A subset of the block}, checked to be an
    implicative-Boolean subalgebra of the orthoclosed-set logic; the payload is
    the family in (cardinality, mask) order.  Requires a normal space and a
    block; both are read from the space's record."""
    if block not in blocks(space):
        raise PreconditionError(f"{space.subset_name(block)} is not a block")
    if not is_normal(space).passed:
        raise PreconditionError("space is not normal")
    subsets = [0]
    for i in iter_bits(block):
        subsets += [a | 1 << i for a in subsets]
    family = {orthoclosure(space, a) for a in subsets}
    members = tuple(sorted(family, key=lambda m: (popcount(m), m)))
    mask = sum(1 << closed_index(space, m) for m in members)
    verdict = is_iboolean_subalgebra(cl_algebra(space), mask)
    return CheckResult("block-boolean", verdict.status, verdict.witness), members


# ---------------------------------------------------------------------------
# Families of projections.
# ---------------------------------------------------------------------------

def _phi(a, x):
    """The Sasaki projection phi_a at x: x ^Q a."""
    return _wedgeq(x, a)


_X, _Y, _Z = ROLES[:3]

# The three projection-family laws over the canonical family, in law order,
# with the names of their roles: monotone for le_l; phi(1) <=L psi(1) forces
# phi o psi = phi; and phi((phi x)*) <=L x*.  A map role a names phi_a.
SASAKI_SET_LAWS = (
    ("SS1", ("map", "x", "y"), _implies(_lel(_Y, _Z), _lel(_phi(_X, _Y), _phi(_X, _Z)))),
    ("SS2", ("map", "other", "x"),
     _implies(_lel(_phi(_X, "1"), _phi(_Y, "1")), _eq(_phi(_X, _phi(_Y, _Z)), _phi(_X, _Z)))),
    ("SS3", ("map", "x"), _lel(_phi(_X, _neg(_phi(_X, _Y))), _neg(_Y))),
)


def has_full_sasaki_set(alg: FiniteAlgebra) -> CheckResult:
    """Decide existence of a full projection family by testing the canonical
    candidate {phi_a}: any full family satisfying the three laws computes
    phi^x(y) = y ^Q x pointwise, so the candidate is decisive and a failure
    here proves no full family exists.  The candidate is full on every
    i-OL, since phi_a(1) = 1 ^Q a = a.

    The witness is the least failing tuple of the first failing law in
    ``SASAKI_SET_LAWS``, its map roles named by their generators."""
    require_iol(alg)
    for law, roles, formula in SASAKI_SET_LAWS:
        tup = first_failure(alg, formula)
        if tup is not None:
            return CheckResult("full-sasaki-set", "fail", (("axiom", law),) + tuple(
                (role, alg.elements[v]) for role, v in zip(roles, tup)))
    return CheckResult("full-sasaki-set", "pass")


# ---------------------------------------------------------------------------
# Sasaki maps on orthogonality spaces.
# ---------------------------------------------------------------------------

def sasaki_map_search(space: OrthoSpace, closed: int) -> Optional[PartialMap]:
    """The lexicographically least map from the complement of closed^perp
    into the closed set A that fixes A and satisfies
    (phi x _|_ y iff x _|_ phi y) on every pair of domain points, or None
    when there is none.

    Fixing A allows phi(j) = c, for a domain point j outside A, exactly when
    c has the same trace on A as j: rel[c] & A == rel[j] & A.  No
    pair of points outside A restricts these candidates further: for
    phi(j) = c and phi(t) = d among them, c _|_ t and j _|_ d each hold iff
    c _|_ d, since c and d lie in A.  So any choice of candidates is a
    Sasaki map, the least candidate of each point, looked up by its trace,
    gives the lexicographically least one, and a point with no candidate
    proves that none exists.  There is no search, so the cost is the same
    under any labelling of the space."""
    if not is_orthoclosed(space, closed):
        raise PreconditionError(f"{space.subset_name(closed)} is not orthoclosed")
    # The domain contains the closed set, which is disjoint from its perp.
    domain = space.full() & ~perp(space, closed)
    least: dict[int, int] = {}
    for c in iter_bits(closed):
        least.setdefault(space.rel[c] & closed, c)
    image: list[Optional[int]] = [None] * space.n
    for j in iter_bits(domain):
        image[j] = j if closed >> j & 1 else least.get(space.rel[j] & closed)
        if image[j] is None:
            return None
    return PartialMap(domain, tuple(image))


@recorded
def is_sasaki_space(space: OrthoSpace) -> CheckResult:
    """Pass iff every orthoclosed subset admits a Sasaki map, by one
    ``sasaki_map_search`` per subset; the failure witness is the first
    subset (in canonical order) with none.  Each subset costs one pass over
    its domain points, so the verdict comes as fast under any labelling of
    the space."""
    for m in enumerate_orthoclosed(space):
        if sasaki_map_search(space, m) is None:
            return CheckResult(
                "sasaki-space", "fail", (("closed-set", space.subset_name(m)),)
            )
    return CheckResult("sasaki-space", "pass")
