"""Sasaki projections, commutation and divisibility, centers, and the
projection-family machinery on top of them.

Element-level operations are defined on any table; entry points that take a
whole algebra check ``require_iol`` once.  ``is_iboolean_subalgebra`` is the one
implicative-Boolean subalgebra test, behind the center, orthogonal-pair and
block-family (``block_boolean_family``) results; ``pair_hull_check`` is the
one route to the Boolean hull of an orthogonal pair, for the public
``orthogonal_pair_boolean_witness`` and the registry alike.

A projection is stored as its full image vector.  The canonical family
{phi_a : a in X} with phi_a(x) = x ^Q a decides the existence question for
full projection families: on any algebra where some full family satisfies
the three projection-family laws, that family must agree with the canonical
one pointwise, so only the canonical candidate is ever searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import (
    CheckResult,
    FiniteAlgebra,
    PreconditionError,
    ResourceLimitError,
    classify,
    iter_bits,
    le_l,
    node_budget,
    ortho,
    popcount,
    require_iol,
    star,
    wedge_q,
)
from .orthospace import (
    OrthoSpace,
    blocks,
    cl_algebra,
    enumerate_orthoclosed,
    is_normal,
    is_orthoclosed,
    orthoclosure,
    perp,
)


@dataclass(frozen=True)
class ProjectionMap:
    """Total self-map on the universe; ``label`` names the generator when the
    map is a Sasaki projection phi_a."""

    image: tuple[int, ...]
    label: Optional[str] = None


@dataclass(frozen=True)
class PartialMap:
    """Search state and result of the Sasaki-map backtracking: a map defined
    on ``domain`` (a point mask), with image entries None outside it."""

    domain: int
    image: tuple[Optional[int], ...]


def compose(f: ProjectionMap, g: ProjectionMap) -> ProjectionMap:
    """f after g."""
    return ProjectionMap(tuple(f.image[v] for v in g.image))


def sasaki_projection(alg: FiniteAlgebra, a: int) -> ProjectionMap:
    """phi_a(x) = x ^Q a.  Defined on any table; callers check
    ``require_iol`` once."""
    return ProjectionMap(
        tuple(wedge_q(alg, x, a) for x in range(alg.n)), alg.elements[a]
    )


def commutes(alg: FiniteAlgebra, x: int, y: int) -> bool:
    """x C y iff phi_x(y) = (x -> y*)*.  The orientation matters: phi_x is
    applied to y, so the relation is not symmetric outside orthomodularity.
    Defined on any table; callers check ``require_iol`` once."""
    return wedge_q(alg, y, x) == star(alg, alg.arrow[x][star(alg, y)])


def divides(alg: FiniteAlgebra, x: int, y: int) -> bool:
    """x D y iff the pair satisfies the divisibility law
    x -> (x -> y)* = x -> y*.  Defined on any table; callers check
    ``require_iol`` once."""
    return alg.arrow[x][star(alg, alg.arrow[x][y])] == alg.arrow[x][star(alg, y)]


def center(alg: FiniteAlgebra) -> int:
    """Mask of all elements commuting with everything.  Computed on any
    i-OL; outside orthomodularity the result need not be star-closed."""
    require_iol(alg)
    m = 0
    for x in range(alg.n):
        if all(commutes(alg, x, y) for y in range(alg.n)):
            m |= 1 << x
    return m


def is_subalgebra(alg: FiniteAlgebra, members: int) -> bool:
    """Contains 1 and is closed under arrow and star."""
    if not members & (1 << alg.one):
        return False
    for x in iter_bits(members):
        if not members & (1 << star(alg, x)):
            return False
        for y in iter_bits(members):
            if not members & (1 << alg.arrow[x][y]):
                return False
    return True


def is_iboolean_subalgebra(alg: FiniteAlgebra, members: int) -> CheckResult:
    """Pass iff the mask is a subalgebra whose members pairwise divide."""
    if not is_subalgebra(alg, members):
        return CheckResult("iboolean-subalgebra", "fail", (("subset", "not a subalgebra"),))
    for x in iter_bits(members):
        for y in iter_bits(members):
            if not divides(alg, x, y):
                return CheckResult(
                    "iboolean-subalgebra",
                    "fail",
                    (("x", alg.elements[x]), ("y", alg.elements[y])),
                )
    return CheckResult("iboolean-subalgebra", "pass")


# Arrow table of the eight-element structure spanned by an orthogonal pair,
# in the symbolic order [0, x, y, u, x*, y*, u*, 1] with u = x* -> y.
_PAIR_SYMBOLS = ("0", "x", "y", "u", "x*", "y*", "u*", "1")
_PAIR_TABLE = (
    ("1", "1", "1", "1", "1", "1", "1", "1"),
    ("x*", "1", "x*", "1", "x*", "1", "x*", "1"),
    ("y*", "y*", "1", "1", "1", "y*", "y*", "1"),
    ("u*", "y*", "x*", "1", "x*", "y*", "u*", "1"),
    ("x", "x", "u", "u", "1", "y*", "y*", "1"),
    ("y", "u", "y", "u", "x*", "1", "x*", "1"),
    ("u", "u", "u", "u", "1", "1", "1", "1"),
    ("0", "x", "y", "u", "x*", "y*", "u*", "1"),
)


def orthogonal_pair_boolean_witness(
    alg: FiniteAlgebra, x: int, y: int
) -> tuple[CheckResult, int]:
    """For orthogonal x, y of an i-OL: the verdict of ``pair_hull_check``
    and the member mask."""
    require_iol(alg)
    if not ortho(alg, x, y):
        raise PreconditionError(
            f"{alg.elements[x]} and {alg.elements[y]} are not orthogonal"
        )
    return pair_hull_check(alg, x, y)


def pair_hull_check(alg: FiniteAlgebra, x: int, y: int) -> tuple[CheckResult, int]:
    """Build Y = {0, x, y, x*->y, x*, y*, (x*->y)*, 1}, check it is a
    subalgebra with pairwise divisibility, then cross-check its arrow
    entries against the fixed eight-by-eight pattern (duplicates in Y
    collapse).  The payload is the member mask.  Defined on any table;
    ``orthogonal_pair_boolean_witness`` adds the preconditions."""
    u = alg.arrow[star(alg, x)][y]
    values = {
        "0": alg.zero,
        "x": x,
        "y": y,
        "u": u,
        "x*": star(alg, x),
        "y*": star(alg, y),
        "u*": star(alg, u),
        "1": alg.one,
    }
    members = 0
    for v in values.values():
        members |= 1 << v
    check_id = "orthogonal-pair-boolean"
    verdict = is_iboolean_subalgebra(alg, members)
    if not verdict.passed:
        return CheckResult(check_id, "fail", verdict.witness), members
    for i, row in enumerate(_PAIR_TABLE):
        for j, sym in enumerate(row):
            lhs = alg.arrow[values[_PAIR_SYMBOLS[i]]][values[_PAIR_SYMBOLS[j]]]
            if lhs != values[sym]:
                witness = (
                    ("row", _PAIR_SYMBOLS[i]),
                    ("col", _PAIR_SYMBOLS[j]),
                    ("got", alg.elements[lhs]),
                )
                return CheckResult(check_id, "fail", witness), members
    return CheckResult(check_id, "pass"), members


def block_boolean_family(space: OrthoSpace, block: int) -> tuple[CheckResult, tuple[int, ...]]:
    """The family {closure(A) : A subset of the block}, checked to be an
    implicative-Boolean subalgebra of the orthoclosed-set logic; the payload is
    the family in (cardinality, mask) order.  Requires a normal space and a block."""
    if block not in blocks(space):
        raise PreconditionError(f"{space.subset_name(block)} is not a block")
    if not is_normal(space).passed:
        raise PreconditionError("space is not normal")
    subsets = [0]
    for i in iter_bits(block):
        subsets += [a | 1 << i for a in subsets]
    family = {orthoclosure(space, a) for a in subsets}
    members = tuple(sorted(family, key=lambda m: (popcount(m), m)))
    closed = enumerate_orthoclosed(space)
    mask = sum(1 << closed.index(m) for m in members)
    verdict = is_iboolean_subalgebra(cl_algebra(space), mask)
    return CheckResult("block-boolean", verdict.status, verdict.witness), members


# ---------------------------------------------------------------------------
# Families of projections.
# ---------------------------------------------------------------------------

def check_sasaki_set(alg: FiniteAlgebra, maps: tuple[ProjectionMap, ...]) -> CheckResult:
    """The three projection-family laws: monotone for le_l; phi(1) <=L psi(1)
    forces phi o psi = phi; and phi((phi x)*) <=L x* throughout."""
    require_iol(alg)

    def name(m: ProjectionMap, k: int) -> str:
        return m.label if m.label is not None else f"#{k}"

    below = [[le_l(alg, x, y) for y in range(alg.n)] for x in range(alg.n)]
    for k, phi in enumerate(maps):
        img = phi.image
        for x in range(alg.n):
            for y in range(alg.n):
                if below[x][y] and not below[img[x]][img[y]]:
                    return CheckResult(
                        "sasaki-set",
                        "fail",
                        (
                            ("axiom", "SS1"),
                            ("map", name(phi, k)),
                            ("x", alg.elements[x]),
                            ("y", alg.elements[y]),
                        ),
                    )
    for k, phi in enumerate(maps):
        for m, psi in enumerate(maps):
            if le_l(alg, phi.image[alg.one], psi.image[alg.one]):
                for x in range(alg.n):
                    if phi.image[psi.image[x]] != phi.image[x]:
                        return CheckResult(
                            "sasaki-set",
                            "fail",
                            (
                                ("axiom", "SS2"),
                                ("map", name(phi, k)),
                                ("other", name(psi, m)),
                                ("x", alg.elements[x]),
                            ),
                        )
    for k, phi in enumerate(maps):
        for x in range(alg.n):
            if not le_l(alg, phi.image[star(alg, phi.image[x])], star(alg, x)):
                return CheckResult(
                    "sasaki-set",
                    "fail",
                    (
                        ("axiom", "SS3"),
                        ("map", name(phi, k)),
                        ("x", alg.elements[x]),
                    ),
                )
    return CheckResult("sasaki-set", "pass")


def is_full(alg: FiniteAlgebra, maps: tuple[ProjectionMap, ...]) -> bool:
    """phi |-> phi(1) is onto the universe."""
    return {phi.image[alg.one] for phi in maps} == set(range(alg.n))


def canonical_projection_family(alg: FiniteAlgebra) -> tuple[ProjectionMap, ...]:
    return tuple(sasaki_projection(alg, a) for a in range(alg.n))


def has_full_sasaki_set(alg: FiniteAlgebra) -> CheckResult:
    """Decide existence of a full projection family by testing the canonical
    candidate {phi_a}: any full family satisfying the three laws computes
    phi^x(y) = y ^Q x pointwise, so the candidate is decisive and a failure
    here proves no full family exists."""
    require_iol(alg)
    maps = canonical_projection_family(alg)
    verdict = check_sasaki_set(alg, maps)
    if not verdict.passed:
        return CheckResult("full-sasaki-set", "fail", verdict.witness)
    if not is_full(alg, maps):
        return CheckResult("full-sasaki-set", "fail", (("axiom", "fullness"),))
    return CheckResult("full-sasaki-set", "pass")


def trivial_projection_family(alg: FiniteAlgebra) -> tuple[ProjectionMap, ...]:
    """{constant 0, identity}; a projection family on every i-OL."""
    return (
        ProjectionMap(tuple(alg.zero for _ in range(alg.n)), alg.elements[alg.zero]),
        ProjectionMap(tuple(range(alg.n)), alg.elements[alg.one]),
    )


# ---------------------------------------------------------------------------
# Sasaki maps on orthogonality spaces.
# ---------------------------------------------------------------------------

def sasaki_map_search(space: OrthoSpace, closed: int) -> Optional[PartialMap]:
    """Backtracking search for a map on the complement of closed^perp that
    fixes the closed set and satisfies (phi x _|_ y iff x _|_ phi y) on every
    pair of domain points.  Domain points are filled in point order with
    codomain candidates in point order, so the first solution found is the
    lexicographically least; an exhausted search proves none exists."""
    if not is_orthoclosed(space, closed):
        raise PreconditionError(f"{space.subset_name(closed)} is not orthoclosed")
    # The domain contains the closed set, which is disjoint from its perp.
    domain = space.full() & ~perp(space, closed)
    image: list[Optional[int]] = [None] * space.n
    for i in iter_bits(closed):
        image[i] = i
    todo = list(iter_bits(domain & ~closed))
    assigned = list(iter_bits(closed))
    budget = node_budget()
    nodes = 0

    def consistent(i: int) -> bool:
        # Checks the pairs (i, j); the pairs (j, i), the self pair and the
        # pairs inside the fixed closed set follow by symmetry of the relation.
        fi = image[i]
        for j in assigned:
            if bool(space.rel[fi] & (1 << j)) != bool(space.rel[i] & (1 << image[j])):
                return False
        return True

    def extend(k: int) -> bool:
        nonlocal nodes
        if k == len(todo):
            return True
        i = todo[k]
        for cand in iter_bits(closed):
            nodes += 1
            if nodes > budget:
                raise ResourceLimitError("sasaki-map search exceeded node budget")
            image[i] = cand
            if consistent(i):
                assigned.append(i)
                if extend(k + 1):
                    return True
                assigned.pop()
            image[i] = None
        return False

    if extend(0):
        return PartialMap(domain, tuple(image))
    return None


def is_sasaki_space(space: OrthoSpace) -> CheckResult:
    """Pass iff every orthoclosed subset admits a Sasaki map; the failure
    witness is the first subset (in canonical order) with none."""
    for m in enumerate_orthoclosed(space).members:
        if sasaki_map_search(space, m) is None:
            return CheckResult(
                "sasaki-space", "fail", (("closed-set", space.subset_name(m)),)
            )
    return CheckResult("sasaki-space", "pass")


def sp_center_monoid_check(alg: FiniteAlgebra) -> CheckResult:
    """Over S = {phi_a : a central}: composition stays in S, commutes, has
    phi_1 as identity, and phi_a o phi_b = phi_(a ^Q b)."""
    if not classify(alg).is_ioml:
        return CheckResult("center-monoid", "skipped", (("precondition", "ioml"),))
    cen = center(alg)
    maps = {a: sasaki_projection(alg, a) for a in iter_bits(cen)}
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
