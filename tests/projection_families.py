"""Projection families as explicit lists of maps, the reference for
``sasaki.has_full_sasaki_set``.

``check_sasaki_set`` tests the three projection-family laws on any family of
``ProjectionMap`` values, with whole-row gathers; ``has_full_sasaki_set``
scans the same laws as formulas over the canonical family and must give the
same verdict and witness on it.  ``tests/test_row_kernels.py`` checks
``check_sasaki_set`` itself against a pair-by-pair reference.
"""

from dataclasses import dataclass
from itertools import compress, repeat
from operator import getitem
from typing import Optional

from orthologic.algebra import (
    CheckResult,
    FiniteAlgebra,
    _first_diff,
    gather,
    le_l,
    require_iol,
    star_row,
)
from orthologic.sasaki import sasaki_projection


@dataclass(frozen=True)
class ProjectionMap:
    """Total self-map on the universe; ``label`` names the generator when the
    map is a Sasaki projection phi_a."""

    image: tuple[int, ...]
    label: Optional[str] = None


def compose(f: ProjectionMap, g: ProjectionMap) -> ProjectionMap:
    """f after g."""
    return ProjectionMap(tuple(f.image[v] for v in g.image))


def check_sasaki_set(alg: FiniteAlgebra, maps: tuple[ProjectionMap, ...]) -> CheckResult:
    """The three projection-family laws: monotone for le_l; phi(1) <=L psi(1)
    forces phi o psi = phi; and phi((phi x)*) <=L x* throughout.

    Each law is tested on whole rows: phi is monotone at x iff the up-set of
    phi(x) contains phi's image of the up-set of x; phi o psi is one gather;
    and phi((phi x)*) <=L x* is one row of le_l values over x.  The first
    failing row names the least failing tuple, in the order map, x, y."""
    require_iol(alg)

    def fail(*witness: tuple[str, str]) -> CheckResult:
        return CheckResult("sasaki-set", "fail", witness)

    def name(m: ProjectionMap, k: int) -> str:
        return m.label if m.label is not None else f"#{k}"

    n, elements = alg.n, alg.elements
    below = [tuple(le_l(alg, x, y) for y in range(n)) for x in range(n)]
    above = [tuple(compress(range(n), row)) for row in below]
    up = [frozenset(ys) for ys in above]
    for k, phi in enumerate(maps):
        img = phi.image
        monotone = (*map(frozenset.issuperset, gather(up, img), map(gather, repeat(img), above)),)
        if False in monotone:
            x = monotone.index(False)
            y = next(y for y in above[x] if img[y] not in up[img[x]])
            return fail(("axiom", "SS1"), ("map", name(phi, k)),
                        ("x", elements[x]), ("y", elements[y]))
    tops = tuple(phi.image[alg.one] for phi in maps)
    for k, phi in enumerate(maps):
        for m in compress(range(len(maps)), gather(below[tops[k]], tops)):
            composed = gather(phi.image, maps[m].image)
            if composed != phi.image:
                x = _first_diff(bytes(composed), bytes(phi.image))
                return fail(("axiom", "SS2"), ("map", name(phi, k)),
                            ("other", name(maps[m], m)), ("x", elements[x]))
    stars = star_row(alg)
    for k, phi in enumerate(maps):
        img = phi.image
        kept = (*map(getitem, gather(below, gather(img, gather(stars, img))), stars),)
        if False in kept:
            return fail(("axiom", "SS3"), ("map", name(phi, k)),
                        ("x", elements[kept.index(False)]))
    return CheckResult("sasaki-set", "pass")


def is_full(alg: FiniteAlgebra, maps: tuple[ProjectionMap, ...]) -> bool:
    """phi |-> phi(1) is onto the universe."""
    return {phi.image[alg.one] for phi in maps} == set(range(alg.n))


def canonical_projection_family(alg: FiniteAlgebra) -> tuple[ProjectionMap, ...]:
    return tuple(ProjectionMap(sasaki_projection(alg, a), alg.elements[a]) for a in range(alg.n))


def trivial_projection_family(alg: FiniteAlgebra) -> tuple[ProjectionMap, ...]:
    """{constant 0, identity}; a projection family on every i-OL."""
    return (
        ProjectionMap(tuple(alg.zero for _ in range(alg.n)), alg.elements[alg.zero]),
        ProjectionMap(tuple(range(alg.n)), alg.elements[alg.one]),
    )
