"""Orthogonality spaces attached to an algebra and their orthoclosed-set logic.

Points are the nonzero elements; x _|_ y holds exactly when x* = x -> y.
Subsets are bit masks over the point order.  The family of orthoclosed sets
is generated as all intersections of point-perps together with the full
point set, which is sound because every orthoclosed set is a perp and perp
turns unions into intersections.

``associated_orthospace`` checks ``require_iol``; the rest works on the space
alone.  ``block_boolean_family`` lives in ``sasaki``, beside the test it uses.

Each ``recorded`` function of a whole space fills one entry of the space's
``record`` on first use: the orthoclosed family and its positions, which
``closed_index`` reads, the perp of each member, its logic's arrow over the
positions and the logic as an algebra, the blocks, and the normality and
Sasaki-space verdicts.  The record is released with its space.

``perp``, ``orthoclosure`` and ``is_orthoclosed`` act on one subset.  The
entry points that read a whole family do not call them once per pair: the
perp of a member is computed once, in ``closed_perps``, which
``logic_arrow``, ``is_normal``, ``sasaki.is_sasaki_space`` and the registry
check L7-NORMAL-CRIT read, and ``is_normal`` remembers the perp of every
cell it takes across the partitions of all blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache, partial, wraps
from itertools import combinations
from typing import Callable

from .algebra import (
    CheckResult,
    FiniteAlgebra,
    InputError,
    ResourceLimitError,
    check_axiom,
    classify,
    gather,
    iter_bits,
    lane_mask,
    popcount,
    require_iol,
    validate_algebra,
)
from .documents import check_element_names

BLOCK_PARTITION_CAP = 20  # block size above which the 2^|E| partition scan aborts
FAMILY_CAP = 100_000  # orthoclosed-family size cap


@dataclass(frozen=True)
class OrthoSpace:
    """Point names plus a symmetric irreflexive relation as per-point masks.
    ``record`` takes no part in equality, hashing or repr."""

    points: tuple[str, ...]
    rel: tuple[int, ...]
    record: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.points)
        if len(set(self.points)) != n:
            dupes = sorted({p for p in self.points if self.points.count(p) > 1})
            raise InputError(f"duplicate point names {dupes}")
        if len(self.rel) != n:
            raise InputError("relation size does not match point count")
        for i, row in enumerate(self.rel):
            if row >> n:
                raise InputError("relation mask exceeds the point universe")
            if row & (1 << i):
                raise InputError(f"relation is not irreflexive at {self.points[i]}")
            for j in iter_bits(row):
                if not self.rel[j] & (1 << i):
                    raise InputError(
                        f"relation is not symmetric at ({self.points[i]}, {self.points[j]})"
                    )

    @property
    def n(self) -> int:
        return len(self.points)

    def full(self) -> int:
        return (1 << self.n) - 1

    def index(self, name: str) -> int:
        try:
            return self.points.index(name)
        except ValueError:
            raise InputError(f"unknown point {name!r}") from None

    def mask(self, names) -> int:
        m = 0
        for name in names:
            m |= 1 << self.index(name)
        return m

    def names(self, mask: int) -> tuple[str, ...]:
        return tuple(self.points[i] for i in iter_bits(mask))

    def subset_name(self, mask: int) -> str:
        return "{" + ",".join(self.names(mask)) + "}"

    @classmethod
    def _unchecked(cls, points: tuple[str, ...], rel: tuple[int, ...]) -> "OrthoSpace":
        """A space whose relation is symmetric and irreflexive by
        construction, as ``associated_orthospace`` builds it: no check."""
        space = object.__new__(cls)
        for name, value in (("points", points), ("rel", rel), ("record", {})):
            object.__setattr__(space, name, value)
        return space

    @staticmethod
    def from_pairs(points: tuple[str, ...], pairs) -> "OrthoSpace":
        rel = [0] * len(points)
        idx = {p: i for i, p in enumerate(points)}
        for x, y in pairs:
            for p in (x, y):
                if p not in idx:
                    raise InputError(f"unknown point {p!r}")
            rel[idx[x]] |= 1 << idx[y]
            rel[idx[y]] |= 1 << idx[x]
        return OrthoSpace(points, tuple(rel))


# The function that computes each entry of a space's record, by entry name.
RECORDED: dict[str, Callable[[OrthoSpace], object]] = {}


def recorded(build):
    """``build(space)`` as the space's record entry under the function's name,
    built on first use; an error is not recorded, so a next call raises it."""
    name = build.__name__
    RECORDED[name] = build

    @wraps(build)
    def entry(space: OrthoSpace):
        if name not in space.record:
            space.record[name] = RECORDED[name](space)
        return space.record[name]

    return entry


@lru_cache(maxsize=None)
def associated_orthospace(alg: FiniteAlgebra) -> OrthoSpace:
    """The orthogonality space on X \\ {0} with x _|_ y iff x* = x -> y: the
    perp of a point is its row of the _|_ table less the 0 lane, as a mask.
    On an i-OL only 0 is orthogonal to itself (x -> x = 1 = x* only at 0),
    so the relation is irreflexive, and x _|_ y iff x <= y* iff y <= x*, so
    it is symmetric: the space is built without re-checking either."""
    require_iol(alg)
    z = alg.zero
    rows = (row[:z] + row[z + 1:] for x, row in enumerate(alg.tables.rows("_|_")) if x != z)
    return OrthoSpace._unchecked(alg.elements[:z] + alg.elements[z + 1:],
                                 tuple(map(lane_mask, rows)))


def perp(space: OrthoSpace, members: int) -> int:
    """A^perp: everything orthogonal to all of A; perp of the empty set is
    the full point set."""
    acc = space.full()
    for i in iter_bits(members):
        acc &= space.rel[i]
    return acc


def orthoclosure(space: OrthoSpace, members: int) -> int:
    return perp(space, perp(space, members))


def is_orthoclosed(space: OrthoSpace, members: int) -> bool:
    return orthoclosure(space, members) == members


@recorded
def enumerate_orthoclosed(space: OrthoSpace) -> tuple[int, ...]:
    """All orthoclosed subsets, sorted by (cardinality, mask value).

    Close {X'} under intersection with point-perps; every perp is such an
    intersection and every orthoclosed set is a perp."""
    family = {space.full()}
    frontier = [space.full()]
    while frontier:
        base = frontier.pop()
        for i in range(space.n):
            refined = base & space.rel[i]
            if refined not in family:
                if len(family) >= FAMILY_CAP:
                    raise ResourceLimitError(
                        f"orthoclosed family exceeds cap {FAMILY_CAP}"
                    )
                family.add(refined)
                frontier.append(refined)
    return tuple(sorted(family, key=lambda m: (popcount(m), m)))


@recorded
def _closed_positions(space: OrthoSpace) -> dict[int, int]:
    return {m: i for i, m in enumerate(enumerate_orthoclosed(space))}


def closed_index(space: OrthoSpace, mask: int) -> int:
    """The position of an orthoclosed set in ``enumerate_orthoclosed``."""
    try:
        return _closed_positions(space)[mask]
    except KeyError:
        raise InputError(f"subset {mask:#x} is not orthoclosed") from None


@recorded
def closed_perps(space: OrthoSpace) -> tuple[int, ...]:
    """The perp of each member of ``enumerate_orthoclosed``, in family order.
    Every perp is orthoclosed, so each is a member again, and the tuple is
    the star of the orthoclosed-set logic."""
    return tuple(perp(space, m) for m in enumerate_orthoclosed(space))


@recorded
def logic_arrow(space: OrthoSpace) -> tuple[tuple[int, ...], ...]:
    """The arrow of the orthoclosed-set logic, A -> B = (A & B^perp)^perp, over
    the positions of ``enumerate_orthoclosed``: lane j of row i is the
    position of member i -> member j.

    The family is closed under intersection, so every A & B^perp is a
    member, and its perp is read from ``closed_perps``: row A is the masks
    A & B^perp over the members B, gathered through one table that maps
    each member to the position of its perp."""
    members, perps = enumerate_orthoclosed(space), closed_perps(space)
    arrow_of = dict(zip(members, gather(_closed_positions(space), perps)))
    return tuple(gather(arrow_of, [*map(a.__and__, perps)]) for a in members)


@recorded
def cl_algebra(space: OrthoSpace) -> FiniteAlgebra:
    """The orthoclosed-set logic as an algebra: ``logic_arrow``, each member
    named by its points, the empty set as 0 and the full point set as 1."""
    names = tuple(map(space.subset_name, enumerate_orthoclosed(space)))
    # Point names may contain commas and braces, so two subsets can share one.
    check_element_names("CL", names)
    logic = FiniteAlgebra("CL", names, logic_arrow(space),
                          closed_index(space, space.full()), closed_index(space, 0))
    validate_algebra(logic)
    return logic


def is_dacey(space: OrthoSpace) -> CheckResult:
    """Dacey space: the orthoclosed-set logic is orthomodular.  A failure
    carries the orthomodularity witness inside that logic."""
    logic = cl_algebra(space)
    if classify(logic).is_ioml:
        return CheckResult("dacey", "pass")
    return CheckResult("dacey", "fail", check_axiom(logic, "IOM").witness)


@recorded
def blocks(space: OrthoSpace) -> tuple[int, ...]:
    """Maximal sets of mutually orthogonal points, sorted canonically.

    A point orthogonal to nothing never joins a larger block; such points
    are reported as singleton blocks only when the whole relation is empty,
    so a discrete space still decomposes into its points.
    """
    live = 0
    for i, row in enumerate(space.rel):
        if row:
            live |= 1 << i
    if not live:
        return tuple(1 << i for i in range(space.n))
    found: list[int] = []

    def bron_kerbosch(clique: int, cand: int, done: int) -> None:
        if not cand and not done:
            found.append(clique)
            return
        pivot = next(iter_bits(cand | done))
        for v in iter_bits(cand & ~space.rel[pivot]):
            bit = 1 << v
            bron_kerbosch(clique | bit, cand & space.rel[v], done & space.rel[v])
            cand &= ~bit
            done |= bit

    bron_kerbosch(0, live, 0)
    return tuple(sorted(found, key=lambda m: (popcount(m), m)))


def _two_cell_partitions(block: int):
    """The two-cell partitions (E1, E2) of the block with |E1| <= |E2|, by
    the size of E1 and then its points.  Both normality tests (``is_normal``,
    L7-NORMAL-CRIT) are symmetric in the cells, so the first failing ordered
    pair of cells has the smaller cell first."""
    bits = list(iter_bits(block))
    for r in range(1, len(bits) // 2 + 1):
        for combo in combinations(bits, r):
            e1 = 0
            for i in combo:
                e1 |= 1 << i
            yield e1, block & ~e1


@recorded
def is_normal(space: OrthoSpace) -> CheckResult:
    """Normality: for every block and every two-cell partition (E1, E2) of
    it, the pair (E1^perpperp, E2^perpperp) must be a decomposition, that is
    perp(E1) = E2^perpperp and perp(E2) = E1^perpperp, both non-empty.
    Equivalently, it is the unique decomposition extending (E1, E2); the
    registry check L7-NORMAL-CRIT cross-checks the two readings.  The hexagon
    space fails at the partition ({a},{d}) of the block {a,d}.

    Cells recur across the blocks, so the perp of each cell is computed once
    per call.  perp(E1) and perp(E2) are members of the family, so their
    perps are read from ``closed_perps``."""
    perp_of = cache(partial(perp, space))
    closed_perp = dict(zip(enumerate_orthoclosed(space), closed_perps(space)))
    for block in blocks(space):
        if popcount(block) > BLOCK_PARTITION_CAP:
            raise ResourceLimitError(
                f"block {space.subset_name(block)} exceeds partition cap"
                f" {BLOCK_PARTITION_CAP}"
            )
        for e1, e2 in _two_cell_partitions(block):
            p1, p2 = perp_of(e1), perp_of(e2)
            ok = p1 != 0 and p2 != 0 and p1 == closed_perp[p2] and p2 == closed_perp[p1]
            if not ok:
                return CheckResult(
                    "normal",
                    "fail",
                    (
                        ("block", space.subset_name(block)),
                        ("cell", space.subset_name(e1)),
                    ),
                )
    return CheckResult("normal", "pass")

