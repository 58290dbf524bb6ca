"""Finite ortholattices from known constructions, and their i-OL tables.

Every input the benchmark feeds to orthologic is built here from an
ortholattice L by the paper's transform x -> y := (x meet y')'.  The class
of the result follows from the construction: it is an i-OL, it is
orthomodular exactly when L is, and Boolean exactly when L is distributive.
The constructions carry those flags and the center size, and ``verify``
re-derives every flag by brute force over L, so the known answers never come
from orthologic itself.

The same brute-force code reads i-OL tables back (``from_iol``) to check the
models that ``enumerate`` and ``search`` print.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from typing import Optional


@dataclass(frozen=True)
class Ortholattice:
    """A finite ortholattice with its construction-given class.

    ``center_size`` is the size of the center as the construction gives it
    (product over factors, 2^k for Boolean, 2 for MO_m with m >= 2 and for
    horizontal sums); it is None on non-orthomodular constructions, where
    the paper gives no answer.
    """

    label: str
    names: tuple[str, ...]
    le: tuple[int, ...]  # le[x] = mask of all y with x <= y
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    comp: tuple[int, ...]
    bottom: int
    top: int
    orthomodular: bool
    boolean: bool
    center_size: Optional[int]

    @property
    def n(self) -> int:
        return len(self.names)

    def leq(self, x: int, y: int) -> bool:
        return bool(self.le[x] >> y & 1)

    def arrow(self, x: int, y: int) -> int:
        """The i-OL arrow (x meet y')'."""
        return self.comp[self.meet[x][self.comp[y]]]

    def projection(self, a: int, x: int) -> int:
        """Sasaki projection phi_a(x) = a meet (x join a')."""
        return self.meet[a][self.join[x][self.comp[a]]]

    def commutes(self, x: int, y: int) -> bool:
        """phi_x(y) = x meet y, the commutation orthologic's ``sasaki``
        reports (x C y), written in lattice terms."""
        return self.projection(x, y) == self.meet[x][y]


def _from_order(label, names, below, comp, bottom, top, orthomodular, boolean, center_size):
    """Build meet and join tables from an order given as 'below' masks
    (below[x] = all z <= x)."""
    n = len(names)
    above = [0] * n
    for x in range(n):
        for z in range(n):
            if below[x] >> z & 1:
                above[z] |= 1 << x
    by_mask = {m: x for x, m in enumerate(below)}
    up_mask = {m: x for x, m in enumerate(above)}
    meet = tuple(tuple(by_mask[below[x] & below[y]] for y in range(n)) for x in range(n))
    join = tuple(tuple(up_mask[above[x] & above[y]] for y in range(n)) for x in range(n))
    return Ortholattice(
        label, tuple(names), tuple(above), meet, join, tuple(comp), bottom, top,
        orthomodular, boolean, center_size,
    )


def boolean(k: int) -> Ortholattice:
    """The Boolean algebra 2^k on bit masks."""
    n = 1 << k
    names = [f"b{x:0{k}b}" for x in range(n)]
    below = [sum(1 << z for z in range(n) if z & x == z) for x in range(n)]
    comp = [x ^ (n - 1) for x in range(n)]
    return _from_order(f"B{n}", names, below, comp, 0, n - 1, True, True, n)


def mo(m: int) -> Ortholattice:
    """MO_m: 0, 1 and m pairs {a_i, a_i'} of mutually incomparable atoms."""
    names = ["0"] + [f"a{i}{s}" for i in range(m) for s in ("", "'")] + ["1"]
    n = len(names)
    below = [1] + [1 | 1 << x for x in range(1, n - 1)] + [(1 << n) - 1]
    comp = [n - 1] + [x + 1 if x % 2 else x - 1 for x in range(1, n - 1)] + [0]
    return _from_order(f"MO{m}", names, below, comp, 0, n - 1, True, m == 1, 2 if m >= 2 else 4)


def hexagon() -> Ortholattice:
    """The benzene ring 0 < a < b < 1, 0 < b' < a' < 1: the smallest
    ortholattice that is not orthomodular."""
    names = ["0", "a", "b", "b'", "a'", "1"]
    below = [0b000001, 0b000011, 0b000111, 0b001001, 0b011001, 0b111111]
    comp = [5, 4, 3, 2, 1, 0]
    return _from_order("hex", names, below, comp, 0, 5, False, False, None)


def product(left: Ortholattice, right: Ortholattice) -> Ortholattice:
    """Direct product, ordered componentwise."""
    pairs = [(x, y) for x in range(left.n) for y in range(right.n)]
    names = [f"{left.names[x]}.{right.names[y]}" for x, y in pairs]
    below = []
    for x, y in pairs:
        m = 0
        for k, (u, v) in enumerate(pairs):
            if left.leq(u, x) and right.leq(v, y):
                m |= 1 << k
        below.append(m)
    comp = [left.comp[x] * right.n + right.comp[y] for x, y in pairs]
    om = left.orthomodular and right.orthomodular
    center = left.center_size * right.center_size if om else None
    return _from_order(
        f"{left.label}x{right.label}", names, below, comp,
        left.bottom * right.n + right.bottom, left.top * right.n + right.top,
        om, left.boolean and right.boolean, center,
    )


def horizontal_sum(*parts: Ortholattice) -> Ortholattice:
    """Glue the bottoms and tops of two or more ortholattices; elements of
    different parts are incomparable.  With two or more parts of at least
    four elements the sum is never distributive and its center is {0, 1}."""
    assert len(parts) >= 2 and all(p.n >= 4 for p in parts)
    names = ["0"]
    index = []  # per part: part element -> sum element
    for k, p in enumerate(parts):
        local = {}
        for x in range(p.n):
            if x not in (p.bottom, p.top):
                local[x] = len(names)
                names.append(f"{p.names[x]}~{k}")
        index.append(local)
    top = len(names)
    names.append("1")
    for local, p in zip(index, parts):
        local[p.bottom], local[p.top] = 0, top
    n = len(names)
    below = [1 << x | 1 for x in range(n)]
    below[top] = (1 << n) - 1
    comp = [0] * n
    comp[0], comp[top] = top, 0
    for local, p in zip(index, parts):
        for x, sx in local.items():
            if sx in (0, top):
                continue
            comp[sx] = local[p.comp[x]]
            for z, sz in local.items():
                if p.leq(z, x):
                    below[sx] |= 1 << sz
    om = all(p.orthomodular for p in parts)
    label = "+".join(p.label for p in parts)
    return _from_order(label, names, below, comp, 0, top, om, False, 2 if om else None)


# ---------------------------------------------------------------------------
# Brute-force verification.
# ---------------------------------------------------------------------------

class LatticeError(Exception):
    """A construction or a table read back fails its brute-force check."""


def lattice_center(lat: Ortholattice) -> int:
    """Number of elements commuting (x = (x meet y) join (x meet y'))
    with every element."""
    return sum(
        all(
            lat.join[lat.meet[x][y]][lat.meet[x][lat.comp[y]]] == x
            for y in range(lat.n)
        )
        for x in range(lat.n)
    )


def is_orthomodular(lat: Ortholattice) -> bool:
    """x <= y implies y = x join (y meet x')."""
    return all(
        lat.join[x][lat.meet[y][lat.comp[x]]] == y
        for x in range(lat.n)
        for y in range(lat.n)
        if lat.leq(x, y)
    )


def is_distributive(lat: Ortholattice) -> bool:
    meet, join, n = lat.meet, lat.join, lat.n
    return all(
        meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def check_ortholattice(lat: Ortholattice) -> None:
    """Raise LatticeError unless ``lat`` is a bounded lattice order with an
    orthocomplement and meet/join tables that are its glb/lub."""
    n, le = lat.n, lat.le
    below = [sum(1 << z for z in range(n) if le[z] >> x & 1) for x in range(n)]
    for x in range(n):
        if not le[x] >> x & 1:
            raise LatticeError(f"{lat.label}: order not reflexive at {lat.names[x]}")
        if not lat.leq(lat.bottom, x) or not lat.leq(x, lat.top):
            raise LatticeError(f"{lat.label}: bounds fail at {lat.names[x]}")
        for y in range(n):
            if x != y and lat.leq(x, y) and lat.leq(y, x):
                raise LatticeError(f"{lat.label}: order not antisymmetric")
            if lat.leq(x, y) and le[y] & ~le[x]:
                raise LatticeError(f"{lat.label}: order not transitive")
            if below[lat.meet[x][y]] != below[x] & below[y]:
                raise LatticeError(f"{lat.label}: meet is not the glb")
            if le[lat.join[x][y]] != le[x] & le[y]:
                raise LatticeError(f"{lat.label}: join is not the lub")
    for x in range(n):
        c = lat.comp[x]
        if lat.comp[c] != x or lat.meet[x][c] != lat.bottom or lat.join[x][c] != lat.top:
            raise LatticeError(f"{lat.label}: comp fails at {lat.names[x]}")
        for y in range(n):
            if lat.leq(x, y) and not lat.leq(lat.comp[y], c):
                raise LatticeError(f"{lat.label}: comp not antitone")


def verify(lat: Ortholattice) -> Ortholattice:
    """Check the order, the orthocomplement and every construction-given
    flag by brute force; return ``lat`` unchanged."""
    check_ortholattice(lat)
    if is_orthomodular(lat) != lat.orthomodular:
        raise LatticeError(f"{lat.label}: orthomodular flag is wrong")
    if is_distributive(lat) != lat.boolean:
        raise LatticeError(f"{lat.label}: Boolean flag is wrong")
    if lat.orthomodular and lattice_center(lat) != lat.center_size:
        raise LatticeError(f"{lat.label}: center size is wrong")
    return lat


def from_iol(elements, arrow, one: int, zero: int) -> Ortholattice:
    """Read an i-OL table back as an ortholattice: with x* = x -> 0, the
    relation x <= y iff x = (x -> y*)* must be a bounded lattice order, x*
    an orthocomplement for it, and the table must equal (x meet y*)*.
    Raise LatticeError otherwise.  The flags are measured, not given.

    (x -> y = 1 is not the order: in MO2 it holds between distinct atoms.)"""
    n = len(elements)
    comp = tuple(arrow[x][zero] for x in range(n))
    above = [sum(1 << y for y in range(n) if comp[arrow[x][comp[y]]] == x) for x in range(n)]
    below = [sum(1 << z for z in range(n) if above[z] >> x & 1) for x in range(n)]
    by_below = {m: x for x, m in enumerate(below)}
    by_above = {m: x for x, m in enumerate(above)}
    if len(by_below) != n:
        raise LatticeError("x = (x -> y*)* is not antisymmetric")
    meet, join = [], []
    for x in range(n):
        mrow, jrow = [], []
        for y in range(n):
            m = by_below.get(below[x] & below[y])
            j = by_above.get(above[x] & above[y])
            if m is None or j is None:
                raise LatticeError("x = (x -> y*)* is not a lattice order")
            mrow.append(m)
            jrow.append(j)
        meet.append(tuple(mrow))
        join.append(tuple(jrow))
    lat = Ortholattice(
        "model", tuple(elements), tuple(above), tuple(meet), tuple(join), comp,
        zero, one, False, False, None,
    )
    check_ortholattice(lat)
    for x in range(n):
        for y in range(n):
            if arrow[x][y] != lat.arrow(x, y):
                raise LatticeError("table is not (x meet y*)*")
    om, dist = is_orthomodular(lat), is_distributive(lat)
    return Ortholattice(
        "model", lat.names, lat.le, lat.meet, lat.join, lat.comp, zero, one,
        om, dist, lattice_center(lat) if om else None,
    )


def tables_isomorphic(a, b, a_fixed: tuple[int, int], b_fixed: tuple[int, int]) -> bool:
    """Brute force over every bijection sending a's (zero, one) to b's."""
    n = len(a)
    if len(b) != n:
        return False
    a_mid = [x for x in range(n) if x not in a_fixed]
    b_mid = [x for x in range(n) if x not in b_fixed]
    for perm in permutations(b_mid):
        f = dict(zip(a_mid, perm))
        f[a_fixed[0]], f[a_fixed[1]] = b_fixed
        if all(f[a[x][y]] == b[f[x]][f[y]] for x in range(n) for y in range(n)):
            return True
    return False


def signature(lat: Ortholattice) -> tuple:
    """An isomorphism invariant; distinct signatures prove two lattices
    non-isomorphic."""
    cover_counts = sorted(
        (bin(lat.le[x]).count("1"), sum(
            1 for y in range(lat.n)
            if y != x and lat.leq(x, y)
            and not any(z not in (x, y) and lat.leq(x, z) and lat.leq(z, y) for z in range(lat.n))
        ))
        for x in range(lat.n)
    )
    return (lat.n, is_orthomodular(lat), is_distributive(lat), lattice_center(lat), tuple(cover_counts))


# ---------------------------------------------------------------------------
# Documents.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Input:
    """One relabelled i-OL document and the lattice it came from.

    ``order[i]`` is the lattice element stored at document position i.
    """

    name: str
    lattice: Ortholattice
    order: tuple[int, ...]

    def document(self) -> dict:
        lat = self.lattice
        names = [lat.names[x] for x in self.order]
        return {
            "name": self.name,
            "elements": names,
            "one": lat.names[lat.top],
            "zero": lat.names[lat.bottom],
            "arrow": [[lat.names[lat.arrow(x, y)] for y in self.order] for x in self.order],
        }


def relabelled(lat: Ortholattice, name: str, rng: random.Random) -> Input:
    """The lattice's i-OL under a random element order."""
    order = list(range(lat.n))
    rng.shuffle(order)
    return Input(name, lat, tuple(order))
