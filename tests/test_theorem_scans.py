"""The registry's two sized scans against the straightforward scans they
replace.

``_scan_items`` runs each item at the arity of its own predicate; the
reference runs every item over all tuples of the check's arity, in
lexicographic order, items in listed order, and reports the first failure.
``_subset_items`` makes one incremental pass over the subsets for items (4)
and (5) of L7-DOWNSET; the reference rebuilds every intersection, meet and
perp mask by mask.  Verdicts, witnesses and raised errors must agree.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

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
from orthologic.algebra import CheckResult, NonLatticeError, big_meet, down_set, iter_bits, star
from orthologic.enumeration import _search_tables
from orthologic.fixtures import FIXTURE_NAMES
from orthologic.orthospace import perp
from orthologic.theorems import _scan_items, _space_masks, _subset_items

from conftest import hexagons, ortholattice_iol, relabelled, without_pair

ROLES = ("x", "y", "z", "u")


def arity_of(pred):
    return pred.__code__.co_argcount - 1


def reference_scan_items(alg, check_id, arity, items):
    """The full-arity scan: every item sees every tuple of the check's
    arity, and reads the prefix its predicate takes."""
    roles = ROLES[:arity]
    for tup in product(range(alg.n), repeat=arity):
        for tag, pred in items:
            if not pred(alg, *tup[:arity_of(pred)]):
                witness = (("item", tag),) + tuple(
                    (r, alg.elements[v]) for r, v in zip(roles, tup))
                return CheckResult(check_id, "fail", witness)
    return CheckResult(check_id, "pass")


def reference_subset_items(alg, space):
    """Items (4) and (5) of L7-DOWNSET, mask by mask."""

    def pts(mask):
        return _space_masks(alg, space, mask)

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


def sized_subset_items(alg, space):
    down = [down_set(alg, x) for x in range(alg.n)]
    return _subset_items(alg, space, down, [_space_masks(alg, space, d) for d in down])


def outcome(fn, *args):
    try:
        return fn(*args)
    except NonLatticeError as exc:
        return ("raised", str(exc))


# -- _scan_items ---------------------------------------------------------------

def blank(n):
    """An algebra whose only role here is to name n elements."""
    return FiniteAlgebra("blank", tuple(f"e{i}" for i in range(n)),
                         ((0,) * n,) * n, 1, 0)


def failing_at(k, bad):
    bad = frozenset(bad)
    return (
        lambda a, x: (x,) not in bad,
        lambda a, x, y: (x, y) not in bad,
        lambda a, x, y, z: (x, y, z) not in bad,
        lambda a, x, y, z, u: (x, y, z, u) not in bad,
    )[k - 1]


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
    """Run the registry on the algebras with ``_scan_items`` checked against
    the reference on every call; return (check id, check arity, item
    arities, status) per call.  ``direct`` bypasses the class preconditions."""
    calls = []

    def checked(alg, check_id, arity, items):
        res = _scan_items(alg, check_id, arity, items)
        assert res == reference_scan_items(alg, check_id, arity, items), alg.arrow
        calls.append((check_id, arity, tuple(arity_of(pred) for _, pred in items), res.status))
        return res

    monkeypatch.setattr(theorems, "_scan_items", checked)
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
    assert len({call[0] for call in calls}) == 16  # every scanning check
    for check_id, arity, item_arities, _ in calls:
        assert arity == declared[check_id]
        assert all(1 <= k <= arity for k in item_arities), (check_id, item_arities)


def test_registry_items_agree_on_models(monkeypatch):
    models = [m for n in (2, 4, 6) for m in enumerate_models(n, "iol")]
    registry_scans(monkeypatch, models)


def test_registry_items_agree_on_failing_tables(monkeypatch):
    # Every candidate of the unconstrained search, with each check run
    # whatever its precondition, so that most scans fail somewhere.
    tables = [c for n in range(2, 6) for c in _search_tables(n, frozenset())]
    calls = registry_scans(monkeypatch, tables, direct=True)
    failing = {check_id for check_id, _, _, status in calls if status == "fail"}
    assert len(failing) >= 10


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
    space = associated_orthospace(alg)
    assert reference_subset_items(alg, space) is None
    assert sized_subset_items(alg, space) is None


@pytest.mark.parametrize("alg", [fixture("benzene6"), fixture("ioml10"),
                                 relabelled(mo(3), 5), relabelled(hexagons(2), 6)],
                         ids=lambda alg: alg.name)
def test_subset_items_item5_fails_alike(alg):
    space = without_pair(associated_orthospace(alg))
    res = sized_subset_items(alg, space)
    assert res == reference_subset_items(alg, space)
    assert res.witness[0] == ("item", "(5)")


def mutants(count, seed):
    """One-cell mutations of small i-OLs off the star column and the forced
    cells, so star stays an involution while meets and down-sets break."""
    rng = random.Random(seed)
    base = [m for n in (4, 6) for m in enumerate_models(n, "iol")]
    base += [fixture(name) for name in sorted(FIXTURE_NAMES)] + [mo(3), hexagons(2)]
    for k in range(count):
        alg = rng.choice(base)
        free = [i for i in range(alg.n) if i not in (alg.one, alg.zero)]
        arrow = [list(row) for row in alg.arrow]
        arrow[rng.choice(free)][rng.choice(free)] = rng.randrange(alg.n)
        yield alg, FiniteAlgebra(f"mut{k}", alg.elements, tuple(map(tuple, arrow)),
                                 alg.one, alg.zero)


def test_subset_items_agree_on_mutated_tables():
    seen = set()
    for parent, alg in mutants(300, 3):
        space = associated_orthospace(parent)
        res = outcome(sized_subset_items, alg, space)
        assert res == outcome(reference_subset_items, alg, space), alg.arrow
        seen.add(res[0] if isinstance(res, tuple) else res and res.witness[0][1])
    # both failing items and the non-lattice error are reached
    assert {"raised", "(4)", "(5)"} <= seen


@pytest.mark.parametrize("alg", [boolean(4), relabelled(mo(7), 7), relabelled(hexagons(4), 4)],
                         ids=lambda alg: f"{alg.name}{alg.n}")
def test_downset_skips_its_subset_items_above_the_cap(alg):
    # Items (1)-(3) hold, and items (4)/(5) are not scanned above the cap.
    assert alg.n > theorems.SUBSET_SCAN_CAP
    skip = CheckResult("L7-DOWNSET", "skipped", (("precondition", "at most 14 elements"),))
    assert theorems._EVAL["L7-DOWNSET"](alg) == skip
    assert run_check(alg, "L7-DOWNSET") == skip
