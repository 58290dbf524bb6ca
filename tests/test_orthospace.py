import gc
import weakref
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from orthologic import (
    InputError,
    PreconditionError,
    associated_orthospace,
    block_boolean_family,
    blocks,
    check_axiom,
    cl_algebra,
    classify,
    enumerate_orthoclosed,
    fixture,
    is_dacey,
    is_normal,
    is_orthoclosed,
    orthoclosure,
    perp,
    run_all,
    wedge_q,
)
from orthologic import orthospace
from orthologic.cli import main
from orthologic.fixtures import FIXTURE_NAMES
from orthologic.orthospace import OrthoSpace, _two_cell_partitions
from orthologic.algebra import ortho, popcount

from conftest import (
    boolean_iol,
    iols_up_to,
    mo_iol,
    ordered_partitions,
    random_spaces,
    reference_is_normal,
    relabelled,
)
from published_tables import CL_ARROW_BENZENE6, CL_KEY


def mask_of(space, names):
    return space.mask(names)


# -- the associated space -----------------------------------------------------

def test_benzene6_perps(benzene6_space):
    sp = benzene6_space
    expected = {"a": {"c", "d"}, "b": {"d"}, "c": {"a"}, "d": {"a", "b"}, "1": set()}
    for i, p in enumerate(sp.points):
        assert set(sp.names(sp.rel[i])) == expected[p]


def test_sasaki6_perps(sasaki6_space):
    sp = sasaki6_space
    expected = {"a": {"d"}, "b": {"c"}, "c": {"b"}, "d": {"a"}, "1": set()}
    for i, p in enumerate(sp.points):
        assert set(sp.names(sp.rel[i])) == expected[p]


def test_one_is_isolated_everywhere(algebras):
    for alg in algebras.values():
        sp = associated_orthospace(alg)
        assert sp.rel[sp.index("1")] == 0


def test_spaces_of_iols_equal_their_checked_construction(algebras):
    # associated_orthospace skips the symmetry and irreflexivity check; the
    # checked constructor accepts each of its spaces and builds an equal one.
    for alg in [*algebras.values(), *iols_up_to(8),
                relabelled(boolean_iol(6), 6), relabelled(mo_iol(31), 31)]:
        space = associated_orthospace(alg)
        assert OrthoSpace(space.points, space.rel) == space, alg.name
        pairs = [(space.points[i], q) for i, row in enumerate(space.rel) for q in space.names(row)]
        assert OrthoSpace.from_pairs(space.points, pairs) == space, alg.name


@pytest.mark.parametrize("rel, message", [((0b10, 0), r"not symmetric at \(a, b\)"),
                                          ((0b01, 0), "not irreflexive at a")])
def test_spaces_built_directly_are_still_checked(rel, message):
    with pytest.raises(InputError, match=message):
        OrthoSpace(("a", "b"), rel)


def test_spaces_reject_unknown_and_duplicate_points_when_built():
    with pytest.raises(InputError, match="unknown point 'c'"):
        OrthoSpace.from_pairs(("a", "b"), [("a", "c")])
    with pytest.raises(InputError, match=r"duplicate point names \['a'\]"):
        OrthoSpace(("a", "a"), (2, 1))
    with pytest.raises(InputError, match=r"duplicate point names \['a'\]"):
        OrthoSpace.from_pairs(("a", "b", "a"), [])
    assert OrthoSpace((), ()).n == 0


def test_space_rejects_non_iol():
    from orthologic.enumeration import counterexample_search, goal_from_names

    bad = counterexample_search(goal_from_names([], ["iG"], 2, 4))
    with pytest.raises(PreconditionError):
        associated_orthospace(bad)


# -- perp and orthoclosure ----------------------------------------------------

def test_perp_examples(benzene6_space):
    sp = benzene6_space
    assert set(sp.names(perp(sp, mask_of(sp, ["a", "b"])))) == {"d"}
    assert perp(sp, 0) == sp.full()
    assert perp(sp, sp.full()) == 0


def test_orthoclosure_examples(benzene6_space):
    sp = benzene6_space
    assert orthoclosure(sp, mask_of(sp, ["a"])) == mask_of(sp, ["a"])
    assert set(sp.names(orthoclosure(sp, mask_of(sp, ["c"])))) == {"c", "d"}


def test_closure_operator_laws_on_fixture_spaces(algebras):
    for alg in algebras.values():
        sp = associated_orthospace(alg)
        for members in range(1 << sp.n):
            c = orthoclosure(sp, members)
            assert members & ~c == 0  # extensive
            assert orthoclosure(sp, c) == c  # idempotent
            assert perp(sp, members) == perp(sp, c)


def test_perp_antitone_on_fixture_spaces(algebras):
    for alg in algebras.values():
        sp = associated_orthospace(alg)
        for a in range(1 << sp.n):
            pa = perp(sp, a)
            for bit in range(sp.n):
                b = a | (1 << bit)
                assert perp(sp, b) & ~pa == 0


# -- orthoclosed families -----------------------------------------------------

def brute_force_family(space):
    """Independent oracle: scan every subset for A = A^perpperp."""
    return sorted(
        m for m in range(1 << space.n) if orthoclosure(space, m) == m
    )


@pytest.mark.parametrize("name", sorted(FIXTURE_NAMES))
def test_family_matches_brute_force(name):
    sp = associated_orthospace(fixture(name))
    assert sorted(enumerate_orthoclosed(sp)) == brute_force_family(sp)


def test_benzene6_family(benzene6_space):
    sp = benzene6_space
    fam = enumerate_orthoclosed(sp)
    assert len(fam) == 6
    expected = [set(), {"a"}, {"d"}, {"a", "b"}, {"c", "d"}, {"a", "b", "c", "d", "1"}]
    assert [set(sp.names(m)) for m in fam] == expected


def test_sasaki6_family(sasaki6_space):
    sp = sasaki6_space
    fam = enumerate_orthoclosed(sp)
    assert [set(sp.names(m)) for m in fam] == [
        set(), {"a"}, {"b"}, {"c"}, {"d"}, {"a", "b", "c", "d", "1"},
    ]


def test_family_is_closed_under_meet_and_perp(algebras):
    for alg in algebras.values():
        sp = associated_orthospace(alg)
        fam = enumerate_orthoclosed(sp)
        assert 0 in fam and sp.full() in fam
        for a in fam:
            assert perp(sp, a) in fam
            for b in fam:
                assert a & b in fam


# -- the orthoclosed-set logic -------------------------------------------------

def test_cl_algebra_reproduces_published_table(benzene6_space):
    logic = cl_algebra(benzene6_space)
    fam = enumerate_orthoclosed(benzene6_space)
    # position of each symbolic member in the computed element order
    pos = {}
    for sym, pts in CL_KEY.items():
        mask = benzene6_space.mask(sorted(pts))
        pos[sym] = fam.index(mask)
    assert sorted(pos.values()) == list(range(6))
    for i, row in enumerate(CL_ARROW_BENZENE6):
        syms = row.split()
        row_sym = ["E", "A", "B", "C", "D", "F"][i]
        for j, out_sym in enumerate(syms):
            col_sym = ["E", "A", "B", "C", "D", "F"][j]
            assert logic.arrow[pos[row_sym]][pos[col_sym]] == pos[out_sym]


def test_cl_algebra_spot_values(benzene6_space):
    sp = benzene6_space
    logic = cl_algebra(sp)
    fam = enumerate_orthoclosed(sp)
    A = fam.index(sp.mask(["a"]))
    B = fam.index(sp.mask(["d"]))
    C = fam.index(sp.mask(["a", "b"]))
    D = fam.index(sp.mask(["c", "d"]))
    assert logic.arrow[A][B] == D
    assert logic.arrow[D][C] == C
    lab = classify(logic)
    assert lab.is_iol and not lab.is_ioml
    # the orthomodularity failure inside the logic: A meet (B -> A) = C
    assert wedge_q(logic, A, logic.arrow[B][A]) == C


def test_cl_algebra_is_iol_for_all_fixtures(algebras):
    for alg in algebras.values():
        logic = cl_algebra(associated_orthospace(alg))
        assert classify(logic).is_iol
        assert check_axiom(logic, "impl").passed
        assert check_axiom(logic, "DN").passed


def test_sasaki6_logic_is_orthomodular(sasaki6_space):
    assert classify(cl_algebra(sasaki6_space)).is_ioml


# -- Dacey classification -----------------------------------------------------

def test_is_dacey(benzene6_space, sasaki6_space, ioml10):
    res = is_dacey(benzene6_space)
    assert res.failed
    assert res.witness == (("x", "{a}"), ("y", "{d}"))
    assert is_dacey(sasaki6_space).passed
    assert is_dacey(associated_orthospace(ioml10)).passed


def test_ortho_iff_meet_zero_only_under_orthomodularity(algebras):
    for name, alg in algebras.items():
        if classify(alg).is_ioml:
            for x in range(alg.n):
                for y in range(alg.n):
                    assert ortho(alg, x, y) == (wedge_q(alg, x, y) == alg.zero)
    bz = algebras["benzene6"]
    b, c = bz.index("b"), bz.index("c")
    assert wedge_q(bz, b, c) == bz.zero and not ortho(bz, b, c)


def test_ortho_meet_char_of_orthomodularity(algebras):
    from orthologic.algebra import star

    for alg in algebras.values():
        holds = all(
            not ortho(alg, x, y) or wedge_q(alg, x, star(alg, y)) == x
            for x in range(alg.n)
            for y in range(alg.n)
        )
        assert holds == classify(alg).is_ioml
    bz = algebras["benzene6"]
    a, d = bz.index("a"), bz.index("d")
    assert ortho(bz, a, d)
    assert bz.elements[wedge_q(bz, a, star(bz, d))] == "b"


# -- blocks --------------------------------------------------------------------

def test_benzene6_blocks(benzene6_space):
    sp = benzene6_space
    assert {frozenset(sp.names(b)) for b in blocks(sp)} == {
        frozenset({"a", "c"}), frozenset({"a", "d"}), frozenset({"b", "d"}),
    }


def test_sasaki6_blocks(sasaki6_space):
    sp = sasaki6_space
    assert {frozenset(sp.names(b)) for b in blocks(sp)} == {
        frozenset({"a", "d"}), frozenset({"b", "c"}),
    }


def test_discrete_space_blocks_are_singletons():
    sp = OrthoSpace.from_pairs(("p", "q", "r"), [])
    assert blocks(sp) == (1, 2, 4)


def test_blocks_are_maximal_cliques(algebras):
    for alg in algebras.values():
        sp = associated_orthospace(alg)
        for blk in blocks(sp):
            members = [i for i in range(sp.n) if blk >> i & 1]
            for x in members:
                for y in members:
                    assert x == y or sp.rel[x] >> y & 1
            for z in range(sp.n):
                if not blk >> z & 1:
                    assert not all(sp.rel[z] >> m & 1 for m in members)


# -- normality -----------------------------------------------------------------

def decompositions(sp):
    fam = enumerate_orthoclosed(sp)
    return [
        (a, b)
        for a in fam
        for b in fam
        if a and b and perp(sp, a) == b and perp(sp, b) == a
    ]


def normal_by_unique_decomposition(sp):
    """Independent oracle: the unique-decomposition reading, checked against
    every decomposition of the space."""
    deco = decompositions(sp)
    for blk in blocks(sp):
        for e1, e2 in ordered_partitions(blk):
            extensions = [(a, b) for a, b in deco if e1 & ~a == 0 and e2 & ~b == 0]
            if len(extensions) != 1:
                return False
    return True


@pytest.mark.parametrize("name", sorted(FIXTURE_NAMES))
def test_normality_criterion_agrees_with_oracle(name):
    sp = associated_orthospace(fixture(name))
    assert is_normal(sp).passed == normal_by_unique_decomposition(sp)


def test_hexagon_space_is_not_normal(benzene6_space):
    # Two distinct decompositions extend the ({a},{d}) partition of the
    # block {a,d}: ({a},{c,d}) and ({a,b},{d}).  Uniqueness fails, and the
    # perp-criterion fails at the same partition.
    sp = benzene6_space
    res = is_normal(sp)
    assert res.failed
    assert res.witness == (("block", "{a,d}"), ("cell", "{a}"))
    e1, e2 = sp.mask(["a"]), sp.mask(["d"])
    extensions = [
        (a, b) for a, b in decompositions(sp) if e1 & ~a == 0 and e2 & ~b == 0
    ]
    assert {tuple(map(sp.subset_name, ext)) for ext in extensions} == {
        ("{a}", "{c,d}"), ("{a,b}", "{d}"),
    }


def test_hexagon_block_ac_partition_has_the_published_decomposition(benzene6_space):
    sp = benzene6_space
    e1, e2 = sp.mask(["a"]), sp.mask(["c"])
    extensions = [
        (a, b) for a, b in decompositions(sp) if e1 & ~a == 0 and e2 & ~b == 0
    ]
    assert extensions == [(sp.mask(["a"]), sp.mask(["c", "d"]))]
    assert perp(sp, e1) == orthoclosure(sp, e2)
    assert perp(sp, e2) == orthoclosure(sp, e1)


def test_two_cell_partitions_are_the_ordered_ones_with_the_smaller_first_cell():
    for block in (0b1, 0b11, 0b111, 0b10110, 0b111111):
        assert list(_two_cell_partitions(block)) == [
            (e1, e2) for e1, e2 in ordered_partitions(block) if popcount(e1) <= popcount(e2)]


def test_normality_fails_at_the_first_ordered_partition():
    wide = 0
    for space in random_spaces(300, seed=1):
        verdict = is_normal(space)
        assert verdict == reference_is_normal(space), space
        wide += verdict.failed and verdict.witness[0][1].count(",") > 1
    assert wide  # failures at blocks where the cells differ in size


def test_ioml_fixture_spaces_are_normal(algebras):
    for name in ("ioml10", "ioml6-full", "sasaki6"):
        assert is_normal(associated_orthospace(algebras[name])).passed


# -- block Boolean families ------------------------------------------------------

def test_block_boolean_family_on_sasaki6(sasaki6_space):
    sp = sasaki6_space
    res, members = block_boolean_family(sp, sp.mask(["a", "d"]))
    assert res.passed
    assert [set(sp.names(m)) for m in members] == [
        set(), {"a"}, {"d"}, {"a", "b", "c", "d", "1"},
    ]


def test_block_boolean_family_requires_normal_space(benzene6_space):
    with pytest.raises(PreconditionError):
        block_boolean_family(benzene6_space, benzene6_space.mask(["a", "d"]))


def test_block_boolean_family_requires_a_block(sasaki6_space):
    with pytest.raises(PreconditionError):
        block_boolean_family(sasaki6_space, sasaki6_space.mask(["a", "b"]))


def test_block_boolean_family_on_ioml10(ioml10):
    sp = associated_orthospace(ioml10)
    for blk in blocks(sp):
        res, members = block_boolean_family(sp, blk)
        assert res.passed
        assert len(members) == 1 << bin(blk).count("1")


def test_block_boolean_family_trivial_on_discrete_space():
    sp = OrthoSpace.from_pairs(("p", "q"), [])
    res, members = block_boolean_family(sp, sp.mask(["p"]))
    assert res.passed
    assert members == (0, sp.full())


# -- random spaces -------------------------------------------------------------

@st.composite
def random_space(draw, max_points=6):
    n = draw(st.integers(2, max_points))
    points = tuple(f"p{i}" for i in range(n))
    pairs = []
    for i, j in combinations(range(n), 2):
        if draw(st.booleans()):
            pairs.append((points[i], points[j]))
    return OrthoSpace.from_pairs(points, pairs)


@settings(max_examples=60, deadline=None)
@given(space=random_space())
def test_random_space_closure_laws(space):
    for members in range(1 << space.n):
        c = orthoclosure(space, members)
        assert members & ~c == 0
        assert orthoclosure(space, c) == c
    fam = enumerate_orthoclosed(space)
    assert sorted(fam) == brute_force_family(space)
    for a in fam:
        assert is_orthoclosed(space, a)
        assert perp(space, a) in fam


@settings(max_examples=60, deadline=None)
@given(space=random_space(max_points=5))
def test_random_space_normality_criterion_matches_oracle(space):
    assert is_normal(space).passed == normal_by_unique_decomposition(space)


@settings(max_examples=60, deadline=None)
@given(space=random_space())
def test_random_space_blocks_are_maximal_cliques_covering_all_edges(space):
    found = blocks(space)
    for blk in found:
        members = [i for i in range(space.n) if blk >> i & 1]
        for x in members:
            for y in members:
                assert x == y or space.rel[x] >> y & 1
        for z in range(space.n):
            if not blk >> z & 1 and members:
                assert not all(space.rel[z] >> m & 1 for m in members)
    for x in range(space.n):
        for y in range(space.n):
            if space.rel[x] >> y & 1:
                assert any(b >> x & 1 and b >> y & 1 for b in found)


# -- the derived record --------------------------------------------------------

# Every entry of a space's record, by the name of the function that builds it.
RECORD_ENTRIES = ("enumerate_orthoclosed", "_closed_positions", "logic_arrow", "cl_algebra",
                  "blocks", "is_normal", "is_sasaki_space")


def counted_builds(monkeypatch):
    """Count the builds of each record entry by (space, entry name), on
    spaces that ``associated_orthospace`` builds afresh."""
    builds = Counter()
    for name, build in list(orthospace.RECORDED.items()):
        def counted(space, name=name, build=build):
            builds[space, name] += 1
            return build(space)
        monkeypatch.setitem(orthospace.RECORDED, name, counted)
    associated_orthospace.cache_clear()
    return builds


def test_run_all_builds_each_record_entry_once(monkeypatch, ioml10):
    builds = counted_builds(monkeypatch)
    run_all(ioml10)
    space = associated_orthospace(ioml10)
    assert builds == {(space, name): 1 for name in RECORD_ENTRIES}


def test_ortho_report_builds_each_record_entry_once(monkeypatch, capsys, benzene6):
    builds = counted_builds(monkeypatch)
    argv = ["ortho", "benzene6", "--cl", "--dacey", "--blocks", "--normal", "--sasaki-space"]
    assert main(argv) == 1
    space = associated_orthospace(benzene6)
    assert builds == {(space, name): 1 for name in RECORD_ENTRIES}


def test_a_space_is_released_with_its_record():
    space = OrthoSpace.from_pairs(("p", "q", "r"), [("p", "q")])
    enumerate_orthoclosed(space)
    cl_algebra(space)
    assert {"enumerate_orthoclosed", "cl_algebra"} <= set(space.record)
    ref = weakref.ref(space)
    del space
    gc.collect()
    assert ref() is None


def test_the_record_takes_no_part_in_equality_hashing_or_repr():
    filled, fresh = (OrthoSpace.from_pairs(("p", "q", "r"), [("p", "q"), ("q", "r")])
                     for _ in range(2))
    is_normal(filled)
    assert filled.record and not fresh.record
    assert filled == fresh and hash(filled) == hash(fresh) and repr(filled) == repr(fresh)
