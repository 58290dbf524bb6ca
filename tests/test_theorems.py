import pytest

from orthologic import (
    FiniteAlgebra,
    InputError,
    associated_orthospace,
    cl_algebra,
    classify,
    fixture,
    list_checks,
    run_all,
    run_check,
)
from orthologic import theorems
from orthologic.algebra import CheckResult, popcount
from orthologic.enumeration import enumerate_models

from orthologic.orthospace import blocks, enumerate_orthoclosed, logic_arrow, perp

from conftest import ordered_partitions, random_spaces, without_pair

from theorem_expectations import BENZENE6, IOML_SKIPS

IOML_NAMES = ("ioml10", "ioml6-full", "sasaki6")


def test_registry_shape():
    specs = list_checks()
    ids = [s.check_id for s in specs]
    assert len(ids) == len(set(ids)) == 54
    assert "L2-BE-PROPS" in ids
    assert "T6-FULLSET-IFF-IOML" in ids
    assert len(ids) >= 40
    for spec in specs:
        assert spec.precondition in {"be", "invbe", "iol", "ioml", "iboolean"}
        assert spec.description


def test_registry_matches_expectation_keys():
    assert [s.check_id for s in list_checks()] == list(BENZENE6)


def test_unknown_check_id(benzene6):
    with pytest.raises(InputError):
        run_check(benzene6, "NOT-A-CHECK")


def test_run_check_examples(benzene6, ioml10):
    assert run_check(benzene6, "T2-CHAR-IOML-5WAY").passed
    assert run_check(ioml10, "T4-C-SYMMETRIC").passed
    res = run_check(benzene6, "P3-PERP-IFF-MEETZERO")
    assert res.failed
    assert res.witness[:2] == (("x", "b"), ("y", "c"))


def test_benzene6_matches_frozen_expectations(benzene6):
    for res in run_all(benzene6):
        status, witness = BENZENE6[res.check_id]
        assert res.status == status, res
        assert res.witness == witness, res


@pytest.mark.parametrize("name", IOML_NAMES)
def test_orthomodular_fixtures_have_zero_failures(name):
    results = run_all(fixture(name))
    for res in results:
        if res.check_id in IOML_SKIPS:
            assert res.skipped
            assert res.witness == IOML_SKIPS[res.check_id]
        else:
            assert res.passed, res


def test_run_all_is_deterministic(benzene6):
    assert run_all(benzene6) == run_all(benzene6)


def test_registry_sweep_over_the_census():
    # Every i-OL with n <= 10, and the orthoclosed logic of each: all are
    # i-OLs, and the registry passes or skips everywhere, except the two
    # orthomodularity-sensitive checks, which fail on exactly the algebras
    # that are not orthomodular.
    sensitive = {"L3-ORTHO-CONSEQ", "P3-PERP-IFF-MEETZERO"}
    models = [alg for n in (2, 4, 6, 8, 10) for alg in enumerate_models(n, "iol")]
    census = models + [cl_algebra(associated_orthospace(alg)) for alg in models]
    assert len(census) == 48
    for alg in census:
        label = classify(alg)
        assert label.is_iol, alg.name
        failed = {res.check_id for res in run_all(alg) if res.failed}
        assert failed == (set() if label.is_ioml else sensitive), (alg.name, alg.arrow)
    assert sum(not classify(alg).is_ioml for alg in census) == 34


def test_skip_carries_the_unmet_precondition(benzene6):
    res = run_check(benzene6, "C2-LEQ-EQ-LEL")
    assert res.skipped
    assert res.witness == (("precondition", "ioml"),)


# -- fail branches of the checks that build the space -------------------------
#
# These checks hold on every i-OL, so each test below substitutes one name that
# ``theorems`` reads and calls the check's evaluator, past its precondition.
# The mutated benzene6 tables change one cell x -> y with y != 0 from a value
# other than x* to another such value, so star (the column of 0) and every
# <=L relation (x <=L y* compares x -> y with x*) stay those of benzene6, and
# with them its down-sets and its space.

def mutated(alg, x, y, value):
    """alg with the cell x -> y set to value (all three by element name)."""
    rows = [list(row) for row in alg.arrow]
    rows[alg.index(x)][alg.index(y)] = alg.index(value)
    return FiniteAlgebra(f"{alg.name}-mut", alg.elements, tuple(map(tuple, rows)),
                         alg.one, alg.zero)


def evaluate(check_id, alg):
    return theorems._EVAL[check_id](alg)


def test_cl_is_iol_fails_on_a_logic_that_is_no_iol(monkeypatch, benzene6):
    logic = mutated(benzene6, "a", "a", "b")
    assert not classify(logic).is_iol
    monkeypatch.setattr(theorems, "cl_algebra", lambda space: logic)
    assert evaluate("P3-CL-IS-IOL", benzene6) == CheckResult(
        "P3-CL-IS-IOL", "fail", (("logic", "not an i-OL"),))


@pytest.mark.parametrize("cell, expected", [
    # b -> c is first read by item (2) at (b, c*) = (b, a), as b ^P a.
    (("b", "c", "a"), (("item", "(2)"), ("x", "b"), ("y", "a"))),
    # a -> a is first read by item (3) at (a, a); item (2) reads it at (a, c).
    (("a", "a", "b"), (("item", "(3)"), ("x", "a"), ("y", "a"))),
])
def test_downset_items_2_and_3_fail_on_a_mutated_arrow(monkeypatch, benzene6, cell, expected):
    space = associated_orthospace(benzene6)
    monkeypatch.setattr(theorems, "associated_orthospace", lambda alg: space)
    assert evaluate("L7-DOWNSET", mutated(benzene6, *cell)) == CheckResult(
        "L7-DOWNSET", "fail", expected)


def test_cl_iso_fails_where_the_family_is_not_the_down_sets(monkeypatch, benzene6):
    space = without_pair(associated_orthospace(benzene6))
    monkeypatch.setattr(theorems, "associated_orthospace", lambda alg: space)
    assert evaluate("P7-CL-ISO", benzene6) == CheckResult(
        "P7-CL-ISO", "fail", (("map", "not a bijection"),))


def test_cl_iso_fails_where_perp_is_not_the_star(monkeypatch, benzene6):
    # With the identity for the logic's star, A -> {} = A at every member A
    # (lane 0, the empty set), the empty down-set of 0 is its own star, not
    # every point, the down-set of 0* = 1.
    logic = logic_arrow(associated_orthospace(benzene6))
    monkeypatch.setattr(theorems, "logic_arrow",
                        lambda space: tuple((i, *row[1:]) for i, row in enumerate(logic)))
    assert evaluate("P7-CL-ISO", benzene6) == CheckResult(
        "P7-CL-ISO", "fail", (("star-at", "0"),))


def test_cl_iso_fails_where_the_arrow_is_not_the_logic_arrow(monkeypatch, benzene6):
    space = associated_orthospace(benzene6)
    monkeypatch.setattr(theorems, "associated_orthospace", lambda alg: space)
    assert evaluate("P7-CL-ISO", mutated(benzene6, "a", "a", "b")) == CheckResult(
        "P7-CL-ISO", "fail", (("x", "a"), ("y", "a")))


def test_fullset_sasaki_reports_the_failing_space_verdict(monkeypatch, ioml10):
    verdict = CheckResult("sasaki-space", "fail", (("closed-set", "{a,b}"),))
    monkeypatch.setattr(theorems, "is_sasaki_space", lambda space: verdict)
    assert evaluate("P7-FULLSET-SASAKI", ioml10) == CheckResult(
        "P7-FULLSET-SASAKI", "fail", (("closed-set", "{a,b}"),))


def test_normal_crit_fails_where_is_normal_disagrees(monkeypatch, benzene6, ioml10):
    # The hexagon space is not normal by the decomposition reading, at the
    # partition ({a}, {d}); the ioml10 space is, and its failure has no cell.
    monkeypatch.setattr(theorems, "is_normal", lambda space: CheckResult("normal", "pass"))
    assert evaluate("L7-NORMAL-CRIT", benzene6) == CheckResult(
        "L7-NORMAL-CRIT", "fail", (("block", "{a,d}"), ("cell", "{a}")))
    monkeypatch.setattr(theorems, "is_normal", lambda space: CheckResult("normal", "fail"))
    assert evaluate("L7-NORMAL-CRIT", ioml10) == CheckResult("L7-NORMAL-CRIT", "fail", ())


def first_ambiguous_partition(space):
    """The first (block, E1), in the order of all ordered partitions of the
    blocks, that not exactly one decomposition of the space extends."""
    closed = enumerate_orthoclosed(space)
    decomps = [(a, b) for a in closed for b in closed
               if a and b and perp(space, a) == b and perp(space, b) == a]
    for block in blocks(space):
        for e1, e2 in ordered_partitions(block):
            if sum(e1 & ~a == 0 and e2 & ~b == 0 for a, b in decomps) != 1:
                return block, e1
    return None


def test_normal_crit_reading_fails_at_the_first_ordered_partition(monkeypatch, benzene6):
    # With is_normal made to pass, L7-NORMAL-CRIT fails exactly where the
    # unique-decomposition reading does.  The check reads the algebra only
    # through its space, so each seeded space stands in for benzene6's.
    monkeypatch.setattr(theorems, "is_normal", lambda space: CheckResult("normal", "pass"))
    wide = 0
    for space in random_spaces(300, seed=2):
        monkeypatch.setattr(theorems, "associated_orthospace", lambda alg: space)
        found = first_ambiguous_partition(space)
        expected = CheckResult("L7-NORMAL-CRIT", "pass") if found is None else CheckResult(
            "L7-NORMAL-CRIT", "fail", tuple(zip(("block", "cell"), map(space.subset_name, found))))
        assert evaluate("L7-NORMAL-CRIT", benzene6) == expected, space
        wide += found is not None and popcount(found[0]) > 2
    assert wide  # failures at blocks where the cells differ in size


def test_block_boolean_names_the_first_failing_block(monkeypatch, ioml10):
    verdict = CheckResult("block-boolean", "fail", (("pair", "a,b"),))
    monkeypatch.setattr(theorems, "block_boolean_family", lambda space, block: (verdict, ()))
    assert evaluate("P7-BLOCK-BOOLEAN", ioml10) == CheckResult(
        "P7-BLOCK-BOOLEAN", "fail", (("block", "{a,b}"), ("pair", "a,b")))
