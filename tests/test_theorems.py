import pytest

from orthologic import (
    InputError,
    associated_orthospace,
    cl_algebra,
    classify,
    fixture,
    list_checks,
    run_all,
    run_check,
)
from orthologic.enumeration import enumerate_models

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
