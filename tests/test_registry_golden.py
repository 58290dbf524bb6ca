"""Golden digests of the registry's verdicts.

One short sha256 digest per check id covers that check's outcome on a fixed
corpus of tables, once through a direct call of its evaluator (the class
precondition bypassed) and once through ``run_check``.  An outcome is the
(status, witness) pair, or the type and text of the error raised.  The
corpus: every candidate of the unconstrained search with n <= 5, in every
labelling that keeps the standard star (``reference_search_tables``, which
breaks no symmetry), the fixtures and the i-OLs with n <= 8 (the base
algebras), and 120 seeded one-cell mutations of the base algebras.

After an intended verdict change,
``PYTHONPATH=src python tests/test_registry_golden.py`` prints fresh digests
in the form of ``DIGESTS`` below, and names on stderr the check ids whose
digest moved; paste the output over ``DIGESTS`` and review the diff by
check id.
"""

import hashlib
import random
import sys
from functools import lru_cache

import pytest

from orthologic import FiniteAlgebra, fixture, list_checks, run_check, theorems
from orthologic.fixtures import FIXTURE_NAMES

from conftest import iols_up_to, reference_search_tables

DIGESTS = {
    "L2-BE-PROPS": "dd6c536213044813",
    "P2-QBE-PROPS": "020a6ebc022f5f11",
    "R2-LEL-ORDER-IFF-IG": "59d76580b0c0e1d9",
    "L2-IMPL-EQUIV": "35e5a55f4e81dc17",
    "L2-IOL-PROPS": "be3b7059c921c62b",
    "L2-IOM-3WAY": "f464e26fa42291c8",
    "T2-CHAR-IOML-LE": "2079503399dfc8ec",
    "C2-LEQ-EQ-LEL": "a3ebff57695d398c",
    "P2-IOML-PROPS-A": "072b2f0394f3d650",
    "P2-IOML-PROPS-B": "0fd61ddf7ba958ec",
    "T2-CHAR-IOML-5WAY": "832443a5a7d6bfc4",
    "P2-IDIV-IFF-DISTRIB": "b2cb79986f6ed0fd",
    "R2-IDIV-IFF-AT": "66444e1db7a653e2",
    "MBE-EQ": "160e0a49e52e4175",
    "L3-ORTHO-BASICS": "ea1ff39976c5ebfd",
    "L3-ORTHO-CONSEQ": "97995d8e2fece701",
    "P3-PERP-IFF-MEETZERO": "a94e7c1481b0ce2e",
    "P3-CHAR-IOML-ORTHO": "e25bb54c457bf603",
    "P3-CL-IS-IOL": "01d4a663c5e2cda0",
    "P4-SP-BASIC": "3835566440c57603",
    "P4-SP-IOML": "402b05a6dc6d9d45",
    "P4-SP-IOML-B": "a90abeff6499ff35",
    "T4-SASAKI-PERP-CHAR": "d6fd499c2c76fe4a",
    "L4-C-BASICS": "f69589cacf513f61",
    "T4-C-SYMMETRIC": "226beb2b13532c3f",
    "C4-C-MEET-COMM": "4a83e40a2e083025",
    "L4-C-STAR-CLOSED": "4bc04d353684ad58",
    "P4-C-FORMULA": "d150bbaa2a34d50e",
    "P4-C-MEET-FORMULA": "a8e6766e1d8171ee",
    "C4-C-4WAY": "4026c2a673148c23",
    "T4-SP-COMPOSE": "ed68b915cda42d77",
    "L5-C-IFF-D": "6e2376529ac04f14",
    "L5-D-BASICS": "44590e570dcc9d0b",
    "P5-BOOLEAN-IS-IOML": "62c5fec9be70379b",
    "T5-BOOLEAN-6WAY": "c108948a71171414",
    "T5-BOOLEAN-MEETLE": "d064b07f1b6e2e14",
    "T5-BOOLEAN-LE": "f8de2b480a37aa71",
    "C5-ORDERS-COINCIDE": "a8260f76db99d2af",
    "L5-CENTER-ARROW": "0c5353b776195bc1",
    "T5-CENTER-BOOLEAN": "449d20c8c535f07b",
    "T5-ORTHO-PAIR-BOOLEAN": "95b332a1bc4b7f61",
    "T5-SP-CENTER-MONOID": "29836dafaff56e85",
    "P6-SS-PROPS": "ea0ece3214e4bf01",
    "P6-SS-ARROW": "09c7fb5ae1373ae8",
    "P6-FULL-PROPS": "dfc20b2db591593e",
    "P6-FULL-FORMULA": "4a6e9a5ef59ce2ed",
    "T6-FULLSET-IFF-IOML": "01d4a663c5e2cda0",
    "P7-DACEY-IFF-BOOLEAN-PAIRS": "01d4a663c5e2cda0",
    "L7-DOWNSET": "01d4a663c5e2cda0",
    "P7-CL-ISO": "01d4a663c5e2cda0",
    "T7-IOML-SASAKI": "67db9d57977fa699",
    "P7-FULLSET-SASAKI": "01d4a663c5e2cda0",
    "L7-NORMAL-CRIT": "01d4a663c5e2cda0",
    "P7-BLOCK-BOOLEAN": "afe91c6eceb2116d",
}


def base_algebras():
    return [fixture(name) for name in sorted(FIXTURE_NAMES)] + list(iols_up_to(8))


def mutations(base, count, seed):
    rng = random.Random(seed)
    for k in range(count):
        alg = rng.choice(base)
        arrow = [list(row) for row in alg.arrow]
        arrow[rng.randrange(alg.n)][rng.randrange(alg.n)] = rng.randrange(alg.n)
        yield FiniteAlgebra(f"mut{k}", alg.elements, tuple(map(tuple, arrow)),
                            alg.one, alg.zero)


@lru_cache(maxsize=None)
def corpus():
    base = base_algebras()
    candidates = [c for n in range(2, 6) for c in reference_search_tables(n, ())]
    return tuple(candidates + base + list(mutations(base, 120, 1)))


def outcome(fn, *args):
    try:
        res = fn(*args)
    except Exception as exc:  # the error text is part of the verdict
        return (type(exc).__name__, str(exc))
    return (res.status, res.witness)


@lru_cache(maxsize=None)
def outcomes(check_id):
    """Per table of the corpus: the direct outcome, then the run_check one."""
    return tuple((outcome(theorems._EVAL[check_id], alg), outcome(run_check, alg, check_id))
                 for alg in corpus())


def digest(check_id):
    return hashlib.sha256(repr(outcomes(check_id)).encode()).hexdigest()[:16]


def check_ids():
    return [spec.check_id for spec in list_checks()]


# Checks that build on an i-OL's space or projection families: off an i-OL
# (or i-OML) they raise or skip, and on one they are theorems.
NEVER_FAIL = {
    "P3-CL-IS-IOL", "T6-FULLSET-IFF-IOML",
    "P7-DACEY-IFF-BOOLEAN-PAIRS", "L7-DOWNSET", "P7-CL-ISO", "P7-FULLSET-SASAKI",
    "L7-NORMAL-CRIT", "P7-BLOCK-BOOLEAN",
}


# The run_check outcomes alone of the checks that became formulas over map
# roles, as recorded before they did: their direct outcomes moved (the
# witnesses name items and roles, and off the class preconditions they scan
# where they skipped or raised), but through run_check none did.
RUN_CHECK_DIGESTS = {
    "T5-SP-CENTER-MONOID": "d3db8cae226ec827",
    "P6-SS-PROPS": "07cfb29346f6651e",
    "P6-SS-ARROW": "07cfb29346f6651e",
    "P6-FULL-FORMULA": "d3db8cae226ec827",
}


@pytest.mark.parametrize("check_id", RUN_CHECK_DIGESTS)
def test_run_check_outcomes_of_the_family_checks_are_unchanged(check_id):
    through = tuple(outcome for _, outcome in outcomes(check_id))
    assert hashlib.sha256(repr(through).encode()).hexdigest()[:16] == RUN_CHECK_DIGESTS[check_id]


def test_corpus_reaches_a_failure_of_every_other_check():
    for check_id in check_ids():
        failed = any("fail" in (direct[0], through[0]) for direct, through in outcomes(check_id))
        assert failed == (check_id not in NEVER_FAIL), check_id


def test_digests_cover_the_registry_in_order():
    assert list(DIGESTS) == check_ids()


@pytest.mark.parametrize("check_id", check_ids())
def test_registry_verdicts_match_the_golden_digest(check_id):
    assert digest(check_id) == DIGESTS[check_id]


def main():
    print("DIGESTS = {")
    for check_id in check_ids():
        fresh = digest(check_id)
        print(f'    "{check_id}": "{fresh}",')
        if DIGESTS.get(check_id) != fresh:
            print(f"changed: {check_id}", file=sys.stderr)
    print("}")


if __name__ == "__main__":
    main()
