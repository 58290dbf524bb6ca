"""The derived heads of the term language against their definitions.

Each head of ``algebra.DERIVED`` is read by the scans from a table that the
algebra builds once, and is expanded into its definition by the rendering
and by the enumeration pruner.  The tables must agree with the hand-written
definitions of ``derived_reference`` and with the expanded definitions,
in both layouts of the compiled builders, on both sides of ``PAIR_CEILING``; so
must what reads them: the package's pair functions, the ``derive`` tables
and the perps of ``associated_orthospace`` (``tests/test_row_kernels.py``
checks the ``sasaki --commute`` table).  A scan that reads a head, in either row layout and in each form of read, must find the
least failing tuple of the expanded formula; so must every registry formula,
and ``has_full_sasaki_set`` must give the verdict and witness of the
``check_sasaki_set`` reference on the canonical family.
"""

import gc
import random
import weakref
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from orthologic import (
    FiniteAlgebra,
    OrthoSpace,
    PreconditionError,
    associated_orthospace,
    classify,
    fixture,
    has_full_sasaki_set,
    serialize_algebra,
    theorems,
)
from orthologic import algebra, cli, sasaki
from orthologic.algebra import (
    DERIVED,
    PAIR_CEILING,
    RELATIONS,
    CheckResult,
    expand,
    first_failure,
    formula_roles,
)
from orthologic.fixtures import FIXTURE_NAMES

from conftest import boolean_iol, evaluator_of, hexagons, iols_up_to, mo_iol, relabel, relabelled
import derived_reference as ref
from derived_reference import REFERENCE
from projection_families import canonical_projection_family, check_sasaki_set
from test_theorem_scans import both_layouts, rendered_first_failure

# The package's pair function of each head.
FUNCTIONS = {"vQ": algebra.vee_q, "^Q": algebra.wedge_q, "^P": algebra.wedge_p,
             "vP": algebra.vee_p, "<=": algebra.le, "<=L": algebra.le_l, "<=Q": algebra.le_q,
             "_|_": algebra.ortho, "C": sasaki.commutes, "D": sasaki.divides}


def random_table(n, seed):
    rng = random.Random(seed)
    arrow = tuple(bytes(rng.randrange(n) for _ in range(n)) for _ in range(n))
    return FiniteAlgebra(f"rand{n}-{seed}", tuple(f"e{i}" for i in range(n)), arrow,
                         rng.randrange(n), rng.randrange(n))


def one_cell(alg, seed):
    """The algebra with one cell off its rows and columns of 0 and 1 changed."""
    rng = random.Random(seed)
    free = [i for i in range(alg.n) if i not in (alg.one, alg.zero)]
    arrow = [bytearray(row) for row in alg.arrow]
    arrow[rng.choice(free)][rng.choice(free)] = rng.randrange(alg.n)
    return FiniteAlgebra(f"{alg.name}-cell{seed}", alg.elements, tuple(arrow), alg.one, alg.zero)


@lru_cache(maxsize=None)
def large():
    """Relabelled i-OLs of 16 to 64 elements, and one-cell mutations of two
    of them."""
    algs = [relabelled(boolean_iol(4), 4), relabelled(mo_iol(7), 7), relabelled(hexagons(4), 4),
            relabelled(boolean_iol(5), 5), relabelled(mo_iol(31), 31)]
    return tuple(algs + [one_cell(algs[2], 1), one_cell(algs[3], 2)])


# -- the tables ---------------------------------------------------------------------

@pytest.mark.parametrize("head", sorted(DERIVED))
def test_tables_match_the_functions_of_their_names(head):
    reference, fn = REFERENCE[head], FUNCTIONS[head]
    corpus = [fixture(name) for name in sorted(FIXTURE_NAMES)]
    corpus += [random_table(n, seed) for n in (1, 2, 5, 7, 16, 17, 20) for seed in range(3)]
    for alg in corpus + list(large()):
        n, table = alg.n, alg.tables[head]
        expected = [reference(alg, a, b) for a in range(n) for b in range(n)]
        assert len(table) == n * n
        assert list(table) == expected, alg.name
        assert [fn(alg, a, b) for a in range(n) for b in range(n)] == expected, alg.name
        if head in RELATIONS:
            assert {type(fn(alg, a, b)) for a in range(n) for b in range(n)} == {bool}


def test_every_head_has_a_function():
    assert set(REFERENCE) == set(FUNCTIONS) == set(DERIVED)
    assert RELATIONS == {"<=", "<=L", "<=Q", "_|_", "C", "D"}


def test_relation_tables_hold_zeros_and_ones():
    for alg in large():
        for head in RELATIONS:
            assert set(alg.tables[head]) <= {0, 1}


# Definitions beside those of DERIVED: an arrow at two arguments that both
# read x and y, which a one-role table form reads lane by lane with either
# loop role, and an arrow at a constant first argument.
SYNTHETIC = {
    "G": ("->", ("->", "x", "y"), ("->", "y", "x")),
    "K": ("->", ("->", "1", "0"), ("^Q", "y", "x")),
}


@pytest.mark.parametrize("n", (1, 2, 5, 16, 17, 23, 64))
def test_tables_match_their_definitions_through_every_gather(n):
    # The table form of each definition, in each layout defined at n (the
    # pair layout up to the ceiling, the one-role layout from 2 elements)
    # and with either loop role, against its expansion evaluated pair by
    # pair; and each DERIVED head's table, which its compiled builder gives.
    algs = [random_table(n, seed) for seed in range(3)] + [a for a in large() if a.n == n]
    layouts = [pair for pair in (False, True) if (n <= PAIR_CEILING if pair else n > 1)]
    for head, term in {**SYNTHETIC, **DERIVED}.items():
        value = evaluator_of(expand(term))
        builders = [algebra._compile_scan(roles, term, pair, table=True)
                    for pair in layouts for roles in (("x", "y"), ("y", "x"))]
        for alg in algs:
            expected = bytes(value(alg.arrow, alg.zero, alg.one, a, b)
                             for a in range(n) for b in range(n))
            for build in builders:
                assert build(alg.tables) == expected, (head, alg.name, build.__name__)
            if head in DERIVED:
                assert alg.tables[head] == expected, (head, alg.name)


def test_no_derived_table_reads_a_table_lane_by_lane():
    # A one-role table form that reads a table at two vectors gathers it
    # element by element (``_item``); vQ does so when its loop runs over x.
    for head, (rows, _) in algebra.TABLE_BUILDERS.items():
        assert "_item" not in rows.__code__.co_names, head
    by_x = algebra._compile_scan(("x", "y"), DERIVED["vQ"], False, table=True)
    assert "_item" in by_x.__code__.co_names


def test_rows_are_kept_only_above_the_pair_ceiling():
    for n in (PAIR_CEILING, PAIR_CEILING + 1):
        alg = random_table(n, 0)
        assert (alg.tables.n, alg.tables.pair) == (n, n <= PAIR_CEILING)
        rows = alg.tables.rows("^Q")
        assert b"".join(rows) == alg.tables["^Q"]
        assert (("^Q",) in alg.tables) == (n > PAIR_CEILING)
        assert (alg.tables.rows("^Q") is rows) == (n > PAIR_CEILING)


def test_tables_take_no_part_in_equality_and_go_with_their_algebra():
    a, b = random_table(6, 1), random_table(6, 1)
    first_failure(a, algebra._lel("x", "y"))
    assert "<=L" in a.tables and not b.tables
    assert a == b and hash(a) == hash(b)
    ref = weakref.ref(a)
    gc.disable()  # the store makes no reference cycle, so no collection is needed
    try:
        del a
        assert ref() is None
    finally:
        gc.enable()


# -- scans that read the tables -----------------------------------------------------

HEADS = ("->", *sorted(DERIVED))
# Arguments of every kind a scan meets: constants, outer roles at each loop
# depth, the row roles, and vectors that read outer roles at different depths.
ARGUMENTS = ("0", "x", "y", "z", "u", ("->", "z", "u"), ("->", "x", "u"), ("^P", "y", "z"))


def read_formulas():
    """One formula per head and pair of arguments that reads a role: the
    relation itself, or the operation compared with x."""
    for head, a, b in product(HEADS, ARGUMENTS, ARGUMENTS):
        if head not in RELATIONS:
            yield ("=", (head, a, b), "x")
        elif formula_roles((head, a, b)):
            yield (head, a, b)


def test_every_read_of_a_head_matches_its_expansion_in_both_layouts():
    # Random tables fail most formulas early; MO2 and a one-cell mutation of
    # the hexagon pass many of them or fail late.
    algs = [random_table(4, 7), random_table(5, 8), mo_iol(2), one_cell(hexagons(1), 3)]
    outcomes = set()
    for formula in read_formulas():
        for alg in algs:
            expected = rendered_first_failure(alg, formula)
            assert both_layouts(alg, formula) == (expected, expected), (formula, alg.name)
            outcomes.add(expected is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("n", (17, 20))
def test_one_role_reads_of_a_head_match_their_expansion_above_the_pair_ceiling(n):
    alg = random_table(n, n)
    for formula in read_formulas():
        if len(formula_roles(formula)) <= 3:
            assert first_failure(alg, formula) == rendered_first_failure(alg, formula), formula


# -- the pruner's instance predicates ----------------------------------------------

@st.composite
def head_terms(draw, atoms=("x", "y", "z", "0", "1"), depth=3):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(atoms))
    head = draw(st.sampled_from(("->", "->", "vQ", "^Q", "^P")))
    return (head, draw(head_terms(atoms, depth - 1)), draw(head_terms(atoms, depth - 1)))


@settings(max_examples=150, deadline=None)
@given(lhs=head_terms(), rhs=head_terms(), n=st.integers(2, 6), seed=st.integers(0, 10 ** 6),
       holes=st.integers(0, 4))
def test_pruner_predicates_of_head_equations_match_the_scans(lhs, rhs, n, seed, holes):
    # On a complete table the predicate fails exactly where the scan does;
    # with some cells unknown it fails only where the complete table fails,
    # waits only on unknown cells, and forces a value v on an unknown cell
    # only where that cell filled with v, and with no other value, makes
    # the instance hold.
    equation = ("=", lhs, rhs)
    roles = formula_roles(equation)
    assume(roles)
    alg = random_table(n, seed)
    holds = algebra._compile(roles, expand(lhs), expand(rhs))
    failing = next((tup for tup in product(range(n), repeat=len(roles))
                    if holds(alg.arrow, alg.zero, alg.one, -1, *tup) is False), None)
    assert failing == first_failure(alg, equation)
    rng = random.Random(seed)
    partial = [list(row) for row in alg.arrow]
    unknown = {(rng.randrange(n), rng.randrange(n)) for _ in range(holes)}
    for a, b in unknown:
        partial[a][b] = n
    table = [row + [n] for row in partial] + [[n] * (n + 1)]
    for tup in product(range(n), repeat=len(roles)):
        verdict = holds(table, alg.zero, alg.one, n, *tup)
        if verdict is False:
            assert not evaluator_of(equation)(alg.arrow, alg.zero, alg.one, *tup)
        elif verdict is not None and len(verdict) == 3:
            a, b, v = verdict
            assert (a, b) in unknown and 0 <= v < n
            for w in range(n):
                table[a][b] = w
                assert holds(table, alg.zero, alg.one, n, *tup) is (None if w == v else False)
            table[a][b] = n
        elif verdict is not None:
            assert verdict in unknown


def test_a_side_that_reads_the_other_sides_unknown_top_arrow_forces_nothing():
    # Both sides are x -> y: with cell (1, 2) unknown the right side reads
    # the left side's unknown top arrow, so the instance waits on the cell
    # with no forced value, and holds once the cell holds any value.
    holds = algebra._compile(("x", "y"), ("->", "x", "y"), ("->", "x", "y"))
    table = [[0] * 3 for _ in range(3)]
    table[1][2] = 3
    assert holds(table, 0, 2, 3, 1, 2) == (1, 2)
    for v in range(3):
        table[1][2] = v
        assert holds(table, 0, 2, 3, 1, 2) is None


# -- the registry and the full projection family ------------------------------------

@lru_cache(maxsize=None)
def registry_corpus():
    """The fixtures, every i-OL with at most 8 elements, one-cell mutations of
    B16 and MO7, and relabelled B32 and MO15."""
    b16, mo7 = relabelled(boolean_iol(4), 4), relabelled(mo_iol(7), 7)
    return ([fixture(name) for name in sorted(FIXTURE_NAMES)] + list(iols_up_to(8))
            + [one_cell(alg, seed) for alg in (b16, mo7) for seed in range(4)]
            + [relabelled(boolean_iol(5), 5), relabelled(mo_iol(15), 15)])


def test_registry_formulas_match_their_expansions():
    formulas = set(theorems._FORMULAS.values())
    assert len(formulas) == 142
    outcomes = set()
    for alg in registry_corpus():
        for formula in formulas:
            tup = first_failure(alg, formula)
            assert tup == first_failure(alg, expand(formula)), (formula, alg.name)
            outcomes.add(tup is None)
    assert outcomes == {True, False}


def test_full_sasaki_set_matches_the_family_reference():
    laws = set()
    for alg in registry_corpus():
        if not classify(alg).is_iol:
            with pytest.raises(PreconditionError):
                has_full_sasaki_set(alg)
            continue
        reference = check_sasaki_set(alg, canonical_projection_family(alg))
        verdict = has_full_sasaki_set(alg)
        assert verdict == CheckResult("full-sasaki-set", reference.status, reference.witness)
        laws.add(dict(verdict.witness).get("axiom"))
    assert {None, "SS2", "SS3"} <= laws


# -- the tables the CLI prints and the orthogonality space --------------------------

# Each ``derive --op`` table but the star's, cell by cell from the reference.
DERIVE_OPS = {"arrow": lambda alg, x, y: alg.arrow[x][y], "wedge_q": ref.wedge_q,
              "vee_q": ref.vee_q, "wedge_p": ref.wedge_p, "vee_p": ref.vee_p, "le": ref.le,
              "le_l": ref.le_l, "le_q": ref.le_q}


def printed(capsys, argv):
    """The whitespace-separated cells of each line a command prints."""
    assert cli.main(argv) == 0
    return [line.split() for line in capsys.readouterr().out.splitlines()]


def test_derive_prints_every_table_of_the_reference(tmp_path, capsys):
    big = relabelled(hexagons(4), 4)  # above PAIR_CEILING
    assert big.n > PAIR_CEILING
    for alg in [fixture(name) for name in sorted(FIXTURE_NAMES)] + [big]:
        path = tmp_path / f"{alg.name}.json"
        path.write_text(serialize_algebra(alg))
        star = printed(capsys, ["derive", str(path), "--op", "star"])
        assert star == [["x", "x*"]] + [[e, alg.elements[ref.star(alg, x)]]
                                        for x, e in enumerate(alg.elements)]
        for op, fn in DERIVE_OPS.items():
            relation = op.startswith("le")
            expected = [[op, *alg.elements]] + [
                [e] + [str(int(fn(alg, x, y))) if relation else alg.elements[fn(alg, x, y)]
                       for y in range(alg.n)]
                for x, e in enumerate(alg.elements)]
            assert printed(capsys, ["derive", str(path), "--op", op]) == expected, (op, alg.name)


def reference_space(alg):
    """The space on the nonzero elements, one reference ``ortho`` per pair."""
    live = [x for x in range(alg.n) if x != alg.zero]
    rel = [sum(1 << k for k, y in enumerate(live) if y != x and ref.ortho(alg, x, y))
           for x in live]
    return OrthoSpace(tuple(alg.elements[x] for x in live), tuple(rel))


def with_zero_at(alg, pos):
    """The algebra relabelled so that 0 is element ``pos`` and the others keep
    their order."""
    order = [x for x in range(alg.n) if x != alg.zero]
    order.insert(pos, alg.zero)
    perm = [0] * alg.n
    for new, old in enumerate(order):
        perm[old] = new
    return relabel(alg, perm)


def test_orthospace_matches_the_pairwise_reference():
    corpus = [fixture(name) for name in sorted(FIXTURE_NAMES)] + list(iols_up_to(8))
    corpus += [alg for alg in large() if classify(alg).is_iol]
    assert {alg.n for alg in corpus} >= {2, 16, 18, 32, 64}
    places = set()
    for alg in corpus:
        for variant in (alg, *(with_zero_at(alg, pos) for pos in (0, alg.n // 2, alg.n - 1))):
            places.add(variant.zero * 2 // (variant.n - 1))  # 0 first, in the middle, last
            assert associated_orthospace(variant) == reference_space(variant), variant.name
    assert places == {0, 1, 2}
