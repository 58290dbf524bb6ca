"""The row kernels of ``sasaki``, ``orthospace`` and the CLI against the
per-pair code they replace.

Each reference below is the body the row form replaced, kept as it was: one
call of ``star``, ``wedge_q``, ``commutes``, ``divides``, ``le_l`` or ``perp``
per pair, the derived ones written out by hand in ``derived_reference``.
Verdicts, witnesses and payloads must agree on the fixtures, on every i-OL
with at most 8 elements, and on relabelled constructions of 16 to 64
elements.  ``check_sasaki_set``, now the tests' own reference for
``has_full_sasaki_set`` (``projection_families``), is checked here too.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from orthologic import (
    FiniteAlgebra,
    associated_orthospace,
    cl_algebra,
    cli,
    fixture,
    run_check,
)
from orthologic.algebra import (
    AlgebraError,
    CheckResult,
    InputError,
    iter_bits,
    star,
)
from orthologic.documents import algebra_from_names, serialize_algebra
from orthologic.fixtures import FIXTURE_NAMES
from orthologic.orthospace import (
    OrthoSpace,
    blocks,
    enumerate_orthoclosed,
    is_normal,
    orthoclosure,
    perp,
)
from orthologic.sasaki import (
    center,
    is_iboolean_subalgebra,
    is_subalgebra,
    pair_hull,
    sasaki_projection,
)

from conftest import (
    boolean_iol,
    direct_product,
    hexagons,
    horizontal_sum,
    iols_up_to,
    mo_iol,
    reference_is_normal,
    relabelled,
    without_pair,
)
from derived_reference import commutes, divides, le_l, ortho, wedge_q
from projection_families import (
    ProjectionMap,
    canonical_projection_family,
    check_sasaki_set,
    trivial_projection_family,
)


# -- the per-pair references -----------------------------------------------------

def reference_projection(alg, a):
    return tuple(wedge_q(alg, x, a) for x in range(alg.n))


def reference_center(alg):
    m = 0
    for x in range(alg.n):
        if all(commutes(alg, x, y) for y in range(alg.n)):
            m |= 1 << x
    return m


def reference_commute_table(alg):
    """The table ``sasaki --commute`` printed, one ``commutes`` per cell."""
    return [["1" if commutes(alg, x, y) else "0" for y in range(alg.n)] for x in range(alg.n)]


def reference_is_subalgebra(alg, members):
    if not members & (1 << alg.one):
        return False
    for x in iter_bits(members):
        if not members & (1 << star(alg, x)):
            return False
        for y in iter_bits(members):
            if not members & (1 << alg.arrow[x][y]):
                return False
    return True


def reference_is_iboolean_subalgebra(alg, members):
    if not reference_is_subalgebra(alg, members):
        return CheckResult("iboolean-subalgebra", "fail", (("subset", "not a subalgebra"),))
    for x in iter_bits(members):
        for y in iter_bits(members):
            if not divides(alg, x, y):
                return CheckResult(
                    "iboolean-subalgebra", "fail",
                    (("x", alg.elements[x]), ("y", alg.elements[y])))
    return CheckResult("iboolean-subalgebra", "pass")


def reference_check_sasaki_set(alg, maps):
    def name(m, k):
        return m.label if m.label is not None else f"#{k}"

    below = [[le_l(alg, x, y) for y in range(alg.n)] for x in range(alg.n)]
    for k, phi in enumerate(maps):
        img = phi.image
        for x in range(alg.n):
            for y in range(alg.n):
                if below[x][y] and not below[img[x]][img[y]]:
                    return CheckResult("sasaki-set", "fail", (
                        ("axiom", "SS1"), ("map", name(phi, k)),
                        ("x", alg.elements[x]), ("y", alg.elements[y])))
    for k, phi in enumerate(maps):
        for m, psi in enumerate(maps):
            if le_l(alg, phi.image[alg.one], psi.image[alg.one]):
                for x in range(alg.n):
                    if phi.image[psi.image[x]] != phi.image[x]:
                        return CheckResult("sasaki-set", "fail", (
                            ("axiom", "SS2"), ("map", name(phi, k)),
                            ("other", name(psi, m)), ("x", alg.elements[x])))
    for k, phi in enumerate(maps):
        for x in range(alg.n):
            if not le_l(alg, phi.image[star(alg, phi.image[x])], star(alg, x)):
                return CheckResult("sasaki-set", "fail", (
                    ("axiom", "SS3"), ("map", name(phi, k)), ("x", alg.elements[x])))
    return CheckResult("sasaki-set", "pass")


def reference_cl_algebra(space):
    family = enumerate_orthoclosed(space)
    names = [space.subset_name(m) for m in family]
    arrow = [[names[family.index(perp(space, a & perp(space, b)))]
              for b in family] for a in family]
    return algebra_from_names("CL", names, arrow, names[family.index(space.full())],
                              names[family.index(0)])


def reference_block_boolean(alg):
    """P7-BLOCK-BOOLEAN from its definition: on a normal space, the closures
    of the subsets of each block, as members of the logic, must form an
    i-Boolean subalgebra of it."""
    space = associated_orthospace(alg)
    if not reference_is_normal(space).passed:
        return CheckResult("P7-BLOCK-BOOLEAN", "skipped", (("precondition", "normal space"),))
    family, logic = enumerate_orthoclosed(space), cl_algebra(space)
    for block in blocks(space):
        subset, closures = block, set()
        while True:
            closures.add(orthoclosure(space, subset))
            if not subset:
                break
            subset = (subset - 1) & block
        verdict = is_iboolean_subalgebra(logic, sum(1 << family.index(c) for c in closures))
        if not verdict.passed:
            return CheckResult("P7-BLOCK-BOOLEAN", "fail",
                               (("block", space.subset_name(block)),) + verdict.witness)
    return CheckResult("P7-BLOCK-BOOLEAN", "pass")


# -- corpora ---------------------------------------------------------------------

def fixtures():
    return [fixture(name) for name in sorted(FIXTURE_NAMES)]


def large():
    """Relabelled constructions of 16 to 64 elements, orthomodular or not."""
    hx = hexagons(1)
    algs = [boolean_iol(4), boolean_iol(6), mo_iol(7), mo_iol(31), hexagons(4),
            direct_product(hx, boolean_iol(2)), horizontal_sum(hx, mo_iol(5)),
            horizontal_sum(boolean_iol(4), hx), direct_product(hx, hx)]
    return [relabelled(alg, alg.n + k) for k, alg in enumerate(algs)]


CORPORA = {
    "fixtures": fixtures,
    "census": lambda: list(iols_up_to(8)),
    "large": large,
}


def member_masks(alg, rng, count=20):
    """The center, the hull of every orthogonal pair (at most 40 of them),
    the universe, and seeded random masks with and without 1."""
    masks = [reference_center(alg), (1 << alg.n) - 1]
    pairs = [(x, y) for x in range(alg.n) for y in range(alg.n) if ortho(alg, x, y)]
    masks += [pair_hull(alg, x, y) for x, y in pairs[:40]]
    for _ in range(count):
        m = rng.getrandbits(alg.n)
        masks += [m, m | 1 << alg.one, m & ~(1 << alg.one)]
    return masks


# -- sasaki ------------------------------------------------------------------------

@pytest.mark.parametrize("corpus", CORPORA)
def test_projections_and_center(corpus):
    for alg in CORPORA[corpus]():
        assert all(sasaki_projection(alg, a) == reference_projection(alg, a)
                   for a in range(alg.n)), alg.name
        assert center(alg) == reference_center(alg), alg.name


@pytest.mark.parametrize("corpus", CORPORA)
def test_subalgebra_verdicts(corpus):
    rng = random.Random(corpus)
    verdicts = set()
    for alg in CORPORA[corpus]():
        for m in member_masks(alg, rng):
            assert is_subalgebra(alg, m) == reference_is_subalgebra(alg, m), (alg.name, m)
            verdict = is_iboolean_subalgebra(alg, m)
            assert verdict == reference_is_iboolean_subalgebra(alg, m), (alg.name, m)
            verdicts.add(verdict.witness[:1])
    assert {(), (("subset", "not a subalgebra"),)} < verdicts


@pytest.mark.parametrize("corpus", CORPORA)
def test_sasaki_set_on_the_canonical_and_trivial_families(corpus):
    for alg in CORPORA[corpus]():
        for maps in (canonical_projection_family(alg), trivial_projection_family(alg)):
            assert check_sasaki_set(alg, maps) == reference_check_sasaki_set(alg, maps), alg.name


def mutated_family(alg, rng):
    """The canonical family with one image entry changed, a label dropped,
    and sometimes a constant or the identity added."""
    maps = list(canonical_projection_family(alg))
    k, x = rng.randrange(alg.n), rng.randrange(alg.n)
    image = list(maps[k].image)
    image[x] = rng.randrange(alg.n)
    maps[k] = ProjectionMap(tuple(image), None if rng.random() < 0.5 else maps[k].label)
    if rng.random() < 0.3:
        maps.insert(rng.randrange(len(maps) + 1), ProjectionMap(tuple(range(alg.n))))
    if rng.random() < 0.3:
        maps.insert(rng.randrange(len(maps) + 1), ProjectionMap((rng.randrange(alg.n),) * alg.n))
    return tuple(maps)


def test_sasaki_set_witnesses_on_mutated_families():
    rng = random.Random(5)
    axioms = set()
    for alg in fixtures() + list(iols_up_to(8)) + large()[:4]:
        for _ in range(6 if alg.n > 16 else 25):
            maps = mutated_family(alg, rng)
            verdict = check_sasaki_set(alg, maps)
            assert verdict == reference_check_sasaki_set(alg, maps), (alg.name, maps)
            axioms.add(dict(verdict.witness).get("axiom"))
    assert axioms == {None, "SS1", "SS2", "SS3"}


def test_sasaki_set_pins_an_ss2_and_an_ss1_witness(benzene6):
    # SS2: the identity and the constant 1 both send 1 to 1, so identity o
    # constant must be the identity; it is not, first at 0.
    alg = benzene6
    identity, one = ProjectionMap(tuple(range(alg.n)), "id"), ProjectionMap((alg.one,) * alg.n)
    assert check_sasaki_set(alg, (identity, one)) == CheckResult("sasaki-set", "fail", (
        ("axiom", "SS2"), ("map", "id"), ("other", "#1"), ("x", alg.elements[0])))
    # SS1: a map that swaps 0 and 1 and fixes the rest is not monotone.
    swap = list(range(alg.n))
    swap[alg.zero], swap[alg.one] = alg.one, alg.zero
    verdict = check_sasaki_set(alg, (ProjectionMap(tuple(swap)),))
    assert dict(verdict.witness)["axiom"] == "SS1"
    assert verdict == reference_check_sasaki_set(alg, (ProjectionMap(tuple(swap)),))


@st.composite
def families(draw):
    """A small i-OL and a family of up to four maps, each a constant, the
    identity, a Sasaki projection, one of these with one entry changed, or
    an arbitrary image."""
    census = iols_up_to(6)
    alg = census[draw(st.integers(0, len(census) - 1))]
    entry = st.integers(0, alg.n - 1)

    def one_map():
        kind = draw(st.sampled_from(("constant", "identity", "projection", "arbitrary")))
        if kind == "constant":
            image = (draw(entry),) * alg.n
        elif kind == "identity":
            image = tuple(range(alg.n))
        elif kind == "projection":
            image = sasaki_projection(alg, draw(entry))
        else:
            image = tuple(draw(st.lists(entry, min_size=alg.n, max_size=alg.n)))
        if kind != "arbitrary" and draw(st.booleans()):
            x = draw(entry)
            image = image[:x] + (draw(entry),) + image[x + 1:]
        return ProjectionMap(image, draw(st.sampled_from((None, "a", "b"))))

    return alg, tuple(one_map() for _ in range(draw(st.integers(1, 4))))


@settings(max_examples=300, deadline=None)
@given(case=families())
def test_random_families_match_the_reference(case):
    alg, maps = case
    assert check_sasaki_set(alg, maps) == reference_check_sasaki_set(alg, maps)


def test_cli_commute_table_matches_the_reference(tmp_path, capsys):
    for alg in fixtures() + large()[:3]:
        path = tmp_path / f"{alg.name}.json"
        path.write_text(serialize_algebra(alg))
        assert cli.main(["sasaki", str(path), "--commute", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["commute"] == reference_commute_table(alg)


# -- orthospace --------------------------------------------------------------------

def spaces(corpus):
    for alg in CORPORA[corpus]():
        space = associated_orthospace(alg)
        yield space
        if any(space.rel):
            yield without_pair(space)


def outcome(fn, *args):
    """The result, or the type and message of the error raised."""
    try:
        return fn(*args)
    except AlgebraError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("corpus", CORPORA)
def test_cl_algebra_and_normality(corpus):
    verdicts = set()
    for space in spaces(corpus):
        logic = outcome(cl_algebra, space)
        assert logic == outcome(reference_cl_algebra, space), space.points
        verdict = is_normal(space)
        assert verdict == reference_is_normal(space), space.points
        verdicts.add((verdict.status, type(logic)))
    assert {status for status, _ in verdicts} == {"pass", "fail"}
    if corpus == "large":
        # Some spaces without a pair have more than 64 orthoclosed sets.
        assert {kind for _, kind in verdicts} == {tuple, FiniteAlgebra}


def test_cl_algebra_keeps_the_errors_of_the_name_round_trip():
    # The orthoclosed sets {a,b} and {"a,b"} have the same name.
    space = OrthoSpace.from_pairs(("a", "b", "a,b", "c", "d"),
                                  [("a", "c"), ("b", "c"), ("a,b", "d")])
    error = outcome(cl_algebra, space)
    assert error == outcome(reference_cl_algebra, space)
    assert error[0] is InputError and "duplicate element names ['{a,b}']" in error[1]
    # The empty space has a one-member logic, the trivial algebra.
    empty = OrthoSpace((), ())
    error = outcome(cl_algebra, empty)
    assert error == outcome(reference_cl_algebra, empty)
    assert error[0] is InputError and "trivial" in error[1]


@pytest.mark.parametrize("corpus", CORPORA)
def test_block_boolean_checks_normality_once(corpus):
    statuses = set()
    for alg in CORPORA[corpus]():
        verdict = run_check(alg, "P7-BLOCK-BOOLEAN")
        assert verdict == reference_block_boolean(alg), alg.name
        statuses.add(verdict.status)
    assert "pass" in statuses
