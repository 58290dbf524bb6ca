import random
from itertools import combinations, product

import pytest

from orthologic import (
    PartialMap,
    PreconditionError,
    associated_orthospace,
    block_boolean_family,
    blocks,
    center,
    cl_algebra,
    classify,
    commutes,
    divides,
    enumerate_models,
    enumerate_orthoclosed,
    fixture,
    has_full_sasaki_set,
    is_iboolean_subalgebra,
    is_normal,
    is_sasaki_space,
    is_subalgebra,
    le_l,
    orthoclosure,
    orthogonal_pair_boolean_witness,
    run_check,
    sasaki_map_search,
    sasaki_projection,
    serialize_algebra,
    star,
    vee_q,
    wedge_q,
)
from orthologic.algebra import iter_bits, ortho
from orthologic.cli import main
from orthologic.fixtures import FIXTURE_NAMES
from orthologic.orthospace import OrthoSpace, perp
from orthologic.sasaki import non_boolean_pair, pair_hull

from conftest import boolean_iol, hexagons, iols_up_to, mo_iol, relabelled, without_pair
from projection_families import (
    ProjectionMap,
    canonical_projection_family,
    check_sasaki_set,
    compose,
    is_full,
    trivial_projection_family,
)
from published_tables import COMPOSED_ROW_IOML10, PROJECTIONS_IOML6

IOML_NAMES = ("ioml10", "ioml6-full", "sasaki6")


def pairs(alg):
    return product(range(alg.n), repeat=2)


# -- projections ----------------------------------------------------------------

def test_projection_rows_match_published_tables(ioml6_full):
    alg = ioml6_full
    for gen, row in PROJECTIONS_IOML6.items():
        phi = sasaki_projection(alg, alg.index(gen))
        assert [alg.elements[v] for v in phi] == row.split()


def test_projection_constants(algebras):
    for alg in algebras.values():
        assert sasaki_projection(alg, alg.one)== tuple(range(alg.n))
        assert sasaki_projection(alg, alg.zero)== tuple(
            alg.zero for _ in range(alg.n)
        )


def test_projection_spot_value(ioml10):
    phi_e = sasaki_projection(ioml10, ioml10.index("e"))
    assert ioml10.elements[phi_e[ioml10.index("c")]] == "e"


def test_projection_identities_on_orthomodular_fixtures(algebras):
    for name in IOML_NAMES:
        alg = algebras[name]
        for a in range(alg.n):
            phi = sasaki_projection(alg, a)
            for x in range(alg.n):
                assert phi[phi[x]] == phi[x]
                assert (phi[x] == x) == le_l(alg, x, a)
                assert (phi[x] == alg.zero) == le_l(alg, x, star(alg, a))
            for x in range(alg.n):
                for y in range(alg.n):
                    if le_l(alg, x, y):
                        assert le_l(alg, phi[x], phi[y])


def test_composed_projection_rows_on_ioml10(ioml10):
    alg = ioml10
    a, e = alg.index("a"), alg.index("e")
    phi_a, phi_e = sasaki_projection(alg, a), sasaki_projection(alg, e)
    expected = COMPOSED_ROW_IOML10.split()
    meet = sasaki_projection(alg, wedge_q(alg, a, e))
    for x in range(alg.n):
        assert alg.elements[phi_a[phi_e[x]]] == expected[x]
        assert alg.elements[phi_e[phi_a[x]]] == expected[x]
        assert alg.elements[meet[x]] == expected[x]


def test_projections_need_not_commute_outside_orthomodularity(benzene6):
    bz = benzene6
    a, b = bz.index("a"), bz.index("b")
    phi_a, phi_b = sasaki_projection(bz, a), sasaki_projection(bz, b)
    assert bz.elements[phi_a[phi_b[a]]] == "a"
    assert bz.elements[phi_b[phi_a[a]]] == "b"


# -- commutation and divisibility -------------------------------------------------

def test_commutes_is_oriented(benzene6):
    a, b = benzene6.index("a"), benzene6.index("b")
    assert commutes(benzene6, a, b)
    assert not commutes(benzene6, b, a)


def test_commutes_without_orthogonality(ioml10):
    a, f = ioml10.index("a"), ioml10.index("f")
    assert commutes(ioml10, a, f)
    assert not ortho(ioml10, a, f)


def test_commutes_reflexive_and_with_star(algebras):
    for alg in algebras.values():
        for x in range(alg.n):
            assert commutes(alg, x, x)
            assert commutes(alg, x, star(alg, x))


def test_divides_examples(benzene6, algebras):
    a, b = benzene6.index("a"), benzene6.index("b")
    assert divides(benzene6, a, b)
    assert not divides(benzene6, b, a)
    for alg in algebras.values():
        for x in range(alg.n):
            assert divides(alg, x, alg.zero)


def test_divides_equals_commutes_everywhere(algebras):
    for alg in algebras.values():
        for x, y in pairs(alg):
            assert divides(alg, x, y) == commutes(alg, x, y)


def test_commutation_symmetry_characterizes_orthomodularity(algebras):
    for alg in algebras.values():
        symmetric = all(
            not commutes(alg, x, y) or commutes(alg, y, x) for x, y in pairs(alg)
        )
        assert symmetric == classify(alg).is_ioml


def test_ortho_implies_commutes_on_orthomodular(algebras):
    for name in IOML_NAMES:
        alg = algebras[name]
        for x, y in pairs(alg):
            if ortho(alg, x, y):
                assert commutes(alg, x, y)


def test_commutes_equivalent_forms_on_orthomodular(algebras):
    for name in IOML_NAMES:
        alg = algebras[name]
        for x, y in pairs(alg):
            c = commutes(alg, x, y)
            assert c == (wedge_q(alg, x, y) == wedge_q(alg, y, x))
            assert c == (vee_q(alg, x, y) == vee_q(alg, y, x))
            formula = alg.arrow[alg.arrow[x][star(alg, y)]][star(alg, alg.arrow[x][y])]
            assert c == (formula == x)


# -- center and subalgebras --------------------------------------------------------

def test_center_values(algebras):
    bz = algebras["benzene6"]
    # not orthomodular: the center comes out asymmetric under star ("a" is
    # central but a* = c is not), which is the instructive failure
    assert set(bz.names(center(bz))) == {"0", "a", "d", "1"}
    assert bz.index("c") not in [bz.index(nm) for nm in bz.names(center(bz))]
    assert set(algebras["ioml10"].names(center(algebras["ioml10"]))) == {"0", "1"}
    assert set(algebras["ioml6-full"].names(center(algebras["ioml6-full"]))) == {"0", "1"}


def test_center_is_whole_universe_on_boolean():
    from orthologic.enumeration import enumerate_models

    for n in (2, 4):
        (alg,) = enumerate_models(n, "iboolean")
        assert center(alg) == alg.universe_mask()


def test_center_is_boolean_subalgebra_on_orthomodular(algebras):
    for name in IOML_NAMES:
        alg = algebras[name]
        assert is_iboolean_subalgebra(alg, center(alg)).passed


def generated_subalgebra(alg, gens):
    """Reference hull: the closure of gens together with 1 and 0 under
    arrow; star comes free since x* = x -> 0.  Fixed point in at most n
    rounds."""
    members = gens | (1 << alg.one) | (1 << alg.zero)
    while True:
        new = members
        for x in iter_bits(members):
            for y in iter_bits(members):
                new |= 1 << alg.arrow[x][y]
        if new == members:
            return members
        members = new


def test_generated_subalgebra_examples(benzene6, ioml10, algebras):
    gens = benzene6.mask(["a", "d"])
    closure = generated_subalgebra(benzene6, gens)
    assert closure & (1 << benzene6.index("b"))  # d* = b enters the closure
    assert closure == benzene6.universe_mask()
    for alg in algebras.values():
        assert set(alg.names(generated_subalgebra(alg, 0))) == {"0", "1"}
    closure_a = generated_subalgebra(ioml10, 1 << ioml10.index("a"))
    assert set(ioml10.names(closure_a)) == {"0", "a", "b", "1"}


def test_is_subalgebra(benzene6):
    assert is_subalgebra(benzene6, benzene6.universe_mask())
    assert is_subalgebra(benzene6, benzene6.mask(["0", "1"]))
    assert not is_subalgebra(benzene6, benzene6.mask(["0", "a", "1"]))


def test_iboolean_subalgebra_examples(benzene6, ioml10, algebras):
    assert is_iboolean_subalgebra(ioml10, center(ioml10)).passed
    res = is_iboolean_subalgebra(benzene6, benzene6.mask(["0", "a", "1"]))
    assert res.failed
    for alg in algebras.values():
        assert is_iboolean_subalgebra(alg, alg.mask(["0", "1"])).passed


# -- the eight-element hull of an orthogonal pair ------------------------------------

def test_orthogonal_pair_witness_on_orthomodular(ioml10):
    for x, y in pairs(ioml10):
        if ortho(ioml10, x, y):
            res, members = orthogonal_pair_boolean_witness(ioml10, x, y)
            assert res.passed
            assert is_subalgebra(ioml10, members)


def test_orthogonal_pair_witness_fails_on_hexagon(benzene6):
    a, d = benzene6.index("a"), benzene6.index("d")
    res, members = orthogonal_pair_boolean_witness(benzene6, a, d)
    assert res.failed
    assert res.witness == (("x", "b"), ("y", "a"))
    # b -> (b -> a)* = d while b -> a* = c
    b = benzene6.index("b")
    assert benzene6.elements[benzene6.arrow[b][star(benzene6, benzene6.arrow[b][a])]] == "d"
    assert benzene6.elements[benzene6.arrow[b][star(benzene6, a)]] == "c"


def orthogonal_pairs(algebras):
    """Every orthogonal pair of the fixtures, the i-OLs with n <= 8 and the
    fixtures' logics."""
    logics = [cl_algebra(associated_orthospace(alg)) for alg in algebras.values()]
    for alg in list(algebras.values()) + list(iols_up_to(8)) + logics:
        for x, y in pairs(alg):
            if ortho(alg, x, y):
                yield alg, x, y


def test_pair_routes_agree(algebras):
    """The eight-element check behind orthogonal_pair_boolean_witness and the
    registry's non_boolean_pair gives the verdict of the generated hull, and
    non_boolean_pair names the least orthogonal pair whose hull fails."""
    checked = failed = 0
    first = {}
    for alg, x, y in orthogonal_pairs(algebras):
        res, members = orthogonal_pair_boolean_witness(alg, x, y)
        verdict = is_iboolean_subalgebra(alg, members)
        assert members == pair_hull(alg, x, y)
        assert (res.status, res.witness) == (verdict.status, verdict.witness)
        hull = generated_subalgebra(alg, 1 << x | 1 << y)
        assert res.passed == is_iboolean_subalgebra(alg, hull).passed, (alg.name, x, y)
        checked += 1
        failed += res.failed
        if first.setdefault(alg, None) is None and res.failed:
            first[alg] = (x, y)
    assert 0 < failed < checked  # both verdicts are reached
    assert all(non_boolean_pair(alg) == pair for alg, pair in first.items())


# Arrow table of the Boolean algebra spanned by an orthogonal pair, in the
# symbolic order [0, x, y, u, x*, y*, u*, 1] with u = x* -> y.
PAIR_SYMBOLS = ("0", "x", "y", "u", "x*", "y*", "u*", "1")
PAIR_TABLE = (
    ("1", "1", "1", "1", "1", "1", "1", "1"),
    ("x*", "1", "x*", "1", "x*", "1", "x*", "1"),
    ("y*", "y*", "1", "1", "1", "y*", "y*", "1"),
    ("u*", "y*", "x*", "1", "x*", "y*", "u*", "1"),
    ("x", "x", "u", "u", "1", "y*", "y*", "1"),
    ("y", "u", "y", "u", "x*", "1", "x*", "1"),
    ("u", "u", "u", "u", "1", "1", "1", "1"),
    ("0", "x", "y", "u", "x*", "y*", "u*", "1"),
)


def test_passing_pair_hulls_have_the_boolean_arrow_table(algebras):
    """On an i-OL the subalgebra verdict is the whole pair-hull test: every
    passing hull carries the eight-by-eight table, duplicates collapsing."""
    passed = 0
    for alg, x, y in orthogonal_pairs(algebras):
        res, members = orthogonal_pair_boolean_witness(alg, x, y)
        if not res.passed:
            continue
        u = alg.arrow[star(alg, x)][y]
        values = dict(zip(PAIR_SYMBOLS, (alg.zero, x, y, u, star(alg, x), star(alg, y),
                                         star(alg, u), alg.one)))
        assert members == sum(1 << v for v in set(values.values()))
        for row_sym, row in zip(PAIR_SYMBOLS, PAIR_TABLE):
            for col_sym, sym in zip(PAIR_SYMBOLS, row):
                got = alg.arrow[values[row_sym]][values[col_sym]]
                assert got == values[sym], (alg.name, x, y, row_sym, col_sym)
        passed += 1
    assert passed


def test_orthogonal_pair_witness_degenerate(algebras):
    for alg in algebras.values():
        if not classify(alg).is_ioml:
            continue
        for x in range(alg.n):
            res, members = orthogonal_pair_boolean_witness(alg, x, alg.zero)
            assert res.passed
            allowed = alg.mask(["0", "1"]) | (1 << x) | (1 << star(alg, x))
            assert members & ~allowed == 0


def test_orthogonal_pair_witness_requires_orthogonality(benzene6):
    with pytest.raises(PreconditionError):
        orthogonal_pair_boolean_witness(benzene6, benzene6.index("b"), benzene6.index("c"))


def test_boolean_results_share_the_subalgebra_verdict(algebras):
    """The orthogonal-pair and block-family results report exactly the
    verdict of is_iboolean_subalgebra on their member sets, on the fixtures
    and on every i-OL with at most six elements."""
    models = [m for n in range(2, 7) for m in enumerate_models(n, "iol")]
    for alg in list(algebras.values()) + models:
        for x, y in pairs(alg):
            if not ortho(alg, x, y):
                continue
            res, members = orthogonal_pair_boolean_witness(alg, x, y)
            verdict = is_iboolean_subalgebra(alg, members)
            assert (res.check_id, res.status, res.witness) == (
                "orthogonal-pair-boolean", verdict.status, verdict.witness,
            )
        sp = associated_orthospace(alg)
        for blk in blocks(sp):
            if not is_normal(sp).passed:
                with pytest.raises(PreconditionError):
                    block_boolean_family(sp, blk)
                continue
            res, members = block_boolean_family(sp, blk)
            closed = enumerate_orthoclosed(sp)
            mask = 0
            for m in members:
                mask |= 1 << closed.index(m)
            verdict = is_iboolean_subalgebra(cl_algebra(sp), mask)
            assert res.check_id == "block-boolean"
            assert (res.status, res.witness) == (verdict.status, verdict.witness)
            sub = [0]
            for i in range(sp.n):
                if blk >> i & 1:
                    sub += [s | 1 << i for s in sub]
            assert set(members) == {orthoclosure(sp, s) for s in sub}


# -- projection families -----------------------------------------------------------

def test_trivial_family_is_a_sasaki_set(algebras):
    for alg in algebras.values():
        assert check_sasaki_set(alg, trivial_projection_family(alg)).passed
        assert not is_full(alg, trivial_projection_family(alg))  # n > 2 here


def test_published_family_is_full_on_ioml6(ioml6_full):
    alg = ioml6_full
    maps = tuple(
        ProjectionMap(tuple(alg.index(v) for v in row.split()), gen)
        for gen, row in PROJECTIONS_IOML6.items()
    )
    assert check_sasaki_set(alg, maps).passed
    assert is_full(alg, maps)


def test_canonical_family_fullness_by_construction(algebras):
    for alg in algebras.values():
        maps = canonical_projection_family(alg)
        assert is_full(alg, maps)
        for a in range(alg.n):
            assert maps[a].image[alg.one] == a


def test_full_sasaki_set_decision(benzene6, ioml6_full):
    res = has_full_sasaki_set(benzene6)
    assert res.failed
    assert res.witness == (("axiom", "SS3"), ("map", "b"), ("x", "c"))
    assert has_full_sasaki_set(ioml6_full).passed


def test_full_sasaki_set_iff_orthomodular(algebras):
    from orthologic.enumeration import enumerate_models

    for alg in algebras.values():
        assert has_full_sasaki_set(alg).passed == classify(alg).is_ioml
    for n in (2, 3, 4, 5, 6):
        for alg in enumerate_models(n, "iol"):
            assert has_full_sasaki_set(alg).passed == classify(alg).is_ioml


def test_sasaki_set_consequences_on_families(algebras):
    for alg in algebras.values():
        families = [trivial_projection_family(alg)]
        if classify(alg).is_ioml:
            families.append(canonical_projection_family(alg))
        for maps in families:
            for phi in maps:
                for psi in maps:
                    if phi.image[alg.one] == psi.image[alg.one]:
                        assert phi.image == psi.image
                assert compose(phi, phi).image == phi.image
                for x in range(alg.n):
                    for y in range(alg.n):
                        assert ortho(alg, phi.image[x], y) == ortho(alg, x, phi.image[y])
                    # arrow transfer: phi(x -> y) = (phi x*)* -> phi y
                    for y in range(alg.n):
                        lhs = phi.image[alg.arrow[x][y]]
                        rhs = alg.arrow[star(alg, phi.image[star(alg, x)])][phi.image[y]]
                        assert lhs == rhs


def test_full_family_formula_and_kernel(algebras):
    for name in IOML_NAMES:
        alg = algebras[name]
        for a in range(alg.n):
            phi = sasaki_projection(alg, a)
            for y in range(alg.n):
                assert phi[y] == wedge_q(alg, y, a)
            assert phi[star(alg, a)] == alg.zero


# -- Sasaki maps and spaces ----------------------------------------------------------

def test_no_sasaki_map_on_hexagon_pair_block(benzene6_space):
    sp = benzene6_space
    assert sasaki_map_search(sp, sp.mask(["a", "b"])) is None


def test_constant_sasaki_map_on_atom(sasaki6_space):
    sp = sasaki6_space
    a = sp.index("a")
    result = sasaki_map_search(sp, 1 << a)
    assert result is not None
    domain = [i for i in range(sp.n) if result.domain >> i & 1]
    assert set(sp.points[i] for i in domain) == {"a", "b", "c", "1"}
    assert all(result.image[i] == a for i in domain)


def test_identity_sasaki_map_on_full_set(algebras):
    for alg in algebras.values():
        sp = associated_orthospace(alg)
        result = sasaki_map_search(sp, sp.full())
        assert result is not None
        assert result.domain == sp.full()
        assert result.image == tuple(range(sp.n))


def test_sasaki_map_on_empty_set_is_the_empty_map(algebras):
    for alg in algebras.values():
        sp = associated_orthospace(alg)
        assert sasaki_map_search(sp, 0) == PartialMap(0, (None,) * sp.n)


def test_sasaki_map_requires_orthoclosed_input(benzene6_space):
    with pytest.raises(PreconditionError):
        sasaki_map_search(benzene6_space, benzene6_space.mask(["c"]))


def test_is_sasaki_space(benzene6_space, sasaki6_space, ioml10):
    res = is_sasaki_space(benzene6_space)
    assert res.failed
    assert res.witness == (("closed-set", "{a,b}"),)
    assert is_sasaki_space(sasaki6_space).passed
    assert is_sasaki_space(associated_orthospace(ioml10)).passed


def test_sasaki6_maps_are_the_four_constants_plus_identity(sasaki6_space):
    sp = sasaki6_space
    constants = 0
    for mask in enumerate_orthoclosed(sp):
        pm = sasaki_map_search(sp, mask)
        assert pm is not None
        size = bin(mask).count("1")
        if size == 1:
            target = mask.bit_length() - 1
            domain = [i for i in range(sp.n) if pm.domain >> i & 1]
            assert all(pm.image[i] == target for i in domain)
            constants += 1
    assert constants == 4


def test_sasaki_space_implies_dacey(algebras):
    from orthologic import is_dacey
    from orthologic.enumeration import enumerate_models

    pool = list(algebras.values())
    for n in (2, 3, 4, 5, 6):
        pool.extend(enumerate_models(n, "iol"))
    for alg in pool:
        sp = associated_orthospace(alg)
        if is_sasaki_space(sp).passed:
            assert is_dacey(sp).passed


def pairwise_reference(space, closed):
    """The map search that re-checks each new point against every point
    already mapped, in point order with candidates in point order."""
    domain = space.full() & ~perp(space, closed)
    image = [None] * space.n
    for i in iter_bits(closed):
        image[i] = i
    todo = list(iter_bits(domain & ~closed))
    assigned = list(iter_bits(closed))

    def consistent(i):
        fi = image[i]
        for j in assigned:
            if bool(space.rel[fi] & (1 << j)) != bool(space.rel[i] & (1 << image[j])):
                return False
        return True

    def extend(k):
        if k == len(todo):
            return True
        i = todo[k]
        for cand in iter_bits(closed):
            image[i] = cand
            if consistent(i):
                assigned.append(i)
                if extend(k + 1):
                    return True
                assigned.pop()
            image[i] = None
        return False

    if extend(0):
        return PartialMap(domain, tuple(image))
    return None


def map_search_spaces():
    """Spaces of the fixtures, the i-OLs with n <= 8 and relabelled Boolean
    2^4, MO_7 and sums of 1-3 hexagons, each also with one orthogonal pair
    deleted; then 300 seeded random relations on 3 to 8 points."""
    algs = [fixture(name) for name in sorted(FIXTURE_NAMES)] + list(iols_up_to(8))
    for seed in range(3):
        algs += [relabelled(alg, seed) for alg in
                 (boolean_iol(4), mo_iol(7), hexagons(1), hexagons(2), hexagons(3))]
    for alg in algs:
        space = associated_orthospace(alg)
        yield space
        if any(space.rel):
            yield without_pair(space)
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randrange(3, 9)
        points = tuple(f"p{i}" for i in range(n))
        yield OrthoSpace.from_pairs(points, [(x, y) for x, y in combinations(points, 2)
                                             if rng.random() < 0.4])


def test_map_search_agrees_with_the_pairwise_reference():
    found = missing = 0
    for space in map_search_spaces():
        for closed in enumerate_orthoclosed(space):
            result = sasaki_map_search(space, closed)
            assert result == pairwise_reference(space, closed), (space.points, closed)
            found += result is not None
            missing += result is None
    assert found and missing  # both outcomes are reached


def test_sasaki_space_verdict_does_not_depend_on_labelling(monkeypatch):
    # The verdict takes no search, so no node budget comes into play.
    monkeypatch.setenv("ORTHO_NODE_BUDGET", "1")
    for seed in range(6):
        space = associated_orthospace(relabelled(hexagons(8), seed))
        res = is_sasaki_space(space)
        assert res.failed
        ((_, name),) = res.witness
        closed = enumerate_orthoclosed(space)
        witness = next(m for m in closed if space.subset_name(m) == name)
        assert sasaki_map_search(space, witness) is None


def test_cli_sasaki_space_fails_on_eight_hexagons(tmp_path, capsys):
    # On this labelling, pairwise_reference tries more candidates than the
    # default node budget allows before it finds the closed set with no map.
    path = tmp_path / "hex8.json"
    path.write_text(serialize_algebra(relabelled(hexagons(8), 6)), encoding="utf-8")
    assert main(["ortho", str(path), "--sasaki-space"]) == 1
    assert "sasaki-space: fail" in capsys.readouterr().out


# -- the central projection monoid ------------------------------------------------

def test_center_monoid(ioml10, benzene6):
    assert run_check(ioml10, "T5-SP-CENTER-MONOID").passed
    res = run_check(benzene6, "T5-SP-CENTER-MONOID")
    assert res.skipped
    assert res.witness == (("precondition", "ioml"),)


def test_center_monoid_covers_everything_on_boolean():
    from orthologic.enumeration import enumerate_models

    (alg,) = enumerate_models(4, "iboolean")
    assert center(alg) == alg.universe_mask()
    assert run_check(alg, "T5-SP-CENTER-MONOID").passed
