import hashlib
import sys
from functools import lru_cache
from itertools import count, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from orthologic import (
    FiniteAlgebra,
    InputError,
    canonical_form,
    classify,
    counterexample_search,
    enumerate_models,
    fixture,
    is_isomorphic,
)
from orthologic.algebra import AXIOM_PREDICATES, AXIOMS, axiom_holds, le_l, swaps_first_roles
from orthologic.enumeration import (
    _CLASS_AXIOMS,
    SearchGoal,
    SearchStats,
    _from_key,
    _search_tables,
    _star_maps,
    _star_symmetries,
    canonical_key,
    goal_from_names,
)
from orthologic.fixtures import FIXTURE_NAMES

from conftest import (
    boolean_iol,
    brute_force_key,
    direct_product,
    free_cells,
    hexagons,
    horizontal_sum,
    mo_iol,
    reference_search_tables,
    relabel,
    relabelled,
)

# Census of models per size, frozen from the independent ortholattice-based
# oracle below (posets -> bounded lattices -> orthocomplementations).
EXPECTED_COUNTS = {
    2: {"iol": 1, "ioml": 1, "iboolean": 1},
    3: {"iol": 0, "ioml": 0, "iboolean": 0},
    4: {"iol": 1, "ioml": 1, "iboolean": 1},
    5: {"iol": 0, "ioml": 0, "iboolean": 0},
    6: {"iol": 2, "ioml": 1, "iboolean": 0},
}


# -- the independent oracle ----------------------------------------------------

def bounded_lattices(n):
    """All bounded lattices on n labeled elements with 0 bottom and n-1 top,
    one per labeled order, as (le, meet, join) tables."""
    mid = list(range(1, n - 1))
    rel_pairs = [(i, j) for i in mid for j in mid if i != j]
    for bits in range(1 << len(rel_pairs)):
        lt = {(0, x) for x in range(1, n)} | {(x, n - 1) for x in range(n - 1)}
        for k, p in enumerate(rel_pairs):
            if bits >> k & 1:
                lt.add(p)
        if any((j, i) in lt for (i, j) in lt):
            continue
        le_tab = [[i == j or (i, j) in lt for j in range(n)] for i in range(n)]
        if any(
            le_tab[i][j] and le_tab[j][k] and not le_tab[i][k]
            for i, j, k in product(range(n), repeat=3)
        ):
            continue
        meet = [[None] * n for _ in range(n)]
        join = [[None] * n for _ in range(n)]
        is_lattice = True
        for x in range(n):
            for y in range(n):
                lbs = [z for z in range(n) if le_tab[z][x] and le_tab[z][y]]
                glb = [z for z in lbs if all(le_tab[w][z] for w in lbs)]
                ubs = [z for z in range(n) if le_tab[x][z] and le_tab[y][z]]
                lub = [z for z in ubs if all(le_tab[z][w] for w in ubs)]
                if len(glb) != 1 or len(lub) != 1:
                    is_lattice = False
                    break
                meet[x][y], join[x][y] = glb[0], lub[0]
            if not is_lattice:
                break
        if is_lattice:
            yield le_tab, meet, join


def oracle_algebras(n):
    """The implicative-ortholattices x -> y := (x meet y')' of every
    orthocomplementation of every labeled bounded lattice on n elements."""
    for le_tab, meet, join in bounded_lattices(n):
        for img in permutations(range(n)):
            if img[0] != n - 1 or img[n - 1] != 0:
                continue
            if any(img[img[x]] != x for x in range(n)):
                continue
            if any(
                le_tab[x][y] and not le_tab[img[y]][img[x]]
                for x in range(n)
                for y in range(n)
            ):
                continue
            if any(meet[x][img[x]] != 0 or join[x][img[x]] != n - 1 for x in range(n)):
                continue
            arrow = tuple(
                tuple(img[meet[x][img[y]]] for y in range(n)) for x in range(n)
            )
            yield FiniteAlgebra("oracle", tuple(map(str, range(n))), arrow, n - 1, 0)


def oracle_census(n):
    """Count implicative-ortholattices of each class on n elements up to
    isomorphism by searching orthocomplementations of bounded lattices."""
    seen = {"iol": set(), "ioml": set(), "iboolean": set()}
    for alg in oracle_algebras(n):
        lab = classify(alg)
        assert lab.is_iol
        key = canonical_key(alg)
        seen["iol"].add(key)
        if lab.is_ioml:
            seen["ioml"].add(key)
        if lab.is_iboolean:
            seen["iboolean"].add(key)
    return {cls: len(keys) for cls, keys in seen.items()}


@pytest.mark.parametrize("n", sorted(EXPECTED_COUNTS))
def test_census_matches_frozen_counts_and_oracle(n):
    counts = {cls: len(enumerate_models(n, cls)) for cls in ("iol", "ioml", "iboolean")}
    assert counts == EXPECTED_COUNTS[n]
    assert oracle_census(n) == EXPECTED_COUNTS[n]


# -- the pruner and the key against their full-scan references -------------------

def image(arrow, g):
    """The table relabelled by the permutation g."""
    inv = sorted(range(len(g)), key=g.__getitem__)
    return tuple(bytes(g[arrow[inv[x]][inv[y]]] for y in range(len(g))) for x in range(len(g)))


def star_of(arrow):
    """The star map of a table, read off its 0-column."""
    return [row[0] for row in arrow]


def is_lex_leader(arrow, required):
    """Whether the complete table, read at the free cells in the search's
    order, is no greater than its image under any symmetry of the star."""
    n, star = len(arrow), star_of(arrow)
    _, cells = free_cells(n, star, required)
    own = [arrow[i][j] for i, j in cells]
    for g in _star_symmetries(n, star):
        relabelled = image(arrow, g)
        if [relabelled[i][j] for i, j in cells] < own:
            return False
    return True


@lru_cache(maxsize=None)
def reference_leaves(n, required):
    """Every leaf of the search without symmetry breaking, in order, and
    the node count."""
    nodes = count(1)
    leaves = tuple(reference_search_tables(n, required, nodes))
    return leaves, next(nodes) - 1


PRUNER_CASES = (
    [(n, req) for req in ((), ("pi",), ("IOM",), ("iG",), ("Idis1",)) for n in range(2, 6)]
    + [(n, req) for req in (("impl",), ("impl", "IOM"), ("impl", "@")) for n in range(2, 9)]
    + [(10, ("impl", "@"))]
)
CLASS_CASES = sorted(set(PRUNER_CASES) | {(6, ())})


def case_ids(cases):
    return [f"{n}-{'+'.join(r) or 'none'}" for n, r in cases]


@pytest.mark.parametrize("n, required", PRUNER_CASES, ids=case_ids(PRUNER_CASES))
def test_watched_pruner_matches_full_rescan(n, required):
    # A complete table survives the search exactly when it meets every law
    # and every lex-leader constraint, so the leaves are the reference's
    # lex leaders, in the same order; pruning only ever removes nodes.
    required = frozenset(required)
    nodes = count(1)
    leaves = [leaf.arrow for leaf in _search_tables(n, required, nodes)]
    reference, reference_nodes = reference_leaves(n, required)
    assert leaves == [leaf.arrow for leaf in reference if is_lex_leader(leaf.arrow, required)]
    assert next(nodes) - 1 <= reference_nodes


@pytest.mark.parametrize("n, required", CLASS_CASES, ids=case_ids(CLASS_CASES))
def test_symmetry_breaking_keeps_every_class(n, required):
    required = frozenset(required)
    reference, _ = reference_leaves(n, required)
    assert {canonical_key(leaf) for leaf in _search_tables(n, required)} == {
        canonical_key(leaf) for leaf in reference
    }


@pytest.mark.parametrize("n, required", CLASS_CASES, ids=case_ids(CLASS_CASES))
def test_star_symmetries_map_the_search_space_onto_itself(n, required):
    # Each symmetry keeps the pre-filled cells, the contrapositive pairing and
    # the laws, so the leaves of each star map are closed under it.
    reference, _ = reference_leaves(n, frozenset(required))
    for star in _star_maps(n, frozenset(required)):
        leaves = {leaf.arrow for leaf in reference if star_of(leaf.arrow) == star}
        for g in _star_symmetries(n, star):
            assert {image(arrow, g) for arrow in leaves} == leaves


@pytest.mark.parametrize("n", range(2, 13))
def test_star_symmetries_fix_the_constants_and_commute_with_the_star(n):
    for required in (frozenset(), frozenset({"impl"})):
        for star_of in _star_maps(n, required):
            pairs = sum(star_of[x] > x for x in range(1, n - 1))
            fixed = sum(star_of[x] == x for x in range(1, n - 1))
            syms = _star_symmetries(n, star_of)
            assert len(syms) == pairs + pairs * (pairs - 1) + fixed * (fixed - 1) // 2
            assert len(set(syms)) == len(syms)
            for g in syms:
                assert sorted(g) == list(range(n)) and g != bytes(range(n))
                assert g[0] == 0 and g[n - 1] == n - 1
                assert all(g[star_of[x]] == star_of[g[x]] for x in range(n))
    assert len(_star_symmetries(10, next(_star_maps(10, frozenset({"impl"}))))) == 16
    assert len(_star_symmetries(64, next(_star_maps(64, frozenset({"impl"}))))) == 961


def test_ten_element_search_keeps_few_leaves():
    # Without symmetry breaking the n=10 i-OL search has 1,993 leaves.
    leaves = list(_search_tables(10, frozenset({"impl"})))
    assert len(leaves) <= 20
    assert len({canonical_key(c) for c in leaves if classify(c).is_iol}) == 15


# Search nodes of the search without forced values, as upper bounds: a
# forced value only skips values that a law instance rejects.
NODES_WITHOUT_FORCING = {(6, "iol"): 42, (8, "iol"): 504, (8, "ioml"): 240,
                         (8, "iboolean"): 152, (10, "iboolean"): 380, (10, "iol"): 5_330,
                         (12, "iol"): 73_692}


@pytest.mark.parametrize("n, cls", sorted(NODES_WITHOUT_FORCING),
                         ids=[f"{n}-{cls}" for n, cls in sorted(NODES_WITHOUT_FORCING)])
def test_forced_values_visit_fewer_nodes(n, cls):
    nodes, stats = count(1), SearchStats()
    for _ in _search_tables(n, _CLASS_AXIOMS[cls], nodes, stats):
        pass
    assert next(nodes) - 1 < NODES_WITHOUT_FORCING[n, cls]
    assert stats.forced > 0


# sha256 of the leaves' arrow bytes, in search order, from the search
# without forced values: the leaves and their order are unchanged.
LEAF_DIGESTS = {
    10: "f185a53dfc8aa49432842f6b74323aab2737488a45e944d490672f975eeb6872",
    12: "9b9dfb7ac7003725c0bd12872cf830cc49a2b1fd576990c224f4d398b38ee35a",
}

# What the class searches visit: (search nodes, forced values, wipe-outs,
# leaves).  Pruning that removes nodes lowers these by design; print fresh
# values of both tables with ``PYTHONPATH=src python tests/test_enumeration.py``.
SEARCH_STATS = {
    (6, "iol"): (32, 9, 1, 2),
    (6, "ioml"): (31, 8, 1, 1),
    (8, "iol"): (258, 122, 12, 5),
    (10, "iboolean"): (121, 138, 15, 0),
    (10, "iol"): (1_662, 787, 63, 18),
    (12, "iol"): (14_325, 4_641, 456, 100),
}


@lru_cache(maxsize=None)
def visit(n, cls):
    """What the search of the class at size n visits, as in ``SEARCH_STATS``,
    and the sha256 of its leaves, as in ``LEAF_DIGESTS``."""
    nodes, stats, digest = count(1), SearchStats(), hashlib.sha256()
    for leaf in _search_tables(n, _CLASS_AXIOMS[cls], nodes, stats):
        stats.leaves += 1
        digest.update(b"".join(leaf.arrow))
    return (next(nodes) - 1, stats.forced, stats.wipeouts, stats.leaves), digest.hexdigest()


@pytest.mark.parametrize("n", sorted(LEAF_DIGESTS))
def test_leaves_come_out_in_the_same_order(n):
    assert visit(n, "iol")[1] == LEAF_DIGESTS[n]


@pytest.mark.parametrize("n, cls", SEARCH_STATS, ids=[f"{n}-{cls}" for n, cls in SEARCH_STATS])
def test_the_search_visits_the_pinned_nodes(n, cls):
    assert visit(n, cls)[0] == SEARCH_STATS[n, cls]


def test_be4_is_watched_once_per_equation(monkeypatch):
    # BE4 at (y, x, z) is BE4 at (x, y, z) with its sides exchanged, and it
    # holds where x = y, so the search evaluates it at x < y alone.
    assert [a for a, law in AXIOMS.items() if swaps_first_roles(*law)] == ["BE4"]
    be4, calls = AXIOM_PREDICATES["BE4"], []

    def counted(t, Z, O, U, *roles):
        calls.append(roles)
        return be4(t, Z, O, U, *roles)

    monkeypatch.setitem(AXIOM_PREDICATES, "BE4", counted)
    list(_search_tables(6, _CLASS_AXIOMS["iol"]))
    assert calls and all(x < y for x, y, _ in calls)


def test_a_pre_filled_table_that_fails_a_law_has_no_leaf():
    # At n = 3 every cell is pre-filled, and the one table fails pi and Idis1.
    for law in ("pi", "Idis1"):
        assert list(_search_tables(3, frozenset({law}))) == []
    assert counterexample_search(goal_from_names(["pi"], ["IOM"], 2, 5)) is None


# What the search finds beyond the oracle's reach: a regression guard, not
# a census pinned by an independent oracle.
FOUND_COUNTS = {(8, "iol"): 5, (8, "ioml"): 2, (8, "iboolean"): 1,
                (10, "iol"): 15, (10, "ioml"): 2, (10, "iboolean"): 0, (12, "iol"): 60}


@pytest.mark.parametrize("n, cls", sorted(FOUND_COUNTS),
                         ids=[f"{n}-{cls}" for n, cls in sorted(FOUND_COUNTS)])
def test_counts_found_beyond_the_oracle(n, cls):
    assert len(enumerate_models(n, cls)) == FOUND_COUNTS[n, cls]


def assert_same_partition(algebras):
    """The tree's key and the all-permutation key split the algebras into
    the same classes."""
    pairs = {(canonical_key(a), brute_force_key(a)) for a in algebras}
    assert len({k for k, _ in pairs}) == len({b for _, b in pairs}) == len(pairs)


# sha256 of the canonical keys of each entry of ``key_cases``, computed on the
# tree without automorphism pruning: pruning skips only subtrees whose leaf
# tables were seen, so no key moves.  ``main`` prints fresh values.
KEY_DIGESTS = {
    "benzene6": "c67d7c764f0d81c87f8d8eb09833d0e9acd5277a9ae4f3781b7047bbe83d2f42",
    "ioml10": "5e069079cfaac59f450ea2a5de423eb6ab00cd10104067db26509b83565a2920",
    "ioml6-full": "7f6cab5ac82d94cf5372181f0931fa997697aeeb1cd4ca98deb7961e37c92d52",
    "sasaki6": "7f6cab5ac82d94cf5372181f0931fa997697aeeb1cd4ca98deb7961e37c92d52",
    "census-2-iol": "252c0b6b080fa045acfcd1437f693f3be2be2ac8223ea525d492fa19ab028942",
    "census-2-ioml": "252c0b6b080fa045acfcd1437f693f3be2be2ac8223ea525d492fa19ab028942",
    "census-2-iboolean": "252c0b6b080fa045acfcd1437f693f3be2be2ac8223ea525d492fa19ab028942",
    "census-4-iol": "a39e644820aa4e4f4622cd8b67295255269f5b228197b6bcb18191a354043e62",
    "census-4-ioml": "a39e644820aa4e4f4622cd8b67295255269f5b228197b6bcb18191a354043e62",
    "census-4-iboolean": "a39e644820aa4e4f4622cd8b67295255269f5b228197b6bcb18191a354043e62",
    "census-6-iol": "81e73c2cbca7439524eaf0c44a4b4bed645bbbf6f47861cd8a3bb8c4017909fe",
    "census-6-ioml": "7f6cab5ac82d94cf5372181f0931fa997697aeeb1cd4ca98deb7961e37c92d52",
    "census-6-iboolean": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "census-8-iol": "61be4821a765dfa08cf766e38acabc65caa5d8127870274d6083427725986279",
    "census-8-ioml": "a97c56f818436afa7d8cc5506b899397ecf0a1500cdf068d64a6c501e0a032cf",
    "census-8-iboolean": "f18239c06b14e14b42e66f3d8b6ac8266d6dac9ffc0361795404441fd3c7b2e8",
    "census-10-iol": "4e2d4530d7bbae6796fd775c42e11c337397f628044a17daf689cd0982d334e3",
    "census-10-ioml": "153495406b225a4f7bcdd808ddb4353a98c1759aa0eaec9d7be7e40e9042c135",
    "census-10-iboolean": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "B8": "f18239c06b14e14b42e66f3d8b6ac8266d6dac9ffc0361795404441fd3c7b2e8",
    "B16": "5b62be2a02c59e39a4fc9fc6e46a22d622f437f0e8887a38798d3a3530d7f2df",
    "B32": "3d0eba2240a293f536b40a95ed70b22c91925a840d03784073fc87f5cfc5ef08",
    "B64": "9eac426d5c1b6340757ae2d21c2f471b82b89949de0c49d8a39344e89798df48",
    "MO3": "64c11b2d8c8a6a84fc74103ab4b6b8435d23b7aa0c23b9b02be40f7aec3d435a",
    "MO4": "fa663ae70fbeb24b7436c0bdcd9ce6781bced1f24210f590448b9c6bfe421bb5",
    "MO5": "d82a458cea82ae0cce942de9173975be2f6685bf834108bcb911eec5656887dc",
    "MO6": "c1a17aa78014d97e3ad6bb01e5308df2f9ad2a79627556e9696c0a9dd1e342cf",
    "hex1": "c67d7c764f0d81c87f8d8eb09833d0e9acd5277a9ae4f3781b7047bbe83d2f42",
    "hex2": "53c7b7f7f84bf81d7941afe08c39ea61447d1ee09b0197713937d33d2e3cacdc",
    "hex3": "ce80037a0b4a1ce253bc060340c21d820c7e3d6c6940377e0dca7cbcabbce850",
    "hex4": "3d2613b6154fcabaa05e5ec0a8adf8a2a46690f7e270a142e80fe159c5bc8bfc",
}


@lru_cache(maxsize=None)
def key_cases():
    """The algebras whose keys ``KEY_DIGESTS`` pins, by name: the fixtures,
    relabelled copies of the census at even n up to 10, and relabelled
    Boolean algebras B8-B64, MO3-MO6 and horizontal sums of one to four
    hexagons."""
    cases = {name: (fixture(name),) for name in FIXTURE_NAMES}
    for n, cls in product(range(2, 11, 2), _CLASS_AXIOMS):
        census = enumerate_models(n, cls)
        cases[f"census-{n}-{cls}"] = tuple(relabelled(m, i) for i, m in enumerate(census))
    cases |= {f"B{1 << k}": (relabelled(boolean_iol(k), k),) for k in range(3, 7)}
    cases |= {f"MO{m}": (relabelled(mo_iol(m), m),) for m in range(3, 7)}
    cases |= {f"hex{k}": (relabelled(hexagons(k), k),) for k in range(1, 5)}
    return cases


def key_digest(name):
    return hashlib.sha256(b"".join(map(canonical_key, key_cases()[name]))).hexdigest()


@pytest.mark.parametrize("name", KEY_DIGESTS)
def test_pruning_keeps_every_key(name):
    assert key_digest(name) == KEY_DIGESTS[name]
    for alg in key_cases()[name]:
        if alg.n <= 8:
            assert brute_force_key(_from_key("k", canonical_key(alg))) == brute_force_key(alg)


# Nodes of the pruned trees over eight relabellings, as upper bounds.  The
# tree without pruning has 75,973 nodes on MO6, 7,889 on the four-hexagon
# sum and 921 on B64; MO31 did not finish within 9 minutes.
PRUNED_NODES = {"MO6": 40, "MO31": 600, "hex4": 150, "B64": 20}


@pytest.mark.parametrize("name", PRUNED_NODES)
def test_automorphisms_prune_the_key_tree(name):
    alg = {"MO6": mo_iol(6), "MO31": mo_iol(31), "hex4": hexagons(4), "B64": boolean_iol(6)}[name]
    for seed in range(8):
        copy, nodes, found = relabelled(alg, seed), count(1), []
        canonical_key(copy, nodes, found)
        assert next(nodes) - 1 <= PRUNED_NODES[name]
        assert found
        for g in found:
            assert_isomorphism(copy, copy, g)


def test_key_partition_on_unconstrained_leaves():
    leaves = [
        c for n in range(2, 7) for c in reference_search_tables(n, ()) if axiom_holds(c, "BE4")
    ]
    assert len(leaves) > 100
    assert_same_partition(leaves)


def test_key_partition_on_eight_element_leaves():
    leaves = [c for c in reference_search_tables(8, {"impl"}) if axiom_holds(c, "BE4")]
    assert len(leaves) == 69
    assert_same_partition(leaves)


@pytest.mark.parametrize("n", [4, 6])
def test_key_partition_on_oracle_algebras(n):
    assert_same_partition(list(oracle_algebras(n)))


@st.composite
def small_tables(draw):
    """A table on 2..6 elements with distinct 0 and 1 and arbitrary cells,
    whose star is arbitrary, an involution that swaps 0 and 1, or a map
    that swaps 0 and 1 and sends the rest among themselves, which is rarely
    an involution.  The key takes one path on all of them: its tree reads
    star only through the arrow table."""
    n = draw(st.integers(2, 6))
    zero, one, *middles = draw(st.permutations(range(n)))
    arrow = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    star = draw(st.sampled_from(["any", "involution", "into the middle"]))
    if star != "any":
        star_of = {zero: one, one: zero} | {x: x for x in middles}
        if star == "involution":
            paired = middles[draw(st.integers(0, len(middles))):]
            for a, b in zip(paired[::2], paired[1::2]):
                star_of[a], star_of[b] = b, a
        else:
            star_of |= {x: draw(st.sampled_from(middles)) for x in middles}
        for x in range(n):
            arrow[x][zero] = star_of[x]
    return FiniteAlgebra("t", tuple(map(str, range(n))), tuple(map(tuple, arrow)), one, zero)


@settings(max_examples=150, deadline=None)
@given(alg=small_tables(), data=st.data())
def test_canonical_key_is_invariant_under_relabelling(alg, data):
    perm = data.draw(st.permutations(range(alg.n)))
    key = canonical_key(alg)
    assert canonical_key(relabel(alg, list(perm))) == key
    # The key is a relabelled copy of the input.
    assert brute_force_key(_from_key("k", key)) == brute_force_key(alg)


def test_forced_two_element_algebra():
    (two,) = enumerate_models(2, "iboolean")
    assert two.arrow == (bytes((1, 1)), bytes((0, 1)))
    assert classify(two).is_iboolean


def test_enumerated_models_are_valid_and_pairwise_non_isomorphic():
    for n in (4, 6):
        models = enumerate_models(n, "iol")
        for m in models:
            assert classify(m).is_iol
        for i, a in enumerate(models):
            for b in models[i + 1:]:
                assert is_isomorphic(a, b) is None


def test_enumeration_is_reproducible():
    first = enumerate_models(6, "iol")
    second = enumerate_models(6, "iol")
    assert [m.arrow for m in first] == [m.arrow for m in second]


def test_enumerate_limit_and_validation():
    assert len(enumerate_models(6, "iol", limit=1)) == 1
    with pytest.raises(InputError):
        enumerate_models(6, "nonsense")
    with pytest.raises(InputError):
        enumerate_models(1, "iol")


def test_enumerate_rejects_negative_limit():
    with pytest.raises(InputError, match="negative limit"):
        enumerate_models(6, "iol", limit=-1)
    assert enumerate_models(6, "iol", limit=0) == []


def test_six_element_models_are_the_two_known_ones():
    hexagon, mo2 = None, None
    for m in enumerate_models(6, "iol"):
        if classify(m).is_ioml:
            mo2 = m
        else:
            hexagon = m
    assert is_isomorphic(hexagon, fixture("benzene6")) is not None
    assert is_isomorphic(mo2, fixture("ioml6-full")) is not None


# -- isomorphism ---------------------------------------------------------------

def test_identity_for_identical_tables(benzene6):
    assert is_isomorphic(benzene6, benzene6) == tuple(range(benzene6.n))


def test_atom_pairing_does_not_distinguish_the_two_orthomodular_six_models():
    # same four-atom structure, different star labels: isomorphic
    mapping = is_isomorphic(fixture("ioml6-full"), fixture("sasaki6"))
    assert mapping is not None
    a = fixture("ioml6-full")
    b = fixture("sasaki6")
    for x in range(a.n):
        for y in range(a.n):
            assert mapping[a.arrow[x][y]] == b.arrow[mapping[x]][mapping[y]]


def test_hexagon_not_isomorphic_to_mo2():
    assert is_isomorphic(fixture("benzene6"), fixture("ioml6-full")) is None


def test_different_sizes_are_never_isomorphic():
    assert is_isomorphic(fixture("benzene6"), fixture("ioml10")) is None


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_canonical_form_invariant_under_relabeling(data):
    name = data.draw(st.sampled_from(["benzene6", "ioml6-full", "sasaki6"]))
    alg = fixture(name)
    perm = data.draw(st.permutations(list(range(alg.n))))
    relabeled = relabel(alg, list(perm))
    assert canonical_form(alg).arrow == canonical_form(relabeled).arrow
    assert is_isomorphic(alg, relabeled) is not None


def test_isomorphism_is_an_equivalence_on_a_batch():
    batch = enumerate_models(6, "iol") + [fixture("benzene6"), fixture("sasaki6")]
    for a in batch:
        assert is_isomorphic(a, a) is not None
    for a in batch:
        for b in batch:
            ab = is_isomorphic(a, b)
            ba = is_isomorphic(b, a)
            assert (ab is None) == (ba is None)
    for a in batch:
        for b in batch:
            for c in batch:
                if is_isomorphic(a, b) and is_isomorphic(b, c):
                    assert is_isomorphic(a, c) is not None


# Constructions are cached: the larger ones are classified when built.
_boolean, _mo, _hexagons, _product, _sum = map(
    lru_cache(maxsize=None), (boolean_iol, mo_iol, hexagons, direct_product, horizontal_sum)
)
SMALL_IOLS = (boolean_iol(1), boolean_iol(2), boolean_iol(3), mo_iol(2), mo_iol(3),
              hexagons(1), hexagons(2))


@st.composite
def known_iols(draw):
    """A known i-OL of at most 64 elements: Boolean, MO_m, a horizontal sum
    of hexagons, or a direct product or horizontal sum of two small ones."""
    kind = draw(st.sampled_from(("boolean", "mo", "hexagons", "product", "sum")))
    if kind == "boolean":
        return _boolean(draw(st.integers(1, 6)))
    if kind == "mo":
        return _mo(draw(st.integers(0, 31)))
    if kind == "hexagons":
        return _hexagons(draw(st.integers(1, 15)))
    a = draw(st.sampled_from(SMALL_IOLS))
    if kind == "product":
        return _product(a, draw(st.sampled_from([b for b in SMALL_IOLS if a.n * b.n <= 64])))
    return _sum(a, draw(st.sampled_from(SMALL_IOLS)))


def order_profile(alg):
    """The sorted (down-set size, up-set size) of the elements under the
    order: equal on isomorphic i-OLs, and all (2, 2) on the middle of MO_m."""
    le = [[le_l(alg, x, y) for y in range(alg.n)] for x in range(alg.n)]
    return sorted((sum(row[x] for row in le), sum(le[x])) for x in range(alg.n))


def assert_isomorphism(a, b, mapping):
    assert sorted(mapping) == list(range(b.n))
    assert all(
        mapping[a.arrow[x][y]] == b.arrow[mapping[x]][mapping[y]]
        for x in range(a.n)
        for y in range(a.n)
    )


@settings(max_examples=60, deadline=None)
@given(alg=known_iols(), seed=st.integers(0, 1 << 16))
def test_is_isomorphic_on_relabelled_known_iols(alg, seed):
    copy = relabelled(alg, seed)
    assert_isomorphism(alg, copy, is_isomorphic(alg, copy))
    # Every construction has an even size n, as has MO_m for m = (n - 2) / 2,
    # which is isomorphic to alg exactly when their orders have one profile.
    mo = _mo((alg.n - 2) // 2)
    mapping = is_isomorphic(alg, relabelled(mo, seed))
    if order_profile(alg) == order_profile(mo):
        assert_isomorphism(alg, relabelled(mo, seed), mapping)
    else:
        assert mapping is None


def test_is_isomorphic_checks_the_map_at_the_leaf():
    # Refinement reads no arrow between two elements that become singletons
    # in the same round, so these tables, which differ only in p -> q and
    # q -> p, reach leaves through equal traces.
    def table(p_to_q, q_to_p):
        arrow = ((3, 3, 3, 3), (0, 3, p_to_q, 3), (0, q_to_p, 3, 3), (0, 1, 2, 3))
        return FiniteAlgebra("t", ("0", "p", "q", "1"), arrow, 3, 0)

    a = table(1, 2)
    assert is_isomorphic(a, table(2, 1)) is None
    assert_isomorphism(a, relabel(a, [0, 2, 1, 3]), is_isomorphic(a, relabel(a, [0, 2, 1, 3])))


@pytest.mark.parametrize(
    "a, b",
    [
        (mo_iol(6), hexagons(3)),
        (boolean_iol(4), mo_iol(7)),
        (boolean_iol(6), mo_iol(31)),
        (direct_product(hexagons(1), hexagons(1)), direct_product(mo_iol(2), mo_iol(2))),
        (horizontal_sum(boolean_iol(3), hexagons(1)), horizontal_sum(mo_iol(2), mo_iol(3))),
    ],
    ids=["MO6-hex3", "B16-MO7", "B64-MO31", "hex1xhex1-MO2xMO2", "B8+hex1-MO2+MO3"],
)
def test_is_isomorphic_rejects_non_isomorphic_pairs_of_one_size(a, b):
    assert a.n == b.n
    for seed in range(3):
        assert is_isomorphic(a, relabelled(b, seed)) is None
        assert is_isomorphic(relabelled(b, seed), a) is None


# -- goal-directed search --------------------------------------------------------

def test_counterexample_search_rediscovers_the_hexagon():
    hit = counterexample_search(goal_from_names(["impl", "DN"], ["IOM"], 2, 6))
    assert hit is not None
    assert hit.n == 6
    assert classify(hit).is_iol and not classify(hit).is_ioml
    assert is_isomorphic(hit, fixture("benzene6")) is not None


def test_counterexample_search_finds_non_boolean_orthomodular():
    hit = counterexample_search(goal_from_names(["impl", "DN", "IOM"], ["Idiv"], 2, 6))
    assert hit is not None
    assert hit.n == 6
    assert classify(hit).is_ioml and not classify(hit).is_iboolean
    assert is_isomorphic(hit, fixture("ioml6-full")) is not None


def test_counterexample_search_exhausted_range_returns_none():
    assert counterexample_search(goal_from_names(["impl", "DN"], ["IOM"], 2, 5)) is None


def test_ten_element_absence_proofs():
    # Every i-Boolean algebra is orthomodular, and none has 10 elements:
    # both searches exhaust every size up to 10.
    assert counterexample_search(goal_from_names(["impl", "@"], ["IOM"], 2, 10)) is None
    assert enumerate_models(10, "iboolean") == []


def test_counterexample_search_covers_star_fixed_points():
    # The Lukasiewicz chain 0 < h < 1 has h* = h: bounded, involutive and BE,
    # but (h -> 0) -> h = 1, so it fails impl.  No 2-element model does.
    lukasiewicz3 = FiniteAlgebra(
        "L3", ("0", "h", "1"), ((2, 2, 2), (1, 2, 2), (0, 1, 2)), 2, 0
    )
    lab = classify(lukasiewicz3)
    assert lab.is_be and lab.is_involutive and not lab.is_iol
    hit = counterexample_search(goal_from_names([], ["impl"], 2, 3))
    assert hit is not None and hit.n == 3
    assert is_isomorphic(hit, lukasiewicz3) is not None


def test_contradictory_goal_is_rejected():
    with pytest.raises(InputError):
        SearchGoal(frozenset({"impl", "DN"}), frozenset({"impl"}))
    with pytest.raises(InputError):
        SearchGoal(frozenset(), frozenset({"DN"}))
    with pytest.raises(InputError):
        goal_from_names(["nonsense"], [])


def test_empty_size_range_is_rejected():
    with pytest.raises(InputError, match="empty size range"):
        goal_from_names(["impl"], ["IOM"], max_size=1)
    with pytest.raises(InputError, match="empty size range"):
        SearchGoal(frozenset(), frozenset({"impl"}), min_size=5, max_size=4)
    assert goal_from_names(["impl"], ["IOM"], 4, 4).max_size == 4


def main():
    """Print fresh ``LEAF_DIGESTS``, ``SEARCH_STATS`` and ``KEY_DIGESTS`` in
    this file's form, and name each entry that moved on stderr."""
    print("LEAF_DIGESTS = {")
    for n, pinned in LEAF_DIGESTS.items():
        fresh = visit(n, "iol")[1]
        print(f'    {n}: "{fresh}",')
        if fresh != pinned:
            print(f"changed: LEAF_DIGESTS[{n}]", file=sys.stderr)
    print("}")
    print("SEARCH_STATS = {")
    for (n, cls), pinned in SEARCH_STATS.items():
        fresh = visit(n, cls)[0]
        print(f'    ({n}, "{cls}"): ({", ".join(f"{x:_}" for x in fresh)}),')
        if fresh != pinned:
            print(f"changed: SEARCH_STATS[{n}, {cls!r}]", file=sys.stderr)
    print("}")
    print("KEY_DIGESTS = {")
    for name, pinned in KEY_DIGESTS.items():
        fresh = key_digest(name)
        print(f'    "{name}": "{fresh}",')
        if fresh != pinned:
            print(f"changed: KEY_DIGESTS[{name!r}]", file=sys.stderr)
    print("}")


if __name__ == "__main__":
    main()
