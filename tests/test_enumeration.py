from itertools import permutations, product

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
from orthologic.enumeration import SearchGoal, canonical_key, goal_from_names

from conftest import relabel

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


def oracle_census(n):
    """Count implicative-ortholattices of each class on n elements up to
    isomorphism by searching orthocomplementations of bounded lattices and
    transforming x -> y := (x meet y')'."""
    seen = {"iol": set(), "ioml": set(), "iboolean": set()}
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
            alg = FiniteAlgebra("oracle", tuple(map(str, range(n))), arrow, n - 1, 0)
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


def test_forced_two_element_algebra():
    (two,) = enumerate_models(2, "iboolean")
    assert two.arrow == ((1, 1), (0, 1))
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
