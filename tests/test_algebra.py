import ast
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from orthologic import (
    FiniteAlgebra,
    InputError,
    NonLatticeError,
    big_meet,
    check_axiom,
    classify,
    down_set,
    fixture,
    is_distributive,
    le,
    le_l,
    le_q,
    star,
    vee_p,
    vee_q,
    wedge_p,
    wedge_q,
)
from orthologic import algebra
from orthologic.algebra import (
    AXIOMS,
    CLASS_LAWS,
    TABLE_CEILING,
    axiom_holds,
    ortho,
    resolve_axiom_id,
)
from orthologic.enumeration import (
    _CLASS_AXIOMS,
    _UNIVERSE_AXIOMS,
    counterexample_search,
    goal_from_names,
)
from orthologic.fixtures import FIXTURE_NAMES

from conftest import iols_up_to
from published_tables import WEDGE_Q
from test_theorem_scans import mutants, random_tables


def pairs(alg):
    return product(range(alg.n), repeat=2)


# -- derived operations against the published tables -------------------------

@pytest.mark.parametrize("name", sorted(WEDGE_Q))
def test_wedge_q_matches_published_tables(name):
    alg = fixture(name)
    for i, row in enumerate(WEDGE_Q[name]):
        for j, expected in enumerate(row.split()):
            assert alg.elements[wedge_q(alg, i, j)] == expected


def test_star_examples(algebras):
    bz = algebras["benzene6"]
    assert bz.elements[star(bz, bz.index("a"))] == "c"
    i6 = algebras["ioml6-full"]
    assert i6.elements[star(i6, i6.index("c"))] == "d"
    for alg in algebras.values():
        assert star(alg, alg.one) == alg.zero


def test_star_is_involution_on_fixtures(algebras):
    for alg in algebras.values():
        assert classify(alg).is_involutive
        for x in range(alg.n):
            assert star(alg, star(alg, x)) == x


def test_vee_q_examples(algebras):
    bz = algebras["benzene6"]
    assert bz.elements[vee_q(bz, bz.index("b"), bz.index("a"))] == "a"
    i10 = algebras["ioml10"]
    # fold of the published arrow table: (a -> b) -> b = b -> b = 1
    assert i10.elements[vee_q(i10, i10.index("a"), i10.index("b"))] == "1"
    for alg in algebras.values():
        for x in range(alg.n):
            assert vee_q(alg, x, alg.one) == alg.one


def test_wedge_q_spot_values(algebras):
    bz = algebras["benzene6"]
    assert bz.elements[wedge_q(bz, bz.index("a"), bz.index("b"))] == "b"
    assert wedge_q(bz, bz.index("b"), bz.index("c")) == bz.zero
    i10 = algebras["ioml10"]
    assert i10.elements[wedge_q(i10, i10.index("a"), i10.index("c"))] == "c"
    assert i10.elements[wedge_q(i10, i10.index("c"), i10.index("a"))] == "a"


def test_pointed_meet_join_examples(algebras):
    bz = algebras["benzene6"]
    assert bz.elements[wedge_p(bz, bz.index("a"), bz.index("b"))] == "a"
    sa = algebras["sasaki6"]
    a, b = sa.index("a"), sa.index("b")
    assert vee_p(sa, a, b) == sa.arrow[star(sa, a)][b]
    for alg in algebras.values():
        for x in range(alg.n):
            assert wedge_p(alg, x, alg.one) == x


def test_order_relation_examples(algebras):
    bz = algebras["benzene6"]
    a, b = bz.index("a"), bz.index("b")
    assert le_l(bz, a, b) and not le_q(bz, a, b)
    assert le(bz, b, a) and not le_l(bz, b, a)
    for alg in algebras.values():
        for x in range(alg.n):
            assert le(alg, x, x)


def test_le_l_alternative_form(algebras):
    # x <=L y iff x* = x -> y*
    for alg in algebras.values():
        for x, y in pairs(alg):
            alt = star(alg, x) == alg.arrow[x][star(alg, y)]
            assert le_l(alg, x, y) == alt


def test_arrow_star_swap_on_bounded(algebras):
    # x -> y* = y -> x*
    for alg in algebras.values():
        for x, y in pairs(alg):
            assert alg.arrow[x][star(alg, y)] == alg.arrow[y][star(alg, x)]


# -- big meets ----------------------------------------------------------------

def test_big_meet_examples(algebras):
    bz = algebras["benzene6"]
    assert bz.elements[big_meet(bz, bz.mask(["a", "b"]))] == "a"
    for alg in algebras.values():
        assert big_meet(alg, 0) == alg.one


def test_big_meet_is_greatest_lower_bound(algebras):
    for alg in algebras.values():
        for members in range(1 << alg.n):
            m = big_meet(alg, members)
            idxs = [i for i in range(alg.n) if members >> i & 1]
            for x in idxs:
                assert le_l(alg, m, x)
            for z in range(alg.n):
                if all(le_l(alg, z, x) for x in idxs):
                    assert le_l(alg, z, m)


def test_big_meet_rejects_non_lattice_folds():
    # An involutive BE algebra without the iG law: le_l is not even
    # reflexive, so meet folds cannot be bounds.
    alg = counterexample_search(goal_from_names([], ["iG"], 2, 4))
    assert alg is not None
    bad = None
    for members in range(1, 1 << alg.n):
        try:
            big_meet(alg, members)
        except NonLatticeError:
            bad = members
            break
    assert bad is not None


# -- axioms and classification ------------------------------------------------

def test_axiom_registry_covers_the_paper_catalogue():
    expected = {
        "BE1", "BE2", "BE3", "BE4", "bounded", "DN", "impl", "iG", "pi",
        "Iabs-i", "IOM", "IOM'", "IOM''", "@", "Idiv", "Idis1", "Idis2",
    }
    assert set(AXIOMS) == expected
    assert resolve_axiom_id("at") == "@"
    assert resolve_axiom_id("iom") == "IOM"
    with pytest.raises(InputError):
        resolve_axiom_id("nonsense")


def test_check_axiom_examples(benzene6, ioml10):
    res = check_axiom(benzene6, "IOM")
    assert res.failed
    assert res.witness == (("x", "a"), ("y", "d"))
    # re-evaluating the defining formula at the witness reproduces the failure
    a, d = benzene6.index("a"), benzene6.index("d")
    assert benzene6.elements[wedge_q(benzene6, a, benzene6.arrow[d][a])] == "b"
    assert check_axiom(ioml10, "IOM").passed
    assert check_axiom(benzene6, "impl").passed


def test_check_axiom_unknown_id(benzene6):
    with pytest.raises(InputError):
        check_axiom(benzene6, "nope")


def test_classification_flags(algebras):
    lab = classify(algebras["benzene6"])
    assert lab.is_iol and not lab.is_ioml
    lab10 = classify(algebras["ioml10"])
    assert lab10.is_ioml and not lab10.is_iboolean
    for name in ("ioml6-full", "sasaki6"):
        assert classify(algebras[name]).is_ioml
    two = fixture_two_element()
    assert classify(two).is_iboolean


def fixture_two_element():
    from orthologic.enumeration import enumerate_models

    (two,) = enumerate_models(2, "iboolean")
    return two


def test_flag_chain_is_monotone(algebras):
    for alg in algebras.values():
        lab = classify(alg)
        if lab.is_iboolean:
            assert lab.is_ioml
        if lab.is_ioml:
            assert lab.is_iol
        if lab.is_iol:
            assert lab.is_involutive and lab.is_bounded and lab.is_be


# The paper's definitions of its three classes, and of the three flags below
# them: an i-OL is a bounded involutive BE algebra that satisfies impl; an
# i-OML is an i-OL that satisfies IOM, an implicative-Boolean algebra an i-OL
# that satisfies @.
PAPER_CLASSES = {
    "be": {"BE1", "BE2", "BE3", "BE4"},
    "bounded": {"bounded"},
    "involutive": {"bounded", "DN"},
    "iol": {"BE1", "BE2", "BE3", "BE4", "bounded", "DN", "impl"},
    "ioml": {"BE1", "BE2", "BE3", "BE4", "bounded", "DN", "impl", "IOM"},
    "iboolean": {"BE1", "BE2", "BE3", "BE4", "bounded", "DN", "impl", "@"},
}


def test_the_class_table_is_the_papers_definitions():
    assert list(CLASS_LAWS) == list(PAPER_CLASSES)
    assert {cls: set(laws) for cls, laws in CLASS_LAWS.items()} == PAPER_CLASSES
    assert all(len(set(laws)) == len(laws) for laws in CLASS_LAWS.values())
    # The model search: the universe less BE4, which it prunes on, and each
    # searchable class by the laws it adds to the universe.
    assert _UNIVERSE_AXIOMS == {"BE1", "BE2", "BE3", "bounded", "DN"}
    assert _CLASS_AXIOMS == {"iol": {"impl"}, "ioml": {"impl", "IOM"}, "iboolean": {"impl", "@"}}
    assert list(_CLASS_AXIOMS) == ["iol", "ioml", "iboolean"]


def test_classify_flags_are_the_laws_of_their_class():
    # Against check_axiom on the fixtures, the census to n=8, one-cell
    # mutants (not all BE) and random tables (mostly neither bounded nor
    # involutive): every flag is seen both set and clear.
    corpus = [fixture(name) for name in sorted(FIXTURE_NAMES)] + list(iols_up_to(8)) + \
        [mutant for _, mutant in mutants(300, 1)] + list(random_tables(200, 1, (2, 6)))
    seen = set()
    for alg in corpus:
        flags = {cls: all(check_axiom(alg, law).passed for law in laws)
                 for cls, laws in PAPER_CLASSES.items()}
        assert classify(alg).as_dict() == flags, alg.name
        assert list(classify(alg).as_dict()) == list(PAPER_CLASSES)
        seen |= flags.items()
    assert seen == {(cls, value) for cls in PAPER_CLASSES for value in (False, True)}


def test_distributive_iff_boolean_on_iols(algebras):
    for alg in algebras.values():
        lab = classify(alg)
        if lab.is_iol:
            assert is_distributive(alg) == lab.is_iboolean


def test_classify_does_not_scan_the_distributive_laws(monkeypatch):
    import orthologic.algebra as algebra_module

    scanned = []
    real = algebra_module.axiom_holds

    def recording(alg, axiom_id):
        scanned.append(axiom_id)
        return real(alg, axiom_id)

    monkeypatch.setattr(algebra_module, "axiom_holds", recording)
    two = fixture_two_element()
    # A fresh name misses classify's cache; on a Boolean algebra every flag holds.
    lab = classify(FiniteAlgebra("fresh-two", two.elements, two.arrow, two.one, two.zero))
    assert lab.is_iboolean
    assert {"BE4", "impl", "IOM", "@"} <= set(scanned)
    assert not {"Idis1", "Idis2"} & set(scanned)
    assert "distributive" not in lab.as_dict()


IMPORT_STATE = """
import json, sys
import orthologic.cli
from orthologic import algebra
caches = {f"{name}.{attr}": getattr(module, attr).cache_info().currsize
          for name, module in list(sys.modules.items()) if name.startswith("orthologic")
          for attr in dir(module) if hasattr(getattr(module, attr), "cache_info")}
layouts = {key: [scan.__name__ for scan in scans] for key, scans in algebra.AXIOM_SCANS.items()}
print(json.dumps([caches, layouts]))
"""


def test_import_compiles_the_laws_in_both_layouts_and_nothing_else():
    # Whatever import compiles, every process pays for, and the benchmark
    # refuses a process whose caches hold entries before its first op: the
    # registry formulas compile on first use, and only the 17 laws at import,
    # once per row layout (a one-role law has the one-role layout twice).
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", IMPORT_STATE], capture_output=True, text=True,
                          env=env, check=True)
    caches, layouts = json.loads(proc.stdout)
    assert "orthologic.algebra._scan_of" in caches
    assert {name: size for name, size in caches.items() if size} == {}
    assert layouts == {key: ["row_scan", "pair_scan" if len(roles) > 1 else "row_scan"]
                       for key, (roles, _, _) in AXIOMS.items()}


def test_implicative_involutive_gives_ig_pi_iabs(algebras):
    for alg in algebras.values():
        assert axiom_holds(alg, "impl")
        for axiom_id in ("iG", "pi", "Iabs-i"):
            assert axiom_holds(alg, axiom_id)


def test_iom_variants_agree_on_fixtures(algebras):
    for alg in algebras.values():
        values = {axiom_holds(alg, a) for a in ("IOM", "IOM'", "IOM''")}
        assert len(values) == 1


def test_idiv_iff_at_on_fixtures(algebras):
    for alg in algebras.values():
        assert axiom_holds(alg, "Idiv") == axiom_holds(alg, "@")


def test_le_l_reflexive_iff_ig():
    alg = counterexample_search(goal_from_names([], ["iG"], 2, 4))
    assert alg is not None and not axiom_holds(alg, "iG")
    assert any(not le_l(alg, x, x) for x in range(alg.n))


def test_leq_equals_lel_on_iomls(algebras):
    for name, alg in algebras.items():
        agree = all(le_q(alg, x, y) == le_l(alg, x, y) for x, y in pairs(alg))
        assert agree == classify(alg).is_ioml


def test_orders_coincide_on_boolean():
    two = fixture_two_element()
    for x, y in pairs(two):
        assert le(two, x, y) == le_l(two, x, y) == le_q(two, x, y)


# -- down sets ----------------------------------------------------------------

def test_down_set_examples(benzene6, sasaki6, algebras):
    assert set(benzene6.names(down_set(benzene6, benzene6.index("b")))) == {"0", "a", "b"}
    assert set(sasaki6.names(down_set(sasaki6, sasaki6.index("a")))) == {"0", "a"}
    for alg in algebras.values():
        assert down_set(alg, alg.zero) == 1 << alg.zero
        assert down_set(alg, alg.one) == alg.universe_mask()


# -- property-based checks over element samples -------------------------------

@given(data=st.data())
def test_exchange_law_consequence(data):
    name = data.draw(st.sampled_from(sorted(FIXTURE_NAMES)))
    alg = fixture(name)
    x = data.draw(st.integers(0, alg.n - 1))
    y = data.draw(st.integers(0, alg.n - 1))
    z = data.draw(st.integers(0, alg.n - 1))
    assert alg.arrow[x][alg.arrow[y][z]] == alg.arrow[y][alg.arrow[x][z]]


@given(data=st.data())
def test_le_l_antitone_under_star(data):
    name = data.draw(st.sampled_from(sorted(FIXTURE_NAMES)))
    alg = fixture(name)
    x = data.draw(st.integers(0, alg.n - 1))
    y = data.draw(st.integers(0, alg.n - 1))
    assert le_l(alg, x, y) == le_l(alg, star(alg, y), star(alg, x))


@given(data=st.data())
def test_ortho_iff_le_l_star(data):
    name = data.draw(st.sampled_from(sorted(FIXTURE_NAMES)))
    alg = fixture(name)
    x = data.draw(st.integers(0, alg.n - 1))
    y = data.draw(st.integers(0, alg.n - 1))
    assert ortho(alg, x, y) == le_l(alg, x, star(alg, y))


# -- the table: bytes rows ------------------------------------------------------

def test_tuple_rows_and_bytes_rows_give_one_algebra():
    bz = fixture("benzene6")
    rows = tuple(map(tuple, bz.arrow))
    assert all(type(row) is bytes for row in bz.arrow)
    as_tuples = FiniteAlgebra("rows", bz.elements, rows, bz.one, bz.zero)
    as_bytes = FiniteAlgebra("rows", bz.elements, tuple(map(bytes, rows)), bz.one, bz.zero)
    assert as_tuples == as_bytes and hash(as_tuples) == hash(as_bytes)
    # The hash is that of the compared fields, computed once at construction.
    assert hash(as_tuples) == as_tuples._hash == hash(
        ("rows", bz.elements, bz.arrow, bz.one, bz.zero))
    assert as_tuples.arrow == as_bytes.arrow == bz.arrow
    classify.cache_clear()
    classify(as_tuples)
    classify(as_bytes)
    assert classify.cache_info().currsize == 1 and classify.cache_info().hits == 1


def test_more_than_256_elements_is_an_input_error():
    n = TABLE_CEILING + 1
    with pytest.raises(InputError, match="257 elements exceeds 256"):
        FiniteAlgebra("big", tuple(map(str, range(n))), ((0,) * n,) * n, 0, 1)


@pytest.mark.parametrize("cell", [1.0, "1", None, -1, 6, 256])
def test_a_cell_that_is_not_an_index_is_an_input_error(cell):
    bz = fixture("benzene6")
    arrow = [list(row) for row in bz.arrow]
    arrow[2][3] = cell
    with pytest.raises(InputError, match=rf"arrow\[b\]\[c\] = {cell} is not an element index"):
        FiniteAlgebra("cells", bz.elements, tuple(map(tuple, arrow)), bz.one, bz.zero)


@pytest.mark.parametrize("one, zero", [(5.0, 0), (5, 0.0), ("5", 0), (5, None)])
def test_a_constant_that_is_not_an_index_is_an_input_error(one, zero):
    bz = fixture("benzene6")
    with pytest.raises(InputError, match="constants outside the universe"):
        FiniteAlgebra("consts", bz.elements, bz.arrow, one, zero)


def dynamic_code_sites(tree, where="<module>"):
    """(innermost enclosing function, name) of each eval or exec call."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("eval", "exec"):
            yield where, node.func.id
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else where
        yield from dynamic_code_sites(node, inner)


def test_the_package_compiles_formulas_in_two_places_only():
    # The instance predicates of the pruner and the row scans are the only
    # code the package generates; formulas are evaluated tuple by tuple only
    # by the tests (``conftest.render``).
    package = Path(algebra.__file__).parent
    sites = [(path.name, *site) for path in sorted(package.glob("*.py"))
             for site in dynamic_code_sites(ast.parse(path.read_text()))]
    assert sites == [("algebra.py", "_compile", "exec"), ("algebra.py", "_compile_scan", "exec")]
    for name in ("_render", "_evaluator_of", "holds_at"):
        assert not hasattr(algebra, name), name
