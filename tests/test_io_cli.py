import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orthologic import (
    FiniteAlgebra,
    InputError,
    SearchGoal,
    associated_orthospace,
    classify,
    closed_index,
    enumerate_models,
    enumerate_orthoclosed,
    fixture,
    parse_algebra,
    serialize_algebra,
)
from orthologic.cli import _Stdout, _dumps, main
from orthologic.documents import algebra_to_document
from orthologic.fixtures import FIXTURE_NAMES
from orthologic.orthospace import OrthoSpace

from conftest import (
    boolean_iol,
    direct_product,
    hexagons,
    horizontal_sum,
    mo_iol,
    relabel,
    relabelled,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


# -- documents -------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FIXTURE_NAMES))
def test_round_trip(name):
    alg = fixture(name)
    assert parse_algebra(serialize_algebra(alg)) == alg
    assert parse_algebra(serialize_algebra(alg, compact=True)) == alg


def test_serialization_is_byte_stable():
    alg = fixture("benzene6")
    assert serialize_algebra(alg) == serialize_algebra(alg)


def test_fixture_registry():
    assert set(FIXTURE_NAMES) == {"benzene6", "ioml10", "ioml6-full", "sasaki6"}
    bz = fixture("benzene6")
    assert bz.n == 6
    assert bz.elements[bz.arrow[bz.index("a")][bz.zero]] == "c"  # a* = c
    assert classify(fixture("ioml10")).is_ioml
    with pytest.raises(InputError):
        fixture("unknown")


def doc(**overrides):
    base = algebra_to_document(fixture("benzene6"))
    base.update(overrides)
    return json.dumps(base)


def test_parse_errors_are_specific():
    with pytest.raises(InputError, match="invalid JSON"):
        parse_algebra("{not json")
    with pytest.raises(InputError, match="invalid JSON: maximum recursion depth"):
        parse_algebra("[" * 200_000 + "]" * 200_000)
    with pytest.raises(InputError, match="invalid JSON: Exceeds the limit"):
        parse_algebra("9" * 5000)
    with pytest.raises(InputError, match="missing key"):
        parse_algebra('{"elements": ["0", "1"]}')
    with pytest.raises(InputError, match="duplicate element"):
        parse_algebra(doc(elements=["0", "a", "a", "c", "d", "1"]))
    with pytest.raises(InputError, match="is not an element"):
        parse_algebra(doc(one="w"))
    with pytest.raises(InputError, match="unknown keys"):
        parse_algebra(doc(extra=1))


def test_parse_rejects_trivial_algebra():
    text = json.dumps(
        {"elements": ["u"], "one": "u", "zero": "u", "arrow": [["u"]]}
    )
    with pytest.raises(InputError, match="trivial algebra"):
        parse_algebra(text)


def test_parse_rejects_broken_unit_row():
    base = algebra_to_document(fixture("benzene6"))
    base["arrow"][5][1] = "b"  # 1 -> a must be a
    with pytest.raises(InputError, match=r"1 -> a"):
        parse_algebra(json.dumps(base))


def test_parse_rejects_zero_not_lower_bound():
    base = algebra_to_document(fixture("benzene6"))
    base["arrow"][0][2] = "c"  # 0 -> b must be 1
    with pytest.raises(InputError, match="lower bound"):
        parse_algebra(json.dumps(base))


def test_parse_rejects_foreign_table_entry():
    base = algebra_to_document(fixture("benzene6"))
    base["arrow"][2][3] = "zz"
    with pytest.raises(InputError, match="'zz' is not an element"):
        parse_algebra(json.dumps(base))


@pytest.mark.parametrize("entry", ["zz", 3, 1.5, None, ["a"], {"a": 1}])
def test_parse_names_a_foreign_entry_of_any_type(entry):
    base = algebra_to_document(fixture("benzene6"))
    base["arrow"][2][3] = entry
    with pytest.raises(InputError) as err:
        parse_algebra(json.dumps(base))
    assert str(err.value) == f"benzene6: arrow[b][c] = {entry!r} is not an element"


def test_document_above_the_table_ceiling_meets_the_cap(monkeypatch, capsys, tmp_path):
    # No table has more than 256 elements, so a larger document is refused
    # by the element cap, which is at most 256.
    monkeypatch.setenv("ORTHO_MAX_ELEMENTS", "256")
    names = [f"e{i}" for i in range(300)]
    text = json.dumps({"elements": names, "one": "e1", "zero": "e0",
                       "arrow": [names] * len(names)})
    path = tmp_path / "big.json"
    path.write_text(text, encoding="utf-8")
    assert run_cli("validate", str(path)) == 3
    assert "300 elements exceeds cap 256" in capsys.readouterr().err


def test_parse_rejects_bad_dimensions():
    base = algebra_to_document(fixture("benzene6"))
    base["arrow"] = base["arrow"][:5]
    with pytest.raises(InputError, match="rows"):
        parse_algebra(json.dumps(base))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_round_trip_survives_element_reordering(data):
    alg = fixture(data.draw(st.sampled_from(sorted(FIXTURE_NAMES))))
    perm = data.draw(st.permutations(list(range(alg.n))))
    shuffled = relabel(alg, list(perm))
    assert parse_algebra(serialize_algebra(shuffled)) == shuffled


# -- CLI ---------------------------------------------------------------------------

def run_cli(*argv):
    return main(list(argv))


def test_cli_validate(capsys, tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(serialize_algebra(fixture("benzene6")), encoding="utf-8")
    assert run_cli("validate", str(path)) == 0
    out = capsys.readouterr().out
    assert "valid document with 6 elements" in out


def test_cli_validate_rejects_garbage(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    assert run_cli("validate", str(path)) == 2


def test_cli_missing_file_is_input_error(capsys):
    assert run_cli("classify", "/no/such/file") == 2


@pytest.mark.parametrize("argv", [("classify", "{dir}"), ("iso", "{dir}", "ioml10"),
                                  ("classify", "{bad}")])
def test_cli_unreadable_file_is_input_error(capsys, tmp_path, argv):
    # A directory, and a file that is not UTF-8.
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    assert run_cli(*(a.format(dir=tmp_path, bad=bad) for a in argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read")


def test_cli_classify_json(capsys):
    assert run_cli("classify", "benzene6", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"]["iol"] is True
    assert payload["classification"]["ioml"] is False


def test_cli_derive_table(capsys):
    assert run_cli("derive", "benzene6", "--op", "wedge_q") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].split() == ["0", "0", "0", "0", "0", "0", "0"]


def test_cli_derive_star(capsys):
    assert run_cli("derive", "ioml6-full", "--op", "star") == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert ["a", "b"] in rows  # a* = b


def test_cli_ortho_reports(capsys):
    code = run_cli("ortho", "benzene6", "--cl", "--blocks", "--dacey", "--json")
    assert code == 1  # dacey fails
    payload = json.loads(capsys.readouterr().out)
    assert payload["perp"]["a"] == ["c", "d"]
    assert payload["orthoclosed"] == ["{}", "{a}", "{d}", "{a,b}", "{c,d}", "{a,b,c,d,1}"]
    assert payload["blocks"] == ["{a,c}", "{a,d}", "{b,d}"]
    assert payload["dacey"]["status"] == "fail"


def test_cli_ortho_sasaki_space(capsys):
    assert run_cli("ortho", "sasaki6", "--sasaki-space", "--normal") == 0
    out = capsys.readouterr().out
    assert "sasaki-space: pass" in out
    assert "normal: pass" in out


def test_cli_sasaki_reports(capsys):
    code = run_cli("sasaki", "ioml6-full", "--projections", "--center", "--full-set", "--json")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["projections"]["a"] == ["0", "a", "0", "a", "a", "a"]
    assert payload["center"] == ["0", "1"]
    assert payload["full_set"]["status"] == "pass"


# -- the --json writer -------------------------------------------------------------

# Any code point, lone surrogates included, with the ones JSON escapes drawn
# often.
_STRINGS = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from('"\\/\x00\b\t\n\x1f\x7f\xe9\u2028\ud800\udfff\U0001f600'),
), max_size=6)
_SCALARS = st.one_of(_STRINGS, st.integers(), st.sampled_from([2 ** 70, -2 ** 70]),
                     st.floats(), st.booleans(), st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=12),
        st.lists(children, max_size=12).map(tuple),
        st.lists(_STRINGS, max_size=12),
        st.dictionaries(_STRINGS, children, max_size=10),
    )


@settings(max_examples=100, deadline=None)
@given(value=st.recursive(_SCALARS, _containers, max_leaves=25))
def test_json_writer_matches_the_indent_2_encoder(value):
    assert _dumps(value) == json.dumps(value, indent=2)


def test_json_writer_peaks_no_higher_than_the_indent_2_encoder(capsys, tmp_path):
    path = tmp_path / "B64.json"
    path.write_text(serialize_algebra(relabelled(boolean_iol(6), 4)), encoding="utf-8")
    run_cli("ortho", str(path), "--cl", "--dacey", "--blocks", "--normal", "--sasaki-space",
            "--json")
    report = json.loads(capsys.readouterr().out)

    def peak(dumps):
        tracemalloc.start()
        try:
            dumps(report)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(_dumps) <= peak(lambda obj: json.dumps(obj, indent=2))


JSON_REPORTS = {
    "classify": [],
    "ortho": ["--cl", "--dacey", "--blocks", "--normal", "--sasaki-space"],
    "sasaki": ["--projections", "--commute", "--center", "--full-set"],
    "theorems": [],
}


@pytest.mark.parametrize("name", sorted(FIXTURE_NAMES))
@pytest.mark.parametrize("command", JSON_REPORTS)
def test_cli_json_reports_print_one_value_in_the_indent_2_layout(capsys, command, name):
    run_cli(command, name, *JSON_REPORTS[command], "--json")
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_cli_sasaki_full_set_failure_exit(capsys):
    assert run_cli("sasaki", "benzene6", "--full-set") == 1


def test_cli_theorems(capsys):
    assert run_cli("theorems", "ioml10") == 0
    out = capsys.readouterr().out
    assert "fail" not in out.replace("0 fail", "")
    assert run_cli("theorems", "benzene6") == 1


def test_cli_theorems_filter_json(capsys):
    assert run_cli("theorems", "benzene6", "--filter", "T2-CHAR-IOML-5WAY", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == [{"check": "T2-CHAR-IOML-5WAY", "status": "pass", "witness": []}]
    capsys.readouterr()
    # Every id is resolved before anything is printed.
    for ids in (["BOGUS"], ["L2-BE-PROPS", "BOGUS"]):
        assert run_cli("theorems", "benzene6", "--filter", *ids) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown check id 'BOGUS'" in captured.err


def test_cli_downset_checks_pass_where_subset_names_collide(capsys, tmp_path):
    # On B8 with an atom named "a,b,c", its down-set and that of a v b name
    # the same subset, "{a,b,c}".  The logic cannot be named, so the checks
    # that build it as an algebra exit 2; the down-set checks read family
    # positions only, and pass.
    b8 = boolean_iol(3)
    alg = FiniteAlgebra("collide", ("0", "a", "b", "c", "a,b,c", "p", "q", "1"),
                        b8.arrow, b8.one, b8.zero)
    path = tmp_path / "collide.json"
    path.write_text(serialize_algebra(alg), encoding="utf-8")
    assert run_cli("theorems", str(path), "--filter", "L7-DOWNSET", "P7-CL-ISO", "--json") == 0
    assert json.loads(capsys.readouterr().out) == [
        {"check": check_id, "status": "pass", "witness": []}
        for check_id in ("L7-DOWNSET", "P7-CL-ISO")]
    assert run_cli("theorems", str(path), "--filter", "P3-CL-IS-IOL") == 2
    assert "duplicate element names ['{a,b,c}']" in capsys.readouterr().err


def test_cli_theorems_filter_without_ids_is_a_usage_error(capsys):
    # A bare --filter must not fall back to running all 54 checks.
    with pytest.raises(SystemExit) as exc:
        run_cli("theorems", "benzene6", "--filter")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--filter: expected at least one argument" in captured.err


def test_cli_enumerate_offers_the_searchable_classes(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("enumerate", "--size", "4", "--class", "be")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--class {iol,ioml,iboolean}" in captured.err
    assert "argument --class: invalid choice: 'be'" in captured.err


def test_cli_parser_is_built_once(monkeypatch, capsys):
    import orthologic.cli as cli

    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert run_cli("theorems", "benzene6", "--filter", "T2-CHAR-IOML-5WAY", "--json") == 0
    capsys.readouterr()
    # Nothing parsed by one call carries over to the next.
    assert run_cli("theorems", "benzene6", "--json") == 1
    assert len(json.loads(capsys.readouterr().out)) == 54


def test_cli_enumerate(capsys):
    assert run_cli("enumerate", "--size", "6", "--class", "iol", "--count-only") == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run_cli("enumerate", "--size", "6", "--class", "ioml") == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 1
    parsed = parse_algebra(lines[0])
    assert classify(parsed).is_ioml


def test_cli_enumerate_limit(capsys):
    assert run_cli("enumerate", "--size", "6", "--class", "iol", "--limit", "0", "--count-only") == 0
    assert capsys.readouterr().out.strip() == "0"
    assert run_cli("enumerate", "--size", "6", "--class", "iol", "--limit", "-1", "--count-only") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "negative limit" in captured.err


def test_cli_enumerate_respects_node_budget(capsys, monkeypatch):
    monkeypatch.setenv("ORTHO_NODE_BUDGET", "3")
    assert run_cli("enumerate", "--size", "6", "--class", "iol", "--count-only") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "resource cap: enumeration at size 6 exceeded node budget 3, 1 of 4 free cells filled\n"
    )


STATS_FIELDS = ["nodes", "forced", "wipeouts", "leaves", "key_nodes", "automorphisms", "search_s",
                "key_s"]


def test_cli_enumerate_stats_go_to_stderr(capsys):
    # The record changes nothing on stdout; the n=8 i-OL search without
    # forced values visits 504 nodes.
    assert run_cli("enumerate", "--size", "8", "--class", "iol") == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert run_cli("enumerate", "--size", "8", "--class", "iol", "--stats") == 0
    captured = capsys.readouterr()
    assert captured.out == plain.out
    stats = json.loads(captured.err)
    assert list(stats) == STATS_FIELDS
    assert stats["leaves"] == 5 and 0 < stats["nodes"] < 504
    assert stats["forced"] > 0 and stats["key_nodes"] > 0 and stats["automorphisms"] > 0


def test_cli_search_stats_and_the_cap(capsys, monkeypatch):
    assert run_cli("search", "--require", "impl", "--forbid", "IOM", "--stats") == 0
    captured = capsys.readouterr()
    assert classify(parse_algebra(captured.out)).is_iol
    assert json.loads(captured.err)["leaves"] > 0
    # At the cap the record says how far the search got, before the error.
    monkeypatch.setenv("ORTHO_NODE_BUDGET", "100")
    assert run_cli("enumerate", "--size", "10", "--class", "iol", "--stats") == 3
    captured = capsys.readouterr()
    record, error = captured.err.splitlines()
    stats = json.loads(record)
    assert captured.out == "" and error.startswith("resource cap: ")
    assert stats["nodes"] + stats["key_nodes"] == 101


def test_cli_iso(capsys):
    assert run_cli("iso", "ioml6-full", "sasaki6") == 0
    assert "->" in capsys.readouterr().out
    assert run_cli("iso", "benzene6", "ioml6-full") == 1
    assert capsys.readouterr().out.strip() == "non-isomorphic"


def test_cli_iso_compares_the_roots_first(capsys, monkeypatch):
    # The two roots are two nodes; their traces differ, so neither tree is
    # descended.  The path of ioml6-full alone would take two more.
    monkeypatch.setenv("ORTHO_NODE_BUDGET", "2")
    assert run_cli("iso", "ioml6-full", "benzene6") == 1
    assert capsys.readouterr().out.strip() == "non-isomorphic"


def b64_pair(tmp_path):
    """Documents of B64 and of a relabelled copy."""
    b64 = boolean_iol(6)
    paths = []
    for name, alg in (("b64", b64), ("b64-relabelled", relabelled(b64, 3))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(serialize_algebra(alg), encoding="utf-8")
    return paths


def test_cli_iso_decides_b64_against_a_relabelled_copy(capsys, tmp_path):
    paths = b64_pair(tmp_path)
    assert run_cli("iso", *map(str, paths)) == 0
    a, b = (parse_algebra(path.read_text(encoding="utf-8")) for path in paths)
    image = dict(entry.split("->") for entry in capsys.readouterr().out.split())
    f = [b.index(image[name]) for name in a.elements]
    assert sorted(f) == list(range(b.n))
    assert all(f[a.arrow[x][y]] == b.arrow[f[x]][f[y]] for x in range(a.n) for y in range(a.n))


def test_cli_iso_respects_node_budget(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("ORTHO_NODE_BUDGET", "1")
    assert run_cli("iso", *map(str, b64_pair(tmp_path))) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "resource cap: isomorphism search at size 64 exceeded node budget 1"
    )


def test_cli_enumerate_caps_large_sizes(capsys, monkeypatch):
    # Size 48 has 1,012 free cells; the budget covers the search and the
    # keys of the leaves it finds.
    monkeypatch.setenv("ORTHO_NODE_BUDGET", "50000")
    assert run_cli("enumerate", "--size", "48", "--class", "iol") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource cap: ")
    assert " at size 48 exceeded node budget 50000, " in captured.err
    assert run_cli("enumerate", "--size", "65", "--class", "iol", "--count-only") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource cap: enumeration at size 65 exceeds cap 64\n"


def test_cli_search_keeps_a_witness_below_the_size_cap(capsys):
    assert run_cli("search", "--require", "impl,DN", "--forbid", "IOM", "--max-size", "65") == 0
    assert parse_algebra(capsys.readouterr().out).n == 6


def test_cli_fixture_round_trip(capsys):
    assert run_cli("fixture", "sasaki6") == 0
    assert parse_algebra(capsys.readouterr().out) == fixture("sasaki6")
    assert run_cli("fixture", "nope") == 2


def test_cli_search(capsys):
    assert run_cli("search", "--require", "impl,DN", "--forbid", "IOM", "--max-size", "6") == 0
    hit = parse_algebra(capsys.readouterr().out)
    assert classify(hit).is_iol and not classify(hit).is_ioml
    assert run_cli("search", "--require", "impl", "--forbid", "IOM", "--max-size", "5") == 1
    assert capsys.readouterr().out.strip() == "none"


def test_cli_search_rejects_contradiction(capsys):
    assert run_cli("search", "--require", "impl", "--forbid", "impl") == 2


def test_cli_search_rejects_empty_size_range(capsys):
    assert run_cli("search", "--require", "impl", "--forbid", "IOM", "--max-size", "1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty size range" in captured.err


@pytest.mark.parametrize("argv, message", [
    (("search", "--require", "nonsense", "--forbid", "IOM"), "unknown axiom id 'nonsense'"),
    (("search", "--require", "impl", "--forbid", "nonsense"), "unknown axiom id 'nonsense'"),
    (("enumerate", "--size", "1", "--class", "iol"),
     "sizes below 2 are rejected (trivial algebra)"),
], ids=["require", "forbid", "size"])
def test_cli_goal_errors_exit_2(capsys, argv, message):
    assert run_cli(*argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _index_of_a_set_that_is_not_closed():
    space = associated_orthospace(fixture("benzene6"))
    family = enumerate_orthoclosed(space)
    closed_index(space, next(m for m in range(1 << space.n) if m not in family))


@pytest.mark.parametrize("call, message", [
    (lambda: fixture("benzene6").index("w"), "benzene6: unknown element 'w'"),
    (lambda: associated_orthospace(fixture("benzene6")).index("w"), "unknown point 'w'"),
    (_index_of_a_set_that_is_not_closed, "subset 0x2 is not orthoclosed"),
    (lambda: SearchGoal(frozenset({"nonsense"}), frozenset({"IOM"})),
     "unknown axiom id 'nonsense'"),
    (lambda: SearchGoal(frozenset(), frozenset({"impl"}), min_size=1, max_size=4),
     "sizes below 2 are rejected (trivial algebra)"),
    (lambda: SearchGoal(frozenset(), frozenset({"BE4"})),
     "goal lies outside the bounded involutive BE search universe"),
    (lambda: enumerate_models(4, "be"), "unknown class 'be'; expected iol, ioml or iboolean"),
], ids=["element", "point", "closed-set", "goal-axiom", "goal-size", "goal-universe", "class"])
def test_lookups_and_goals_raise_input_errors(call, message):
    # No command names an element, a point or a closed set, and the CLI
    # resolves axiom names and fixes the least size before it builds a goal,
    # so these are reached through the library only.
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message


@pytest.fixture(scope="module")
def non_iol_file(tmp_path_factory):
    """The three-element table that refutes iG, which is no i-OL."""
    from orthologic.enumeration import counterexample_search, goal_from_names

    alg = counterexample_search(goal_from_names([], ["iG"], 2, 4))
    assert alg.n == 3 and not classify(alg).is_iol
    path = tmp_path_factory.mktemp("non_iol") / "non_iol.json"
    path.write_text(serialize_algebra(alg), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "flags", [(), ("--projections",), ("--commute",), ("--center",), ("--full-set",)]
)
def test_cli_sasaki_rejects_non_iol(capsys, non_iol_file, flags):
    assert run_cli("sasaki", non_iol_file, *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not an i-OL" in captured.err


def test_cli_max_elements_cap(monkeypatch, capsys):
    monkeypatch.setenv("ORTHO_MAX_ELEMENTS", "4")
    assert run_cli("classify", "ioml10") == 3


def test_cli_max_elements_accepts_the_table_ceiling(monkeypatch, capsys):
    monkeypatch.setenv("ORTHO_MAX_ELEMENTS", "256")
    assert run_cli("classify", "ioml10") == 0


@pytest.mark.parametrize(
    "var, value, argv",
    [
        ("ORTHO_NODE_BUDGET", "lots", ("enumerate", "--size", "6", "--class", "iol")),
        ("ORTHO_MAX_ELEMENTS", "x", ("classify", "benzene6")),
        ("ORTHO_NODE_BUDGET", "-1", ("enumerate", "--size", "6", "--class", "iol")),
        ("ORTHO_NODE_BUDGET", "-1", ("iso", "ioml10", "ioml10")),
        ("ORTHO_NODE_BUDGET", "0", ("classify", "benzene6")),
        ("ORTHO_MAX_ELEMENTS", "-5", ("classify", "ioml10")),
        ("ORTHO_MAX_ELEMENTS", "0", ("classify", "ioml10")),
        ("ORTHO_MAX_ELEMENTS", "257", ("classify", "ioml10")),
    ],
)
def test_cli_malformed_cap_is_input_error(monkeypatch, capsys, var, value, argv):
    monkeypatch.setenv(var, value)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert var in captured.err


@pytest.mark.parametrize(
    "key, value",
    [("elements", ["0", ["a"], "b", "c", "d", "1"]), ("one", {"a": 1}), ("arrow", ["a"])],
)
def test_cli_validate_rejects_non_string_entries(capsys, tmp_path, key, value):
    base = algebra_to_document(fixture("benzene6"))
    if key == "arrow":
        base["arrow"][1][2] = value
    else:
        base[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(base), encoding="utf-8")
    assert run_cli("validate", str(path)) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_validate_flags_non_be_table(capsys, tmp_path):
    base = algebra_to_document(fixture("benzene6"))
    base["arrow"][1][2] = "c"  # break the exchange law, keep the shape valid
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(base), encoding="utf-8")
    assert run_cli("validate", str(path)) == 2
    assert "BE4" in capsys.readouterr().out


def without(key):
    base = algebra_to_document(fixture("benzene6"))
    del base[key]
    return json.dumps(base)


def with_arrow(arrow):
    return doc(arrow=arrow(algebra_to_document(fixture("benzene6"))["arrow"]))


@pytest.mark.parametrize("text, message", [
    ("{not json", "invalid JSON at line 1 column 2: Expecting property name enclosed in double quotes"),
    ("[]", "document must be a JSON object"),
    (doc(extra=1), "unknown keys ['extra']"),
    (without("arrow"), "missing key 'arrow'"),
    (without("one"), "missing key 'one'"),
    (doc(name=6), "key 'name' must be a string"),
    (doc(elements="0abcd1"), "key 'elements' must be an array of strings"),
    (doc(arrow="table"), "key 'arrow' must be an array of arrays"),
    (with_arrow(lambda a: a[:3] + ["c"] + a[4:]), "key 'arrow' must be an array of arrays"),
    (with_arrow(lambda a: a[:5]), "benzene6: arrow has 5 rows, expected 6"),
    (with_arrow(lambda a: a[:2] + [a[2][:5]] + a[3:]), "benzene6: arrow row 2 (b) has 5 entries, expected 6"),
    (with_arrow(lambda a: a[:2] + [a[2] + ["1"]] + a[3:]), "benzene6: arrow row 2 (b) has 7 entries, expected 6"),
    (doc(one="0"), "benzene6: constants 1 and 0 coincide"),
], ids=["json", "not-object", "unknown-key", "no-arrow", "no-one", "name", "elements",
        "arrow", "arrow-row", "rows", "short-row", "long-row", "constants"])
def test_cli_input_error_exits_2_with_its_message(capsys, tmp_path, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert run_cli("validate", str(path)) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("text, message", [
    ("[" * 200_000 + "]" * 200_000, "invalid JSON: maximum recursion depth exceeded"),
    ('{"elements": ["a"], "one": ' + "9" * 5000 + ', "zero": 1, "arrow": []}',
     "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion"),
], ids=["deep-nesting", "long-integer"])
def test_cli_malformed_json_beyond_the_decoder_exits_2(tmp_path, text, message):
    # The decoder raises RecursionError and ValueError here, not
    # JSONDecodeError; a fresh process shows any traceback they escape with.
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "orthologic.cli", "validate", str(path)],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: {message}")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("arrow",[((1, 1), (0,)), ((1, 1), (0, 1), (0, 1)), ((1,), (0,))])
def test_table_that_is_not_square_is_an_input_error(arrow):
    with pytest.raises(InputError) as err:
        FiniteAlgebra("t", ("0", "1"), arrow, 1, 0)
    assert str(err.value) == "t: arrow table is not 2x2"


@pytest.mark.parametrize("points, rel, message", [
    (("a", "b"), (0b10,), "relation size does not match point count"),
    (("a", "b"), (0b100, 0), "relation mask exceeds the point universe"),
    (("a", "b"), (0b01, 0), "relation is not irreflexive at a"),
    (("a", "b"), (0b10, 0), "relation is not symmetric at (a, b)"),
], ids=["size", "universe", "irreflexive", "symmetric"])
def test_cli_invalid_space_exits_2_with_its_message(monkeypatch, capsys, points, rel, message):
    # No document yields an invalid space, so the space of the command is
    # replaced by one; its validation error must take the input-error exit.
    monkeypatch.setattr("orthologic.cli.associated_orthospace",
                        lambda alg: OrthoSpace(points, rel))
    assert run_cli("ortho", "benzene6") == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")



@pytest.mark.parametrize("cap, value, flag, message", [
    ("FAMILY_CAP", 2, "--cl", "orthoclosed family exceeds cap 2"),
    ("BLOCK_PARTITION_CAP", 1, "--normal", "exceeds partition cap 1"),
])
def test_cli_space_caps_exit_3(monkeypatch, capsys, tmp_path, cap, value, flag, message):
    # The space and its family are cached per space, so the elements get
    # names that no other test uses, and the lowered cap is reached afresh.
    base = mo_iol(3)
    names = tuple(f"{cap}{i}" for i in range(base.n))
    path = tmp_path / "mo3.json"
    path.write_text(serialize_algebra(FiniteAlgebra(cap, names, base.arrow, base.one, base.zero)),
                    encoding="utf-8")
    monkeypatch.setattr(f"orthologic.orthospace.{cap}", value)
    assert run_cli("ortho", str(path), flag) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("resource cap: ") and err.endswith(f"{message}\n")
    assert "Traceback" not in err

# -- exit-code contract under random documents -----------------------------------------

@st.composite
def documents(draw):
    """JSON text of a random document: n = 1..6, half of them with the forced
    1-row, 1-column and 0-row filled in, and about one in eight corrupted."""
    n = draw(st.integers(1, 6))
    elements = [str(i) for i in range(n)]
    zero, one = elements[0], elements[-1]
    arrow = [[draw(st.sampled_from(elements)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for x in range(n):
            arrow[n - 1][x] = elements[x]
            arrow[x][n - 1] = one
            arrow[0][x] = one
    doc = {"name": "fuzz", "elements": elements, "one": one, "zero": zero, "arrow": arrow}
    if draw(st.integers(0, 7)) == 0:
        damage = draw(st.sampled_from(
            ["drop-row", "short-row", "int-entry", "null-entry", "list-entry",
             "bad-one", "no-arrow", "not-object", "not-json"]
        ))
        if damage == "drop-row":
            doc["arrow"] = arrow[:-1]
        elif damage == "short-row":
            arrow[0] = arrow[0][:-1]
        elif damage in ("int-entry", "null-entry", "list-entry"):
            arrow[n // 2][0] = {"int-entry": 1, "null-entry": None, "list-entry": [one]}[damage]
        elif damage == "bad-one":
            doc["one"] = "missing"
        elif damage == "no-arrow":
            del doc["arrow"]
        elif damage == "not-object":
            return json.dumps(list(doc.values()))
        else:
            return json.dumps(doc)[:-1]
    return json.dumps(doc)


FUZZ_COMMANDS = (
    ("validate",),
    ("classify", "--json"),
    ("derive", "--op", "le_l"),
    ("ortho", "--cl", "--dacey", "--blocks", "--normal", "--sasaki-space", "--json"),
    ("sasaki",),
    ("sasaki", "--projections", "--commute", "--center", "--full-set", "--json"),
    ("theorems", "--json"),
)


@settings(max_examples=200, deadline=None)
@given(text=documents())
def test_cli_exit_codes_on_random_documents(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text, encoding="utf-8")
        argvs = [(cmd, str(path), *flags) for cmd, *flags in FUZZ_COMMANDS]
        argvs.append(("iso", str(path), str(path)))
        for argv in argvs:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = run_cli(*argv)
            assert code in (0, 1, 2, 3), argv


# -- ortho and sasaki reports on combined i-OLs ---------------------------------------

REPORT_COMMANDS = (
    ("ortho", "--cl", "--dacey", "--blocks", "--normal", "--sasaki-space", "--json"),
    ("sasaki", "--projections", "--commute", "--center", "--full-set", "--json"),
)
REPORT_BASES = (boolean_iol(2), boolean_iol(3), mo_iol(2), mo_iol(3), hexagons(1), hexagons(2))


@st.composite
def combined_iols(draw):
    """A known i-OL, alone or combined with a second one by direct product
    (at most 36 elements) or horizontal sum, and a seeded relabelling."""
    alg = draw(st.sampled_from(REPORT_BASES))
    how = draw(st.sampled_from(("alone", "product", "sum")))
    small = [b for b in REPORT_BASES if alg.n * b.n <= 36]
    if how == "product" and small:
        alg = direct_product(alg, draw(st.sampled_from(small)))
    elif how == "sum":
        alg = horizontal_sum(alg, draw(st.sampled_from(REPORT_BASES)))
    return alg, draw(st.integers(0, 1 << 16))


def report_verdicts(path):
    """Exit code and relabelling-invariant parts of both reports."""
    verdicts = []
    for cmd, *flags in REPORT_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(cmd, str(path), *flags)
        assert code in (0, 1) and err.getvalue() == "", (cmd, code, err.getvalue())
        doc = json.loads(out.getvalue())
        verdicts.append((code, sorted(doc.get("center", ())), len(doc.get("orthoclosed", ())))
                        + tuple(doc[key]["status"] for key in
                                ("dacey", "normal", "sasaki_space", "full_set") if key in doc))
    return verdicts


@settings(max_examples=80, deadline=None)
@given(case=combined_iols())
def test_reports_on_combined_iols_do_not_depend_on_labelling(case, tmp_path_factory):
    alg, seed = case
    tmp = tmp_path_factory.mktemp("reports")
    verdicts = []
    for k, copy in enumerate((alg, relabelled(alg, seed))):
        path = tmp / f"copy{k}.json"
        path.write_text(serialize_algebra(copy), encoding="utf-8")
        verdicts.append(report_verdicts(path))
    assert verdicts[0] == verdicts[1]
    (_, _, _, dacey, _, _), (_, _, _, full_set) = verdicts[0]
    ioml = classify(alg).is_ioml
    assert (dacey == "pass", full_set == "pass") == (ioml, ioml)


# -- a reader that closes standard output early ------------------------------------------

@pytest.mark.parametrize("argv", [
    ("theorems", "ioml10"),
    ("theorems", "ioml10", "--json"),
    ("classify", "ioml10"),
    ("enumerate", "--size", "6", "--class", "iol"),
    ("ortho", "benzene6", "--dacey"),
], ids="-".join)
def test_cli_exit_code_survives_a_closed_stdout(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    cmd = [sys.executable, "-m", "orthologic.cli", *argv]
    expected = subprocess.run(cmd, stdout=subprocess.DEVNULL, env=env).returncode
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (expected, b"")


@pytest.mark.parametrize("first", ["write", "flush"])
def test_stdout_turns_to_the_null_device_when_the_pipe_breaks(first):
    # A pipe whose read end is closed: the first write that reaches it, from
    # a write longer than the buffer or from a flush, breaks, and output
    # goes to the null device from then on.
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "w") as stream:
        out = _Stdout(stream)
        if first == "write":
            text = "x" * (1 << 16)
            assert out.write(text) == len(text)
        else:
            assert out.write("short\n") == 6
            out.flush()
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
        assert out.write("later\n") == 6
        out.flush()
