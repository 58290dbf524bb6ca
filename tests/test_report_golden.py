"""Golden digests of the report path.

One short sha256 digest of stdout, with the exit code beside it, per report
and input: ``ortho FILE --cl --dacey --blocks --normal --sasaki-space --json``
and ``sasaki FILE --projections --commute --center --full-set --json``, and
the text forms ``ortho FILE --cl --blocks`` and
``sasaki FILE --projections --commute --center``, on the four fixtures and
on relabelled copies of B16, MO7, the horizontal sum of two hexagons, B64
and MO31.  The B64 and MO31 digests were recorded before the ``--json``
writer replaced ``json.dumps(..., indent=2)``.

After an intended output change,
``PYTHONPATH=src:tests python tests/test_report_golden.py`` prints fresh
digests in the form of ``DIGESTS`` below; paste the output over ``DIGESTS``
and review the diff by input.
"""

import hashlib
import io
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from orthologic import cli, fixture, serialize_algebra
from orthologic.fixtures import FIXTURE_NAMES

from conftest import boolean_iol, hexagons, mo_iol, relabelled

REPORTS = {
    "ortho": ["--cl", "--dacey", "--blocks", "--normal", "--sasaki-space", "--json"],
    "sasaki": ["--projections", "--commute", "--center", "--full-set", "--json"],
    "ortho-text": ["--cl", "--blocks"],
    "sasaki-text": ["--projections", "--commute", "--center"],
}

DIGESTS = {
    ("ortho", "benzene6"): (1, "b13c6130f716a3c7"),
    ("sasaki", "benzene6"): (1, "8bd808b1360aedb9"),
    ("ortho-text", "benzene6"): (0, "1e91096b7c628fba"),
    ("sasaki-text", "benzene6"): (0, "cb316230653328cb"),
    ("ortho", "ioml10"): (0, "4fd565195af15dc9"),
    ("sasaki", "ioml10"): (0, "18201e0c4f3b1c61"),
    ("ortho-text", "ioml10"): (0, "5b68ccb929095465"),
    ("sasaki-text", "ioml10"): (0, "8877e8a4edc238db"),
    ("ortho", "ioml6-full"): (0, "70d90b9102538b25"),
    ("sasaki", "ioml6-full"): (0, "2243abc088ac1a55"),
    ("ortho-text", "ioml6-full"): (0, "f3eaa2054f250d34"),
    ("sasaki-text", "ioml6-full"): (0, "36f29dbc0525cd53"),
    ("ortho", "sasaki6"): (0, "92c024793d82a0e4"),
    ("sasaki", "sasaki6"): (0, "fcbbe7641f7a6912"),
    ("ortho-text", "sasaki6"): (0, "3bba2533e0f33931"),
    ("sasaki-text", "sasaki6"): (0, "311945c8a34b9c45"),
    ("ortho", "B16"): (0, "c68fa0aa6fe68a04"),
    ("sasaki", "B16"): (0, "2e3773f40bce0334"),
    ("ortho-text", "B16"): (0, "12489887f072265d"),
    ("sasaki-text", "B16"): (0, "544ff31a3b2f6d18"),
    ("ortho", "MO7"): (0, "5afb6eb7333a467e"),
    ("sasaki", "MO7"): (0, "24432205309705d7"),
    ("ortho-text", "MO7"): (0, "9ff5852e27c3d9c6"),
    ("sasaki-text", "MO7"): (0, "943b09d20171f0d2"),
    ("ortho", "hex2-"): (1, "35003c37c33d38de"),
    ("sasaki", "hex2-"): (1, "235b041ba6d1f7ba"),
    ("ortho-text", "hex2-"): (0, "1a95c2163fc96a75"),
    ("sasaki-text", "hex2-"): (0, "b0005fac3f993869"),
    ("ortho", "B64"): (0, "3e1044b1d0af6d7c"),
    ("sasaki", "B64"): (0, "a24d6bbb9c003fe7"),
    ("ortho-text", "B64"): (0, "115af9d25c377016"),
    ("sasaki-text", "B64"): (0, "c5a690048ded7dc1"),
    ("ortho", "MO31"): (0, "c2187dd3c103006d"),
    ("sasaki", "MO31"): (0, "b8381ffcc93f0c07"),
    ("ortho-text", "MO31"): (0, "a50d930c05fd4eb7"),
    ("sasaki-text", "MO31"): (0, "cf8f22ca8c66e412"),
}


def inputs():
    """Input name -> algebra, in a fixed order."""
    algebras = {name: fixture(name) for name in sorted(FIXTURE_NAMES)}
    constructions = (boolean_iol(4), mo_iol(7), hexagons(2), boolean_iol(6), mo_iol(31))
    for seed, alg in enumerate(constructions, 1):
        algebras[alg.name] = relabelled(alg, seed)
    return algebras


def run(report, alg, directory):
    """The exit code and the digest of stdout of one report on one input."""
    path = Path(directory) / f"{alg.name}.json"
    path.write_text(serialize_algebra(alg))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([report.removesuffix("-text"), str(path), *REPORTS[report]])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]


def digests():
    with tempfile.TemporaryDirectory() as directory:
        return {(report, name): run(report, alg, directory)
                for name, alg in inputs().items() for report in REPORTS}


def test_digests_cover_every_report_and_input():
    assert list(DIGESTS) == [(report, name) for name in inputs() for report in REPORTS]


@pytest.mark.parametrize("report, name", list(DIGESTS))
def test_report_matches_the_golden_digest(report, name, tmp_path):
    assert run(report, inputs()[name], tmp_path) == DIGESTS[report, name]


def main():
    print("DIGESTS = {")
    for (report, name), (code, digest) in digests().items():
        print(f'    ("{report}", "{name}"): ({code}, "{digest}"),')
    print("}")


if __name__ == "__main__":
    main()
