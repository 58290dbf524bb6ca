"""Embedded example algebras.

Four small structures exercised throughout the test suite: the hexagon
("benzene6", an i-OL that is not orthomodular), a ten-element i-OML
("ioml10"), and two six-element i-OMLs with four atoms ("ioml6-full",
"sasaki6") whose canonical projection families and orthogonality spaces are
known in closed form.
"""

from __future__ import annotations

from .algebra import FiniteAlgebra, InputError
from .documents import algebra_from_names

_TABLES: dict[str, dict] = {
    "benzene6": {
        "elements": ["0", "a", "b", "c", "d", "1"],
        "arrow": [
            ["1", "1", "1", "1", "1", "1"],
            ["c", "1", "1", "c", "c", "1"],
            ["d", "1", "1", "c", "d", "1"],
            ["a", "a", "b", "1", "1", "1"],
            ["b", "b", "b", "1", "1", "1"],
            ["0", "a", "b", "c", "d", "1"],
        ],
    },
    "ioml10": {
        "elements": ["0", "a", "b", "c", "d", "e", "f", "g", "h", "1"],
        "arrow": [
            ["1", "1", "1", "1", "1", "1", "1", "1", "1", "1"],
            ["b", "1", "b", "1", "1", "h", "f", "f", "h", "1"],
            ["a", "a", "1", "1", "1", "a", "1", "a", "1", "1"],
            ["d", "1", "1", "1", "d", "1", "1", "1", "1", "1"],
            ["c", "1", "1", "c", "1", "1", "1", "1", "1", "1"],
            ["f", "1", "f", "1", "1", "1", "f", "f", "1", "1"],
            ["e", "a", "h", "1", "1", "e", "1", "a", "h", "1"],
            ["h", "1", "h", "1", "1", "h", "1", "1", "h", "1"],
            ["g", "a", "f", "1", "1", "a", "f", "g", "1", "1"],
            ["0", "a", "b", "c", "d", "e", "f", "g", "h", "1"],
        ],
    },
    "ioml6-full": {
        "elements": ["0", "a", "b", "c", "d", "1"],
        "arrow": [
            ["1", "1", "1", "1", "1", "1"],
            ["b", "1", "b", "1", "1", "1"],
            ["a", "a", "1", "1", "1", "1"],
            ["d", "1", "1", "1", "d", "1"],
            ["c", "1", "1", "c", "1", "1"],
            ["0", "a", "b", "c", "d", "1"],
        ],
    },
    "sasaki6": {
        "elements": ["0", "a", "b", "c", "d", "1"],
        "arrow": [
            ["1", "1", "1", "1", "1", "1"],
            ["d", "1", "1", "1", "d", "1"],
            ["c", "1", "1", "c", "1", "1"],
            ["b", "1", "b", "1", "1", "1"],
            ["a", "a", "1", "1", "1", "1"],
            ["0", "a", "b", "c", "d", "1"],
        ],
    },
}

FIXTURE_NAMES: tuple[str, ...] = tuple(_TABLES)


def fixture(name: str) -> FiniteAlgebra:
    if name not in _TABLES:
        raise InputError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        )
    spec = _TABLES[name]
    return algebra_from_names(name, spec["elements"], spec["arrow"], "1", "0")

