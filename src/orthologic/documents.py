"""JSON document format for algebras.

A document is one JSON object with keys ``name`` (optional), ``elements``,
``one``, ``zero`` and ``arrow``, where ``arrow[i][j]`` is the value of
``elements[i] -> elements[j]``.  Rows are the left argument, matching the
usual Cayley-table layout.  Element order in the file defines element ids.
"""

from __future__ import annotations

import json

from .algebra import FiniteAlgebra, InputError, check_cap, validate_algebra


def check_element_names(name: str, elements: tuple) -> None:
    """Element names must be distinct non-empty strings."""
    # Type checks come before any hashing, so an unhashable entry is an
    # input error rather than a TypeError.
    if any(not isinstance(e, str) or not e for e in elements):
        raise InputError(f"{name}: element names must be non-empty strings")
    if len(set(elements)) != len(elements):
        dupes = sorted({e for e in elements if elements.count(e) > 1})
        raise InputError(f"{name}: duplicate element names {dupes}")


def algebra_from_names(
    name: str,
    elements: list[str] | tuple[str, ...],
    arrow_names: list[list[str]],
    one: str,
    zero: str,
) -> FiniteAlgebra:
    """Build and validate an algebra from a name-valued table."""
    elements = tuple(elements)
    check_element_names(name, elements)
    index = {e: i for i, e in enumerate(elements)}
    for const, label in ((one, "one"), (zero, "zero")):
        if not isinstance(const, str) or const not in index:
            raise InputError(f"{name}: constant {label}={const!r} is not an element")
    if len(arrow_names) != len(elements):
        raise InputError(f"{name}: arrow has {len(arrow_names)} rows, expected {len(elements)}")
    table = []
    for i, row in enumerate(arrow_names):
        if len(row) != len(elements):
            raise InputError(
                f"{name}: arrow row {i} ({elements[i]}) has {len(row)} entries,"
                f" expected {len(elements)}"
            )
        try:
            table.append(bytes(map(index.__getitem__, row)))
        except (KeyError, TypeError, ValueError):
            # An entry that is not an element name, or an index above 255.
            out = []
            for j, entry in enumerate(row):
                if not isinstance(entry, str) or entry not in index:
                    raise InputError(
                        f"{name}: arrow[{elements[i]}][{elements[j]}] = {entry!r}"
                        " is not an element"
                    )
                out.append(index[entry])
            table.append(out)
    # The cap comes before the algebra, which refuses more than 256 elements.
    check_cap(name, len(elements))
    alg = FiniteAlgebra(name, elements, tuple(table), index[one], index[zero])
    validate_algebra(alg)
    return alg


def parse_algebra(text: str, default_name: str = "algebra") -> FiniteAlgebra:
    """Strict parse of one JSON algebra document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except (RecursionError, ValueError) as exc:
        # Nesting too deep for the decoder, or an integer beyond CPython's
        # digit limit for str -> int conversion.
        raise InputError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    unknown = set(doc) - {"name", "elements", "one", "zero", "arrow"}
    if unknown:
        raise InputError(f"unknown keys {sorted(unknown)}")
    for key in ("elements", "one", "zero", "arrow"):
        if key not in doc:
            raise InputError(f"missing key {key!r}")
    name = doc.get("name", default_name)
    if not isinstance(name, str):
        raise InputError("key 'name' must be a string")
    if not isinstance(doc["elements"], list):
        raise InputError("key 'elements' must be an array of strings")
    if not isinstance(doc["arrow"], list) or not all(isinstance(r, list) for r in doc["arrow"]):
        raise InputError("key 'arrow' must be an array of arrays")
    return algebra_from_names(name, doc["elements"], doc["arrow"], doc["one"], doc["zero"])


def algebra_to_document(alg: FiniteAlgebra) -> dict:
    return {
        "name": alg.name,
        "elements": list(alg.elements),
        "one": alg.elements[alg.one],
        "zero": alg.elements[alg.zero],
        "arrow": [[alg.elements[v] for v in row] for row in alg.arrow],
    }


def serialize_algebra(alg: FiniteAlgebra, compact: bool = False) -> str:
    """Canonical text form; byte-stable for identical input.  ``compact``
    produces the one-line form used for enumeration streams."""
    doc = algebra_to_document(alg)
    if compact:
        return json.dumps(doc, separators=(",", ":"))
    out = [
        "{",
        f'  "name": {json.dumps(doc["name"])},',
        f'  "elements": {json.dumps(doc["elements"])},',
        f'  "one": {json.dumps(doc["one"])},',
        f'  "zero": {json.dumps(doc["zero"])},',
        '  "arrow": [',
    ]
    rows = [f"    {json.dumps(row)}" for row in doc["arrow"]]
    out.append(",\n".join(rows))
    out.append("  ]")
    out.append("}")
    return "\n".join(out) + "\n"
