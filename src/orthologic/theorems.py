"""Registry of executable checks, one per structural law of the theory.

Every check scans one loaded algebra exhaustively and returns a CheckResult.
Class preconditions are evaluated first; an unmet one yields a skip whose
witness names the requirement.  Witnesses of failing scans are min-lex in the
declared element order, with item tags for multi-part laws.

Most checks are one row of one of three shapes.  ``_items(id, pre, desc,
arity, *items)`` is a multi-part law of (tag, formula) items: each formula
reads a prefix of the roles x, y, z, u and is scanned at that arity, its first
failing tuple padded with element 0 up to the check's arity, so the witness
is that of one full-arity scan.  An item (tag, formula, flag) holds only on
part of the class: it is scanned where ``classify`` sets the flag, or, as
"!flag", where it does not, so a law whose items grow with the class (BE,
bounded, involutive, i-OML) is one row.  ``_pointwise(id, pre, desc, arity, *sides)``
has (label, formula) sides that must agree on every tuple.
``_characterisation(id, pre, desc, arity, *clauses)`` is an equivalence of
whole-table clauses, so an algebra falsifying every clause at once passes; a
clause is a tuple of axiom ids, which holds when all of them hold, or a
formula, scanned at its arity, whose least failing tuple is its witness.

A formula is a term of the language of ``algebra`` (equations between arrow
terms, with not/and/or/iff, the binder ``_all`` over a bound element V, and
the derived heads for the meets, the join vQ, the orders, orthogonality,
commutation and divisibility), compiled on first use into a row scan by
``first_failure``, as the 17 laws are.  A scan reads each derived head from
its table on the algebra, built once per algebra from the head's definition
in ``algebra.DERIVED``.  The projection-family laws are formulas too: a map
role a names the Sasaki projection phi_a(x) = x ^Q a, written
``_phi(a, x)``; their canonical items are gated "ioml" and their trivial
copies "!ioml", and P6-FULL-FORMULA's items SS1-SS3 are the laws that
``has_full_sasaki_set`` scans.  Checks that do not fit a single row (the pair
hulls, and the checks that build the space or decide a full family) are
functions over the same evaluators.  L7-DOWNSET decides its items over all
subsets from its element and pair items, without enumerating the subsets;
it and P7-CL-ISO compare the arrow with ``logic_arrow``, the logic's,
row by row through h(x), the family position of the down-set of x.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .algebra import (
    AXIOMS,
    BOUND as V,
    CheckResult,
    FiniteAlgebra,
    InputError,
    ROLES,
    _all,
    _and,
    _commutes,
    _divides,
    _eq,
    _iff,
    _imp,
    _implies,
    _le,
    _leq,
    _lel,
    _neg,
    _or,
    _ortho,
    _veeq,
    _wedgep,
    _wedgeq,
    axiom_holds,
    classify,
    down_set,
    first_failure,
    gather,
    star,
    table_of,
)
from .orthospace import (
    associated_orthospace,
    blocks,
    cl_algebra,
    closed_perps,
    enumerate_orthoclosed,
    is_dacey,
    is_normal,
    logic_arrow,
    perp,
    _closed_positions,
    _two_cell_partitions,
)
from .sasaki import (
    SASAKI_SET_LAWS,
    _phi,
    block_boolean_family,
    center,
    has_full_sasaki_set,
    is_iboolean_subalgebra,
    is_sasaki_space,
    non_boolean_pair,
)

X, Y, Z, U = ROLES
ZERO, ONE = "0", "1"


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    precondition: str  # "be" | "invbe" | "iol" | "ioml" | "iboolean"
    description: str
    arity: int


_REGISTRY: dict[str, CheckSpec] = {}
_EVAL: dict[str, Callable[[FiniteAlgebra], CheckResult]] = {}
# Every formula of the registry by (check id, item tag or clause label).
_FORMULAS: dict[tuple[str, str], tuple] = {}


def _register(check_id: str, precondition: str, description: str, arity: int):
    def deco(fn):
        _REGISTRY[check_id] = CheckSpec(check_id, precondition, description, arity)
        _EVAL[check_id] = fn
        return fn

    return deco


def _labelled(check_id, pairs):
    """Record the formulas among (label, predicate[, gate]) entries; return
    the entries."""
    _FORMULAS.update(
        ((check_id, label), pred) for label, pred, *_ in pairs if pred[0] not in AXIOMS)
    return pairs


def _items(check_id, precondition, description, arity, *items):
    _labelled(check_id, items)
    _register(check_id, precondition, description, arity)(
        lambda alg: _scan_items(alg, check_id, arity, _gated(alg, items)))


def _gated(alg, items):
    """The (tag, predicate) items that the algebra's class admits: an item
    gated "flag" where ``classify`` sets that flag, one gated "!flag" where
    it does not, and an ungated one everywhere."""
    if all(len(item) == 2 for item in items):
        return items
    label = classify(alg)
    return tuple((tag, pred) for tag, pred, *gate in items if not gate
                 or getattr(label, "is_" + gate[0].lstrip("!")) != gate[0].startswith("!"))


def _pointwise(check_id, precondition, description, arity, *sides):
    _labelled(check_id, sides)
    _register(check_id, precondition, description, arity)(
        lambda alg: _pointwise_equiv(alg, check_id, arity, sides))


def _characterisation(check_id, precondition, description, arity, *clauses):
    _labelled(check_id, clauses)
    _register(check_id, precondition, description, arity)(
        lambda alg: _equivalence(check_id, [_clause(alg, *clause) for clause in clauses]))


def _meets(alg: FiniteAlgebra, precondition: str) -> bool:
    label = classify(alg)
    if precondition == "invbe":
        return label.is_be and label.is_involutive
    return getattr(label, "is_" + precondition)


def list_checks() -> tuple[CheckSpec, ...]:
    return tuple(_REGISTRY.values())


def run_check(alg: FiniteAlgebra, check_id: str) -> CheckResult:
    spec = _REGISTRY.get(check_id)
    if spec is None:
        raise InputError(f"unknown check id {check_id!r}")
    if not _meets(alg, spec.precondition):
        return CheckResult(check_id, "skipped", (("precondition", spec.precondition),))
    return _EVAL[check_id](alg)


def run_all(alg: FiniteAlgebra) -> tuple[CheckResult, ...]:
    return tuple(run_check(alg, check_id) for check_id in _REGISTRY)


# -- scan helpers -----------------------------------------------------------

def _names(alg, tup):
    return tuple((r, alg.elements[v]) for r, v in zip(ROLES, tup))


def _scan_items(alg, check_id, arity, items):
    """items: sequence of (tag, predicate).  Each predicate reads the prefix
    of x, y, z, u of its own arity k <= arity and is scanned over n^k
    tuples.  The witness is the first violation of a full-arity scan (tuples
    lexicographically, items in listed order): the least (tuple, item index)
    over the items' first failing tuples, each padded with element 0 up to
    the check's arity."""
    failures = []
    for index, (_, pred) in enumerate(items):
        tup = first_failure(alg, pred)
        if tup is not None:
            failures.append((tup + (0,) * (arity - len(tup)), index))
    if not failures:
        return CheckResult(check_id, "pass")
    tup, index = min(failures)
    return CheckResult(check_id, "fail", (("item", items[index][0]),) + _names(alg, tup))


def _clause(alg, label, clause):
    """(label, holds, witness-or-None) of one characterisation clause: a
    tuple of axiom ids, or a formula carrying its least failing tuple."""
    if clause[0] in AXIOMS:
        return label, all(axiom_holds(alg, a) for a in clause), None
    tup = first_failure(alg, clause)
    return label, tup is None, None if tup is None else _names(alg, tup)


def _equivalence(check_id, clauses):
    """clauses: sequence of (label, bool, witness-or-None).  Pass iff all the
    booleans agree; otherwise report each clause's value plus the first
    available witness of a false clause."""
    values = [c[1] for c in clauses]
    if all(values) or not any(values):
        return CheckResult(check_id, "pass")
    witness = tuple((label, "holds" if val else "fails") for label, val, _ in clauses)
    for label, val, wit in clauses:
        if not val and wit is not None:
            witness += wit
            break
    return CheckResult(check_id, "fail", witness)


def _pointwise_equiv(alg, check_id, arity, sides):
    """sides: (label, formula) pairs over x and y that must agree on every
    pair.  One row scan of "the first agrees with each other" finds the
    least pair where they disagree; each side's value there, lane x * n + y
    of its table form, is its label's holds/fails."""
    preds = [pred for _, pred in sides]
    tup = first_failure(alg, _and(*(_iff(preds[0], pred) for pred in preds[1:])))
    if tup is None:
        return CheckResult(check_id, "pass")
    tup += (0,) * (arity - len(tup))
    lane = tup[0] * alg.n + tup[1]
    return CheckResult(check_id, "fail", _names(alg, tup) + tuple(
        (label, "holds" if table_of(alg, pred)[lane] else "fails") for label, pred in sides))


# -- basic consequences of the defining laws --------------------------------

_items(
    "L2-BE-PROPS", "be", "arithmetic of the arrow on (involutive) BE algebras", 3,
    ("(1)", _eq(_imp(X, _imp(Y, X)), ONE)),
    ("(2)", _le(X, _veeq(X, Y))),
    ("(3)", _eq(_imp(X, _neg(Y)), _imp(Y, _neg(X))), "bounded"),
    ("(4)", _le(X, _neg(_neg(X))), "bounded"),
    ("(5)", _eq(_imp(_neg(X), Y), _imp(_neg(Y), X)), "involutive"),
    ("(6)", _eq(_imp(_neg(X), _neg(Y)), _imp(Y, X)), "involutive"),
    ("(7)", _eq(_imp(_neg(_imp(X, Y)), Z), _imp(X, _imp(_neg(Y), Z))), "involutive"),
    ("(8)", _eq(_imp(X, _imp(Y, Z)), _imp(_neg(_imp(X, _neg(Y))), Z)), "involutive"),
    ("(9)", _eq(_imp(_neg(_imp(_neg(X), Y)), _imp(_neg(X), Y)),
                _imp(_neg(_imp(_neg(X), X)), _imp(_neg(Y), Y))), "involutive"),
)

_items(
    "P2-QBE-PROPS", "invbe", "order scaffolding on involutive BE algebras", 4,
    ("(1)", _implies(_leq(X, Y), _and(_eq(X, _wedgeq(Y, X)), _eq(Y, _veeq(X, Y))))),
    ("(2-refl)", _leq(X, X)),
    ("(2-antisym)", _implies(_leq(X, Y), _leq(Y, X), _eq(X, Y))),
    ("(3)", _eq(_veeq(X, Y), _neg(_wedgeq(_neg(X), _neg(Y))))),
    ("(4)", _implies(_leq(X, Y), _le(X, Y))),
    ("(5)", _implies(_leq(X, Z), _leq(Y, Z), _eq(_imp(Z, X), _imp(Z, Y)), _eq(X, Y))),
    ("(6)", _implies(_lel(X, Y), _le(X, Y))),
    ("(7-antisym)", _implies(_lel(X, Y), _lel(Y, X), _eq(X, Y))),
    ("(7-trans)", _implies(_lel(X, Y), _lel(Y, Z), _lel(X, Z))),
    ("(8)", _implies(_lel(Z, X), _lel(Z, Y), _lel(Z, _wedgep(X, Y)))),
    ("(9)", _eq(_imp(_wedgep(X, Y), _imp(Z, _neg(U))), _imp(_wedgep(X, Z), _imp(Y, _neg(U))))),
)

_LEL_ORDER = _labelled("R2-LEL-ORDER-IFF-IG", (
    ("reflexive", _lel(X, X)),
    ("antisymmetric", _implies(_lel(X, Y), _lel(Y, X), _eq(X, Y))),
    ("transitive", _implies(_lel(X, Y), _lel(Y, Z), _lel(X, Z))),
))


@_register("R2-LEL-ORDER-IFF-IG", "invbe", "le_l is an order exactly under the iG law", 3)
def _r2_lel_order(alg):
    # The order clause carries the reflexivity witness only.
    (_, reflexive), *rest = _LEL_ORDER
    label, holds, witness = _clause(alg, "le_l-order", reflexive)
    order = holds and all(first_failure(alg, pred) is None for _, pred in rest)
    return _equivalence(
        "R2-LEL-ORDER-IFF-IG", ((label, order, witness), _clause(alg, "iG", ("iG",))))


_characterisation(
    "L2-IMPL-EQUIV", "invbe", "three equivalent packagings of implicativity", 2,
    ("impl", ("impl",)),
    ("iG+Iabs-i", ("iG", "Iabs-i")),
    ("pi+Iabs-i", ("pi", "Iabs-i")),
)

_items(
    "L2-IOL-PROPS", "iol", "le_l arithmetic on implicative-ortholattices", 4,
    ("(1)", _iff(_lel(X, Y), _lel(_neg(Y), _neg(X)))),
    ("(2)", _implies(_leq(X, Y), _lel(X, Y))),
    ("(3)", _and(_lel(X, _imp(Y, X)), _lel(X, _imp(_neg(X), Y)))),
    ("(4)", _and(_lel(_wedgep(X, Y), X), _lel(_wedgep(X, Y), Y))),
    ("(5)", _iff(_ortho(X, Y), _ortho(Y, X))),
    ("(6)", _implies(_leq(X, Y), _eq(_wedgeq(X, _neg(Y)), ZERO))),
    ("(7)", _implies(_lel(X, Y), _eq(_wedgeq(X, _neg(Y)), ZERO))),
    ("(8)", _implies(_lel(X, Y), _and(_lel(_imp(Y, Z), _imp(X, Z)),
                                      _lel(_imp(Z, X), _imp(Z, Y))))),
    ("(9)", _implies(_lel(X, Y), _and(_lel(_veeq(X, Z), _veeq(Y, Z)),
                                      _lel(_wedgeq(X, Z), _wedgeq(Y, Z))))),
    ("(10)", _implies(_lel(X, Z), _lel(Y, Z), _lel(_imp(_neg(X), Y), Z))),
    ("(11)", _lel(_imp(_imp(X, _neg(Y)), _neg(_imp(X, Y))), X)),
    ("(12)", _implies(_lel(X, Y), _lel(Z, U), _lel(_imp(_neg(X), Z), _imp(_neg(Y), U)))),
)

_characterisation(
    "L2-IOM-3WAY", "invbe", "the three orthomodularity laws agree", 2,
    ("IOM", ("IOM",)),
    ("IOM'", ("IOM'",)),
    ("IOM''", ("IOM''",)),
)

_characterisation(
    "T2-CHAR-IOML-LE", "iol", "orthomodularity via the order inclusion le_l into le_q", 2,
    ("(a)", ("IOM",)),
    ("(b)", _implies(_lel(X, Y), _leq(X, Y))),
    ("(c)", _implies(_lel(X, Y), _eq(Y, _veeq(Y, X)))),
)

_pointwise(
    "C2-LEQ-EQ-LEL", "ioml", "le_q and le_l coincide on orthomodular algebras", 2,
    ("le_q", _leq(X, Y)), ("le_l", _lel(X, Y)),
)

_items(
    "P2-IOML-PROPS-A", "ioml", "meet/join arithmetic on orthomodular algebras", 3,
    ("(1)", _eq(_imp(X, _wedgeq(Y, X)), _imp(X, Y))),
    ("(2)", _eq(_imp(_veeq(X, Y), _neg(_imp(X, Y))), _neg(Y))),
    ("(3)", _eq(_wedgeq(X, _wedgeq(_imp(Y, X), _imp(Z, X))), X)),
    ("(4)", _eq(_imp(_imp(X, Y), _wedgeq(Y, X)), X)),
    ("(5)", _implies(_le(X, Y), _lel(Y, X), _eq(X, Y))),
    ("(6)", _and(_lel(_wedgeq(X, Y), Y), _lel(Y, _veeq(X, Y)))),
    ("(7)", _eq(_imp(_wedgeq(X, Y), _wedgeq(Y, X)), ONE)),
    ("(8)", _eq(_imp(_veeq(X, Y), _veeq(Y, X)), ONE)),
    ("(9)", _eq(_imp(_veeq(X, Y), Y), _imp(X, Y))),
    ("(10)", _eq(_wedgeq(_wedgeq(X, Y), _wedgeq(Y, Z)), _wedgeq(_wedgeq(X, Y), Z))),
)

_items(
    "P2-IOML-PROPS-B", "ioml", "bound transfer on orthomodular algebras", 3,
    ("(1)", _implies(_lel(X, Y), _lel(X, Z), _lel(X, _wedgeq(Y, Z)))),
    ("(2)", _implies(_lel(X, Y), _eq(_wedgeq(_wedgeq(Z, Y), X), _wedgeq(Z, X)))),
    ("(3)", _implies(_le(X, Y), _lel(Y, X), _eq(X, Y))),
    ("(4)", _implies(_lel(Y, X), _lel(Z, X), _lel(_veeq(Y, Z), X))),
    ("(5)", _eq(_imp(X, _wedgeq(X, Y)), _imp(X, Y))),
    ("(6)", _implies(_eq(_wedgeq(X, _neg(Y)), ZERO), _eq(_wedgeq(X, Y), X))),
)

_characterisation(
    "T2-CHAR-IOML-5WAY", "iol", "five equivalent forms of orthomodularity", 2,
    ("(a)", ("IOM",)),
    ("(b)", _eq(_imp(_imp(X, Y), _wedgeq(Y, X)), X)),
    ("(c)", _implies(_le(X, Y), _lel(Y, X), _eq(X, Y))),
    ("(d)", _implies(_eq(_wedgeq(X, _neg(Y)), ZERO), _eq(_wedgeq(X, Y), X))),
    ("(e)", _eq(_imp(X, _wedgeq(X, Y)), _imp(X, Y))),
)

_characterisation(
    "P2-IDIV-IFF-DISTRIB", "ioml", "divisibility equals distributivity", 3,
    ("Idiv", ("Idiv",)),
    ("Idis1+Idis2", ("Idis1", "Idis2")),
)

_characterisation(
    "R2-IDIV-IFF-AT", "iol", "the divisibility and contraction laws agree", 2,
    ("Idiv", ("Idiv",)),
    ("@", ("@",)),
)

_MBE_ITEMS = _labelled("MBE-EQ", (
    ("PU", _eq(_wedgep(ONE, X), X)),
    ("Pcomm", _eq(_wedgep(X, Y), _wedgep(Y, X))),
    ("Pass", _eq(_wedgep(X, _wedgep(Y, Z)), _wedgep(_wedgep(X, Y), Z))),
    ("m-La", _eq(_wedgep(X, ZERO), ZERO)),
    ("m-Re", _eq(_wedgep(X, _neg(X)), ZERO)),
))
(_, _M_PIMPL), = _labelled("MBE-EQ", (
    ("m-Pimpl", _eq(_neg(_wedgep(_neg(_wedgep(X, _neg(Y))), _neg(X))), X)),
))


@_register("MBE-EQ", "invbe", "product-signature cross-check via x*y := (x -> y*)*", 3)
def _mbe_eq(alg):
    scan = _scan_items(alg, "MBE-EQ", 3, _MBE_ITEMS)
    if scan.failed:
        return scan
    # The m-Pimpl clause is reported without a witness tuple.
    return _equivalence("MBE-EQ", (
        ("m-Pimpl", first_failure(alg, _M_PIMPL) is None, None),
        _clause(alg, "impl", ("impl",)),
    ))


# -- orthogonality ----------------------------------------------------------

_items(
    "L3-ORTHO-BASICS", "iol", "elementary facts about the orthogonality relation", 2,
    ("(1)", _iff(_ortho(X, Y), _ortho(Y, X))),
    ("(2)", _iff(_ortho(X, X), _eq(X, ZERO))),
    ("(3)", _ortho(ZERO, X)),
    ("(4)", _iff(_ortho(ONE, X), _eq(X, ZERO))),
    ("(5)", _implies(_lel(X, Y), _ortho(X, _neg(Y)))),
    ("(6)", _ortho(X, _neg(_imp(Y, X)))),
    ("(7)", _iff(_ortho(X, Y), _lel(X, _neg(Y)))),
)

_items(
    "L3-ORTHO-CONSEQ", "iol", "arrow identities for orthogonal pairs", 2,
    ("(1)", _implies(_ortho(X, Y), _and(_eq(_imp(_neg(X), _neg(Y)), _neg(Y)),
                                        _eq(_imp(_neg(Y), _neg(X)), _neg(X))))),
    ("(2)", _implies(_ortho(X, Y), _eq(_imp(_imp(_neg(X), Y), X), _neg(Y)))),
    ("(3)", _implies(_ortho(X, Y), _eq(_imp(_imp(_neg(X), Y), Y), _neg(X)))),
    ("(4)", _implies(_ortho(X, Y), _eq(_imp(_neg(X), _neg(_imp(_neg(X), Y))), _neg(Y)))),
)

_pointwise(
    "P3-PERP-IFF-MEETZERO", "iol", "orthogonality equals vanishing meet (orthomodular law)", 2,
    ("ortho", _ortho(X, Y)),
    ("meet-zero", _eq(_wedgeq(X, Y), ZERO)),
)

_characterisation(
    "P3-CHAR-IOML-ORTHO", "iol", "orthomodularity via meets of orthogonal pairs", 2,
    ("IOM", ("IOM",)),
    ("ortho-meet", _implies(_ortho(X, Y), _eq(_wedgeq(X, _neg(Y)), X))),
)


@_register("P3-CL-IS-IOL", "iol", "the orthoclosed-set logic is an implicative-ortholattice", 0)
def _p3_cl_is_iol(alg):
    if classify(cl_algebra(associated_orthospace(alg))).is_iol:
        return CheckResult("P3-CL-IS-IOL", "pass")
    return CheckResult("P3-CL-IS-IOL", "fail", (("logic", "not an i-OL"),))


# -- projections and commutation --------------------------------------------

_items(
    "P4-SP-BASIC", "iol", "first projection identities", 3,
    ("(1)", _and(_eq(_wedgeq(X, X), X), _eq(_wedgeq(X, ONE), X), _eq(_wedgeq(ONE, X), X),
                 _eq(_wedgeq(X, ZERO), ZERO), _eq(_wedgeq(ZERO, X), ZERO),
                 _eq(_wedgeq(_neg(X), X), ZERO), _eq(_wedgeq(X, _neg(X)), ZERO))),
    ("(2)", _implies(_lel(X, Y), _eq(_wedgeq(Y, X), X))),
    ("(3)", _eq(_wedgeq(Y, _wedgeq(Y, X)), _wedgeq(Y, X))),
    ("(4)", _implies(_leq(X, Y), _eq(_wedgeq(X, Y), X))),
    ("(5)", _implies(_lel(X, Y), _lel(_wedgeq(X, Z), _wedgeq(Y, Z)))),
)


def _central(s):
    """s commutes with every element."""
    return _all(_commutes(s, V))


def _fixes_all(s):
    """phi_s is the identity: v ^Q s = v for every v."""
    return _all(_eq(_wedgeq(V, s), V))


_items(
    "P4-SP-IOML", "ioml", "projection composition identities", 3,
    ("(1)", _implies(_fixes_all(X), _fixes_all(Y), _fixes_all(_wedgeq(X, Y)))),
    ("(2)", _eq(_wedgeq(_wedgeq(X, Y), Y), _wedgeq(X, Y))),
    ("(3)", _eq(_wedgeq(_neg(_wedgeq(X, Y)), Y), _neg(_imp(Y, X)))),
    ("(4)", _lel(_wedgeq(_neg(_wedgeq(X, Y)), Y), _neg(X))),
    ("(5)", _iff(_lel(_wedgeq(X, Z), _neg(Y)), _lel(_wedgeq(Y, Z), _neg(X)))),
    ("(6)", _eq(_wedgeq(_wedgeq(X, Y), X), _wedgeq(Y, X))),
    ("(7)", _implies(_leq(X, Y), _eq(_wedgeq(Z, X), _wedgeq(_wedgeq(Z, Y), X)))),
)


_items(
    "P4-SP-IOML-B", "ioml", "projection fixed points, kernels and adjoint-style swaps", 3,
    ("(1)", _iff(_leq(X, Y), _lel(X, Y))),
    ("(2)", _iff(_eq(_wedgeq(X, Y), ZERO), _lel(X, _neg(Y)))),
    ("(3)", _implies(_lel(X, Y), _eq(_wedgeq(_wedgeq(Z, Y), X), _wedgeq(Z, X)))),
    ("(4)", _iff(_ortho(_wedgeq(X, Z), Y), _ortho(_wedgeq(Y, Z), X))),
    ("(5)", _iff(_all(_eq(_wedgeq(_wedgeq(V, X), X), ZERO)),
                 _lel(_wedgeq(ONE, X), _neg(_wedgeq(ONE, X))))),
    ("(6)", _iff(_ortho(_wedgeq(X, Z), Y), _ortho(X, _wedgeq(Y, Z)))),
    ("(7)", _iff(_ortho(X, Y), _eq(_wedgeq(Y, X), ZERO))),
    ("(8)", _implies(_ortho(X, Y), _ortho(_wedgeq(X, Y), _neg(Y)))),
)

_characterisation(
    "T4-SASAKI-PERP-CHAR", "iol", "orthomodularity via projections moving across the relation", 3,
    ("IOM", ("IOM",)),
    ("swap", _implies(_ortho(_wedgeq(X, Y), Z), _ortho(X, _wedgeq(Z, Y)))),
)

_items(
    "L4-C-BASICS", "iol", "easy commutation facts", 2,
    ("(1)", _and(_commutes(X, X), _commutes(X, ZERO), _commutes(ZERO, X), _commutes(X, ONE),
                 _commutes(ONE, X), _commutes(X, _neg(X)), _commutes(_neg(X), X))),
    ("(2)", _implies(_or(_lel(X, Y), _lel(X, _neg(Y))), _commutes(X, Y))),
    ("(3)", _and(_commutes(X, _imp(Y, X)), _commutes(X, _imp(_neg(X), Y)),
                 _commutes(Y, _imp(_neg(X), Y)))),
)

_characterisation(
    "T4-C-SYMMETRIC", "iol", "orthomodularity equals symmetry of commutation", 2,
    ("IOM", ("IOM",)),
    ("C-symmetric", _implies(_commutes(X, Y), _commutes(Y, X))),
)

_characterisation(
    "C4-C-MEET-COMM", "iol", "orthomodularity via commuting meets", 2,
    ("IOM", ("IOM",)),
    ("C-meet", _implies(_commutes(X, Y), _eq(_wedgeq(X, Y), _wedgeq(Y, X)))),
)

_items(
    "L4-C-STAR-CLOSED", "ioml", "commutation is star-closed", 2,
    ("", _implies(_commutes(X, Y), _and(_commutes(X, _neg(Y)), _commutes(_neg(X), Y),
                                        _commutes(_neg(X), _neg(Y))))),
)

_pointwise(
    "P4-C-FORMULA", "ioml", "commutation via a single equation", 2,
    ("C", _commutes(X, Y)),
    ("equation", _eq(_imp(_imp(X, _neg(Y)), _neg(_imp(X, Y))), X)),
)

_pointwise(
    "P4-C-MEET-FORMULA", "ioml", "commutation via the pointed meet", 2,
    ("C", _commutes(X, Y)),
    ("meet-form", _eq(_wedgeq(X, Y), _wedgep(X, Y))),
)

_pointwise(
    "C4-C-4WAY", "ioml", "four equivalent forms of commutation", 2,
    ("(a)", _commutes(X, Y)),
    ("(b)", _eq(_wedgeq(X, Y), _wedgeq(Y, X))),
    ("(c)", _eq(_veeq(X, Y), _veeq(Y, X))),
    ("(d)", _eq(_wedgeq(Y, X), _wedgeq(X, Y))),
)


_pointwise(
    "T4-SP-COMPOSE", "ioml", "commuting generators compose to the meet projection", 2,
    ("(a)", _commutes(X, Y)),
    ("(b)", _all(_and(_eq(_wedgeq(_wedgeq(V, Y), X), _wedgeq(_wedgeq(V, X), Y)),
                      _eq(_wedgeq(_wedgeq(V, X), Y), _wedgeq(V, _wedgeq(X, Y)))))),
    ("(c)", _all(_and(_implies(_lel(V, X), _lel(_wedgeq(V, Y), X)),
                      _implies(_lel(V, Y), _lel(_wedgeq(V, X), Y))))),
)


# -- divisibility and the Boolean side ---------------------------------------

_pointwise(
    "L5-C-IFF-D", "iol", "commutation and divisibility coincide", 2,
    ("C", _commutes(X, Y)), ("D", _divides(X, Y)),
)

_items(
    "L5-D-BASICS", "iol", "easy divisibility facts", 2,
    ("(1)", _and(_divides(X, X), _divides(X, ZERO), _divides(ZERO, X), _divides(X, ONE),
                 _divides(ONE, X), _divides(X, _neg(X)), _divides(_neg(X), X))),
    ("(2)", _implies(_or(_lel(X, Y), _lel(X, _neg(Y))), _divides(X, Y))),
    ("(3)", _and(_divides(X, _imp(Y, X)), _divides(X, _imp(_neg(X), Y)),
                 _divides(Y, _imp(_neg(X), Y)))),
    ("(4)", _implies(_ortho(X, Y), _and(_divides(X, Y), _divides(Y, X),
                                        _divides(X, _neg(Y)), _divides(_neg(Y), X))), "ioml"),
    ("(5)", _and(_divides(_neg(X), _imp(_neg(X), Y)), _divides(_neg(Y), _imp(_neg(X), Y)),
                 _divides(X, _neg(_imp(_neg(X), Y))), _divides(Y, _neg(_imp(_neg(X), Y)))),
     "ioml"),
)

_characterisation(
    "P5-BOOLEAN-IS-IOML", "iol", "the Boolean law implies orthomodularity", 2,
    ("@", ("@",)),
    # Where @ holds this clause is IOM, which names the law that fails.
    ("IOM", ("@", "IOM")),
)


# (e)/(f) assert that every pair commutes/divides (the center is all of X);
# mere symmetry of the relations is automatic under orthomodularity and would
# not be equivalent to the Boolean law.
_characterisation(
    "T5-BOOLEAN-6WAY", "ioml", "six equivalent forms of the Boolean law", 2,
    ("(a)", ("@",)),
    ("(b)", _eq(_wedgeq(X, Y), _wedgep(X, Y))),
    ("(c)", _eq(_wedgeq(X, Y), _wedgeq(Y, X))),
    ("(d)", _eq(_veeq(X, Y), _veeq(Y, X))),
    ("(e)", _commutes(X, Y)),
    ("(f)", _divides(X, Y)),
)

_characterisation(
    "T5-BOOLEAN-MEETLE", "ioml", "the Boolean law via bounded meets and joins", 2,
    ("(a)", ("@",)),
    ("(b)", _lel(_wedgeq(X, Y), X)),
    ("(c)", _lel(X, _veeq(X, Y))),
)

_characterisation(
    "T5-BOOLEAN-LE", "ioml", "the Boolean law via the inclusion le into le_l", 2,
    ("@", ("@",)),
    ("le-in-le_l", _implies(_le(X, Y), _lel(X, Y))),
)

_pointwise(
    "C5-ORDERS-COINCIDE", "iboolean", "all three orders coincide on Boolean algebras", 2,
    ("le", _le(X, Y)), ("le_l", _lel(X, Y)), ("le_q", _leq(X, Y)),
)

_items(
    "L5-CENTER-ARROW", "ioml", "arrows of elements commuting with a third stay central", 3,
    ("", _implies(_commutes(X, Z), _commutes(Y, Z),
                  _lel(_imp(X, Y), _imp(_imp(_imp(X, Y), _neg(Z)), _neg(_imp(_imp(X, Y), Z)))))),
)


@_register("T5-CENTER-BOOLEAN", "ioml", "the center is a Boolean subalgebra", 2)
def _t5_center_boolean(alg):
    return replace(is_iboolean_subalgebra(alg, center(alg)), check_id="T5-CENTER-BOOLEAN")


def _pairs_boolean(alg):
    """The clause "the hull of every orthogonal pair is i-Boolean", with the
    least pair whose hull is not as its witness."""
    pair = non_boolean_pair(alg)
    return "pairs-boolean", pair is None, None if pair is None else _names(alg, pair)


@_register("T5-ORTHO-PAIR-BOOLEAN", "iol", "orthomodularity via Boolean hulls of orthogonal pairs", 2)
def _t5_ortho_pair_boolean(alg):
    return _equivalence(
        "T5-ORTHO-PAIR-BOOLEAN", (_clause(alg, "IOM", ("IOM",)), _pairs_boolean(alg)))


_items(
    "T5-SP-CENTER-MONOID", "ioml", "central projections form an Abelian monoid", 2,
    ("closed", _implies(_central(X), _central(Y), _central(_wedgeq(X, Y)))),
    ("compose", _implies(_central(X), _central(Y),
                         _all(_and(_eq(_phi(X, _phi(Y, V)), _phi(Y, _phi(X, V))),
                                   _eq(_phi(X, _phi(Y, V)), _phi(_wedgeq(X, Y), V)))))),
    ("identity", _and(_central(ONE), _eq(_phi(ONE, X), X))),
)


# -- projection families -----------------------------------------------------
#
# A map role a names the projection phi_a, and the roles after the map roles
# are elements.  On an i-OML the family is the canonical {phi_a : a in X}.  On
# any other i-OL it is the trivial {0, id}, which is {phi_0, phi_1} on every
# i-OL (P4-SP-BASIC item (1)), so its items restrict each map role to 0 or 1.

def _family_items(check_id, description, arity, *items):
    """items: (tag, map roles, formula), scanned over the family of the
    class.  The trivial family's copy of an item, tagged "<tag> trivial",
    restricts each of its map roles to 0 or 1."""
    _items(check_id, "iol", description, arity,
           *((tag, pred, "ioml") for tag, _, pred in items),
           *((f"{tag} trivial".lstrip(),
              _implies(*(_or(_eq(a, ZERO), _eq(a, ONE)) for a in maps), pred), "!ioml")
             for tag, maps, pred in items))


_family_items(
    "P6-SS-PROPS", "consequences of the projection-family laws", 3,
    ("(1)", (X, Y), _implies(_lel(_phi(X, ONE), _phi(Y, ONE)),
                             _and(_eq(_phi(X, _phi(Y, Z)), _phi(X, Z)),
                                  _eq(_phi(Y, _phi(X, Z)), _phi(X, Z))))),
    ("(2)", (X, Y), _implies(_eq(_phi(X, ONE), _phi(Y, ONE)), _all(_eq(_phi(X, V), _phi(Y, V))))),
    ("(3)", (X,), _eq(_phi(X, _phi(X, Y)), _phi(X, Y))),
    ("(4)", (X, Y), _implies(_lel(_phi(X, ONE), _phi(Y, ONE)),
                             _eq(_phi(Y, _phi(X, ONE)), _phi(X, ONE)))),
    ("(5)", (X,), _iff(_eq(_phi(X, Y), ZERO), _lel(Y, _neg(_phi(X, ONE))))),
    ("(6)", (X,), _implies(_ortho(_phi(X, Y), _phi(X, Z)), _ortho(Y, _phi(X, Z)))),
    ("(7)", (X,), _iff(_ortho(_phi(X, Y), Z), _ortho(Y, _phi(X, Z)))),
)

_family_items(
    "P6-SS-ARROW", "projection families preserve the arrow up to star", 3,
    ("", (X,), _eq(_phi(X, _imp(Y, Z)), _imp(_neg(_phi(X, _neg(Y))), _phi(X, Z)))),
)


_items(
    "P6-FULL-PROPS", "ioml", "identities of the full canonical family", 3,
    ("(1)", _implies(_lel(Z, X), _lel(Z, Y), _le(Z, _wedgeq(_neg(_wedgeq(_neg(Y), X)), X)))),
    ("(2)", _eq(_wedgeq(_neg(_wedgeq(_neg(Y), X)), X), _wedgep(X, Y))),
    ("(3)", _eq(_wedgeq(_neg(X), X), ZERO)),
)


_items(
    "P6-FULL-FORMULA", "ioml", "the Sasaki projections form a full projection family", 3,
    *((law, formula) for law, _, formula in SASAKI_SET_LAWS),
    ("full", _eq(_phi(X, ONE), X)),
)


@_register("T6-FULLSET-IFF-IOML", "iol", "orthomodularity equals having a full projection family", 2)
def _t6_fullset(alg):
    verdict = has_full_sasaki_set(alg)
    return _equivalence("T6-FULLSET-IFF-IOML", (
        _clause(alg, "IOM", ("IOM",)),
        ("full-set", verdict.passed, verdict.witness if verdict.failed else None),
    ))


# -- spaces -------------------------------------------------------------------

def _down_sets(alg, space) -> tuple[list, list, list]:
    """The down-set of each x, over the universe and over the points, the
    elements but 0 (point i is element i, less one above 0), and h(x), its
    position in the space's orthoclosed family, None where it is not one."""
    zero, below = alg.zero, (1 << alg.zero) - 1
    down = [down_set(alg, x) for x in range(alg.n)]
    points = [d & below | d >> (zero + 1) << zero for d in down]
    return down, points, [*map(_closed_positions(space).get, points)]


@_register("P7-DACEY-IFF-BOOLEAN-PAIRS", "iol", "the Dacey property via Boolean hulls inside the logic", 2)
def _p7_dacey_pairs(alg):
    space = associated_orthospace(alg)
    return _equivalence("P7-DACEY-IFF-BOOLEAN-PAIRS", (
        ("dacey", is_dacey(space).passed, None), _pairs_boolean(cl_algebra(space))))


@_register("L7-DOWNSET", "iol", "down-set identities linking the algebra to its space", 2)
def _l7_downset(alg):
    """Items (1)-(3) scanned over the elements and pairs; items (4) and (5),
    which quantify over every subset Y, are decided without visiting them.

    Once item (1) holds at every x, the down-set of each x = x** (DN) is the
    perp of that of x*, so in the family at h(x), and item (3) at x says that
    h maps the arrow row of x onto the logic's row h(x) read at h.

    Item (4), down(big_meet(Y)) = the intersection of down(y) over Y, holds
    on every Y once item (2) holds, and ``big_meet`` cannot raise.  Fold Y
    in ascending order from 1, as ``big_meet`` does.  At the start the
    intersection is the universe and the fold is 1, and down(1) is the
    universe: y ^P 1 = (y -> 0)* = y by BE3 and DN.  Each step meets the
    intersection with down(y) and the fold f with y, and item (2) at (f, y)
    says down(f) & down(y) = down(f ^P y); so the intersection is always
    the down-set of the fold.  The fold lies in its own down-set, since
    every x <=L x: impl at (x*, 0) with DN gives x -> x* = x*, so
    x ^P x = x.  Hence the fold is a <=L lower bound of Y.  BE3, DN and
    impl are laws that the ``iol`` precondition has verified.

    Item (5), perp(Y) = the point down-set of big_meet(Y*) for Y avoiding
    0, then compares two intersections over the members y of Y: of the
    perps of the points y, and, by item (4), of the point down-sets of y*.
    If the two masks agree at every member, the intersections agree; so a
    failing Y has a member y at which they differ, and the singleton {y}
    fails too.  The perp of {y} is y's row of the space, which is item
    (1)'s third mask at x = y, and item (1) requires it to equal the point
    down-set of y*.  So item (1) fails wherever item (5) would, and item
    (5) needs no pass of its own.
    """
    space, n, zero = associated_orthospace(alg), alg.n, alg.zero
    down, point_down, h = _down_sets(alg, space)
    for x in range(n):
        # x's orthogonal points: its row of the space, or all of them at 0.
        direct = space.full() if x == zero else space.rel[x - (x > zero)]
        if not (perp(space, point_down[x]) == point_down[star(alg, x)] == direct):
            return CheckResult("L7-DOWNSET", "fail", (("item", "(1)"), ("x", alg.elements[x])))
    meet = alg.tables["^P"]
    for x, logic_row in enumerate(gather(logic_arrow(space), h)):
        meets, mapped, row = meet[x * n:x * n + n], gather(h, alg.arrow[x]), gather(logic_row, h)
        if (*map(down[x].__and__, down),) != gather(down, meets) or mapped != row:
            # At the first failing y, item (2) comes first.
            y, tag = next((y, tag) for y in range(n) for tag, fails in (
                ("(2)", down[x] & down[y] != down[meets[y]]), ("(3)", mapped[y] != row[y])) if fails)
            return CheckResult("L7-DOWNSET", "fail", (("item", tag),) + _names(alg, (x, y)))
    return CheckResult("L7-DOWNSET", "pass")


@_register("P7-CL-ISO", "iol", "the down-set map is an isomorphism onto the logic", 2)
def _p7_cl_iso(alg):
    # h must be a bijection onto the family mapping the arrow row of x onto the
    # logic's row h(x) read at h; lane 0 first, the star: A -> {} = A^perp.
    space = associated_orthospace(alg)
    h = _down_sets(alg, space)[2]
    if None in h or sorted(h) != list(range(len(_closed_positions(space)))):
        return CheckResult("P7-CL-ISO", "fail", (("map", "not a bijection"),))
    for x, logic_row in enumerate(gather(logic_arrow(space), h)):
        mapped, row = gather(h, alg.arrow[x]), gather(logic_row, h)
        if mapped[alg.zero] != row[alg.zero]:
            return CheckResult("P7-CL-ISO", "fail", (("star-at", alg.elements[x]),))
        if mapped != row:
            y = next(y for y in range(alg.n) if mapped[y] != row[y])
            return CheckResult("P7-CL-ISO", "fail", _names(alg, (x, y)))
    return CheckResult("P7-CL-ISO", "pass")


@_register("T7-IOML-SASAKI", "ioml", "orthomodular algebras give Sasaki spaces", 0)
def _t7_ioml_sasaki(alg):
    return replace(is_sasaki_space(associated_orthospace(alg)), check_id="T7-IOML-SASAKI")


@_register("P7-FULLSET-SASAKI", "iol", "a full projection family forces a Sasaki space", 0)
def _p7_fullset_sasaki(alg):
    if not has_full_sasaki_set(alg).passed:
        return CheckResult("P7-FULLSET-SASAKI", "pass")
    return replace(is_sasaki_space(associated_orthospace(alg)), check_id="P7-FULLSET-SASAKI")


@_register("L7-NORMAL-CRIT", "iol", "the decomposition criterion matches the unique-decomposition reading", 0)
def _l7_normal_crit(alg):
    space = associated_orthospace(alg)
    # A member's only possible partner is its perp, whose perp it is.
    decomps = [(a, b) for a, b in zip(enumerate_orthoclosed(space), closed_perps(space)) if a and b]
    # The first partition of a block that not exactly one decomposition extends.
    ambiguous = next(((block, e1) for block in blocks(space)
                      for e1, e2 in _two_cell_partitions(block)
                      if sum(e1 & ~a == 0 and e2 & ~b == 0 for a, b in decomps) != 1), None)
    if is_normal(space).passed == (ambiguous is None):
        return CheckResult("L7-NORMAL-CRIT", "pass")
    return CheckResult("L7-NORMAL-CRIT", "fail", () if ambiguous is None else tuple(
        zip(("block", "cell"), map(space.subset_name, ambiguous))))


@_register("P7-BLOCK-BOOLEAN", "iol", "block closures form Boolean subalgebras in normal spaces", 2)
def _p7_block_boolean(alg):
    space = associated_orthospace(alg)
    if not is_normal(space).passed:
        return CheckResult("P7-BLOCK-BOOLEAN", "skipped", (("precondition", "normal space"),))
    for block in blocks(space):
        verdict, _ = block_boolean_family(space, block)
        if not verdict.passed:
            return CheckResult(
                "P7-BLOCK-BOOLEAN", "fail",
                (("block", space.subset_name(block)),) + verdict.witness)
    return CheckResult("P7-BLOCK-BOOLEAN", "pass")
