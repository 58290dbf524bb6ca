"""Workbench for finite implicative-ortholattices: classification, derived
operations, orthogonality spaces, Sasaki projections and maps, an executable
registry of structural laws, and exhaustive small-model enumeration."""

from .algebra import (
    AlgebraError,
    CheckResult,
    ClassLabel,
    FiniteAlgebra,
    InputError,
    NonLatticeError,
    PreconditionError,
    ResourceLimitError,
    big_meet,
    check_axiom,
    classify,
    down_set,
    is_distributive,
    le,
    le_l,
    le_q,
    ortho,
    star,
    vee_p,
    vee_q,
    wedge_p,
    wedge_q,
)
from .documents import parse_algebra, serialize_algebra
from .enumeration import (
    SearchGoal,
    canonical_form,
    counterexample_search,
    enumerate_models,
    is_isomorphic,
)
from .fixtures import FIXTURE_NAMES, fixture
from .orthospace import (
    OrthoSpace,
    associated_orthospace,
    blocks,
    cl_algebra,
    closed_index,
    enumerate_orthoclosed,
    is_dacey,
    is_normal,
    is_orthoclosed,
    orthoclosure,
    perp,
)
from .sasaki import (
    PartialMap,
    block_boolean_family,
    center,
    commutes,
    divides,
    has_full_sasaki_set,
    is_iboolean_subalgebra,
    is_sasaki_space,
    is_subalgebra,
    orthogonal_pair_boolean_witness,
    sasaki_map_search,
    sasaki_projection,
)
from .theorems import CheckSpec, list_checks, run_all, run_check

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
