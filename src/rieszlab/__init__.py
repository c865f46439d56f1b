"""rieszlab: a finite-truncation laboratory for biorthogonal pairs,
generalized Riesz bases, ladder operators and pseudo-bosonic families.

All operations are pure functions of immutable inputs and may be freely
shared across threads.
"""

from .errors import (
    AmbiguousVacuumError,
    DimensionMismatchError,
    ModelError,
    NotBiorthogonalError,
    RieszLabError,
    SingularOperatorError,
    SweepError,
    TruncationShapeError,
)
from .family import (
    PAIR_TOLERANCE,
    BiorthogonalPair,
    SequenceFamily,
    build_analysis,
    build_coanalysis,
    check_pairing,
    domain_partial_sum,
    pad_to_square,
    pair_to_square,
    verify_left_inverse,
)
from .ladder import LadderSet, build_ladder, dual_ladder, metric_operator, shift_matrices
from .linalg import Factorization, adjoint, inner, rank_one, solve_inverse
from .models import ModelSpec, instantiate, instantiate_pair, instantiate_system
from .pseudoboson import PseudoBosonSystem, generate_families, ground_states
from .riesz import check_constructing, domain_norm_identity, dual_family

__version__ = "0.1.0"

__all__ = [
    "PAIR_TOLERANCE",
    "AmbiguousVacuumError",
    "BiorthogonalPair",
    "DimensionMismatchError",
    "Factorization",
    "LadderSet",
    "ModelError",
    "ModelSpec",
    "NotBiorthogonalError",
    "PseudoBosonSystem",
    "RieszLabError",
    "SequenceFamily",
    "SingularOperatorError",
    "SweepError",
    "TruncationShapeError",
    "adjoint",
    "build_analysis",
    "build_coanalysis",
    "build_ladder",
    "check_constructing",
    "check_pairing",
    "domain_norm_identity",
    "domain_partial_sum",
    "dual_family",
    "dual_ladder",
    "generate_families",
    "ground_states",
    "inner",
    "instantiate",
    "instantiate_pair",
    "instantiate_system",
    "metric_operator",
    "pad_to_square",
    "pair_to_square",
    "rank_one",
    "shift_matrices",
    "solve_inverse",
    "verify_left_inverse",
]
