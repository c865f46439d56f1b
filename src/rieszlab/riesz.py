"""Generalized Riesz bases: constructing operators and their duals.

The paper calls {phi_k} a generalized Riesz basis when a constructing pair
({e_k}, T) exists: an ONB {e_k} and an invertible T with T e_k = phi_k.  At
truncation N every ONB is U e_k for a unitary U, and (U e, T) constructs the
same family as (e, T U).  So the ONB is always the standard one here and a
constructing pair is T alone, given as a matrix or as its linalg.Factorization;
kappa, sigma_min and the dual family all come from that one factorization.

At finite truncation every matrix is closed and everywhere defined, so the
infinite-dimensional domain conditions degenerate; the condition number and
smallest singular value are recorded so that sweeps can extrapolate which
conditions would fail as N grows.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, SingularOperatorError
from .family import (
    PAIR_TOLERANCE,
    BiorthogonalPair,
    SequenceFamily,
    check_pairing,
    domain_partial_sum,
)

#: Action tolerance for T e_k == phi_k.
ACTION_TOLERANCE = 1e-12


def constructed_family(T) -> SequenceFamily:
    """The family {T e_k}: the columns of T (or of a Factorization's T)."""
    return SequenceFamily(linalg.as_factorization(T).T)


def dual_family(T) -> SequenceFamily:
    """Dual family psi_k = adjoint(inverse(T)) e_k; biorthogonal to {T e_k}."""
    return SequenceFamily(linalg.as_factorization(T).dual)


def dual_pairing_tolerance(T, base: float = PAIR_TOLERANCE) -> float:
    """Pairing bound of {T e_k} and its dual: base, or kappa * 1e-12 * N if larger."""
    fac = linalg.as_factorization(T)
    return max(base, fac.kappa * 1e-12 * fac.dim)


def dual_pair(T) -> BiorthogonalPair:
    """Constructed family together with its dual, pairing-checked."""
    fac = linalg.as_factorization(T)
    return check_pairing(constructed_family(fac), dual_family(fac),
                         tolerance=dual_pairing_tolerance(fac))


def domain_norm_identity(T, x) -> tuple[float, float]:
    """Both sides of sum_k |(x|phi_k)|^2 == ||adjoint(T) x||^2.

    The left side is the domain partial sum over the constructed family
    {T e_k}; at square truncation the two agree to rounding.
    """
    fac = linalg.as_factorization(T)
    x = linalg.as_vector(x)
    if x.shape[0] != fac.dim:
        raise DimensionMismatchError("probe vector has wrong length")
    lhs = domain_partial_sum(constructed_family(fac), x)
    rhs = float(np.linalg.norm(linalg.adjoint(fac.T) @ x) ** 2)
    return lhs, rhs


def check_constructing(T, phi: SequenceFamily,
                       tolerance: float = ACTION_TOLERANCE) -> bool:
    """True iff T is invertible and T e_{k+offset} == phi_k for every family column.

    T e_j is the column j of T in the standard basis.  Indices past the
    dimension raise DimensionMismatchError.
    """
    T = linalg.as_operator(T)
    if T.shape[0] != phi.dim:
        raise DimensionMismatchError("operator and family dimensions differ")
    try:
        linalg.Factorization(T)
    except SingularOperatorError:
        return False
    start, stop = phi.index_offset + phi.n_padding, phi.index_offset + phi.size
    if stop > T.shape[1]:
        raise DimensionMismatchError(f"family indices run to {stop - 1} in dimension {phi.dim}")
    return linalg.max_column_norm(T[:, start:stop] - phi.coeffs[:, phi.n_padding:]) <= tolerance
