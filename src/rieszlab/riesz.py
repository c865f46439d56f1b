"""Generalized Riesz bases: constructing pairs and their duals.

A constructing pair is an ONB together with an invertible operator T; the
family it constructs has columns T e_k.  At finite truncation every matrix is
closed and everywhere defined, so the infinite-dimensional domain conditions
degenerate; the condition number and smallest singular value are recorded so
that sweeps can extrapolate which conditions would fail as N grows.

A constructing pair holds the one linalg.Factorization of T; kappa, sigma_min
and the dual family all come from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, SingularOperatorError
from .family import (
    ONB,
    PAIR_TOLERANCE,
    BiorthogonalPair,
    SequenceFamily,
    build_analysis,
    check_pairing,
    domain_partial_sum,
)

#: Action tolerance for T e_k == phi_k.
ACTION_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ConstructingPair:
    """(e, T) with T invertible at the rank tolerance.

    T may be given as a linalg.Factorization, which is then kept as is.
    """

    onb: ONB
    T: np.ndarray
    factorization: linalg.Factorization = field(init=False, repr=False)

    def __post_init__(self):
        fac = linalg.as_factorization(self.T)
        if fac.dim != self.onb.dim:
            raise DimensionMismatchError("operator and ONB dimensions differ")
        fac.T.setflags(write=False)
        object.__setattr__(self, "T", fac.T)
        object.__setattr__(self, "factorization", fac)

    @classmethod
    def from_family(cls, phi: SequenceFamily) -> "ConstructingPair":
        """The pair (e, T) on the standard basis: T is the coefficient matrix of phi."""
        return cls(onb=ONB.standard(phi.dim), T=build_analysis(phi))

    @property
    def dim(self) -> int:
        return self.onb.dim

    @property
    def kappa(self) -> float:
        return self.factorization.kappa

    @property
    def sigma_min(self) -> float:
        return self.factorization.sigma_min


def _on_basis(cp: ConstructingPair, M: np.ndarray) -> SequenceFamily:
    """The family {M e_k}; with the standard ONB that is M itself, no product."""
    return SequenceFamily(M if cp.onb.is_standard else M @ cp.onb.columns)


def constructed_family(cp: ConstructingPair) -> SequenceFamily:
    """The family {T e_k} of the constructing pair."""
    return _on_basis(cp, cp.T)


def dual_family(cp: ConstructingPair) -> SequenceFamily:
    """Dual family psi_k = adjoint(inverse(T)) e_k; biorthogonal to {T e_k}."""
    return _on_basis(cp, cp.factorization.dual)


def dual_pairing_tolerance(cp: ConstructingPair, base: float = PAIR_TOLERANCE) -> float:
    """Pairing bound of {T e_k} and its dual: base, or kappa * 1e-12 * N if larger."""
    return max(base, cp.kappa * 1e-12 * cp.dim)


def dual_pair(cp: ConstructingPair) -> BiorthogonalPair:
    """Constructed family together with its dual, pairing-checked."""
    return check_pairing(constructed_family(cp), dual_family(cp),
                         tolerance=dual_pairing_tolerance(cp))


def domain_norm_identity(cp: ConstructingPair, x) -> tuple[float, float]:
    """Both sides of sum_k |(x|phi_k)|^2 == ||adjoint(T) x||^2.

    The left side is the domain partial sum over the constructed family
    {T e_k}; at square truncation the two agree to rounding.
    """
    x = linalg.as_vector(x)
    if x.shape[0] != cp.dim:
        raise DimensionMismatchError("probe vector has wrong length")
    lhs = domain_partial_sum(constructed_family(cp), x)
    rhs = float(np.linalg.norm(linalg.adjoint(cp.T) @ x) ** 2)
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
