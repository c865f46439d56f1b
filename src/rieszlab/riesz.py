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
from .family import ONB, BiorthogonalPair, SequenceFamily, build_analysis, check_pairing

#: Action tolerance for T e_k == phi_k.
ACTION_TOLERANCE = 1e-10


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


def dual_pair(cp: ConstructingPair) -> BiorthogonalPair:
    """Constructed family together with its dual, pairing-checked."""
    return check_pairing(constructed_family(cp), dual_family(cp),
                         tolerance=max(1e-10, cp.kappa * 1e-12 * cp.dim))


def domain_norm_identity(cp: ConstructingPair, x) -> tuple[float, float]:
    """Both sides of sum_k |(x|phi_k)|^2 == ||adjoint(T) x||^2.

    The left side is summed independently column by column; at square
    truncation the two agree to rounding.
    """
    x = linalg.as_vector(x)
    if x.shape[0] != cp.dim:
        raise DimensionMismatchError("probe vector has wrong length")
    phi = cp.T @ cp.onb.columns
    lhs = float(sum(abs(linalg.inner(x, phi[:, k])) ** 2 for k in range(cp.dim)))
    rhs = float(np.linalg.norm(linalg.adjoint(cp.T) @ x) ** 2)
    return lhs, rhs


def check_constructing(T, phi: SequenceFamily,
                       tolerance: float = ACTION_TOLERANCE) -> bool:
    """True iff T is invertible and T e_{k+offset} == phi_k for every family column.

    T e_j is the column j of T in the standard basis.
    """
    T = linalg.as_operator(T)
    if T.shape[0] != phi.dim:
        raise DimensionMismatchError("operator and family dimensions differ")
    try:
        linalg.Factorization(T)
    except SingularOperatorError:
        return False
    for k in range(phi.n_padding, phi.size):
        if np.linalg.norm(T[:, phi.index_offset + k] - phi.coeffs[:, k]) > tolerance:
            return False
    return True
