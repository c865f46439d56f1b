"""Lowering, raising and number operators transported by a constructing operator.

For an invertible T the family chi_n = T e_n inherits the ladder structure of
the standard shift matrices by similarity: A = T S_- T^-1 lowers, B = T S_+ T^-1
raises, and the number operator T diag(k) T^-1 has chi_n as eigenvector with
eigenvalue n.  The dual family uses the same construction with adjoint(T^-1),
whose inverse is adjoint(T), so no second inversion is needed.

Both sides and the metric run through one linalg.Factorization of T.  Since
T S_- and T S_+ are column shifts of T weighted by sqrt(k) and T diag(k) is a
column scaling, each transported operator costs a single matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError
from .family import SequenceFamily

#: Base tolerance for ladder relations; scaled by kappa(T)^2 because the
#: construction compounds an inversion with two conjugations.
LADDER_TOL_BASE = 1e-12


def ladder_tolerance(kappa: float, base: float = LADDER_TOL_BASE) -> float:
    return base * kappa * kappa


def _shifted(M: np.ndarray):
    """Yield M S_-, M S_+ and M N0 (shifts on M's columns) one at a time, as new arrays.

    Column k of M S_- is sqrt(k) M e_{k-1}, column k of M S_+ is
    sqrt(k+1) M e_{k+1}, and column k of M N0 is k M e_k.  M's rows span the
    truncated space, whose dimension must be at least 2.
    """
    if M.shape[0] < 2:
        raise DimensionMismatchError("shift matrices need dimension >= 2")
    ks = np.arange(M.shape[1], dtype=np.float64)
    weights = np.sqrt(ks[1:])
    out = np.zeros_like(M)
    out[:, 1:] = M[:, :-1] * weights
    yield out
    out = np.zeros_like(M)
    out[:, :-1] = M[:, 1:] * weights
    yield out
    out = np.zeros_like(M)
    out[:, 1:] = M[:, 1:] * ks[1:]
    yield out


def shift_matrices(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated CCR shifts: (S_minus, S_plus, N0).

    S_minus has sqrt(k+1) at (k, k+1), S_plus is its adjoint, and
    N0 = S_plus @ S_minus = diag(0, 1, ..., dim-1).
    """
    return tuple(_shifted(np.eye(dim, dtype=np.complex128)))


@dataclass(frozen=True)
class LadderSet:
    """Ladder triple for one side of a pair.

    window is the largest column index on which truncation-clean relations
    are asserted; raising checks stop one column earlier.
    """

    lowering: np.ndarray
    raising: np.ndarray
    number: np.ndarray
    side: str
    window: int
    kappa: float

    @property
    def dim(self) -> int:
        return self.lowering.shape[0]


@dataclass(frozen=True)
class MetricOperator:
    """Positive self-adjoint G = adjoint(T^-1) T^-1 intertwining N and N*."""

    matrix: np.ndarray
    source: str = ""


def _transport(M: np.ndarray, M_inv: np.ndarray, side: str, kappa: float) -> LadderSet:
    """(M S_- M^-1, M S_+ M^-1, M N0 M^-1), with M S_-, M S_+, M N0 from _shifted."""
    lowering, raising, number = (shifted @ M_inv for shifted in _shifted(M))
    return LadderSet(lowering=lowering, raising=raising, number=number,
                     side=side, window=M.shape[0] - 1, kappa=kappa)


def build_ladder(T, side: str = "phi") -> LadderSet:
    """Transport the standard ladder through T: (T S_- T^-1, T S_+ T^-1, T N0 T^-1).

    T may be a linalg.Factorization; its inverse and kappa are reused.
    """
    fac = linalg.as_factorization(T)
    return _transport(fac.T, fac.inverse, side, fac.kappa)


def dual_ladder(T, side: str = "psi") -> LadderSet:
    """Ladder set for the dual family, transported by D = adjoint(T^-1).

    D^-1 = adjoint(T), so the dual side costs no inversion beyond T's own;
    kappa(D) = kappa(T) is read from the same singular values.
    """
    fac = linalg.as_factorization(T)
    return _transport(fac.dual, linalg.adjoint(fac.T), side, fac.kappa)


def verify_ladder_actions(ls: LadderSet, fam: SequenceFamily,
                          window: int | None = None) -> float:
    """Largest column norm of the defects A chi - chi S_-, B chi - chi S_+ and N chi - chi N0.

    They check A chi_n == sqrt(n) chi_{n-1} (0 for n = 0) and N chi_n == n chi_n
    for n < window, and B chi_n == sqrt(n+1) chi_{n+1} for n < window - 1 (the
    raising action at the top checked index leaves the truncation).
    """
    if fam.dim != ls.dim:
        raise DimensionMismatchError("family and ladder set dimensions differ")
    cols = fam.coeffs
    m = cols.shape[1]
    w = ls.window if window is None else window
    lower_limit = max(0, min(w, m))
    raise_limit = max(0, min(w - 1, m - 1))

    worst = 0.0
    for op, target, limit in zip((ls.lowering, ls.raising, ls.number), _shifted(cols),
                                 (lower_limit, raise_limit, lower_limit)):
        defect = op @ cols
        defect -= target
        worst = max(worst, linalg.max_column_norm(defect[:, :limit]))
    return worst


def metric_operator(T, source: str = "") -> MetricOperator:
    """Metric G = adjoint(T^-1) T^-1 for the quasi-Hermitian number operator.

    T may be a linalg.Factorization; its inverse is reused.
    """
    fac = linalg.as_factorization(T)
    return MetricOperator(matrix=fac.dual @ fac.inverse, source=source)


def intertwining_residual(metric: MetricOperator, number_op) -> float:
    """Max-norm defect of G N - adjoint(N) G."""
    G = metric.matrix
    N = linalg.as_operator(number_op)
    return linalg.max_abs(G @ N - linalg.adjoint(N) @ G)
