"""Lowering, raising and number operators transported by a constructing operator.

For an invertible T the family chi_n = T e_n inherits the ladder structure of
the standard shift matrices by similarity: A = T S_- T^-1 lowers, B = T S_+ T^-1
raises, and the number operator T diag(k) T^-1 has chi_n as eigenvector with
eigenvalue n.  The dual family uses the same construction with adjoint(T^-1),
whose inverse is adjoint(T), so no second inversion is needed.

Both sides and the metric run through one linalg.Factorization of T.  Since
T S_- and T S_+ are column shifts of T weighted by sqrt(k) and T diag(k) is a
column scaling, each transported operator costs a single matrix product.
transported forms them one at a time, so that a caller that checks each in
turn holds one of them at once.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError
from .family import SequenceFamily

def _shift_parts(M: np.ndarray, which: int) -> tuple[np.ndarray, slice, slice]:
    """(weights, source columns, target columns) of M S_- (which = 0), M S_+ (1) or M N0 (2).

    Column k of M S_- is sqrt(k) M e_{k-1}, column k of M S_+ is
    sqrt(k+1) M e_{k+1}, and column k of M N0 is k M e_k: the target columns
    are the weighted source columns, every other column is 0.  M's rows span
    the truncated space, whose dimension must be at least 2.
    """
    if M.shape[0] < 2:
        raise DimensionMismatchError("shift matrices need dimension >= 2")
    ks = np.arange(1, M.shape[1], dtype=np.float64)
    src, dst = ((np.s_[:-1], np.s_[1:]), (np.s_[1:], np.s_[:-1]), (np.s_[1:], np.s_[1:]))[which]
    return ks if which == 2 else np.sqrt(ks), src, dst


def _shifted(M: np.ndarray, which: int) -> np.ndarray:
    """M S_- (which = 0), M S_+ (1) or M N0 (2), a shift of M's columns, as a new array."""
    weights, src, dst = _shift_parts(M, which)
    out = np.zeros_like(M)
    np.multiply(M[:, src], weights, out=out[:, dst])
    return out


def shift_matrices(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated CCR shifts: (S_minus, S_plus, N0).

    S_minus has sqrt(k+1) at (k, k+1), S_plus is its adjoint, and
    N0 = S_plus @ S_minus = diag(0, 1, ..., dim-1).
    """
    return tuple(_shifted(np.eye(dim), which) for which in range(3))


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


def transported(M: np.ndarray, M_inv: np.ndarray) -> Iterator[np.ndarray]:
    """M S_- M^-1, M S_+ M^-1 and M N0 M^-1 in turn, each formed when it is drawn.

    Each shifted M is freed after its product, and a caller that drops an
    operator before drawing the next holds one transported operator at a time.
    """
    for which in range(3):
        yield _shifted(M, which) @ M_inv


def build_ladder(T, side: str = "phi") -> LadderSet:
    """Transport the standard ladder through T: (T S_- T^-1, T S_+ T^-1, T N0 T^-1).

    T may be a linalg.Factorization; its inverse and kappa are reused.
    """
    fac = linalg.as_factorization(T)
    return LadderSet(*transported(fac.T, fac.inverse), side=side, window=fac.dim - 1,
                     kappa=fac.kappa)


def dual_ladder(T, side: str = "psi") -> LadderSet:
    """Ladder set for the dual family, transported by D = adjoint(T^-1).

    kappa(D) = kappa(T) is read from T's singular values.
    """
    fac = linalg.as_factorization(T)
    return LadderSet(*transported(linalg.adjoint(fac.inverse), linalg.adjoint(fac.T)),
                     side=side, window=fac.dim - 1, kappa=fac.kappa)


def _image_defect(image: np.ndarray, which: int, cols: np.ndarray, window: int) -> float:
    """Largest checked column norm of image - cols S, for image = op cols, which it overwrites.

    cols S is subtracted one block of its weighted columns at a time, never
    formed whole; the products and differences are those of image - cols S.
    """
    limit = max(0, min(window, cols.shape[1]))
    weights, src, dst = _shift_parts(cols, which)
    source, target = cols[:, src], image[:, dst]
    for s in linalg.blocks(weights.size):
        target[:, s] -= source[:, s] * weights[s]
    return linalg.max_column_norm(image[:, :max(0, limit - 1) if which == 1 else limit])


def shift_defect(op: np.ndarray, which: int, fam: SequenceFamily, window: int) -> float:
    """Largest column norm of op chi - chi S, S = S_- (which = 0), S_+ (1) or N0 (2).

    It checks A chi_n == sqrt(n) chi_{n-1} (0 for n = 0), B chi_n ==
    sqrt(n+1) chi_{n+1} or N chi_n == n chi_n for n < min(window, M), M the
    number of columns, one column fewer for B (the raising action at the top
    checked index leaves the window).  The product spans all M columns, so
    that a column's rounding does not depend on the window.
    """
    return _image_defect(op @ fam.coeffs, which, fam.coeffs, window)


def action_defect(ops, fam: SequenceFamily, window: int) -> float:
    """Largest shift_defect of ops = (lowering, raising) or (lowering, raising, number) on fam.

    ops may be an iterator such as transported(T): an operator drawn from it
    is freed once its product with the family exists, before its defect is
    formed and before the next operator is drawn.
    """
    worst, which = 0.0, 0
    for op in ops:  # not enumerate, whose cached pair would keep op alive while the next is formed
        image = op @ fam.coeffs
        del op
        worst = max(worst, _image_defect(image, which, fam.coeffs, window))
        del image
        which += 1
    return worst


def verify_ladder_actions(ls: LadderSet, fam: SequenceFamily,
                          window: int | None = None) -> float:
    """action_defect of the ladder triple on fam, over ls.window unless window is given."""
    if fam.dim != ls.dim:
        raise DimensionMismatchError("family and ladder set dimensions differ")
    return action_defect((ls.lowering, ls.raising, ls.number), fam,
                         ls.window if window is None else window)


def action_bound(kappa: float, fam: SequenceFamily) -> float:
    """Bound of the defect of a ladder transported by T, of condition kappa, acting on fam.

    linalg.error_bound with kappa(T)^2 (an inversion and two conjugations) and
    scale sqrt(N) max ||chi_n|| (the shifts have norm at most sqrt(N)).  It
    reads kappa alone of T, so a check that needs no transported operator
    takes it from a Factorization without building the ladder.
    """
    scale = math.sqrt(fam.dim) * fam.max_norm
    return linalg.error_bound(fam.dim, scale, kappa=kappa ** 2)


def metric_operator(T) -> np.ndarray:
    """Metric G = adjoint(T^-1) T^-1 for the quasi-Hermitian number operator.

    G is positive and self-adjoint and intertwines N and N*.  T may be a
    linalg.Factorization; its inverse is reused.  G is formed one block of
    rows at a time, G[rows] = adjoint(T^-1[:, rows]) T^-1, so that
    adjoint(T^-1) never exists whole (on the bits, see linalg.blocks).
    """
    inverse = linalg.as_factorization(T).inverse
    G = np.empty(inverse.shape, dtype=inverse.dtype)
    for rows in linalg.blocks(inverse.shape[0], linalg.BLOCK):
        np.matmul(linalg.adjoint(inverse[:, rows]), inverse, out=G[rows])
    return G


def intertwining_residual(G, number_op) -> float:
    """Max-norm defect of G N - adjoint(N) G.

    It is formed one block of rows at a time, G[rows] N - adjoint(N[:, rows]) G,
    so that neither adjoint(N), G N nor adjoint(N) G exists whole (on the
    bits, see linalg.blocks).
    """
    G = linalg.as_operator(G)
    N = linalg.as_operator(number_op)
    worst = []
    for rows in linalg.blocks(G.shape[0], linalg.BLOCK):
        defect = G[rows] @ N
        defect -= linalg.adjoint(N[:, rows]) @ G
        worst.append(linalg.max_abs(defect))
    return float(np.max(worst, initial=0.0))
