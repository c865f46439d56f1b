"""Pseudo-bosonic pipeline: vacua, generated families, and their identities.

Given operators (a, b) with ab - ba = I away from the truncation edge, the
families phi_n = b^n phi_0 / sqrt(n!) and psi_n = adjoint(a)^n psi_0 / sqrt(n!)
are generated from the kernel vectors of a and adjoint(b) and checked for
biorthogonality, number-operator eigenrelations, falling-factorial collapse,
and agreement with the ladder transported by the phi family's analysis
operator.  That ladder acts on its family exactly, so the agreement is
checked in closed form, a phi_n against sqrt(n) phi_{n-1} and b phi_n against
sqrt(n+1) phi_{n+1}, by ladder.action_defect with (a, b) in place of the
transported pair: the generated family is neither inverted nor transported.

The exact commutator cannot hold on all of a finite-dimensional space (the
trace of ab - ba vanishes), so every check is quantified over a window of
columns away from the top index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import family, linalg
from .errors import (
    AmbiguousVacuumError,
    DimensionMismatchError,
    RieszLabError,
    SingularOperatorError,
)
from .family import SequenceFamily
from .ladder import LadderSet


def commutator_defect(a, b, window: int) -> float:
    """Max over columns j < window of ||(ab - ba - I) e_j||; only those columns are formed."""
    a = linalg.as_operator(a)
    b = linalg.as_operator(b)
    defect = a @ b[:, :window]
    defect -= b @ a[:, :window]
    diagonal = np.arange(window)
    defect[diagonal, diagonal] -= 1.0
    return linalg.max_column_norm(defect)


def border_vector(dim: int, dtype) -> np.ndarray:
    """Unit vector u bordering each vacuum solve of size dim, of the dtype of that solve.

    u is the normalized complex Gaussian of seed 0, or for a real dtype its
    real part, so that a real T keeps a real bordered system and a real vacuum.
    """
    rng = np.random.default_rng(0)
    u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if not np.issubdtype(dtype, np.complexfloating):
        u = u.real
    return u / np.linalg.norm(u)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Deterministic vacuum representative.

    Entries below the rank tolerance are rounding noise of the solve and are
    snapped to exact zero (they would otherwise be amplified exponentially by
    ill-conditioned raising operators); the vector is then scaled so that its
    largest-modulus entry is exactly 1, and normalized.  A vacuum on one
    basis vector thus comes out as exactly that basis vector.
    """
    v = v.copy()
    v[np.abs(v) <= linalg.rank_tolerance(v)] = 0.0
    j = int(np.argmax(np.abs(v)))
    v /= v[j]
    v[j] = 1.0
    return v / np.linalg.norm(v)


def _vacuum(T: np.ndarray, which: str) -> tuple[np.ndarray, float]:
    """The kernel vector of T, which must be one-dimensional, and sigma_1 / sigma_(N-1) of T."""
    n = T.shape[0]
    sigma = linalg.singular_values(T)
    kernel_dim = int(np.count_nonzero(sigma <= linalg.rank_tolerance(sigma)))
    if kernel_dim != 1:
        raise AmbiguousVacuumError(kernel_dim, which=which)
    smax = float(sigma[0])
    border = smax * border_vector(n, T.dtype)
    bordered = np.zeros((n + 1, n + 1), dtype=T.dtype)
    bordered[:n, :n] = T
    bordered[:n, n] = border
    bordered[n, :n] = border.conj()
    unit = linalg.basis_vector(n, n + 1)
    try:
        solution = np.linalg.solve(bordered, unit)
        # sigma_min(K) <= ||K s|| / ||s||; and as t = 0 whenever K is
        # nonsingular, sigma_min(K) <= ||K s - e_N|| / |t| up to the rounding of K s.
        image = bordered @ solution
        bound = float(np.linalg.norm(image)) / float(np.linalg.norm(solution))
        t = abs(solution[n])
        if t > 0.0:
            bound = min(bound, float(np.linalg.norm(image - unit)) / t)
    except np.linalg.LinAlgError:  # an exactly zero pivot
        bound = 0.0
    cut = linalg.error_bound(n + 1, smax)
    if not bound > cut:
        raise SingularOperatorError(
            bound, cut, f"bordered vacuum system of {which} is singular (sigma_min <= {bound:.3e}"
                        f" <= cut (N+1)*eps*sigma_max={cut:.3e}): the border vector is "
                        f"orthogonal to the kernel of {which} or of its adjoint")
    # The first block row reads T x = -t s u, and t = 0 whenever K is
    # nonsingular.  When u misses the left kernel alone, the solve may not show
    # K singular (sigma_min 0), but a t above the rounding does, x outside the kernel.
    x, residual = solution[:n], t * smax
    if residual > cut * float(np.linalg.norm(x)):
        raise SingularOperatorError(
            0.0, cut, f"bordered vacuum system of {which} is singular (||{which} x|| = "
                      f"|t| sigma_max = {residual:.3e} > cut (N+1)*eps*sigma_max*||x||): the "
                      f"border vector is orthogonal to the left kernel of {which}, the kernel "
                      f"of its adjoint")
    return _fix_phase(x), smax / float(sigma[-2])


def ground_states(a, b) -> tuple[np.ndarray, np.ndarray, float]:
    """Unit-norm vacua ker(a) and ker(adjoint(b)), phases fixed deterministically, and kappa_vac.

    kappa_vac is the larger sigma_1 / sigma_(N-1) of a and adjoint(b): the
    conditioning each vacuum inherits from its operator.

    Rank rule: the kernel dimension of T (T = a, then adjoint(b)) is the number
    of its singular values at or below N * eps * sigma_max(T), all N of them
    when T = 0; one values-only SVD gives it.  AmbiguousVacuumError is raised
    unless it is 1.

    The kernel vector is then x of one solve of the bordered system

        K [x; t] = [[T, s u], [s adjoint(u), 0]] [x; t] = [0; 1]

    with the unit vector u = border_vector(N, T.dtype) and s = sigma_max(T),
    which makes K scale with T.  For x0 spanning ker(T) and y0 spanning
    ker(adjoint(T)), K is nonsingular exactly when (x0|u) != 0 and
    (u|y0) != 0; then t = 0 and x = x0 / (s (x0|u)).  SingularOperatorError
    is raised when the solve shows sigma_min(K) at or below the rank cut
    (N + 1) * eps * sigma_max(T), or ||T x|| = |t| s above the cut times ||x||.
    Residuals such as ||a phi_0|| are the caller's to check.
    """
    (phi0, kappa_a), (psi0, kappa_b) = (_vacuum(linalg.as_operator(a), "a"),
                                        _vacuum(linalg.as_operator(b).conj().T, "adjoint(b)"))
    return phi0, psi0, max(kappa_a, kappa_b)


@dataclass(frozen=True)
class PseudoBosonSystem:
    """Operator pair (a, b) with its vacua.

    kappa_vac is the conditioning the vacua inherit (see ground_states).
    """

    a: np.ndarray
    b: np.ndarray
    phi0: np.ndarray
    psi0: np.ndarray
    window: int
    kappa_vac: float

    @classmethod
    def build(cls, a, b, window: int | None = None) -> "PseudoBosonSystem":
        """The system of (a, b); raises only when a vacuum cannot be found (see ground_states)."""
        a = linalg.as_operator(a)
        b = linalg.as_operator(b)
        if a.shape != b.shape:
            raise DimensionMismatchError("a and b have different shapes")
        n = a.shape[0]
        w = n - 1 if window is None else int(window)
        if not 0 < w < n:
            raise ValueError(f"window must lie in 1..{n - 1}, got {w}")
        phi0, psi0, kappa_vac = ground_states(a, b)
        return cls(
            a=a, b=b, phi0=phi0, psi0=psi0,
            window=w, kappa_vac=kappa_vac,
        )

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def commutator_defect(self) -> float:
        return commutator_defect(self.a, self.b, self.window)


def _generate(op: np.ndarray, start: np.ndarray, count: int) -> np.ndarray:
    cols = np.empty((start.shape[0], count), dtype=np.result_type(op, start))
    cols[:, 0] = start
    for n in range(1, count):
        cols[:, n] = (op @ cols[:, n - 1]) / math.sqrt(n)
    return cols


def generate_families(sys: PseudoBosonSystem, count: int,
                      psi_count: int | None = None) -> tuple[SequenceFamily, SequenceFamily]:
    """Generate phi_n = b phi_{n-1} / sqrt(n) and psi_n = adjoint(a) psi_{n-1} / sqrt(n).

    phi gets count columns and psi psi_count (count by default); each column
    is computed from the one before, so the first columns of a longer family
    are those of a shorter one.  psi_0 is rescaled so that (phi_0 | psi_0) = 1;
    pairing is the caller's check.  The overlap of two real vacua is a float,
    so that a real system generates both families in float64.  Columns above
    the system window are untrusted at the truncation edge; neither count may
    exceed the dimension.  A generated column that under- or overflows to 0 or
    inf raises RieszLabError, as unpaired vacua do.
    """
    psi_count = count if psi_count is None else psi_count
    for what, n in (("count", count), ("psi_count", psi_count)):
        if not 1 <= n <= sys.dim:
            raise ValueError(f"{what} must lie in 1..{sys.dim}, got {n}")
    overlap = linalg.inner(sys.phi0, sys.psi0)
    cut = linalg.error_bound(sys.dim)
    if abs(overlap) <= cut:  # the overlap of two unit vacua is rounding at most
        raise RieszLabError(f"vacua cannot be paired: |(phi0|psi0)| = {abs(overlap):.3e}"
                            f" <= cut N*eps={cut:.3e}")
    psi0 = sys.psi0 / np.conj(overlap)
    try:
        phi = SequenceFamily(_generate(sys.b, sys.phi0, count))
        psi = SequenceFamily(_generate(linalg.adjoint(sys.a), psi0, psi_count))
    except ValueError as exc:  # a column under- or overflowed: an outcome, not bad input
        raise RieszLabError(f"generated family left the range of float64: {exc}") from exc
    return phi, psi


def pairing_check(sys: PseudoBosonSystem, phi: SequenceFamily,
                  psi: SequenceFamily) -> tuple[float, float]:
    """Worst-ratio entry of |(phi_n | psi_m) - delta_nm| against its bound, as (residual, bound).

    The bound of entry (n, m) is linalg.error_bound with k = n + m + 1 applications of b and
    adjoint(a), kappa_vac and scale ||phi_n|| ||psi_m||, per block of family.worst_pairing.
    """
    phi_norms, psi_norms = linalg.column_norms(phi.coeffs), linalg.column_norms(psi.coeffs)
    ks = np.arange(phi.size)
    return family.worst_pairing(phi, psi, lambda rows: linalg.error_bound(
        sys.dim, np.outer(psi_norms[rows], phi_norms), k=ks[rows, None] + ks + 1,
        kappa=sys.kappa_vac))[:2]


def falling_factorial_identity(sys: PseudoBosonSystem, n: int, m: int) -> float:
    """Relative residual of a^m b^n phi_0 == P(n, m) b^(n-m) phi_0 (see falling_factorial_checks).

    For m > n the target is total annihilation and the residual is
    ||a^m b^n phi_0|| / ||b^n phi_0||.
    """
    if n < 0 or m < 0 or max(n, m) > sys.dim - 1:
        raise ValueError("powers out of range for the truncation")
    return float(falling_factorial_checks(sys, max(n, m))[0][n, m])


def falling_factorial_checks(sys: PseudoBosonSystem, nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """falling_factorial_identity(sys, n, m) for n, m <= nmax, indexed [n, m], and its bounds.

    The bound is linalg.error_bound with k = n + m + 1 and the componentwise
    scale (|| |a|^m |b|^n w0 || + P(n, m) || |b|^(n-m) w0 ||) / ||b^n phi_0||,
    where w0 = |phi_0| + N eps kappa_vac max|phi_0| covers the rounding of the
    vacuum.
    """
    w0 = np.abs(sys.phi0)
    powers, up = [sys.phi0], [w0 + linalg.error_bound(sys.dim, w0.max(), kappa=sys.kappa_vac)]
    abs_b = np.abs(sys.b)  # |b| and |a| are formed one after the other
    for _ in range(nmax):
        powers.append(sys.b @ powers[-1])
        up.append(abs_b @ up[-1])
    del abs_b
    abs_a = np.abs(sys.a)
    resid, scale = np.empty((2, nmax + 1, nmax + 1))
    for n in range(nmax + 1):
        v, u = powers[n], up[n]
        for m in range(nmax + 1):
            if m:
                v, u = sys.a @ v, abs_a @ u
            perm = math.perm(n, m)  # 0 for m > n, where the target is 0
            resid[n, m] = np.linalg.norm(v - perm * powers[n - m] if perm else v)
            scale[n, m] = np.linalg.norm(u) + perm * np.linalg.norm(up[n - m])
    bn_norms = np.array([np.linalg.norm(p) for p in powers])[:, None]
    ks = np.arange(nmax + 1)
    return resid / bn_norms, linalg.error_bound(sys.dim, scale / bn_norms,
                                                k=ks[:, None] + ks + 1)


def number_eigen_relations(number: np.ndarray, fams: tuple[SequenceFamily, SequenceFamily],
                           mmax: int, window: int,
                           kappa_vac: float) -> tuple[np.ndarray, np.ndarray]:
    """Relative residuals of N^m phi_n == n^m phi_n and of the dual relation, with their bounds.

    number is N = b a of the system, forced by N phi_n = n phi_n together
    with the ladder actions; the caller forms it, so that it can drop a and b
    first.  The dual relation reads adjoint(N) as N.conj().T, a view of N
    when N is real.
    Column n of N^m chi - chi diag(k)^m, over n < window, is divided by
    ||n^m chi_n||, except column 0 (eigenvalue 0), which stays absolute.  Its
    bound is linalg.error_bound with k = n + m + 1, kappa_vac and scale
    (||N||^m + n^m) ||chi_n||, divided alike.  Each difference is written
    into the buffer of the power before, which no later product reads.
    """
    dim = number.shape[0]
    op_norm = linalg.norm_estimate(number)  # adjoint(N) has the same estimate
    resids, bounds = [], []
    for op, fam in ((number, fams[0]), (number.conj().T, fams[1])):
        limit = min(window, fam.size)
        cols = fam.coeffs[:, :limit]
        col_norms = linalg.column_norms(cols)
        ks = np.arange(limit, dtype=np.float64)
        current = cols
        for m in range(1, mmax + 1):
            image = op @ current
            scale = ks ** m
            denom = np.where(ks > 0, scale * col_norms, 1.0)
            diff = np.multiply(cols, scale, out=None if current is cols else current)
            current = image
            resids.append(linalg.column_norms(np.subtract(image, diff, out=diff)) / denom)
            del image, diff  # current, this power, is all that the next product reads
            bounds.append(linalg.error_bound(dim, (op_norm ** m + scale) * col_norms / denom,
                                             k=ks + m + 1, kappa=kappa_vac))
    return np.concatenate(resids), np.concatenate(bounds)


def number_eigen_check(sys: PseudoBosonSystem,
                       fams: tuple[SequenceFamily, SequenceFamily],
                       mmax: int) -> float:
    """Worst relative residual of N^m phi_n == n^m phi_n and its dual (number_eigen_relations)."""
    return float(number_eigen_relations(sys.b @ sys.a, fams, mmax, sys.window,
                                        sys.kappa_vac)[0].max())


def restriction_containment(sys: PseudoBosonSystem, ls: LadderSet,
                            fam: SequenceFamily, side: str = "phi") -> float:
    """Worst column defect between (a, b) and the transported ladder operators.

    phi side: ||(a - A) phi_n|| and ||(b - B) phi_n||.
    psi side: ||(adjoint(b) - A) psi_n|| and ||(adjoint(a) - B) psi_n||.
    Quantified over n < min(window, fam.size); raising comparisons stop one column earlier.
    """
    if side == "phi":
        pairs = ((sys.a, ls.lowering), (sys.b, ls.raising))
    elif side == "psi":
        pairs = ((linalg.adjoint(sys.b), ls.lowering), (linalg.adjoint(sys.a), ls.raising))
    else:
        raise ValueError(f"unknown side {side!r}")
    worst = 0.0
    for i, (op, transported) in enumerate(pairs):
        limit = min(sys.window, fam.size) - i  # index 1 of each pair raises the family
        diff = (op - transported) @ fam.coeffs[:, :limit]
        worst = max(worst, linalg.max_column_norm(diff))
    return worst
