"""Pseudo-bosonic pipeline: vacua, generated families, and their identities.

Given operators (a, b) with ab - ba = I away from the truncation edge, the
families phi_n = b^n phi_0 / sqrt(n!) and psi_n = adjoint(a)^n psi_0 / sqrt(n!)
are generated from the kernel vectors of a and adjoint(b) and checked for
biorthogonality, number-operator eigenrelations, falling-factorial collapse,
and agreement with the similarity-transported ladder operators.

The exact commutator cannot hold on all of a finite-dimensional space (the
trace of ab - ba vanishes), so every check is quantified over a window of
columns away from the top index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import AmbiguousVacuumError, DimensionMismatchError
from .family import BiorthogonalPair, SequenceFamily, check_pairing
from .ladder import LadderSet

#: Base tolerance for the generated-family identities; scaled by the column
#: growth proxy max_n ||b^n phi_0|| / sqrt(n!).
PB_TOL_BASE = 1e-9

COMMUTATOR_TOLERANCE = 1e-12


def commutator_defect(a, b, window: int) -> float:
    """Max over columns j < window of ||(ab - ba - I) e_j||."""
    a = linalg.as_operator(a)
    b = linalg.as_operator(b)
    defect = a @ b - b @ a - np.eye(a.shape[0])
    cols = np.linalg.norm(defect[:, :window], axis=0)
    return float(cols.max()) if cols.size else 0.0


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Deterministic vacuum representative.

    Entries below the rank tolerance are SVD noise and are snapped to exact
    zero (they would otherwise be amplified exponentially by ill-conditioned
    raising operators); the vector is then normalized with its
    largest-modulus entry rotated to the positive real axis.
    """
    v = v.copy()
    v[np.abs(v) <= v.shape[0] * linalg.EPS * np.abs(v).max()] = 0.0
    v = v / np.linalg.norm(v)
    j = int(np.argmax(np.abs(v)))
    phase = v[j] / abs(v[j])
    return v / phase


def ground_states(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm vacua: ker(a) and ker(adjoint(b)), phases fixed deterministically.

    Raises AmbiguousVacuumError when either kernel is not one-dimensional.
    """
    ker_a = linalg.null_space(a)
    if len(ker_a) != 1:
        raise AmbiguousVacuumError(len(ker_a), which="a")
    ker_bdag = linalg.null_space(linalg.adjoint(b))
    if len(ker_bdag) != 1:
        raise AmbiguousVacuumError(len(ker_bdag), which="adjoint(b)")
    return _fix_phase(ker_a[0]), _fix_phase(ker_bdag[0])


@dataclass(frozen=True)
class PseudoBosonSystem:
    """Operator pair (a, b) with its vacua and number operators.

    number_op = b a (forced by N phi_n = n phi_n together with the ladder
    actions) and number_dag = adjoint(number_op) = adjoint(a) adjoint(b).
    """

    a: np.ndarray
    b: np.ndarray
    phi0: np.ndarray
    psi0: np.ndarray
    number_op: np.ndarray
    number_dag: np.ndarray
    window: int

    @classmethod
    def build(cls, a, b, window: int | None = None,
              vacuum_tolerance: float = 1e-10) -> "PseudoBosonSystem":
        a = linalg.as_operator(a)
        b = linalg.as_operator(b)
        if a.shape != b.shape:
            raise DimensionMismatchError("a and b have different shapes")
        n = a.shape[0]
        w = n - 1 if window is None else int(window)
        if not 0 < w < n:
            raise ValueError(f"window must lie in 1..{n - 1}, got {w}")
        phi0, psi0 = ground_states(a, b)
        if np.linalg.norm(a @ phi0) > vacuum_tolerance:
            raise AmbiguousVacuumError(0, which="a (vacuum residual over tolerance)")
        if np.linalg.norm(linalg.adjoint(b) @ psi0) > vacuum_tolerance:
            raise AmbiguousVacuumError(0, which="adjoint(b) (vacuum residual over tolerance)")
        number_op = b @ a
        return cls(
            a=a, b=b, phi0=phi0, psi0=psi0,
            number_op=number_op,
            number_dag=linalg.adjoint(number_op),
            window=w,
        )

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def commutator_defect(self) -> float:
        return commutator_defect(self.a, self.b, self.window)


def _generate(op: np.ndarray, start: np.ndarray, count: int) -> np.ndarray:
    cols = np.empty((start.shape[0], count), dtype=np.complex128)
    cols[:, 0] = start
    for n in range(1, count):
        cols[:, n] = (op @ cols[:, n - 1]) / math.sqrt(n)
    return cols


def growth_proxy(*families: SequenceFamily) -> float:
    """Largest generated column norm; conditioning proxy for tolerances."""
    return max(
        float(np.linalg.norm(f.coeffs, axis=0).max()) for f in families
    )


def pb_tolerance(*families: SequenceFamily, base: float = PB_TOL_BASE) -> float:
    return base * max(1.0, growth_proxy(*families))


def generate_families(sys: PseudoBosonSystem, count: int,
                      pairing_tolerance: float | None = None,
                      ) -> tuple[SequenceFamily, SequenceFamily]:
    """Generate phi_n = b phi_{n-1} / sqrt(n) and psi_n = adjoint(a) psi_{n-1} / sqrt(n).

    psi_0 is rescaled so that (phi_0 | psi_0) = 1 before pairing is checked.
    Columns above the system window are untrusted at the truncation edge;
    count may not exceed the dimension.
    """
    if not 1 <= count <= sys.dim:
        raise ValueError(f"count must lie in 1..{sys.dim}, got {count}")
    overlap = linalg.inner(sys.phi0, sys.psi0)
    if abs(overlap) < 1e-14:
        raise AmbiguousVacuumError(1, which="(phi0|psi0) ~ 0: vacua cannot be paired")
    psi0 = sys.psi0 / np.conj(overlap)
    phi = SequenceFamily(_generate(sys.b, sys.phi0, count))
    psi = SequenceFamily(_generate(linalg.adjoint(sys.a), psi0, count))
    tol = pairing_tolerance if pairing_tolerance is not None else pb_tolerance(phi, psi)
    check_pairing(phi, psi, tolerance=tol)
    return phi, psi


def falling_factorial_identity(sys: PseudoBosonSystem, n: int, m: int) -> float:
    """Relative residual of a^m b^n phi_0 == P(n, m) b^(n-m) phi_0.

    For m > n the target is total annihilation and the residual is
    ||a^m b^n phi_0|| / ||b^n phi_0||.
    """
    if n < 0 or m < 0 or max(n, m) > sys.dim - 1:
        raise ValueError("powers out of range for the truncation")
    v = sys.phi0.copy()
    for _ in range(n):
        v = sys.b @ v
    bn_norm = float(np.linalg.norm(v))
    for _ in range(m):
        v = sys.a @ v
    if m > n:
        return float(np.linalg.norm(v)) / bn_norm
    w = sys.phi0.copy()
    for _ in range(n - m):
        w = sys.b @ w
    perm = math.perm(n, m)
    return float(np.linalg.norm(v - perm * w)) / bn_norm


def number_eigen_check(sys: PseudoBosonSystem,
                       fams: tuple[SequenceFamily, SequenceFamily],
                       mmax: int) -> float:
    """Worst relative residual of N^m phi_n == n^m phi_n and the dual relation."""
    phi, psi = fams
    worst = 0.0
    for op, fam in ((sys.number_op, phi), (sys.number_dag, psi)):
        limit = min(sys.window, fam.size)
        cols = fam.coeffs[:, :limit]
        current = cols.copy()
        for m in range(1, mmax + 1):
            current = op @ current
            for n in range(limit):
                scale = float(n) ** m
                if n == 0:
                    worst = max(worst, float(np.linalg.norm(current[:, 0])))
                else:
                    target = scale * cols[:, n]
                    rel = float(np.linalg.norm(current[:, n] - target)) / float(np.linalg.norm(target))
                    worst = max(worst, rel)
    return worst


def restriction_containment(sys: PseudoBosonSystem, ls: LadderSet,
                            fam: SequenceFamily, side: str = "phi") -> float:
    """Worst column defect between (a, b) and the transported ladder operators.

    phi side: ||(a - A) phi_n|| and ||(b - B) phi_n||.
    psi side: ||(adjoint(a) - B) psi_n|| and ||(adjoint(b) - A) psi_n||.
    Quantified over n < window, raising comparisons stop one column earlier.
    """
    if side == "phi":
        pairs = ((sys.a, ls.lowering), (sys.b, ls.raising))
    elif side == "psi":
        pairs = ((linalg.adjoint(sys.a), ls.raising), (linalg.adjoint(sys.b), ls.lowering))
    else:
        raise ValueError(f"unknown side {side!r}")
    worst = 0.0
    for i, (op, transported) in enumerate(pairs):
        # index 1 of each pair raises the family; skip the top column there.
        limit = min(sys.window, fam.size - (1 if i == 1 else 0))
        diff = (op - transported) @ fam.coeffs[:, :limit]
        if diff.size:
            worst = max(worst, float(np.linalg.norm(diff, axis=0).max()))
    return worst


def span_invariance(ls: LadderSet, fam: SequenceFamily,
                    window: int | None = None) -> float:
    """Least-squares distance of A phi_n and B phi_n from the family span.

    Finite-truncation surrogate of span invariance; the top raising column is
    excluded (it leaves the truncation by construction).
    """
    w = ls.window if window is None else window
    cols = fam.coeffs
    q, _ = np.linalg.qr(cols)
    worst = 0.0
    low_limit = min(w, cols.shape[1])
    high_limit = min(w, cols.shape[1] - 1)
    for mat, limit in ((ls.lowering, low_limit), (ls.raising, high_limit)):
        img = mat @ cols[:, :limit]
        resid = img - q @ (q.conj().T @ img)
        if resid.size:
            worst = max(worst, float(np.linalg.norm(resid, axis=0).max()))
    return worst


def reconstruction_residual(ls: LadderSet, fam: SequenceFamily) -> float:
    """Worst defect of phi_n == B^n phi_0 / sqrt(n!) over n < window."""
    limit = min(ls.window, fam.size)
    v = fam.coeffs[:, 0].copy()
    worst = 0.0
    for n in range(1, limit):
        v = (ls.raising @ v) / math.sqrt(n)
        worst = max(worst, float(np.linalg.norm(v - fam.coeffs[:, n])))
    return worst
