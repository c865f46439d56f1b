"""Sequence families, biorthogonal pairs and their analysis operators.

A family is stored as an N x M coefficient matrix, one column per member.
The matrix follows the dtype rule of linalg.narrow: float64 when no
coefficient has a nonzero imaginary part, complex128 otherwise.  A family with
M < N columns embeds in a square truncation (pad_to_square, embed_pair) as the
indices N - M..N-1, its missing leading indices filled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    NotBiorthogonalError,
    TruncationShapeError,
)

@dataclass(frozen=True)
class SequenceFamily:
    """Truncated sequence {phi_k}: one column of coeffs per member.

    Every stored column is a family member; all derived quantities that
    quantify over the family (pairing, domain sums, span distances) read them all.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        C = linalg.narrow(self.coeffs)
        if C.ndim != 2:
            raise TruncationShapeError(f"coefficients must be 2-d, got shape {C.shape}")
        n, m = C.shape
        if m > n:
            raise TruncationShapeError(f"more columns ({m}) than ambient dimension ({n})")
        if not np.all(np.isfinite(C)):
            raise ValueError("family coefficients contain non-finite entries")
        if not np.all(C.any(axis=0)):
            raise ValueError("zero column in family: every phi_k must be nonzero")
        C.setflags(write=False)
        object.__setattr__(self, "coeffs", C)

    @classmethod
    def identity(cls, dim: int) -> "SequenceFamily":
        return cls(np.eye(dim))

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    @property
    def size(self) -> int:
        """Number of stored columns."""
        return self.coeffs.shape[1]

    def is_square(self) -> bool:
        return self.size == self.dim

    @cached_property
    def max_norm(self) -> float:
        """Largest Euclidean norm of a stored column; the scale of bounds."""
        return linalg.max_column_norm(self.coeffs)


@dataclass(frozen=True)
class BiorthogonalPair:
    """Two families with (phi_n | psi_m) = delta_nm up to pairing_residual.

    The pair computes its pairing residual from its own columns, once; only
    that float is kept, so no pair can claim a better pairing than it has.
    """

    phi: SequenceFamily
    psi: SequenceFamily

    def __post_init__(self):
        _require_compatible(self.phi, self.psi)

    @property
    def dim(self) -> int:
        return self.phi.dim

    @cached_property
    def pairing_residual(self) -> float:
        """max_{n,m} |(phi_n | psi_m) - delta_nm| over the family columns (worst_pairing)."""
        return worst_pairing(self.phi, self.psi)[0]


def _require_compatible(phi: SequenceFamily, psi: SequenceFamily) -> None:
    if (phi.dim, phi.size) != (psi.dim, psi.size):
        raise DimensionMismatchError(
            f"families disagree in shape: ({phi.dim},{phi.size}) vs ({psi.dim},{psi.size})")


def gram_defect(phi: SequenceFamily, psi: SequenceFamily, rows: slice = slice(None)) -> np.ndarray:
    """|(phi_n | psi_m) - delta_nm| over the phi columns n and the psi columns m in rows.

    rows is a slice of step 1; the result is indexed [m - rows.start, n]:
    the rows of the whole defect that rows selects (on the bits, see
    linalg.blocks).  The 1s are subtracted in place from the product of the
    conjugate transpose of those psi columns and phi.  worst_pairing walks the blocks.
    """
    start, stop, _ = rows.indices(psi.size)
    d = psi.coeffs[:, start:stop].conj().T @ phi.coeffs
    d.flat[start::d.shape[1] + 1] -= 1.0
    return np.abs(d, out=d if d.dtype == np.float64 else None)


def worst_pairing(phi: SequenceFamily, psi: SequenceFamily,
                  bound=lambda rows: 1.0) -> tuple[float, float, int, int]:
    """(defect, bound, n, m) of the gram_defect entry with the largest defect / bound.

    The defect is formed one block of linalg.blocks(psi.size) rows at a time,
    against bound(rows) (by default 1.0).  The first of equal ratios in
    row-major order (m, n) wins, and a NaN wins, as np.argmax picks it.
    """
    worst, top = (0.0, 1.0, 0, 0), None
    for rows in linalg.blocks(psi.size):
        defect, b, i = linalg.worst_ratio(gram_defect(phi, psi, rows), bound(rows))
        ratio = np.float64(defect) / b
        if top is None or ratio > top or np.isnan(ratio) and not np.isnan(top):
            worst, top = (defect, b, i % phi.size, rows.start + i // phi.size), ratio
    return worst


def pairing_bound(phi: SequenceFamily, psi: SequenceFamily) -> float:
    """Bound of the N-term inner products (phi_n | psi_m) of two families.

    linalg.error_bound with scale max ||phi_n|| max ||psi_m|| over the stored columns.
    """
    return linalg.error_bound(phi.dim, phi.max_norm * psi.max_norm)


def check_pairing(phi: SequenceFamily, psi: SequenceFamily) -> BiorthogonalPair:
    """Verify (phi_n | psi_m) = delta_nm over the family columns, within pairing_bound.

    A residual or bound that is not finite fails; only a failing pair walks the
    defect again, for the worst (n, m) of worst_pairing that NotBiorthogonalError names.
    """
    pair = BiorthogonalPair(phi=phi, psi=psi)
    tolerance = pairing_bound(phi, psi)
    if not pair.pairing_residual <= tolerance < np.inf:
        _, _, n, m = worst_pairing(phi, psi)
        raise NotBiorthogonalError(n=n, m=m, value=pair.pairing_residual, tolerance=tolerance)
    return pair


def _require_square(phi: SequenceFamily) -> None:
    if not phi.is_square():
        raise TruncationShapeError(
            f"square truncation required: family has {phi.size} columns in dimension {phi.dim}"
        )


def build_analysis(phi: SequenceFamily) -> np.ndarray:
    """Analysis operator sum_k phi_k (x) conj(e_k); maps e_k to phi_k.

    Requires a square family; the matrix is its read-only coefficient array itself.
    """
    _require_square(phi)
    return phi.coeffs


def build_coanalysis(phi: SequenceFamily) -> np.ndarray:
    """Coanalysis operator sum_k e_k (x) conj(phi_k) == adjoint(build_analysis), C-ordered."""
    _require_square(phi)
    return np.conjugate(phi.coeffs.T, order="C")


def pad_to_square(fam: SequenceFamily) -> SequenceFamily:
    """Embed a family in a square truncation: its M columns are the indices N - M..N-1.

    The missing leading indices are filled with the basis vectors e_k
    themselves; the result is an ordinary square family.
    """
    if fam.is_square():
        return fam
    return SequenceFamily(np.hstack([np.eye(fam.dim, fam.dim - fam.size), fam.coeffs]))


def embed_pair(pair: BiorthogonalPair, fac: linalg.Factorization) -> BiorthogonalPair:
    """The pair in a square truncation, given fac, the Factorization of pad_to_square(phi).

    The square phi is fac.T.  The N - M filled columns of psi are those of
    adjoint(T^-1), formed from as many rows of fac.inverse, so that the
    left-inverse identity holds verbatim at the truncation.  A square pair is
    returned unchanged.
    """
    if pair.phi.is_square():
        return pair
    k = pair.dim - pair.psi.size
    psi_sq = SequenceFamily(np.hstack([linalg.adjoint(fac.inverse[:k]), pair.psi.coeffs]))
    return BiorthogonalPair(phi=SequenceFamily(fac.T), psi=psi_sq)


def verify_left_inverse(pair: BiorthogonalPair) -> float:
    """Residual of the left-inverse identity T_{e,psi} T_{phi,e} = I.

    Returns the max-norm of the defect at square truncation (a pair of M < N
    columns is embedded first, through a Factorization of its padded phi).  On
    a square pair K T is the pair's Gram matrix, so the defect is its cached
    pairing_residual.
    """
    if not pair.phi.is_square():
        pair = embed_pair(pair, linalg.Factorization(build_analysis(pad_to_square(pair.phi))))
    return pair.pairing_residual


def as_vectors(fam: SequenceFamily, vectors) -> list[np.ndarray]:
    """The vectors as arrays (float64 or complex128, see linalg.narrow), of the family dimension."""
    vectors = [linalg.as_vector(x) for x in vectors]
    for x in vectors:
        if x.shape[0] != fam.dim:
            raise DimensionMismatchError(
                f"vector length {x.shape[0]} != family dimension {fam.dim}")
    return vectors


def analysis_coefficients(phi: SequenceFamily, vectors) -> list[np.ndarray]:
    """The coefficients ((x | phi_k))_k over the family columns, one array per vector.

    The conjugate transpose of the family is formed once for all vectors.
    """
    vectors = as_vectors(phi, vectors)
    adj = phi.coeffs.conj().T
    return [adj @ x for x in vectors]


def coefficient_energy(coeffs: np.ndarray) -> float:
    """sum_k |c_k|^2 of a coefficient array."""
    return float(np.sum(np.abs(coeffs) ** 2))


def domain_partial_sum(phi: SequenceFamily, x) -> float:
    """Truncated membership functional sum_k |(x | phi_k)|^2 over family columns."""
    return coefficient_energy(analysis_coefficients(phi, [x])[0])
