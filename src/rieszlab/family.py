"""Sequence families, biorthogonal pairs and their analysis operators.

A family is stored as an N x M complex coefficient matrix whose column k is
the vector with index k + index_offset in the ambient basis.  Families whose
natural index set starts above 0 (index_offset > 0) can be embedded in a
square truncation by padding the missing leading indices; padding columns are
flagged through n_padding and never count as family members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    NotBiorthogonalError,
    TruncationShapeError,
)

#: Absolute tolerance on pairing defects; entries are O(1) by construction.
PAIR_TOLERANCE = 1e-10


@dataclass(frozen=True)
class ONB:
    """Orthonormal basis of the truncated space: column k is e_k.

    is_standard is True when the columns are exactly the identity; that basis is
    orthonormal by construction and skips the O(N^3) Gram check.
    """

    columns: np.ndarray
    is_standard: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        U = np.asarray(self.columns, dtype=np.complex128)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise TruncationShapeError(f"ONB must be square, got {U.shape}")
        identity = np.eye(U.shape[0])
        standard = bool(np.array_equal(U, identity))
        if not standard:
            defect = linalg.max_abs(U.conj().T @ U - identity)
            if defect > 1e-12:
                raise ValueError(f"columns are not orthonormal (defect {defect:.3e})")
        U.setflags(write=False)
        object.__setattr__(self, "columns", U)
        object.__setattr__(self, "is_standard", standard)

    @classmethod
    def standard(cls, dim: int) -> "ONB":
        return cls(np.eye(dim, dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.columns.shape[0]


@dataclass(frozen=True)
class SequenceFamily:
    """Truncated sequence {phi_k}: column k of coeffs is phi_{k + index_offset}.

    The first n_padding columns are embedding padding (see pad_to_square),
    not family members; all derived quantities that quantify over the family
    (pairing, domain sums, span distances) skip them.
    """

    coeffs: np.ndarray
    index_offset: int = 0
    n_padding: int = 0

    def __post_init__(self):
        C = np.asarray(self.coeffs, dtype=np.complex128)
        if C.ndim != 2:
            raise TruncationShapeError(f"coefficients must be 2-d, got shape {C.shape}")
        n, m = C.shape
        if m > n:
            raise TruncationShapeError(f"more columns ({m}) than ambient dimension ({n})")
        if not np.all(np.isfinite(C.view(np.float64))):
            raise ValueError("family coefficients contain non-finite entries")
        col_norms = np.linalg.norm(C, axis=0)
        if np.any(col_norms == 0.0):
            raise ValueError("zero column in family: every phi_k must be nonzero")
        if self.index_offset < 0 or self.n_padding < 0 or self.n_padding > m:
            raise ValueError("invalid index_offset / n_padding")
        C.setflags(write=False)
        object.__setattr__(self, "coeffs", C)

    @classmethod
    def identity(cls, dim: int) -> "SequenceFamily":
        return cls(np.eye(dim, dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    @property
    def size(self) -> int:
        """Number of stored columns, padding included."""
        return self.coeffs.shape[1]

    @property
    def family_coeffs(self) -> np.ndarray:
        """Coefficient block of the actual family members (padding dropped)."""
        return self.coeffs[:, self.n_padding:]

    def is_square(self) -> bool:
        return self.size == self.dim


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
        """max_{n,m} |(phi_n | psi_m) - delta_nm| over the family columns."""
        defect = _gram_defect(self.phi, self.psi)
        return float(defect.max()) if defect.size else 0.0


def _require_compatible(phi: SequenceFamily, psi: SequenceFamily) -> None:
    if (phi.dim, phi.size, phi.index_offset) != (psi.dim, psi.size, psi.index_offset):
        raise DimensionMismatchError(
            "families disagree in shape or index offset: "
            f"({phi.dim},{phi.size},{phi.index_offset}) vs "
            f"({psi.dim},{psi.size},{psi.index_offset})"
        )


def _gram_defect(phi: SequenceFamily, psi: SequenceFamily) -> np.ndarray:
    """|(phi_n | psi_m) - delta_nm| over the family columns, indexed [m, n]."""
    gram = psi.family_coeffs.conj().T @ phi.family_coeffs
    return np.abs(gram - np.eye(gram.shape[0]))


def check_pairing(phi: SequenceFamily, psi: SequenceFamily,
                  tolerance: float = PAIR_TOLERANCE) -> BiorthogonalPair:
    """Verify (phi_n | psi_m) = delta_nm over the family columns.

    Gates on the pair's pairing_residual; only a failing pair rebuilds the
    defect matrix, to raise NotBiorthogonalError carrying the worst (n, m).
    """
    pair = BiorthogonalPair(phi=phi, psi=psi)
    if pair.pairing_residual > tolerance:
        defect = _gram_defect(phi, psi)
        m, n = np.unravel_index(int(np.argmax(defect)), defect.shape)
        raise NotBiorthogonalError(n=n, m=m, value=pair.pairing_residual, tolerance=tolerance)
    return pair


def build_analysis(phi: SequenceFamily, onb: ONB | None = None) -> np.ndarray:
    """Analysis operator sum_k phi_k (x) conj(e_k); maps e_k to phi_k.

    Requires a square family.  With the standard ONB the matrix is exactly
    the coefficient matrix.
    """
    if not phi.is_square():
        raise TruncationShapeError(
            f"square truncation required: family has {phi.size} columns in dimension {phi.dim}"
        )
    if onb is None:
        return phi.coeffs.copy()
    if onb.dim != phi.dim:
        raise DimensionMismatchError("ONB dimension does not match family")
    return phi.coeffs @ onb.columns.conj().T


def build_coanalysis(phi: SequenceFamily, onb: ONB | None = None) -> np.ndarray:
    """Coanalysis operator sum_k e_k (x) conj(phi_k) == adjoint(build_analysis)."""
    if not phi.is_square():
        raise TruncationShapeError(
            f"square truncation required: family has {phi.size} columns in dimension {phi.dim}"
        )
    if onb is None:
        return phi.coeffs.conj().T.copy()
    if onb.dim != phi.dim:
        raise DimensionMismatchError("ONB dimension does not match family")
    return onb.columns @ phi.coeffs.conj().T


def pad_to_square(fam: SequenceFamily) -> SequenceFamily:
    """Embed a family with index_offset > 0 into a square truncation.

    The missing leading indices k < index_offset are filled with the basis
    vectors e_k themselves, flagged as padding.  Requires that padding plus
    family columns exactly fill the dimension.
    """
    if fam.is_square():
        return fam
    if fam.index_offset + fam.size != fam.dim:
        raise TruncationShapeError(
            f"cannot embed: offset {fam.index_offset} + {fam.size} columns != dim {fam.dim}"
        )
    if fam.n_padding:
        raise TruncationShapeError("family already carries padding columns")
    pad = np.eye(fam.dim, fam.index_offset, dtype=np.complex128)
    return SequenceFamily(
        np.hstack([pad, fam.coeffs]),
        index_offset=0,
        n_padding=fam.index_offset,
    )


def pair_to_square(pair: BiorthogonalPair) -> BiorthogonalPair:
    """Embed both sides of a pair in a square truncation, keeping exact duality.

    The phi side pads with basis vectors.  The psi side pads with the columns
    of adjoint(inverse(phi_square)) at the padded indices, so that the padded
    pair is biorthogonal including the padding block and the left-inverse
    identity holds verbatim at the truncation.
    """
    if pair.phi.is_square() and pair.psi.is_square():
        return pair
    T = build_analysis(pad_to_square(pair.phi))
    return embed_pair(pair, linalg.Factorization(T))


def embed_pair(pair: BiorthogonalPair, fac: linalg.Factorization) -> BiorthogonalPair:
    """pair_to_square, given the Factorization of the padded analysis operator.

    The padding columns of psi are read from fac.dual, so a caller that needs
    the factorization anyway (kappa, dual family, ladders) pays for it once.
    A pair that is square already is returned unchanged.
    """
    if pair.phi.is_square() and pair.psi.is_square():
        return pair
    k = pair.psi.index_offset
    psi_sq = SequenceFamily(np.hstack([fac.dual[:, :k], pair.psi.coeffs]),
                            index_offset=0, n_padding=k)
    return BiorthogonalPair(phi=pad_to_square(pair.phi), psi=psi_sq)


def verify_left_inverse(pair: BiorthogonalPair) -> float:
    """Residual of the left-inverse identity T_{e,psi} T_{phi,e} = I.

    Returns the max-norm of the defect at square truncation (the pair is
    embedded first when its index set starts above 0).
    """
    sq = pair_to_square(pair)
    K = build_coanalysis(sq.psi)
    T = build_analysis(sq.phi)
    return linalg.max_abs(K @ T - np.eye(sq.dim))


def as_vectors(fam: SequenceFamily, vectors) -> list[np.ndarray]:
    """The vectors as complex arrays, each checked against the family dimension."""
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
    adj = phi.family_coeffs.conj().T
    return [adj @ x for x in vectors]


def coefficient_energy(coeffs: np.ndarray) -> float:
    """sum_k |c_k|^2 of a coefficient array."""
    return float(np.sum(np.abs(coeffs) ** 2))


def domain_partial_sum(phi: SequenceFamily, x) -> float:
    """Truncated membership functional sum_k |(x | phi_k)|^2 over family columns."""
    return coefficient_energy(analysis_coefficients(phi, [x])[0])
