"""Dense complex linear-algebra kernel for truncated Hilbert spaces.

Vectors are length-N complex ndarrays, operators are N x N complex
ndarrays.  The inner product is linear in the FIRST argument, so that the
rank-one tensor satisfies rank_one(x, y) @ xi == inner(xi, y) * x.

Every operator T is factorized once (see Factorization): one values-only SVD
for the rank gate, kappa and sigma_min, one LU solve for the inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, SingularOperatorError

EPS = float(np.finfo(np.float64).eps)

#: Largest truncation dimension the dense kernel serves; larger inputs are
#: rejected before anything of size N^2 is allocated.
DENSE_DIM_LIMIT = 4096


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d vector, got shape {v.shape}")
    return v


def as_operator(T) -> np.ndarray:
    M = np.asarray(T, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {M.shape}")
    return M


def basis_vector(k: int, dim: int) -> np.ndarray:
    """Standard basis vector e_k of the dim-dimensional truncation."""
    e = np.zeros(dim, dtype=np.complex128)
    e[k] = 1.0
    return e


def inner(x, y) -> complex:
    """Inner product (x|y), linear in x and conjugate-linear in y."""
    x = as_vector(x)
    y = as_vector(y)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    # np.vdot conjugates its first argument.
    return complex(np.vdot(y, x))


def norm(x) -> float:
    return float(np.linalg.norm(x))


def rank_one(x, y) -> np.ndarray:
    """Tensor x (x) conj(y): entries M_ij = x_i * conj(y_j)."""
    x = as_vector(x)
    y = as_vector(y)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    return np.outer(x, y.conj())


def adjoint(T) -> np.ndarray:
    """Conjugate transpose; the Hilbert adjoint at finite truncation."""
    return np.asarray(T, dtype=np.complex128).conj().T.copy()


def singular_values(T) -> np.ndarray:
    return np.linalg.svd(as_operator(T), compute_uv=False)


def rank_tolerance(values) -> float:
    """The rank cut N * eps * max|values| for N values: singular values, or a vector's entries.

    A singular value at or below it counts as zero, and so does an entry of a
    computed kernel vector.
    """
    values = np.asarray(values)
    return values.size * EPS * float(np.abs(values).max(initial=0.0))


@dataclass(frozen=True, eq=False)
class Factorization:
    """One factorization of an invertible operator T, shared by every check on it.

    The singular values come from one values-only SVD; the rank gate
    sigma_min <= N * eps * sigma_max raises SingularOperatorError at
    construction.  The inverse is one LU solve of T X = I, made on first use,
    and the dual operator adjoint(T^-1) is derived from it.  Whatever needs
    kappa, sigma_min, the inverse, the dual family, the metric or either
    ladder side of T reads it from here instead of factoring T again.

    T is kept by reference and made read-only, so that it cannot change
    under the factorization; factor a copy to keep a writable original.
    """

    T: np.ndarray
    sigma: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        T = as_operator(self.T)
        sigma = singular_values(T)
        smin = float(sigma[-1]) if sigma.size else 0.0
        if smin <= rank_tolerance(sigma):
            raise SingularOperatorError(smin)
        T.setflags(write=False)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return self.T.shape[0]

    @property
    def sigma_min(self) -> float:
        return float(self.sigma[-1])

    @property
    def kappa(self) -> float:
        return float(self.sigma[0] / self.sigma[-1])

    @cached_property
    def inverse(self) -> np.ndarray:
        inv = np.linalg.solve(self.T, np.eye(self.dim, dtype=np.complex128))
        inv.setflags(write=False)
        return inv

    @cached_property
    def dual(self) -> np.ndarray:
        """adjoint(T^-1): maps e_k to the dual family member psi_k."""
        d = adjoint(self.inverse)
        d.setflags(write=False)
        return d


def as_factorization(T) -> Factorization:
    """T itself when it already is a Factorization, else a new one of T."""
    return T if isinstance(T, Factorization) else Factorization(T)


def condition_number(T) -> float:
    """sigma_max / sigma_min of T (or of a Factorization); inf when exactly singular."""
    s = T.sigma if isinstance(T, Factorization) else singular_values(T)
    if s.size == 0 or s[-1] == 0.0:
        return np.inf
    return float(s[0] / s[-1])


def solve_inverse(T) -> np.ndarray:
    """Inverse of T (or of a Factorization), gated at the rank tolerance.

    Raises SingularOperatorError when sigma_min <= N * eps * sigma_max.
    For a plain matrix the result is a new writable array; for a
    Factorization it is the shared, read-only Factorization.inverse.
    """
    if isinstance(T, Factorization):
        return T.inverse
    return Factorization(T).inverse.copy()


def max_abs(M) -> float:
    """Max-norm (largest entry modulus) of a matrix or vector."""
    M = np.asarray(M)
    return float(np.max(np.abs(M))) if M.size else 0.0


def max_column_norm(M) -> float:
    """Largest Euclidean column norm of a matrix; 0.0 when it has no entries."""
    M = np.asarray(M)
    return float(np.linalg.norm(M, axis=0).max()) if M.size else 0.0

