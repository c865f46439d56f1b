"""Dense linear-algebra kernel for truncated Hilbert spaces.

Vectors are length-N ndarrays, operators are N x N ndarrays.  One dtype rule
holds for every input (see narrow): an array with no nonzero imaginary part is
float64, any other is complex128, and results follow their inputs.  Real
matrices have real LU, QR and SVD factors, so a real model runs real kernels
at a fraction of the complex cost and memory.

The inner product is linear in the FIRST argument and conjugate-linear in
the second.

Every operator T is factorized once (see Factorization): one values-only SVD
for the rank gate, kappa and sigma_min, one LU solve for the inverse.  Every
tolerance of the package, the rank cut included, is an error_bound.  The SVD
of a real upper-bidiagonal T skips its O(N^3) reduction, bits kept (see singular_values).
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import DimensionMismatchError, SingularOperatorError

EPS = float(np.finfo(np.float64).eps)

#: Largest truncation dimension the dense kernel serves; larger inputs are
#: rejected before anything of size N^2 is allocated.
DENSE_DIM_LIMIT = 4096


def narrow(x) -> np.ndarray:
    """x as a float64 array when no entry has a nonzero imaginary part, else as complex128.

    A real float64 input is returned as it is, without a copy.
    """
    a = np.asarray(x)
    if not np.iscomplexobj(a):
        return a.astype(np.float64, copy=False)
    if np.any(a.imag):
        return a.astype(np.complex128, copy=False)
    return a.real.astype(np.float64)


def as_vector(x) -> np.ndarray:
    v = narrow(x)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d vector, got shape {v.shape}")
    return v


def as_operator(T) -> np.ndarray:
    M = narrow(T)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {M.shape}")
    return M


def basis_vector(k: int, dim: int) -> np.ndarray:
    """Standard basis vector e_k of the dim-dimensional truncation."""
    e = np.zeros(dim)
    e[k] = 1.0
    return e


def inner(x, y) -> complex:
    """Inner product (x|y), linear in x and conjugate-linear in y; a float when both are real."""
    x = as_vector(x)
    y = as_vector(y)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    # np.vdot conjugates its first argument.
    return np.vdot(y, x).item()


def adjoint(T) -> np.ndarray:
    """Conjugate transpose, C-ordered; the Hilbert adjoint at finite truncation.

    The conjugate is written straight into the one new array, so a complex T
    costs no second temporary.
    """
    M = narrow(T)
    return np.conjugate(M.T, out=np.empty(M.shape[::-1], dtype=M.dtype))


def singular_values(T) -> np.ndarray:
    """Singular values of T, decreasing: the bits of np.linalg.svd(T, compute_uv=False).

    That svd is LAPACK's dgesdd: a reduction to bidiagonal form (dgebrd,
    O(N^3)), then the bidiagonal solver dbdsdc('U', 'N').  A real T, N >= 2,
    with every nonzero on the diagonal or the first superdiagonal and
    2^-459 <= max|T| <= 2^459 (where dgesdd does not rescale) is already that
    form, which dgebrd hands back unchanged (every Householder tau is 0): it
    goes to numpy's own dbdsdc directly, in O(N^2).  Any other T, and every T
    where numpy exports no dbdsdc, goes to np.linalg.svd.
    """
    T = as_operator(T)
    if T.dtype == np.float64 and T.shape[0] >= 2:
        d, e = np.diagonal(T), np.diagonal(T, 1)
        if (np.count_nonzero(T) == np.count_nonzero(d) + np.count_nonzero(e)
                and 2.0 ** -459 <= max(np.abs(d).max(), np.abs(e).max()) <= 2.0 ** 459
                and (solver := _bidiagonal_solver()) is not None):
            return _bidiagonal_values(solver, d, e)
    return np.linalg.svd(T, compute_uv=False)


@cache
def _bidiagonal_solver():
    """numpy's own ILP64 dbdsdc, typed, or None: the one place that opens numpy's LAPACK."""
    try:
        from numpy.linalg import _umath_linalg
        solver = ctypes.CDLL(_umath_linalg.__file__).scipy_dbdsdc_64_
    except (ImportError, OSError, AttributeError):
        return None
    solver.argtypes = [ctypes.c_char_p] * 2 + [ctypes.c_void_p] * 12 + [ctypes.c_size_t] * 2
    solver.restype = None
    return solver


def _bidiagonal_values(solver, d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """dbdsdc('U', 'N') of the matrix with diagonal d and superdiagonal e, on copies of both."""
    d, e, work, iwork = d.copy(), e.copy(), np.empty(4 * d.size), np.empty(8 * d.size, np.int64)
    n, one, info = ctypes.c_int64(d.size), ctypes.c_int64(1), ctypes.c_int64()
    # COMPQ = 'N' reads neither U, VT, Q nor IQ; the two string lengths come last.
    solver(b"U", b"N", ctypes.byref(n), d.ctypes, e.ctypes, work.ctypes, ctypes.byref(one),
           work.ctypes, ctypes.byref(one), work.ctypes, iwork.ctypes, work.ctypes, iwork.ctypes,
           ctypes.byref(info), 1, 1)
    if info.value != 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    return d


def error_bound(n: int, scale=1.0, k=1.0, kappa=1.0):
    """The one tolerance rule k * n * eps * kappa * scale: a forward-error bound (Higham ch. 3).

    n is the length of the sums, k the number of operator applications between
    the stored inputs and the residual, kappa the conditioning the inputs
    inherit and scale the product of the norms of the operands the residual
    combined.  Arrays give one bound per entry.
    """
    return n * EPS * kappa * k * scale  # the scalars first: two passes over arrays


def rank_tolerance(values) -> float:
    """The rank cut error_bound(N, max|values|) of N values: singular values or a vector's entries.

    A singular value at or below it counts as zero, and so does an entry of a
    computed kernel vector.
    """
    values = np.asarray(values)
    return error_bound(values.size, float(np.abs(values).max(initial=0.0)))


#: Width of the column (or row) blocks in which the O(N^2) reductions below,
#: and the row-blocked products of ladder and family, run, so that none
#: forms an N x N temporary such as |M|, |M|^2 or a whole product.
BLOCK = 64


def blocks(n: int, least: int = 2) -> list[slice]:
    """Slices of 0..n-1, BLOCK long but the last, joined to the one before if shorter than least.

    numpy sums the columns of a C-ordered block two or more wide in row
    order, as it sums those of the whole matrix, but a lone column pairwise;
    so with least = 2 each block-wise reduction below gives the bits of its
    whole-matrix formula.

    A product formed one row block at a time (ladder.metric_operator,
    ladder.intertwining_residual) takes least = BLOCK, since BLAS computes a
    product of a few rows with other kernels, or on fewer threads, than the
    whole.  It then has the bits of the whole product where BLAS rounds each
    row alike in both: on OpenBLAS 0.3.31 (x86-64, AVX-512) at one BLAS
    thread, for complex input, and for real input up to N = 192 and at every
    N that is a multiple of 8.  A real product of another N may differ in the
    last bit of a few entries.  The pairing walk (family.worst_pairing) takes
    least = 2, so that each block and its bounds hold at most BLOCK + 1 rows:
    at one BLAS thread it had the whole product's bits wherever least = BLOCK
    had them (every N from 2 to 199 and nine up to 513), at two threads not
    for real N from 101 to 128 and complex N from 130 to 132.
    """
    edges = [*range(0, n, BLOCK), n]
    if len(edges) > 2 and n - edges[-2] < least:
        del edges[-2]
    return [slice(i, j) for i, j in zip(edges, edges[1:])]


def _by_blocks(reduce, M: np.ndarray, axis: int = 1) -> np.ndarray:
    """reduce(block) over the column (axis 1) or row (axis 0) blocks of M, one value each."""
    out = np.empty(M.shape[axis])
    for s in blocks(M.shape[axis]):
        out[s] = reduce(M[:, s] if axis == 1 else M[s])
    return out


def norm_estimate(M) -> float:
    """sqrt(||M||_1 ||M||_inf), an O(N^2) upper bound of the spectral norm of M."""
    M = np.asarray(M)
    col_sums = _by_blocks(lambda b: np.abs(b).sum(axis=0), M)
    row_sums = _by_blocks(lambda b: np.abs(b).sum(axis=1), M, axis=0)
    return math.sqrt(float(col_sums.max())) * math.sqrt(float(row_sums.max()))


def column_norms(M) -> np.ndarray:
    """Euclidean column norms of a matrix; taken of M / max|M| when a square overflows float64."""
    M = np.asarray(M)
    with np.errstate(over="ignore"):
        norms = _by_blocks(lambda b: np.linalg.norm(b, axis=0), M)
    if np.isfinite(norms).all():
        return norms
    top = max_abs(M)
    return top * _by_blocks(lambda b: np.linalg.norm(b / top, axis=0), M)


def worst_ratio(residuals, bounds) -> tuple[float, float, int]:
    """(residual, bound, flat index) of the largest residual / bound, the entry np.argmax picks."""
    residuals, bounds = np.broadcast_arrays(residuals, bounds)
    i = int(np.argmax(residuals / bounds))
    return float(residuals.flat[i]), float(bounds.flat[i]), i


@dataclass(frozen=True, eq=False)
class Factorization:
    """One factorization of an invertible operator T, shared by every check on it.

    The singular values come from one values-only SVD; the rank gate
    sigma_min <= N * eps * sigma_max raises SingularOperatorError at
    construction.  The inverse is one LU solve of T X = I (I of T's dtype),
    made on first use.  Whatever needs kappa, sigma_min, the inverse, the dual
    family, the metric or either ladder side of T reads it from here instead
    of factoring T again.

    T, narrowed (see narrow), is kept by reference when it has that dtype
    already, and made read-only, so that it cannot change under the
    factorization; factor a copy to keep a writable original.  A family's
    analysis operator is its own coefficient array, so no copy of T is made.
    """

    T: np.ndarray
    sigma: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        T = as_operator(self.T)
        sigma = singular_values(T)
        smin = float(sigma[-1]) if sigma.size else 0.0
        cut = rank_tolerance(sigma)
        if smin <= cut:
            raise SingularOperatorError(smin, cut)
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
        inv = np.linalg.solve(self.T, np.eye(self.dim, dtype=self.T.dtype))
        inv.setflags(write=False)
        return inv


def as_factorization(T) -> Factorization:
    """T itself when it already is a Factorization, else a new one of T."""
    return T if isinstance(T, Factorization) else Factorization(T)


def solve_inverse(T) -> np.ndarray:
    """Inverse of T as a new writable array, gated at the rank tolerance.

    Raises SingularOperatorError when sigma_min <= N * eps * sigma_max.
    """
    return Factorization(T).inverse.copy()


def max_abs(M) -> float:
    """Max-norm (largest entry modulus) of a matrix or vector."""
    M = np.atleast_2d(M)
    return float(_by_blocks(lambda b: np.abs(b).max(axis=0), M).max()) if M.size else 0.0


def max_column_norm(M) -> float:
    """Largest Euclidean column norm of a matrix; 0.0 when it has no entries."""
    return float(column_norms(M).max(initial=0.0))

