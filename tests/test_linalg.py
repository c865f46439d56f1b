import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszlab import linalg
from rieszlab.errors import DimensionMismatchError, SingularOperatorError

from conftest import random_complex, random_well_conditioned


def e(k, n):
    return linalg.basis_vector(k, n)


class TestInner:
    def test_orthonormality(self):
        assert linalg.inner(e(0, 4), e(0, 4)) == 1
        assert linalg.inner(e(0, 4), e(1, 4)) == 0

    def test_linear_in_first_slot(self):
        assert linalg.inner((1 + 1j) * e(0, 3), e(0, 3)) == 1 + 1j

    def test_conjugate_linear_in_second_slot(self):
        assert linalg.inner(e(0, 3), (1 + 1j) * e(0, 3)) == 1 - 1j

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.inner(e(0, 3), e(0, 4))

    def test_conjugate_symmetry(self, rng):
        for _ in range(20):
            x = random_complex(rng, 6)
            y = random_complex(rng, 6)
            assert linalg.inner(x, y) == pytest.approx(np.conj(linalg.inner(y, x)))

    def test_positivity(self, rng):
        x = random_complex(rng, 8)
        v = linalg.inner(x, x)
        assert v.imag == pytest.approx(0.0, abs=1e-14)
        assert v.real >= 0


class TestAdjoint:
    def test_identity(self):
        assert np.array_equal(linalg.adjoint(np.eye(3)), np.eye(3))

    def test_diagonal_conjugation(self):
        T = np.diag([1j, 2.0])
        assert np.array_equal(linalg.adjoint(T), np.diag([-1j, 2.0]))

    def test_tensor_adjoint(self, rng):
        x = random_complex(rng, 4)
        y = random_complex(rng, 4)
        # the tensor x (x) conj(y) has adjoint y (x) conj(x)
        lhs = linalg.adjoint(np.outer(x, y.conj()))
        assert np.allclose(lhs, np.outer(y, x.conj()), atol=1e-15, rtol=1e-15)

    def test_involution_exact(self, rng):
        T = random_complex(rng, 6, 6)
        assert np.array_equal(linalg.adjoint(linalg.adjoint(T)), T)

    def test_reverses_products(self, rng):
        S = random_complex(rng, 5, 5)
        T = random_complex(rng, 5, 5)
        lhs = linalg.adjoint(S @ T)
        rhs = linalg.adjoint(T) @ linalg.adjoint(S)
        assert np.allclose(lhs, rhs, atol=1e-14, rtol=1e-14)

    def test_moves_across_inner(self, rng):
        T = random_complex(rng, 6, 6)
        x = random_complex(rng, 6)
        y = random_complex(rng, 6)
        lhs = linalg.inner(T @ x, y)
        rhs = linalg.inner(x, linalg.adjoint(T) @ y)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSolveInverse:
    def test_identity(self):
        assert np.allclose(linalg.solve_inverse(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        inv = linalg.solve_inverse(np.diag([1.0, 2.0, 4.0]))
        assert np.allclose(inv, np.diag([1.0, 0.5, 0.25]))

    def test_upper_triangular_verified_by_multiplying_back(self):
        T = np.array([[1.0, 1.0], [0.0, 1.0]])
        inv = linalg.solve_inverse(T)
        # oracle: the inverse is whatever multiplies back to the identity
        assert np.allclose(T @ inv, np.eye(2), atol=1e-14)
        assert np.allclose(inv, [[1.0, -1.0], [0.0, 1.0]])

    def test_singular_raises_with_sigma_min(self):
        with pytest.raises(SingularOperatorError) as exc:
            linalg.solve_inverse(np.diag([1.0, 0.0]))
        assert exc.value.sigma_min == 0.0

    def test_plain_matrix_gives_writable_copy(self):
        inv = linalg.solve_inverse(np.diag([1.0, 2.0]))
        inv[0, 0] = 3.0
        assert inv[0, 0] == 3.0

    def test_residual_contract_well_conditioned(self, rng):
        for _ in range(10):
            T = random_well_conditioned(rng, 12, kappa=1e3)
            inv = linalg.solve_inverse(T)
            assert linalg.max_abs(inv @ T - np.eye(12)) <= 1e-10

    def test_residual_contract_svd_path(self, rng):
        # kappa 1e10: the LU solve keeps the same residual contract far into
        # the ill-conditioned range, so no separate SVD route is needed.
        q, _ = np.linalg.qr(random_complex(rng, 8, 8))
        s = np.geomspace(1.0, 1e10, 8)
        T = q * s
        inv = linalg.solve_inverse(T)
        kappa = linalg.Factorization(T).kappa
        assert kappa > 1e8
        assert linalg.max_abs(inv @ T - np.eye(8)) <= kappa * linalg.EPS * 8


class TestBlockwiseReductions:
    """column_norms, max_abs and norm_estimate run in blocks of linalg.BLOCK
    columns (or rows), so that none forms an N x N temporary; each gives the
    bits of numpy's whole-matrix formula.  A last block one column wide would
    not: numpy sums a lone column pairwise, not in row order."""

    @staticmethod
    def _matrix(rng, rows, width, complex_):
        M = rng.standard_normal((rows, width)) * np.exp(5 * rng.standard_normal((rows, width)))
        return M + 1j * rng.standard_normal((rows, width)) if complex_ else M

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("width", [1, 63, 64, 65, 1023])
    @pytest.mark.parametrize("rows", [1, 65, 513])
    def test_bits_of_the_whole_matrix_formulas(self, rng, rows, width, complex_):
        M = self._matrix(rng, rows, width, complex_)
        for A in (M, M.T, M[:, 1:]):  # C order, Fortran order and a strided view
            if not A.size:
                continue
            assert np.array_equal(linalg.column_norms(A), np.linalg.norm(A, axis=0))
            assert linalg.max_abs(A) == float(np.max(np.abs(A)))
            abs_A = np.abs(A)
            assert linalg.norm_estimate(A) == (math.sqrt(float(abs_A.sum(axis=0).max()))
                                               * math.sqrt(float(abs_A.sum(axis=1).max())))

    @pytest.mark.parametrize("shape", [(5, 0), (0, 5), (0, 0)])
    def test_empty_matrix(self, shape):
        M = np.zeros(shape)
        assert np.array_equal(linalg.column_norms(M), np.linalg.norm(M, axis=0))
        assert linalg.max_abs(M) == 0.0
        with pytest.raises(ValueError):  # as np.abs(M).sum(axis=0).max() does
            linalg.norm_estimate(M)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_overflow_fallback_of_column_norms(self, rng, complex_):
        M = 1e300 * self._matrix(rng, 70, 65, complex_) / np.exp(25)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.linalg.norm(M, axis=0)).all()
        top = float(np.max(np.abs(M)))
        norms = linalg.column_norms(M)
        assert np.isfinite(norms).all()
        assert np.array_equal(norms, top * np.linalg.norm(M / top, axis=0))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_inner_hermitian_property(seed):
    rng = np.random.default_rng(seed)
    x = random_complex(rng, 5)
    y = random_complex(rng, 5)
    assert linalg.inner(x, y) == pytest.approx(np.conj(linalg.inner(y, x)))
