import numpy as np
import pytest

from rieszlab import linalg
from rieszlab.errors import SingularOperatorError
from rieszlab.family import (
    BiorthogonalPair,
    SequenceFamily,
    build_analysis,
    domain_partial_sum,
    pad_to_square,
)
from rieszlab.linalg import Factorization
from rieszlab.models import paper_example_pair
from rieszlab.riesz import dual_family

from conftest import random_complex, random_well_conditioned


class TestConstructingPair:
    # A constructing pair is T on the standard basis, held as its Factorization.
    def test_identity_operator(self):
        fac = Factorization(np.eye(4))
        assert fac.kappa == 1.0
        assert fac.sigma_min == 1.0

    def test_singular_operator_rejected(self):
        with pytest.raises(SingularOperatorError):
            dual_family(np.diag([1.0, 1.0, 0.0]))

    def test_kappa_matches_singular_value_ratio(self, rng):
        T = random_well_conditioned(rng, 6, kappa=20.0)
        assert Factorization(T).kappa == pytest.approx(20.0, rel=1e-10)

    def test_from_family_round_trip(self, rng):
        fam = SequenceFamily(random_well_conditioned(rng, 5))
        assert np.array_equal(Factorization(build_analysis(fam)).T, fam.coeffs)

    def test_operator_is_read_only(self, rng):
        # T and its inverse are shared by every check on T; the dual family's
        # array is read-only, as every family's is
        fac = Factorization(random_well_conditioned(rng, 4))
        for shared in (fac.T, fac.inverse, dual_family(fac).coeffs):
            with pytest.raises(ValueError):
                shared[0, 0] = 2.0

    def test_each_call_factors_once(self, rng, monkeypatch):
        # Given T, dual_family factors it once; given its Factorization, it
        # factors nothing.
        calls = []
        svd = np.linalg.svd

        def counted_svd(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        T = random_well_conditioned(rng, 6)
        dual_family(T)
        assert len(calls) == 1
        fac = Factorization(T)
        dual_family(fac)
        assert len(calls) == 2


class TestDualFamily:
    def test_identity_is_self_dual(self):
        assert np.allclose(dual_family(np.eye(4)).coeffs, np.eye(4))

    def test_diagonal_dual_is_reciprocal(self):
        # oracle: for T = diag(d), psi_k = e_k / conj(d_k)
        d = np.array([1.0 + 1.0j, 2.0, 0.5j])
        expected = np.diag(1.0 / d.conj())
        assert np.allclose(dual_family(np.diag(d)).coeffs, expected, atol=1e-14)

    def test_dual_pair_is_biorthogonal(self, rng):
        fac = Factorization(random_well_conditioned(rng, 8))
        pair = BiorthogonalPair(SequenceFamily(fac.T), dual_family(fac))
        assert pair.pairing_residual <= 1e-12
        assert pair.pairing_residual <= linalg.error_bound(8, kappa=fac.kappa ** 2)

    def test_paper_example_dual(self):
        # oracle: the inverse of the padded analysis operator has first row
        # (1, -1, ..., -1), so psi_0 completes to e_0 - sum_n e_n.
        n = 6
        phi_sq = pad_to_square(paper_example_pair(n).phi)
        dual = dual_family(build_analysis(SequenceFamily(phi_sq.coeffs)))
        expected_first = np.zeros(n, dtype=complex)
        expected_first[0] = 1.0
        expected_first -= np.eye(n, dtype=complex)[:, 1:].sum(axis=1)
        assert np.allclose(dual.coeffs[:, 0], expected_first, atol=1e-13)
        assert np.allclose(dual.coeffs[:, 1:], np.eye(n)[:, 1:], atol=1e-13)

    def test_standard_onb_dual_is_the_adjoint_inverse(self, rng):
        # On the standard basis, psi_k = adjoint(T^-1) e_k: the family's array
        # is adjoint(T^-1) itself, bit for bit, with no product.
        fac = Factorization(random_well_conditioned(rng, 5))
        assert np.array_equal(dual_family(fac).coeffs, linalg.adjoint(fac.inverse))

    def test_unitary_change_of_basis_is_absorbed_by_t(self, rng):
        # The pair (U e, T) constructs the same family as (e, T U), so the
        # standard basis loses nothing: the dual of T U is adjoint(T^-1) U.
        T = random_well_conditioned(rng, 6)
        U = np.linalg.qr(random_complex(rng, 6, 6))[0]
        TU = T @ U
        dual_T = linalg.adjoint(Factorization(T).inverse)
        assert linalg.max_abs(dual_family(TU).coeffs - dual_T @ U) <= 1e-12



class TestDomainNormIdentity:
    # sum_k |(x|phi_k)|^2 == ||adjoint(T) x||^2 for the family {T e_k}: the
    # domain partial sum over the columns of T against the adjoint of T.
    def test_identity_operator(self, rng):
        x = random_complex(rng, 5)
        lhs = domain_partial_sum(SequenceFamily.identity(5), x)
        rhs = np.linalg.norm(linalg.adjoint(np.eye(5)) @ x) ** 2
        assert lhs == pytest.approx(np.linalg.norm(x) ** 2, rel=1e-12)
        assert rhs == pytest.approx(lhs, rel=1e-12)

    def test_sides_agree_for_random_operator(self, rng):
        for _ in range(5):
            fac = Factorization(random_well_conditioned(rng, 7))
            x = random_complex(rng, 7)
            lhs = domain_partial_sum(SequenceFamily(fac.T), x)
            rhs = np.linalg.norm(linalg.adjoint(fac.T) @ x) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_paper_example_probe_e0(self):
        # oracle: each phi_n = e_n + e_0 contributes |(e_0|phi_n)|^2 = 1,
        # the padding column contributes 1 as well, total N.
        n = 8
        phi_sq = pad_to_square(paper_example_pair(n).phi)
        fac = Factorization(build_analysis(SequenceFamily(phi_sq.coeffs)))
        e0 = linalg.basis_vector(0, n)
        assert domain_partial_sum(SequenceFamily(fac.T), e0) == pytest.approx(n, rel=1e-12)
        assert np.linalg.norm(linalg.adjoint(fac.T) @ e0) ** 2 == pytest.approx(n, rel=1e-12)
