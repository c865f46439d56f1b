import numpy as np
import pytest

from rieszlab import linalg
from rieszlab.errors import DimensionMismatchError, SingularOperatorError
from rieszlab.family import ONB, SequenceFamily, pad_to_square
from rieszlab.models import paper_example_pair
from rieszlab.riesz import (
    ConstructingPair,
    check_constructing,
    constructed_family,
    domain_norm_identity,
    dual_family,
    dual_pair,
)

from conftest import random_complex, random_well_conditioned


class TestConstructingPair:
    def test_identity_operator(self):
        cp = ConstructingPair(ONB.standard(4), np.eye(4))
        assert cp.kappa == 1.0
        assert cp.sigma_min == 1.0

    def test_singular_operator_rejected(self):
        with pytest.raises(SingularOperatorError):
            ConstructingPair(ONB.standard(3), np.diag([1.0, 1.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ConstructingPair(ONB.standard(3), np.eye(4))

    def test_kappa_matches_singular_value_ratio(self, rng):
        T = random_well_conditioned(rng, 6, kappa=20.0)
        cp = ConstructingPair(ONB.standard(6), T)
        assert cp.kappa == pytest.approx(20.0, rel=1e-10)

    def test_from_family_round_trip(self, rng):
        fam = SequenceFamily(random_well_conditioned(rng, 5))
        cp = ConstructingPair.from_family(fam)
        rebuilt = constructed_family(cp)
        assert np.allclose(rebuilt.coeffs, fam.coeffs, atol=1e-13)


class TestDualFamily:
    def test_identity_is_self_dual(self):
        cp = ConstructingPair(ONB.standard(4), np.eye(4))
        assert np.allclose(dual_family(cp).coeffs, np.eye(4))

    def test_diagonal_dual_is_reciprocal(self):
        # oracle: for T = diag(d), psi_k = e_k / conj(d_k)
        d = np.array([1.0 + 1.0j, 2.0, 0.5j])
        cp = ConstructingPair(ONB.standard(3), np.diag(d))
        expected = np.diag(1.0 / d.conj())
        assert np.allclose(dual_family(cp).coeffs, expected, atol=1e-14)

    def test_dual_pair_is_biorthogonal(self, rng):
        T = random_well_conditioned(rng, 8)
        pair = dual_pair(ConstructingPair(ONB.standard(8), T))
        gram = pair.psi.coeffs.conj().T @ pair.phi.coeffs
        assert linalg.max_abs(gram - np.eye(8)) <= 1e-12

    def test_paper_example_dual(self):
        # oracle: the inverse of the padded analysis operator has first row
        # (1, -1, ..., -1), so psi_0 completes to e_0 - sum_n e_n.
        n = 6
        phi_sq = pad_to_square(paper_example_pair(n).phi)
        cp = ConstructingPair.from_family(SequenceFamily(phi_sq.coeffs))
        dual = dual_family(cp)
        expected_first = np.zeros(n, dtype=complex)
        expected_first[0] = 1.0
        expected_first -= np.eye(n, dtype=complex)[:, 1:].sum(axis=1)
        assert np.allclose(dual.coeffs[:, 0], expected_first, atol=1e-13)
        assert np.allclose(dual.coeffs[:, 1:], np.eye(n)[:, 1:], atol=1e-13)

    def test_standard_onb_shares_the_dual_operator(self, rng):
        # With the standard ONB, psi_k = dual e_k is the dual matrix itself;
        # a rotated ONB still multiplies by its columns.
        T = random_well_conditioned(rng, 5)
        cp = ConstructingPair(ONB.standard(5), T)
        assert cp.onb.is_standard
        assert dual_family(cp).coeffs is cp.factorization.dual
        assert constructed_family(cp).coeffs is cp.T
        u = np.linalg.qr(random_well_conditioned(rng, 5))[0]
        rotated = ConstructingPair(ONB(u), T)
        assert not rotated.onb.is_standard
        assert np.array_equal(dual_family(rotated).coeffs, cp.factorization.dual @ u)


class TestDomainNormIdentity:
    def test_identity_operator(self, rng):
        cp = ConstructingPair(ONB.standard(5), np.eye(5))
        x = random_complex(rng, 5)
        lhs, rhs = domain_norm_identity(cp, x)
        assert lhs == pytest.approx(np.linalg.norm(x) ** 2, rel=1e-12)
        assert rhs == pytest.approx(lhs, rel=1e-12)

    def test_sides_agree_for_random_operator(self, rng):
        for _ in range(5):
            T = random_well_conditioned(rng, 7)
            cp = ConstructingPair(ONB.standard(7), T)
            x = random_complex(rng, 7)
            lhs, rhs = domain_norm_identity(cp, x)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_paper_example_probe_e0(self):
        # oracle: each phi_n = e_n + e_0 contributes |(e_0|phi_n)|^2 = 1,
        # the padding column contributes 1 as well, total N.
        n = 8
        phi_sq = pad_to_square(paper_example_pair(n).phi)
        cp = ConstructingPair.from_family(SequenceFamily(phi_sq.coeffs))
        lhs, rhs = domain_norm_identity(cp, linalg.basis_vector(0, n))
        assert lhs == pytest.approx(n, rel=1e-12)
        assert rhs == pytest.approx(n, rel=1e-12)


class TestCheckConstructing:
    def test_accepts_matching_operator(self, rng):
        T = random_well_conditioned(rng, 6)
        fam = SequenceFamily(T.copy())
        assert check_constructing(T, fam)

    def test_rejects_wrong_action(self):
        fam = SequenceFamily.identity(4)
        assert not check_constructing(2.0 * np.eye(4), fam)

    def test_rejects_singular(self):
        fam = SequenceFamily(np.eye(3) + 0j)
        T = np.diag([1.0, 1.0, 0.0])
        assert not check_constructing(T, fam)

    def test_respects_index_offset(self):
        # the paper family starts at index 1: T must map e_{k+1} to column k
        pair = paper_example_pair(5)
        T = pad_to_square(pair.phi).coeffs
        assert check_constructing(T, pair.phi)
