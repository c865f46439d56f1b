import math
import re

import numpy as np
import pytest

from rieszlab import linalg
from rieszlab.errors import AmbiguousVacuumError, SingularOperatorError
from rieszlab.family import BiorthogonalPair, SequenceFamily, build_analysis
from rieszlab.ladder import LadderSet, action_bound, action_defect, build_ladder, shift_matrices
from rieszlab.models import ModelSpec, instantiate_system
from rieszlab.pseudoboson import (
    PseudoBosonSystem,
    commutator_defect,
    falling_factorial_identity,
    generate_families,
    ground_states,
    number_eigen_check,
    pairing_check,
    restriction_containment,
)

from conftest import border_orthogonal_operator, random_complex


def commutator_bound(sys):
    return linalg.error_bound(sys.dim, linalg.norm_estimate(sys.a) * linalg.norm_estimate(sys.b),
                              k=2)


def ccr_system(dim, window=None):
    s_minus, s_plus, _ = shift_matrices(dim)
    return PseudoBosonSystem.build(s_minus, s_plus, window=window)


def similarity_system(dim, scale, window=None):
    s_minus, s_plus, _ = shift_matrices(dim)
    S = np.diag(scale)
    S_inv = np.diag(1.0 / scale)
    return PseudoBosonSystem.build(S @ s_minus @ S_inv, S @ s_plus @ S_inv, window=window)


class TestGroundStates:
    def test_ccr_vacua_are_e0(self):
        phi0, psi0, _ = ground_states(*shift_matrices(6)[:2])
        e0 = linalg.basis_vector(0, 6)
        assert np.allclose(phi0, e0, atol=1e-14)
        assert np.allclose(psi0, e0, atol=1e-14)

    def test_phase_is_deterministic(self):
        sys = ccr_system(8)
        j = int(np.argmax(np.abs(sys.phi0)))
        assert sys.phi0[j].imag == pytest.approx(0.0, abs=1e-15)
        assert sys.phi0[j].real > 0

    @pytest.mark.parametrize("T", [np.eye(3), np.diag([0.0, 1.0, 2.0]),
                                   np.diag([0.0, 0.0, 1.0]), np.zeros((3, 3))],
                             ids=["dim0", "dim1", "dim2", "dimN"])
    @pytest.mark.parametrize("side", ["a", "adjoint(b)"])
    def test_rank_gate_counts_the_kernel_as_a_full_svd_does(self, T, side):
        # oracle: the singular values of a full SVD at or below N eps sigma_max,
        # all N of them when T = 0
        s = np.linalg.svd(T)[1]
        n = T.shape[0]
        expected = n if s[0] == 0 else int(np.sum(s <= n * linalg.EPS * s[0]))
        s_minus, s_plus, _ = shift_matrices(n)
        a, b = (T, s_plus) if side == "a" else (s_minus, linalg.adjoint(T))
        if expected == 1:
            phi0, psi0, _ = ground_states(a, b)
            assert np.array_equal(phi0 if side == "a" else psi0, linalg.basis_vector(0, n))
            return
        with pytest.raises(AmbiguousVacuumError, match=f"of {re.escape(side)}") as err:
            ground_states(a, b)
        assert err.value.kernel_dim == expected

    @pytest.mark.parametrize("n", [6, 64, 256])
    def test_shift_vacua_lie_under_the_rank_cut(self, n):
        a, b, _ = shift_matrices(n)
        phi0, psi0, kappa_vac = ground_states(a, b)
        assert kappa_vac == pytest.approx(math.sqrt(n - 1))  # sigma_1 / sigma_(N-1) of S_-
        for T, v in ((a, phi0), (linalg.adjoint(b), psi0)):
            assert np.linalg.norm(T @ v) <= n * linalg.EPS * np.linalg.norm(T, 2)

    def test_unstructured_kernel(self, rng):
        # oracle: equal columns 2 and 4 put e_2 - e_4 in the kernel
        T = random_complex(rng, 6, 6)
        T[:, 2] = T[:, 4]
        phi0, _, _ = ground_states(T, shift_matrices(6)[1])
        assert np.linalg.norm(T @ phi0) <= 6 * linalg.EPS * np.linalg.norm(T, 2)
        kernel = (linalg.basis_vector(2, 6) - linalg.basis_vector(4, 6)) / math.sqrt(2)
        assert abs(linalg.inner(phi0, kernel)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_vacuum_does_not_depend_on_the_scale_of_the_operator(self, scale):
        a, b, _ = shift_matrices(8)
        e0 = linalg.basis_vector(0, 8)
        for v in ground_states(scale * a, scale * b)[:2]:
            assert np.array_equal(v, e0)


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
class TestBorderOrthogonalToTheKernel:
    """The bordered system of T is singular when u misses the kernel of T or of adjoint(T).

    A real T is bordered by a real u, a complex T by a complex one.
    """

    @pytest.mark.parametrize("kind", ["both", "right"])
    @pytest.mark.parametrize("n", [3, 8, 64])
    def test_singular_bordered_system_raises(self, n, kind, real):
        T, _ = border_orthogonal_operator(n, kind, real=real)
        assert np.iscomplexobj(T) != real
        s_minus, s_plus, _ = shift_matrices(n)
        for a, b, which in ((T, s_plus, "a"), (s_minus, linalg.adjoint(T), "adjoint(b)")):
            with pytest.raises(SingularOperatorError,
                               match=re.escape(f"bordered vacuum system of {which} ")):
                ground_states(a, b)

    @pytest.mark.parametrize("n", [3, 8, 64])
    def test_border_orthogonal_to_the_left_kernel_gives_no_false_vacuum(self, n, real):
        # The solve may not show this system singular; its t then does, as
        # T x = -t s u.  Every vacuum that comes back spans the kernel.
        for seed in range(8):
            T, x = border_orthogonal_operator(n, "left", seed, real=real)
            try:
                phi0, _, _ = ground_states(T, shift_matrices(n)[1])
            except SingularOperatorError as exc:
                assert re.search(r"bordered vacuum system of a .*kernel", str(exc))
                continue
            assert abs(linalg.inner(phi0, x)) == pytest.approx(1.0, abs=1e-12)


def test_a_solve_that_misses_the_left_kernel_raises():
    # The solve does not show this bordered system singular, and its x has
    # ||T x|| = 0.86 ||x||; t != 0 shows it, as T x = -t s u.
    T, _ = border_orthogonal_operator(8, "left", seed=2)
    with pytest.raises(SingularOperatorError, match=re.escape("left kernel of a,")):
        ground_states(T, shift_matrices(8)[1])


class TestSystemBuild:
    def test_default_window(self):
        assert ccr_system(10).window == 9

    def test_window_validation(self):
        s_minus, s_plus, _ = shift_matrices(5)
        with pytest.raises(ValueError):
            PseudoBosonSystem.build(s_minus, s_plus, window=5)

    def test_commutator_defect_ccr(self):
        sys = ccr_system(12, window=11)
        assert sys.commutator_defect() <= 1e-14

    def test_commutator_defect_full_space_fails(self):
        # trace(ab - ba) = 0 forces a defect at the top column
        s_minus, s_plus, _ = shift_matrices(6)
        assert commutator_defect(s_minus, s_plus, window=6) >= 5.0

    def test_number_operators(self):
        # N = b a, the operator number_eigen_relations powers, and its adjoint
        sys = ccr_system(7)
        number = sys.b @ sys.a
        assert np.allclose(number, np.diag(np.arange(7.0)), atol=1e-14)
        assert np.allclose(linalg.adjoint(number), np.diag(np.arange(7.0)), atol=1e-14)


class TestGenerateFamilies:
    def test_ccr_families_are_standard_basis(self):
        sys = ccr_system(8)
        phi, psi = generate_families(sys, 8)
        assert np.allclose(phi.coeffs, np.eye(8), atol=1e-13)
        assert np.allclose(psi.coeffs, np.eye(8), atol=1e-13)

    def test_column_recursion_oracle(self):
        # oracle: apply b repeatedly by hand and divide by sqrt(n!)
        sys = similarity_system(10, 1.5 ** np.arange(10))
        phi, _ = generate_families(sys, 6)
        v = sys.phi0.copy()
        for n in range(1, 6):
            v = sys.b @ v
            expected = v / math.sqrt(math.factorial(n))
            assert np.allclose(phi.coeffs[:, n], expected, atol=1e-12)

    def test_pairing_holds(self):
        sys = similarity_system(12, (np.arange(12) + 1.0))
        phi, psi = generate_families(sys, 10)
        residual, bound = pairing_check(sys, phi, psi)
        gram = psi.coeffs.conj().T @ phi.coeffs
        assert linalg.max_abs(gram - np.eye(10)) <= bound
        assert residual <= bound

    def test_count_validation(self):
        sys = ccr_system(6)
        with pytest.raises(ValueError):
            generate_families(sys, 7)
        for psi_count in (0, 7):
            with pytest.raises(ValueError, match="psi_count"):
                generate_families(sys, 6, psi_count=psi_count)

    def test_pairing_bound_of_an_entry_scales_with_its_columns(self):
        # phi_n = 2^n e_n and psi_m = 2^-m e_m: the bound of entry (n, m) is
        # (n + m + 1) N eps kappa_vac 2^(n - m), not the largest column norm.
        sys = similarity_system(10, 2.0 ** np.arange(10))
        phi, psi = generate_families(sys, 8)
        cols = psi.coeffs.copy()
        cols[0, 0] += 1e-12  # entry (0, 0) of the pairing, whose columns have norm 1
        residual, bound = pairing_check(sys, phi, SequenceFamily(cols))
        assert residual == pytest.approx(1e-12, rel=1e-3)
        assert bound == pytest.approx(linalg.error_bound(10, kappa=sys.kappa_vac))


class TestFallingFactorial:
    def test_ccr_exact_small_powers(self):
        sys = ccr_system(16)
        for n in range(5):
            for m in range(5):
                assert falling_factorial_identity(sys, n, m) <= 1e-13

    def test_annihilation_branch(self):
        # m > n: a^m b^n phi_0 must vanish
        sys = ccr_system(12)
        assert falling_factorial_identity(sys, 2, 5) <= 1e-13

    def test_similarity_models(self):
        for scale in (2.0 ** np.arange(16), np.arange(16) + 1.0, 1.1 ** np.arange(16)):
            sys = similarity_system(16, scale)
            for n in range(4):
                for m in range(4):
                    assert falling_factorial_identity(sys, n, m) <= 1e-10

    def test_out_of_range(self):
        sys = ccr_system(6)
        with pytest.raises(ValueError):
            falling_factorial_identity(sys, 6, 0)


class TestNumberEigenCheck:
    def test_ccr(self):
        sys = ccr_system(12)
        fams = generate_families(sys, 10)
        assert number_eigen_check(sys, fams, mmax=3) <= 1e-13

    def test_similarity(self):
        sys = similarity_system(16, 1.1 ** np.arange(16), window=12)
        fams = generate_families(sys, 12)
        assert number_eigen_check(sys, fams, mmax=3) <= 1e-10


class TestLadderAgreement:
    def _transported(self, sys):
        phi, _ = generate_families(sys, sys.dim)
        T = build_analysis(SequenceFamily(phi.coeffs))
        return phi, build_ladder(T, side="phi")

    def test_restriction_ccr(self):
        sys = ccr_system(12, window=10)
        phi, ls = self._transported(sys)
        assert restriction_containment(sys, ls, phi, side="phi") <= 1e-12

    def test_restriction_similarity(self):
        sys = similarity_system(16, np.arange(16) + 1.0, window=12)
        phi, ls = self._transported(sys)
        assert restriction_containment(sys, ls, phi, side="phi") <= 1e-9

    def test_restriction_psi_side(self):
        sys = ccr_system(10, window=8)
        _, psi = generate_families(sys, 10)
        T = build_analysis(SequenceFamily(generate_families(sys, 10)[0].coeffs))
        from rieszlab.ladder import dual_ladder

        ls = dual_ladder(T, side="psi")
        assert restriction_containment(sys, ls, psi, side="psi") <= 1e-12

    @pytest.mark.parametrize("delta", [0.0, 1e-6])
    def test_closed_form_is_the_transported_restriction(self, delta):
        # a = S_- + delta E with E's first column zero keeps the vacuum e_0, so
        # phi_n = e_n and a phi_n - sqrt(n) phi_{n-1} = delta E e_n.  Comparing a
        # with the transported A measures the same defect, up to the rounding of
        # the transport.
        n, window = 12, 10
        s_minus, s_plus, _ = shift_matrices(n)
        E = np.random.default_rng(5).standard_normal((n, n))
        E[:, 0] = 0.0
        sys = PseudoBosonSystem.build(s_minus + delta * E, s_plus, window=window)
        phi, ls = self._transported(sys)
        closed = action_defect((sys.a, sys.b), phi, sys.window)
        assert closed == pytest.approx(delta * np.linalg.norm(E[:, :window], axis=0).max(),
                                       rel=1e-12, abs=1e-15)
        assert abs(closed - restriction_containment(sys, ls, phi, side="phi")) \
            <= action_bound(ls.kappa, phi)

    @pytest.mark.parametrize("which, column, seen", [
        ("raising", 7, False), ("raising", 6, True), ("lowering", 7, True)])
    def test_window_below_the_family_size(self, which, column, seen):
        # W = 8 < M = 12 columns: lowering compares n < 8 and raising n < 7,
        # the window rule of ladder.shift_defect.  For ccr, phi_n = e_n, so a
        # defect 1e-3 in one column of A or B shows there alone.
        sys = ccr_system(12, window=8)
        phi, _ = generate_families(sys, 12)
        assert np.array_equal(phi.coeffs, np.eye(12))
        ops = {"lowering": sys.a.copy(), "raising": sys.b.copy()}
        ops[which][0, column] += 1e-3
        ls = LadderSet(**ops, number=sys.b @ sys.a, side="phi", window=8, kappa=1.0)
        assert restriction_containment(sys, ls, phi, side="phi") == (1e-3 if seen else 0.0)

    def test_reconstruction(self):
        # the transported raising operator regenerates phi_n = B^n phi_0 / sqrt(n!)
        sys = similarity_system(12, np.arange(12) + 1.0, window=10)
        phi, ls = self._transported(sys)
        v = phi.coeffs[:, 0]
        for n in range(1, ls.window):
            v = ls.raising @ v / math.sqrt(n)
            assert np.linalg.norm(v - phi.coeffs[:, n]) <= n * action_bound(ls.kappa, phi)


class TestModelIntegration:
    def test_instantiate_system_ccr(self):
        sys = instantiate_system(ModelSpec("ccr", 8))
        assert sys.dim == 8
        assert sys.commutator_defect() <= commutator_bound(sys)

    def test_instantiate_system_similarity_window(self):
        sys = instantiate_system(ModelSpec("similarity", 32, rule="2^k"), window=24)
        assert sys.window == 24
        assert sys.commutator_defect() <= commutator_bound(sys)


class TestConstructionGatesNoResidual:
    """A residual is the statement of a caller to check; constructing checks none."""

    def test_generated_pair_may_fail_its_pairing(self):
        # b tripled in one entry at the truncation edge: phi_6 = 3 e_6, phi_7 = 3 e_7.
        s_minus, s_plus, _ = shift_matrices(8)
        s_plus[6, 5] *= 3
        phi, psi = generate_families(PseudoBosonSystem.build(s_minus, s_plus, window=4), 8)
        assert BiorthogonalPair(phi, psi).pairing_residual == pytest.approx(2.0)

    def test_build_keeps_a_vacuum_whose_residual_the_rank_cut_calls_zero(self):
        # a e_0 = 1e-7 e_0 lies under the rank cut N eps sigma_max(a), so the
        # kernel is one-dimensional; the vacuum line, under the same rule,
        # passes its nonzero residual.
        s_minus, s_plus, _ = shift_matrices(8)
        a = 1e8 * s_minus
        a[0, 0] = 1e-7
        sys = PseudoBosonSystem.build(a, s_plus)
        residual = np.linalg.norm(sys.a @ sys.phi0)
        assert 0.0 < residual <= linalg.error_bound(8, linalg.norm_estimate(a))
