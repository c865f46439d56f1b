import math

import numpy as np
import pytest

from rieszlab import ladder, linalg
from rieszlab.family import SequenceFamily, pad_to_square
from rieszlab.ladder import (
    action_bound,
    action_defect,
    build_ladder,
    dual_ladder,
    intertwining_residual,
    metric_operator,
    shift_defect,
    shift_matrices,
    verify_ladder_actions,
)
from rieszlab.models import paper_example_pair

from conftest import random_complex, random_well_conditioned


class TestShiftMatrices:
    def test_small_case_explicit(self):
        # oracle: entries written out by hand for dim 3
        s_minus, s_plus, n0 = shift_matrices(3)
        assert np.array_equal(s_minus, [[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]])
        assert np.array_equal(s_plus, linalg.adjoint(s_minus))
        assert np.array_equal(n0, np.diag([0.0, 1.0, 2.0]))

    def test_number_factorization(self):
        s_minus, s_plus, n0 = shift_matrices(7)
        assert np.allclose(s_plus @ s_minus, n0, atol=1e-14)

    def test_commutator_away_from_edge(self):
        s_minus, s_plus, _ = shift_matrices(6)
        comm = s_minus @ s_plus - s_plus @ s_minus
        assert np.allclose(comm[:, :5], np.eye(6)[:, :5], atol=1e-14)
        # the top column carries the trace obstruction
        assert comm[5, 5] == pytest.approx(-5.0)

    def test_actions_on_basis(self):
        s_minus, s_plus, _ = shift_matrices(5)
        for n in range(1, 5):
            e_n = linalg.basis_vector(n, 5)
            assert np.allclose(s_minus @ e_n, math.sqrt(n) * linalg.basis_vector(n - 1, 5))
        for n in range(4):
            e_n = linalg.basis_vector(n, 5)
            assert np.allclose(s_plus @ e_n, math.sqrt(n + 1) * linalg.basis_vector(n + 1, 5))


class TestBuildLadder:
    def test_identity_transport_is_standard(self):
        ls = build_ladder(np.eye(5))
        s_minus, s_plus, n0 = shift_matrices(5)
        assert np.allclose(ls.lowering, s_minus, atol=1e-14)
        assert np.allclose(ls.raising, s_plus, atol=1e-14)
        assert np.allclose(ls.number, n0, atol=1e-14)
        assert ls.window == 4
        assert ls.kappa == pytest.approx(1.0)

    def test_identity_family_actions_exact(self):
        ls = build_ladder(np.eye(6))
        assert verify_ladder_actions(ls, SequenceFamily.identity(6)) <= 1e-14

    def test_diagonal_transport_oracle(self):
        # oracle: for T = diag(d) the lowering entry (k, k+1) is
        # sqrt(k+1) d_k / d_{k+1}, computed directly here.
        d = np.array([1.0, 2.0, 4.0, 8.0])
        ls = build_ladder(np.diag(d))
        expected = np.zeros((4, 4), dtype=complex)
        for k in range(3):
            expected[k, k + 1] = math.sqrt(k + 1) * d[k] / d[k + 1]
        assert np.allclose(ls.lowering, expected, atol=1e-13)

    def test_transported_actions_random(self, rng):
        T = random_well_conditioned(rng, 10)
        ls = build_ladder(T)
        fam = SequenceFamily(T.copy())
        assert verify_ladder_actions(ls, fam) <= action_bound(ls.kappa, fam)

    def test_paper_example_actions(self):
        n = 12
        T = pad_to_square(paper_example_pair(n).phi).coeffs
        ls = build_ladder(T)
        fam = SequenceFamily(T.copy())
        assert verify_ladder_actions(ls, fam, window=n - 2) <= action_bound(ls.kappa, fam)

    def test_number_is_raising_times_lowering(self, rng):
        T = random_well_conditioned(rng, 8)
        ls = build_ladder(T)
        bound = action_bound(ls.kappa, SequenceFamily(T))
        assert linalg.max_abs(ls.raising @ ls.lowering - ls.number) <= bound

    def test_window_argument_gates_failures(self):
        # corrupt one high column: a window below it must stay clean
        n = 6
        cols = np.eye(n, dtype=complex)
        cols[:, n - 2] = np.arange(1, n + 1)
        fam = SequenceFamily(cols)
        ls = build_ladder(np.eye(n))
        assert verify_ladder_actions(ls, fam, window=n - 1) > 1.0
        assert verify_ladder_actions(ls, fam, window=n - 2) <= 1e-14


class TestActionDefect:
    """The one kernel of ladder actions: a transported triple, or a pair (a, b)."""

    @pytest.mark.parametrize("window", [9, 8, 3])
    def test_triple_equals_verify_ladder_actions(self, rng, window):
        T = random_well_conditioned(rng, 10)
        ls = build_ladder(T)
        fam = SequenceFamily(T + 1e-3 * random_complex(rng, 10, 10))
        got = action_defect((ls.lowering, ls.raising, ls.number), fam, window)
        assert got == verify_ladder_actions(ls, fam, window=window)
        assert got > 1e-6

    @pytest.mark.parametrize("column, caught", [(3, True), (4, False)])
    def test_pair_reads_the_raising_columns_below_the_window(self, column, caught):
        # On e_0 .. e_7 with window 5, b e_n is compared with sqrt(n+1) e_(n+1)
        # for n < 4: a defect in column 3 of b is caught, one in column 4 is not.
        a, b, _ = shift_matrices(8)
        b[0, column] += 1e-3
        got = action_defect((a, b), SequenceFamily.identity(8), 5)
        assert got == (1e-3 if caught else 0.0)


class TestDualLadder:
    def test_dual_of_identity(self):
        ls = dual_ladder(np.eye(5))
        s_minus, _, _ = shift_matrices(5)
        assert np.allclose(ls.lowering, s_minus, atol=1e-14)
        assert ls.side == "psi"

    def test_dual_family_actions(self, rng):
        T = random_well_conditioned(rng, 9)
        ls = dual_ladder(T)
        dual = SequenceFamily(linalg.adjoint(linalg.solve_inverse(T)))
        assert verify_ladder_actions(ls, dual) <= action_bound(ls.kappa, dual)

    def test_dual_lowering_is_adjoint_of_raising(self, rng):
        # A_psi = (T^-1)* S_- T* = (T S_+ T^-1)* = adjoint(B_phi)
        T = random_well_conditioned(rng, 7)
        phi_ls = build_ladder(T)
        psi_ls = dual_ladder(T)
        tol = action_bound(phi_ls.kappa, SequenceFamily(T))
        assert linalg.max_abs(psi_ls.lowering - linalg.adjoint(phi_ls.raising)) <= tol
        assert linalg.max_abs(psi_ls.raising - linalg.adjoint(phi_ls.lowering)) <= tol


class TestMetricOperator:
    def test_identity_metric(self):
        G = metric_operator(np.eye(4))
        assert np.allclose(G, np.eye(4), atol=1e-14)

    def test_metric_is_positive_self_adjoint(self, rng):
        T = random_well_conditioned(rng, 8)
        G = metric_operator(T)
        assert linalg.max_abs(G - linalg.adjoint(G)) <= 1e-12
        eigs = np.linalg.eigvalsh(G)
        assert eigs.min() > 0
        # extreme eigenvalues of (T^-1)* T^-1 are 1/sigma_max^2 and 1/sigma_min^2
        sigma = linalg.singular_values(T)
        assert eigs.min() == pytest.approx(1.0 / sigma[0] ** 2, rel=1e-8)
        assert eigs.max() == pytest.approx(1.0 / sigma[-1] ** 2, rel=1e-8)

    def test_intertwining_identity_case(self):
        ls = build_ladder(np.eye(5))
        metric = metric_operator(np.eye(5))
        assert intertwining_residual(metric, ls.number) <= 1e-14

    def test_intertwining_random(self, rng):
        for _ in range(5):
            T = random_well_conditioned(rng, 10)
            ls = build_ladder(T)
            metric = metric_operator(T)
            # ||G|| = 1 / sigma_min^2 for G = adjoint(T^-1) T^-1
            scale = linalg.norm_estimate(ls.number) / linalg.singular_values(T)[-1] ** 2
            bound = linalg.error_bound(10, scale, kappa=ls.kappa)
            assert intertwining_residual(metric, ls.number) <= bound

    def test_intertwining_detects_wrong_number_operator(self, rng):
        T = random_well_conditioned(rng, 6, kappa=10.0)
        metric = metric_operator(T)
        wrong = np.diag(np.arange(6, dtype=float)) + 0.5
        assert intertwining_residual(metric, wrong) > 1e-3



class TestShiftDefectBlocks:
    """The shifted family is subtracted from the image one block of columns
    at a time, never formed whole: the products and differences are those
    of the whole formula, so each defect has its bits."""

    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("m", [2, 63, 64, 65, 129])
    def test_bits_of_the_whole_formula(self, rng, m, complex_, which):
        def operator(n):
            M = rng.standard_normal((n, n))
            return M + 1j * rng.standard_normal((n, n)) if complex_ else M
        fam = SequenceFamily(operator(m + 3)[:, 3:])
        op = operator(m + 3)
        for window in (m, m // 2):
            limit = window - 1 if which == 1 else window
            whole = op @ fam.coeffs - ladder._shifted(fam.coeffs, which)
            assert shift_defect(op, which, fam, window) == linalg.max_column_norm(whole[:, :limit])
