"""Matrix-form residual checks against brute-force per-column loops.

Each check forms one defect matrix and reduces it with linalg.max_column_norm;
the oracles below walk the columns one at a time, as the identities are
written in the paper, and must agree to rounding.
"""

import math

import numpy as np
import pytest

from rieszlab import linalg
from rieszlab.errors import DimensionMismatchError
from rieszlab.family import SequenceFamily
from rieszlab.ladder import build_ladder, shift_matrices, verify_ladder_actions
from rieszlab.models import instantiate_system, parse_model
from rieszlab.pseudoboson import (
    PseudoBosonSystem,
    generate_families,
    number_eigen_check,
    reconstruction_residual,
)
from rieszlab.riesz import check_constructing

from conftest import random_complex, random_well_conditioned

N = 9


def ladder_actions_oracle(ls, fam, window):
    cols = fam.coeffs
    m = cols.shape[1]
    w = ls.window if window is None else window
    worst = 0.0
    for n in range(max(0, min(w, m))):
        target = math.sqrt(n) * cols[:, n - 1] if n > 0 else np.zeros(fam.dim)
        worst = max(worst, np.linalg.norm(ls.lowering @ cols[:, n] - target))
        worst = max(worst, np.linalg.norm(ls.number @ cols[:, n] - n * cols[:, n]))
    for n in range(max(0, min(w - 1, m - 1))):
        target = math.sqrt(n + 1) * cols[:, n + 1]
        worst = max(worst, np.linalg.norm(ls.raising @ cols[:, n] - target))
    return worst


def number_eigen_oracle(sys_, fams, mmax):
    worst = 0.0
    for op, fam in ((sys_.number_op, fams[0]), (sys_.number_dag, fams[1])):
        for n in range(min(sys_.window, fam.size)):
            v = fam.coeffs[:, n]
            for m in range(1, mmax + 1):
                v = op @ v
                if n == 0:
                    worst = max(worst, np.linalg.norm(v))
                else:
                    target = n ** m * fam.coeffs[:, n]
                    worst = max(worst, np.linalg.norm(v - target) / np.linalg.norm(target))
    return worst


def reconstruction_oracle(ls, fam):
    v = fam.coeffs[:, 0]
    worst = 0.0
    for n in range(1, min(ls.window, fam.size)):
        v = ls.raising @ v / math.sqrt(n)
        worst = max(worst, np.linalg.norm(v - fam.coeffs[:, n]))
    return worst


class TestMaxColumnNorm:
    def test_largest_column(self):
        M = np.array([[3.0, 0.0, 1.0], [4.0, 2.0, 1.0]])
        assert linalg.max_column_norm(M) == 5.0

    def test_complex_columns(self, rng):
        M = random_complex(rng, 7, 4)
        expected = max(np.linalg.norm(M[:, k]) for k in range(4))
        assert linalg.max_column_norm(M) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("shape", [(5, 0), (0, 3), (0, 0)])
    def test_empty_is_zero(self, shape):
        assert linalg.max_column_norm(np.zeros(shape, dtype=complex)) == 0.0


class TestLadderActionsOracle:
    @pytest.mark.parametrize("m", [N, 3, 1])
    @pytest.mark.parametrize("window", [None, N - 1, N - 2, 1, 0])
    def test_matches_column_loop(self, rng, m, window):
        # a perturbed family, so that every defect column is nonzero
        T = random_well_conditioned(rng, N)
        ls = build_ladder(T)
        fam = SequenceFamily(T[:, :m] + 1e-3 * random_complex(rng, N, m))
        expected = ladder_actions_oracle(ls, fam, window)
        got = verify_ladder_actions(ls, fam, window=window)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
        if window == 0:
            assert got == 0.0
        else:
            assert got > 1e-6

    def test_exact_family_is_clean_on_every_shape(self):
        s_minus, _, _ = shift_matrices(N)
        ls = build_ladder(np.eye(N))
        assert np.array_equal(ls.lowering, s_minus)
        for m in (N, 3, 1):
            fam = SequenceFamily(np.eye(N)[:, :m])
            assert verify_ladder_actions(ls, fam) == 0.0


def _system(rule: str = "1.1^k", window: int | None = None) -> PseudoBosonSystem:
    return instantiate_system(parse_model(f"similarity:{rule}", N), window=window)


def _perturbed(fam: SequenceFamily, rng, count: int) -> SequenceFamily:
    cols = fam.coeffs[:, :count]
    return SequenceFamily(cols + 1e-4 * random_complex(rng, *cols.shape))


class TestNumberEigenOracle:
    @pytest.mark.parametrize("window,count", [(4, 7), (N - 1, N - 1), (N - 1, 1), (3, 1)])
    def test_matches_column_loop(self, rng, window, count):
        sys_ = _system(window=window)
        phi, psi = generate_families(sys_, N)
        fams = (_perturbed(phi, rng, count), _perturbed(psi, rng, count))
        expected = number_eigen_oracle(sys_, fams, 3)
        assert number_eigen_check(sys_, fams, mmax=3) == pytest.approx(
            expected, rel=1e-12, abs=0.0)
        assert expected > 1e-6

    def test_column_zero_is_absolute(self, rng):
        # only phi_0 is off; its residual is ||N phi_0||, not a ratio
        sys_ = _system(window=5)
        phi, psi = generate_families(sys_, N)
        cols = phi.coeffs.copy()
        cols[:, 0] += 1e-3 * random_complex(rng, N)
        fams = (SequenceFamily(cols), psi)
        worst = number_eigen_check(sys_, fams, mmax=1)
        assert worst == pytest.approx(np.linalg.norm(sys_.number_op @ cols[:, 0]), rel=1e-9)


class TestReconstructionOracle:
    @pytest.mark.parametrize("count", [N, 4, 1])
    def test_matches_column_loop(self, rng, count):
        sys_ = _system()
        phi, _ = generate_families(sys_, N)
        ls = build_ladder(phi.coeffs)
        fam = _perturbed(phi, rng, count)
        expected = reconstruction_oracle(ls, fam)
        assert reconstruction_residual(ls, fam) == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert (expected > 1e-6) == (count > 1)

    def test_one_column_is_zero(self):
        ls = build_ladder(np.eye(N))
        assert reconstruction_residual(ls, SequenceFamily(np.eye(N)[:, :1])) == 0.0


class TestCheckConstructingOracle:
    def test_offset_family_columns(self, rng):
        T = random_well_conditioned(rng, 6)
        fam = SequenceFamily(T[:, 2:].copy(), index_offset=2)
        assert check_constructing(T, fam)
        bad = T[:, 2:].copy()
        bad[:, 3] += 1e-6
        assert not check_constructing(T, SequenceFamily(bad, index_offset=2))

    def test_offset_past_dimension_raises(self, rng):
        T = random_well_conditioned(rng, 6)
        fam = SequenceFamily(T[:, 1:].copy(), index_offset=2)
        with pytest.raises(DimensionMismatchError):
            check_constructing(T, fam)
