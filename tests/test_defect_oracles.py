"""Matrix-form residual checks against brute-force per-column loops.

Each check forms one defect matrix and reduces it with linalg.max_column_norm;
the oracles below walk the columns one at a time, as the identities are
written in the paper, and must agree to rounding.
"""

import math

import numpy as np
import pytest

from rieszlab import family, linalg
from rieszlab.family import SequenceFamily
from rieszlab.ladder import build_ladder, shift_matrices, verify_ladder_actions
from rieszlab.models import instantiate_system, parse_model
from rieszlab.pseudoboson import (
    PseudoBosonSystem,
    generate_families,
    number_eigen_check,
    pairing_check,
)

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
    number = sys_.b @ sys_.a
    for op, fam in ((number, fams[0]), (linalg.adjoint(number), fams[1])):
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


def pairing_oracle(sys_, phi, psi):
    """The worst-ratio entry of the whole pairing matrix against its whole bound matrix."""
    ks = np.arange(phi.size)
    scale = np.outer(np.linalg.norm(psi.coeffs, axis=0), np.linalg.norm(phi.coeffs, axis=0))
    bound = linalg.error_bound(sys_.dim, scale, k=ks[:, None] + ks + 1, kappa=sys_.kappa_vac)
    return linalg.worst_ratio(family.gram_defect(phi, psi), bound)[:2]


def generation_oracle(op, start, count):
    v = start
    cols = [v]
    for n in range(1, count):
        v = op @ v / math.sqrt(n)
        cols.append(v)
    return np.stack(cols, axis=1)


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
        cols = phi.coeffs.astype(np.complex128)
        cols[:, 0] += 1e-3 * random_complex(rng, N)
        fams = (SequenceFamily(cols), psi)
        worst = number_eigen_check(sys_, fams, mmax=1)
        assert worst == pytest.approx(np.linalg.norm(sys_.b @ sys_.a @ cols[:, 0]), rel=1e-9)



class TestPairingOracle:
    # pairing_check bounds one block of linalg.BLOCK rows at a time; it must
    # give the entry the whole bound matrix gives, to the bit.
    W = 2 * linalg.BLOCK + 3

    @pytest.mark.parametrize("count", [W, linalg.BLOCK, 5])
    def test_matches_the_whole_matrix(self, rng, count):
        sys_ = instantiate_system(parse_model("similarity:1.01^k", self.W + 1))
        phi, psi = generate_families(sys_, count)
        fams = (_perturbed(phi, rng, count), _perturbed(psi, rng, count))
        assert pairing_check(sys_, *fams) == pairing_oracle(sys_, *fams)

    @pytest.mark.parametrize("later, first_wins", [(2.0, True), (2.5, False)])
    def test_first_of_equal_ratios_wins(self, later, first_wins):
        # psi = I + E with E = d at (98, 1) (k = 100) and later * d at
        # (99, 100) (k = 200, a later row block): 2 d against a bound twice as
        # large is an equal ratio, and the first entry in row-major order wins.
        sys_ = instantiate_system(parse_model("ccr", self.W + 1))
        phi = SequenceFamily(np.eye(self.W + 1)[:, :self.W])
        cols = phi.coeffs.copy()
        cols[98, 1], cols[99, 100] = 1e-10, later * 1e-10
        residual, bound = pairing_check(sys_, phi, SequenceFamily(cols))
        assert (residual, bound) == pairing_oracle(sys_, phi, SequenceFamily(cols))
        assert residual == (1e-10 if first_wins else later * 1e-10)


class TestGenerationOracle:
    # phi_n = b^n phi_0 / sqrt(n!) and psi_n = adjoint(a)^n psi_0 / sqrt(n!),
    # psi_0 scaled so that (phi_0 | psi_0) = 1
    @pytest.mark.parametrize("count", [N, 4, 1])
    def test_matches_column_loop(self, count):
        sys_ = _system()
        phi, psi = generate_families(sys_, count)
        psi0 = sys_.psi0 / np.conj(linalg.inner(sys_.phi0, sys_.psi0))
        for fam, op, start in ((phi, sys_.b, sys_.phi0), (psi, linalg.adjoint(sys_.a), psi0)):
            expected = generation_oracle(op, start, count)
            assert fam.coeffs.shape == (N, count)
            assert linalg.max_column_norm(fam.coeffs - expected) <= 1e-12 * linalg.max_column_norm(expected)

    def test_shorter_psi_is_the_leading_columns(self):
        sys_ = _system()
        phi, psi = generate_families(sys_, N)
        phi_w, psi_w = generate_families(sys_, N, psi_count=4)
        assert np.array_equal(phi_w.coeffs, phi.coeffs)
        assert np.array_equal(psi_w.coeffs, psi.coeffs[:, :4])

    def test_one_column_is_the_vacuum(self):
        sys_ = _system()
        phi, psi = generate_families(sys_, 1)
        assert np.array_equal(phi.coeffs[:, 0], sys_.phi0)
        assert linalg.inner(phi.coeffs[:, 0], psi.coeffs[:, 0]) == pytest.approx(1.0, abs=1e-15)
