import json
import warnings

import numpy as np
import pytest

from rieszlab import family, linalg
from rieszlab.cli import EXIT_OK, main
from rieszlab.errors import (
    DimensionMismatchError,
    NotBiorthogonalError,
    TruncationShapeError,
)
from rieszlab.family import (
    BiorthogonalPair,
    SequenceFamily,
    gram_defect,
    build_analysis,
    build_coanalysis,
    check_pairing,
    domain_partial_sum,
    embed_pair,
    pad_to_square,
    pairing_bound,
    verify_left_inverse,
    worst_pairing,
)
from rieszlab.io import load_family, save_matrix
from rieszlab.models import paper_example_pair

from conftest import random_complex, random_well_conditioned


def random_family(rng, n):
    return SequenceFamily(random_well_conditioned(rng, n))


def embedded(pair):
    """The square embedding of pair, through a Factorization of its padded phi."""
    return embed_pair(pair, linalg.Factorization(build_analysis(pad_to_square(pair.phi))))


class TestTypes:
    def test_family_rejects_zero_column(self):
        cols = np.eye(4)
        cols[:, 2] = 0.0
        with pytest.raises(ValueError):
            SequenceFamily(cols)

    @pytest.mark.parametrize("scale", [1e-170, 1e200])
    def test_family_takes_columns_whose_squares_leave_float64(self, scale):
        # a norm test would square 1e-170 to 0 and call the column zero,
        # and warn about overflow at 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fam = SequenceFamily(scale * np.eye(4))
        assert np.array_equal(fam.coeffs, scale * np.eye(4))

    def test_family_rejects_too_many_columns(self):
        with pytest.raises(TruncationShapeError):
            SequenceFamily(np.ones((3, 4)))

    def test_family_is_immutable(self):
        fam = SequenceFamily.identity(3)
        with pytest.raises(ValueError):
            fam.coeffs[0, 0] = 2.0


class TestBuildAnalysis:
    def test_identity_family(self):
        assert np.array_equal(build_analysis(SequenceFamily.identity(4)), np.eye(4))

    def test_paper_example_padded(self):
        pair = paper_example_pair(4)
        T = build_analysis(pad_to_square(pair.phi))
        expected = np.eye(4, dtype=complex)
        expected[0, 1:] = 1.0
        assert np.array_equal(T, expected)

    def test_onb_columns_give_identity(self, rng):
        # oracle: accumulate the rank-one terms phi_k (x) conj(e_k) directly;
        # an orthonormal family gives a unitary analysis operator.
        n = 6
        u, _ = np.linalg.qr(random_complex(rng, n, n))
        T = build_analysis(SequenceFamily(u.copy()))
        oracle = sum(np.outer(u[:, k], linalg.basis_vector(k, n)) for k in range(n))
        assert np.allclose(T, oracle, atol=1e-14)
        assert np.allclose(linalg.adjoint(T) @ T, np.eye(n), atol=1e-14)

    def test_action_maps_basis_to_family(self, rng):
        n = 8
        fam = random_family(rng, n)
        T = build_analysis(fam)
        for k in range(n):
            assert np.array_equal(T @ linalg.basis_vector(k, n), fam.coeffs[:, k])

    def test_rectangular_rejected(self):
        fam = SequenceFamily(np.eye(4)[:, :3])
        with pytest.raises(TruncationShapeError):
            build_analysis(fam)


class TestBuildCoanalysis:
    def test_identity_family(self):
        assert np.array_equal(build_coanalysis(SequenceFamily.identity(4)), np.eye(4))

    def test_paper_example_is_conjugate_transpose(self):
        pair = paper_example_pair(4)
        phi = pad_to_square(pair.phi)
        assert np.array_equal(build_coanalysis(phi), build_analysis(phi).conj().T)

    def test_equals_adjoint_of_analysis(self, rng):
        # oracle: accumulate the rank-one terms e_k (x) conj(phi_k) directly
        n = 7
        fam = random_family(rng, n)
        K = build_coanalysis(fam)
        oracle = sum(np.outer(linalg.basis_vector(k, n), fam.coeffs[:, k].conj())
                     for k in range(n))
        assert np.allclose(K, oracle, atol=1e-13)
        # the identity is exact entrywise
        assert np.array_equal(K, linalg.adjoint(build_analysis(fam)))


class TestCheckPairing:
    def test_identity(self):
        fam = SequenceFamily.identity(5)
        assert check_pairing(fam, fam).pairing_residual == 0.0

    def test_paper_example(self):
        pair = paper_example_pair(6)
        assert pair.pairing_residual == 0.0

    def test_scaled_identity_fails_at_origin(self):
        phi = SequenceFamily.identity(4)
        psi = SequenceFamily(2.0 * np.eye(4))
        with pytest.raises(NotBiorthogonalError) as exc:
            check_pairing(phi, psi)
        assert (exc.value.n, exc.value.m) == (0, 0)
        assert exc.value.value == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            check_pairing(SequenceFamily.identity(4), SequenceFamily.identity(5))


class TestPairingResidual:
    def test_hand_built_pair_reports_its_columns(self):
        # No constructor argument: a pair cannot claim a better pairing than
        # its columns have.
        pair = BiorthogonalPair(SequenceFamily.identity(4), SequenceFamily(2.0 * np.eye(4)))
        assert pair.pairing_residual == 1.0

    def test_incompatible_families_are_refused(self):
        with pytest.raises(DimensionMismatchError):
            BiorthogonalPair(SequenceFamily.identity(4), SequenceFamily(np.eye(4)[:, :3]))

    def test_computed_once_and_only_a_float_is_kept(self, rng):
        phi_mat = random_well_conditioned(rng, 6)
        pair = check_pairing(SequenceFamily(phi_mat),
                             SequenceFamily(linalg.adjoint(linalg.solve_inverse(phi_mat))))
        residual = pair.pairing_residual
        assert isinstance(residual, float)
        assert pair.pairing_residual is residual
        kept = [v for v in vars(pair).values() if isinstance(v, np.ndarray)]
        assert kept == []



class TestGramDefectRows:
    """gram_defect(phi, psi, rows) forms the defect for the psi columns in
    rows alone; the pairing residual and check_pairing's worst entry take
    it one block of linalg.blocks rows at a time.  The families hold small
    integers, so every product is exact and the comparisons with the whole
    defect do not depend on how BLAS orders its sums."""

    @staticmethod
    def _integer_pair(n, m, seed=4):
        rng = np.random.default_rng(seed)
        phi, psi = rng.integers(-3, 4, (2, n, m)).astype(float)
        phi[np.arange(m), np.arange(m)] = 5.0  # no zero column
        return SequenceFamily(phi), SequenceFamily(psi + np.eye(n, m))

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("n_extra", [0, 3])
    def test_rows_are_the_rows_of_the_whole_defect(self, m, n_extra):
        phi, psi = self._integer_pair(m + n_extra, m)
        whole = gram_defect(phi, psi)
        explicit = np.abs(psi.coeffs.T @ phi.coeffs - np.eye(m))
        assert np.array_equal(whole, explicit)
        # Blocks that start off the diagonal of the whole defect, an empty one
        # and one that runs past the last column.
        for rows in [*linalg.blocks(m, linalg.BLOCK), slice(m // 3, m // 2 + 1), slice(m - 1, m),
                     slice(m // 2, m // 2), slice(m // 2, m + 5)]:
            assert np.array_equal(gram_defect(phi, psi, rows), whole[rows]), rows
        assert BiorthogonalPair(phi, psi).pairing_residual == float(whole.max())

    @pytest.mark.parametrize("later, named", [(4.0, (7, 70)), (5.0, (3, 100))])
    def test_worst_entry_across_blocks(self, later, named):
        # Entries 4 at (n, m) = (7, 70) and `later` at (3, 100), in different
        # row blocks of the defect: of equal worst entries the first in
        # row-major order (m, n) is named, as np.argmax over the whole defect
        # picks it, and a larger one in a later block wins.
        psi = np.eye(130)
        psi[7, 70], psi[3, 100] = 4.0, later
        phi, psi = SequenceFamily.identity(130), SequenceFamily(psi)
        with pytest.raises(NotBiorthogonalError) as exc:
            check_pairing(phi, psi)
        m, n = np.unravel_index(np.argmax(gram_defect(phi, psi)), (130, 130))
        assert (exc.value.n, exc.value.m) == (n, m) == named
        assert exc.value.value == later

    def test_family_without_columns(self):
        empty = SequenceFamily(np.zeros((4, 0)))
        assert gram_defect(empty, empty).shape == (0, 0)
        assert BiorthogonalPair(empty, empty).pairing_residual == 0.0
        assert worst_pairing(empty, empty) == (0.0, 1.0, 0, 0)


class TestWorstPairing:
    """worst_pairing names the entry np.argmax picks over the whole ratio
    matrix, though it forms the defect and asks for the bounds one row block
    at a time: of equal ratios the first in row-major order (m, n), and a NaN
    ratio before any number.  The families hold small integers, so every
    defect is exact."""

    M = 2 * linalg.BLOCK + 3

    @staticmethod
    def _oracle(phi, psi, bounds):
        defect, bound, i = linalg.worst_ratio(gram_defect(phi, psi), bounds)
        m, n = divmod(i, phi.size)
        return defect, bound, n, m

    @pytest.mark.parametrize("nans", [(), ((100, 3),), ((10, 5),), ((10, 5), (100, 3)),
                                      ((130, 0), (70, 9))])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_whole_matrix(self, nans, seed):
        rng = np.random.default_rng(seed)
        phi, psi = TestGramDefectRows._integer_pair(self.M, self.M, seed)
        # Bounds of two values make equal ratios in every row block.
        bounds = rng.choice([1.0, 2.0], (self.M, self.M))
        for m, n in nans:
            bounds[m, n] = np.nan
        got = worst_pairing(phi, psi, lambda rows: bounds[rows])
        np.testing.assert_equal(got, self._oracle(phi, psi, bounds))  # NaN equals NaN
        if nans:
            assert np.isnan(got[0] / got[1]) and got[2:] == min(nans)[::-1]


class TestNonFinitePairing:
    """A pairing whose Gram overflows (inf) or is undefined (NaN) never holds,
    even against a bound that overflows with it."""

    def test_inf(self):
        # phi = psi = 1e200 I: the Gram's diagonal and its bound overflow alike.
        fam = SequenceFamily(1e200 * np.eye(8))
        with np.errstate(all="ignore"), pytest.raises(NotBiorthogonalError) as exc:
            check_pairing(fam, fam)
        assert exc.value.value == exc.value.tolerance == np.inf
        assert (exc.value.n, exc.value.m) == (0, 0)

    def test_nan(self, monkeypatch):
        # An overflowing Gram product holds inf - inf where BLAS rounds the
        # partial products first (an FMA kernel keeps inf): a defect with a
        # NaN entry, after a larger finite one, names the NaN.
        defect = np.zeros((8, 8))
        defect[1, 2], defect[3, 4] = 5.0, np.nan
        monkeypatch.setattr(family, "gram_defect", lambda phi, psi, rows: defect[rows].copy())
        fam = SequenceFamily.identity(8)
        with pytest.raises(NotBiorthogonalError) as exc:
            check_pairing(fam, fam)
        assert np.isnan(exc.value.value)
        assert (exc.value.n, exc.value.m) == (4, 3)


class TestVerifyLeftInverse:
    def test_identity_pair(self):
        fam = SequenceFamily.identity(6)
        pair = check_pairing(fam, fam)
        assert verify_left_inverse(pair) == 0.0

    def test_paper_example(self):
        assert verify_left_inverse(paper_example_pair(8)) <= 1e-13

    def test_random_regular_pair(self, rng):
        # oracle: construct psi from the inverse of phi and multiply back
        n = 10
        phi_mat = random_well_conditioned(rng, n)
        phi = SequenceFamily(phi_mat)
        psi = SequenceFamily(linalg.adjoint(linalg.solve_inverse(phi_mat)))
        pair = check_pairing(phi, psi)
        assert verify_left_inverse(pair) <= 1e-10

    def test_square_embedding_keeps_duality(self):
        pair = embedded(paper_example_pair(8))
        assert pair.phi.is_square() and pair.psi.is_square()
        gram = pair.psi.coeffs.conj().T @ pair.phi.coeffs
        assert linalg.max_abs(gram - np.eye(8)) <= 1e-13


def _random_pair(seed, n, real, offset=0):
    """(phi, psi) with psi = adjoint(phi^-1): a real or complex biorthogonal pair.

    With an offset d, column k < d of the square matrix is e_k and the pair
    keeps columns d..N-1 only, indexed from d.
    """
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, n)) if real else random_complex(rng, n, n)
    mat[:, :offset] = np.eye(n, offset)
    return (SequenceFamily(mat[:, offset:]),
            SequenceFamily(np.linalg.inv(mat).conj().T[:, offset:]))


class TestNoCopy:
    """The analysis operator is the family's array; defects subtract I in place."""

    def test_build_analysis_returns_the_family_array(self, rng):
        fam = random_family(rng, 6)
        T = build_analysis(fam)
        assert T is fam.coeffs
        assert not T.flags.writeable

    def test_factorization_keeps_the_family_array(self, rng):
        fam = random_family(rng, 6)
        assert linalg.Factorization(build_analysis(fam)).T is fam.coeffs

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("n", [7, 64, 100])
    def test_defects_equal_the_explicit_difference(self, real, n):
        # Bit for bit: the 1s subtracted in place give the entries of
        # K T - np.eye(N), for K the psi side's conjugate transpose.  A
        # square pair's left-inverse residual is its pairing residual.
        phi, psi = _random_pair(n, n, real)
        explicit = np.abs(psi.coeffs.conj().T @ phi.coeffs - np.eye(n))
        assert np.array_equal(gram_defect(phi, psi), explicit)
        K = build_coanalysis(psi)
        pair = BiorthogonalPair(phi, psi)
        assert verify_left_inverse(pair) == pair.pairing_residual == \
            linalg.max_abs(K @ build_analysis(phi) - np.eye(n))

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("offset", [1, 2])
    @pytest.mark.parametrize("n", [7, 64, 100])
    def test_padded_left_inverse_equals_the_explicit_difference(self, real, offset, n):
        # Bit for bit: the embedded pair's residual, read from its Gram product
        # on the conjugate-transposed view, is that of the C-ordered coanalysis.
        phi, psi = _random_pair(10 * n + offset, n, real, offset)
        pair = BiorthogonalPair(phi, psi)
        sq = embedded(pair)
        explicit = build_coanalysis(sq.psi) @ sq.phi.coeffs - np.eye(n)
        assert verify_left_inverse(pair) == verify_left_inverse(sq) == linalg.max_abs(explicit)

    @pytest.mark.parametrize("real", [True, False])
    def test_inverse_equals_a_solve_against_the_float_identity(self, real):
        phi, _ = _random_pair(5, 64, real)
        inv = linalg.Factorization(phi.coeffs).inverse
        assert inv.dtype == phi.coeffs.dtype
        assert np.array_equal(inv, np.linalg.solve(phi.coeffs, np.eye(64)))


class TestComplexOffsetPair:
    """A dense complex pair at offset 1 or 2, read from files.

    The filled psi columns are conjugated columns of T^-1.  A real pair, or a
    residual compared with one from the same embedding, cannot tell a dropped
    conjugate; the bound of the embedded pair can.
    """

    @staticmethod
    def _files(tmp_path, offset):
        phi, psi = _random_pair(offset, 16, False, offset)
        paths = [tmp_path / "phi.csv", tmp_path / "psi.csv"]
        for path, fam in zip(paths, (phi, psi)):
            save_matrix(fam.coeffs, path)
            meta = {"N": 16, "M": 16 - offset, "index_offset": offset}
            path.with_name(path.name + ".meta.json").write_text(json.dumps(meta))
        return paths

    @pytest.mark.parametrize("offset", [1, 2])
    def test_left_inverse_within_the_bound_of_the_embedded_pair(self, tmp_path, offset):
        pair = check_pairing(*map(load_family, self._files(tmp_path, offset)))
        assert pair.phi.coeffs.dtype == np.complex128
        sq = embedded(pair)
        assert verify_left_inverse(pair) <= pairing_bound(sq.phi, sq.psi)

    @pytest.mark.parametrize("offset", [1, 2])
    def test_analyze_passes_the_left_inverse_line(self, tmp_path, capsys, offset):
        model = "file:" + ",".join(map(str, self._files(tmp_path, offset)))
        assert main(["analyze", "--model", model]) == EXIT_OK
        assert "PASS  left-inverse identity:" in capsys.readouterr().out


class TestDomainPartialSum:
    def test_basis_vector_identity_family(self):
        fam = SequenceFamily.identity(4)
        assert domain_partial_sum(fam, linalg.basis_vector(1, 4)) == 1.0

    def test_paper_example_probe_e0(self):
        n = 8
        pair = paper_example_pair(n)
        # oracle: direct summation of |(e_0 | phi_k)|^2 term by term
        e0 = linalg.basis_vector(0, n)
        oracle = sum(
            abs(linalg.inner(e0, pair.phi.coeffs[:, k])) ** 2
            for k in range(pair.phi.size)
        )
        assert oracle == n - 1
        assert domain_partial_sum(pair.phi, e0) == n - 1

    def test_paper_example_probe_e2(self):
        pair = paper_example_pair(6)
        assert domain_partial_sum(pair.phi, linalg.basis_vector(2, 6)) == pytest.approx(1.0)

    def test_monotone_in_column_count(self, rng):
        n = 9
        mat = random_complex(rng, n, n)
        x = random_complex(rng, n)
        values = [
            domain_partial_sum(SequenceFamily(mat[:, :m]), x) for m in range(1, n + 1)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
