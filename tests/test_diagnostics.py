import math

import numpy as np
import pytest

from rieszlab import diagnostics, linalg
from rieszlab.diagnostics import (
    ProbeSpec,
    quasi_basis_residual,
    run_sweep,
    span_distance,
    span_distances,
)
from rieszlab.errors import DimensionMismatchError, SingularOperatorError, SweepError
from rieszlab.family import BiorthogonalPair, SequenceFamily, check_pairing, domain_partial_sum
from rieszlab.models import ModelSpec, pair_factory, paper_example_pair

from conftest import random_complex, random_well_conditioned


class TestProbeSpec:
    def test_parse_basis(self):
        p = ProbeSpec.parse("e_3")
        assert p.name == "e_3"
        assert np.array_equal(p.instantiate(6), linalg.basis_vector(3, 6))

    def test_parse_geom(self):
        p = ProbeSpec.parse("geom:0.5")
        v = p.instantiate(4)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert v[1] / v[0] == pytest.approx(0.5)

    def test_parse_random_is_seed_deterministic(self):
        p = ProbeSpec.parse("random:7")
        assert np.array_equal(p.instantiate(8), p.instantiate(8))

    def test_integer_parameters_stay_exact(self):
        # 2**53 + 1 has no float64: a float parameter would name and draw 2**53.
        seed = 9007199254740993
        p = ProbeSpec.parse(f"random:{seed}")
        assert p.name == f"random:{seed}"
        assert ProbeSpec.parse(p.name) == p
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.array_equal(p.instantiate(6), v / np.linalg.norm(v))
        assert ProbeSpec.parse(f"e_{seed}").name == f"e_{seed}"

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            ProbeSpec.parse("geom:1.5")
        with pytest.raises(ValueError):
            ProbeSpec.parse("fourier:3")


class TestSpanDistance:
    def test_inside_span(self):
        fam = SequenceFamily.identity(4)
        assert span_distance(fam, linalg.basis_vector(2, 4)) <= 1e-14

    def test_orthogonal_complement(self):
        fam = SequenceFamily(np.eye(4)[:, :2])
        assert span_distance(fam, linalg.basis_vector(3, 4)) == pytest.approx(1.0)

    def test_paper_example_phi_closed_form(self):
        # complement of span{e_n + e_0} is spanned by (1, -1, ..., -1)/sqrt(N),
        # so dist(e_0, span) = 1/sqrt(N)
        for n in (4, 16, 64):
            pair = paper_example_pair(n)
            e0 = linalg.basis_vector(0, n)
            assert span_distance(pair.phi, e0) == pytest.approx(1.0 / math.sqrt(n), abs=1e-12)

    def test_paper_example_psi_closed_form(self):
        pair = paper_example_pair(8)
        assert span_distance(pair.psi, linalg.basis_vector(0, 8)) == pytest.approx(1.0, abs=1e-14)

    def test_many_vectors_match_one_at_a_time(self, rng):
        fam = SequenceFamily(random_well_conditioned(rng, 6)[:, :4])
        xs = [random_complex(rng, 6) for _ in range(3)]
        assert span_distances(fam, xs) == [span_distance(fam, x) for x in xs]

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            span_distances(SequenceFamily.identity(4), [linalg.basis_vector(0, 4), np.ones(5)])


class TestSpanDistancesOracle:
    """span_distances against the least-squares residual ||x - A lstsq(A, x)||."""

    N = 16

    @pytest.mark.parametrize("complex_family", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("gap", [0, 1, 2, N // 2, N], ids=lambda g: f"N-M={g}")
    def test_matches_lstsq_residual(self, rng, complex_family, gap):
        n, m = self.N, self.N - gap
        block = random_complex(rng, n, m) if complex_family else rng.standard_normal((n, m))
        fam = SequenceFamily(block)
        # An empty block has no nonzero imaginary part, so it narrows to float64.
        assert np.iscomplexobj(fam.coeffs) == (complex_family and m > 0)
        # A real and a complex probe on either family: each dtype pairing occurs.
        xs = [rng.standard_normal(n), random_complex(rng, n)]
        xs = [x / np.linalg.norm(x) for x in xs]
        for x, dist in zip(xs, span_distances(fam, xs)):
            if m:
                coef = np.linalg.lstsq(block, x, rcond=None)[0]
                oracle = np.linalg.norm(x - block @ coef)
            else:
                oracle = np.linalg.norm(x)
            assert abs(dist - oracle) <= 1e-13

    @pytest.mark.parametrize("complex_family", [False, True], ids=["real", "complex"])
    def test_square_family_is_exactly_zero_without_a_qr(self, rng, monkeypatch,
                                                        complex_family):
        def no_qr(*args, **kwargs):
            raise AssertionError("a square family was factored")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        n = self.N
        block = random_complex(rng, n, n) if complex_family else rng.standard_normal((n, n))
        xs = [rng.standard_normal(n), random_complex(rng, n)]
        assert span_distances(SequenceFamily(block), xs) == [0.0, 0.0]


class TestQuasiBasisResidual:
    def test_identity_pair_exact(self, rng):
        fam = SequenceFamily.identity(6)
        pair = check_pairing(fam, fam)
        f = random_complex(rng, 6)
        g = random_complex(rng, 6)
        assert quasi_basis_residual(pair, f, g) <= 1e-12 * np.linalg.norm(f) * np.linalg.norm(g)

    def test_telescoping_oracle(self, rng):
        # oracle: accumulate sum_k (f|psi_k)(phi_k|g) term by term
        n = 8
        phi_mat = random_well_conditioned(rng, n)
        psi_mat = linalg.adjoint(linalg.solve_inverse(phi_mat))
        pair = check_pairing(SequenceFamily(phi_mat), SequenceFamily(psi_mat))
        f = random_complex(rng, n)
        g = random_complex(rng, n)
        s = sum(
            linalg.inner(f, psi_mat[:, k]) * linalg.inner(phi_mat[:, k], g)
            for k in range(n)
        )
        assert abs(s - linalg.inner(f, g)) <= 1e-10
        assert quasi_basis_residual(pair, f, g) <= n * 1e-12 * np.linalg.norm(f) * np.linalg.norm(g)

    def test_paper_example_defect_is_one(self):
        # e_0 lies outside both family spans: both sums vanish while (e_0|e_0) = 1
        pair = paper_example_pair(8)
        e0 = linalg.basis_vector(0, 8)
        assert quasi_basis_residual(pair, e0, e0) == pytest.approx(1.0, abs=1e-14)


class TestPairingDefect:
    def test_identity(self):
        fam = SequenceFamily.identity(5)
        assert BiorthogonalPair(fam, fam).pairing_residual == 0.0

    def test_detects_scaling(self):
        phi = SequenceFamily.identity(4)
        psi = SequenceFamily(2.0 * np.eye(4))
        assert BiorthogonalPair(phi, psi).pairing_residual == pytest.approx(1.0)


class TestRunSweep:
    def test_needs_two_dims(self):
        with pytest.raises(SweepError):
            run_sweep(pair_factory(ModelSpec("identity", 8)), [8], ["e_0"])

    def test_identity_classifies_regular(self):
        report = run_sweep(pair_factory(ModelSpec("identity", 8)),
                           [8, 16, 32, 64], ["e_0", "random:3"])
        assert report.classification == "regular"
        assert report.riesz_class == "riesz"
        assert report.flags["span_dense_phi"] and report.flags["span_dense_psi"]

    def test_paper_example_classifies_semi_regular_phi(self):
        report = run_sweep(pair_factory(ModelSpec("paper_example", 8)),
                           [8, 16, 32, 64, 128], ["e_0"])
        assert report.classification == "semi-regular-phi"
        assert report.flags["span_dense_phi"] is True
        assert report.flags["span_dense_psi"] is False
        # fitted decay of dist(e_0, span phi) matches the 1/sqrt(N) closed form
        slope = report.fit_exponents[("span_dist_phi", "e_0")]
        assert slope == pytest.approx(-0.5, abs=0.01)

    def test_unbounded_diagonal_classified_not_riesz(self):
        report = run_sweep(pair_factory(ModelSpec("diagonal", 8, rule="k+1")),
                           [8, 16, 32, 64], ["random:1"])
        assert report.flags["op_norm_bounded"] is False
        assert report.riesz_class in ("semi-riesz", "neither")

    def test_csv_is_deterministic(self):
        spec = ModelSpec("random_regular", 8, seed=11)
        a = run_sweep(pair_factory(spec), [8, 16, 32], ["e_0", "random:5"]).to_csv()
        b = run_sweep(pair_factory(spec), [8, 16, 32], ["e_0", "random:5"]).to_csv()
        assert a == b

    def test_csv_round_trips_float64(self):
        report = run_sweep(pair_factory(ModelSpec("paper_example", 8)),
                           [8, 16], ["e_0"])
        text = report.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "dim,metric,probe,value"
        for (dim, metric, probe, value), line in zip(report.csv_rows(), lines[1:]):
            cells = line.split(",")
            assert float(cells[-1]) == value  # 17 digits is bit-exact

    def test_verdict_text_mentions_classification(self):
        report = run_sweep(pair_factory(ModelSpec("identity", 8)), [8, 16, 32], ["e_0"])
        text = report.verdict_text()
        assert "classification: regular" in text
        assert "riesz class: riesz" in text

    def test_density_thresholds_decide_the_flag(self, monkeypatch):
        # an absurdly strict density slope makes even the identity fail
        monkeypatch.setattr(diagnostics, "DENSITY_SLOPE", -10.0)
        monkeypatch.setattr(diagnostics, "DENSITY_FLOOR", 0.0)
        report = run_sweep(pair_factory(ModelSpec("paper_example", 8)),
                           [8, 16, 32, 64], ["e_0"])
        assert report.flags["span_dense_phi"] is False
        assert "thresholds: density slope <= -10.0, bounded slope <= 0.05, floor 0" \
            in report.verdict_text()


EPS = np.finfo(np.float64).eps
DEFINITION_PROBES = ["e_0", "geom:0.5", "random:7"]


@pytest.mark.parametrize("spec", [ModelSpec("paper_example", 8),
                                  ModelSpec("random_regular", 8, kappa_max=50.0)])
def test_sweep_record_equals_public_definitions(spec):
    # The sweep shares one factorization per side among its probes; every
    # value must still be exactly what the one-vector public functions give.
    factory = pair_factory(spec)
    report = run_sweep(factory, [16, 32], DEFINITION_PROBES)
    rec = report.records[report.dims.index(32)]
    pair = factory(32)
    vectors = {p: ProbeSpec.parse(p).instantiate(32) for p in DEFINITION_PROBES}
    for name, x in vectors.items():
        for side, fam in (("phi", pair.phi), ("psi", pair.psi)):
            assert rec[(f"span_dist_{side}", name)] == span_distance(fam, x)
            assert rec[(f"domain_partial_{side}", name)] == domain_partial_sum(fam, x)
    worst = max(quasi_basis_residual(pair, f, g)
                for f in vectors.values() for g in vectors.values())
    assert rec[("quasi_basis_residual", "")] == worst


class TestVerdictSlopes:
    DIMS = [16, 32, 64, 128]

    @staticmethod
    def scaled(factory, s):
        def build(dim):
            pair = factory(dim)
            return BiorthogonalPair(SequenceFamily(pair.phi.coeffs * s),
                                    SequenceFamily(pair.psi.coeffs * s))
        return build

    def test_rounding_level_span_distances_print_below_floor(self):
        # random_regular families are square and invertible: every span
        # distance is rounding noise, and its fitted slope means nothing.
        factory = pair_factory(ModelSpec("random_regular", 8, kappa_max=50.0))
        text = run_sweep(factory, self.DIMS, DEFINITION_PROBES).verdict_text()
        span_lines = [line for line in text.splitlines() if "slope span_dist_" in line]
        assert len(span_lines) == 6
        assert all(line.endswith(": below floor") for line in span_lines)
        scaled = self.scaled(factory, 1.0 + 4.0 * EPS)
        assert run_sweep(scaled, self.DIMS, DEFINITION_PROBES).verdict_text() == text

    def test_slopes_above_floor_are_printed(self):
        # dist(e_0, span phi) = 1/sqrt(N) in the paper example.
        report = run_sweep(pair_factory(ModelSpec("paper_example", 8)), self.DIMS, ["e_0"])
        assert "  slope span_dist_phi[e_0]: -0.500" in report.verdict_text().splitlines()


class TestVerdictRule:
    """Stability, skipped dimensions and the edge cases of the sweep's verdict rule."""

    DIMS = [8, 16, 32, 64]

    @staticmethod
    def scaled_identity(scale):
        """dim -> (scale[dim] I, I / scale[dim]): op_norm is scale[dim], inv_norm its inverse."""
        def build(dim):
            c = scale[dim]
            return BiorthogonalPair(SequenceFamily(c * np.eye(dim)),
                                    SequenceFamily(np.eye(dim) / c))
        return build

    @staticmethod
    def singular_at(factory, bad_dims):
        def build(dim):
            if dim in bad_dims:
                raise SingularOperatorError(0.0, 1e-12)
            return factory(dim)
        return build

    def test_top_half_disagreement_is_inconclusive(self):
        # op_norm 4, 1, 1, 1.1: the full fit decays (bounded), the top half
        # grows with slope log2(1.1) > BOUNDED_SLOPE (unbounded).
        factory = self.scaled_identity(dict(zip(self.DIMS, [4.0, 1.0, 1.0, 1.1])))
        report = run_sweep(factory, self.DIMS, ["e_0"])
        assert report.fit_exponents[("op_norm", "")] <= diagnostics.BOUNDED_SLOPE
        assert report.flags["op_norm_bounded"] is True
        assert report.flags["fits_stable"] is False
        assert report.classification == "inconclusive"
        assert report.riesz_class == "inconclusive"
        text = report.verdict_text()
        assert "classification: inconclusive" in text
        assert "riesz class: inconclusive" in text

    def test_constant_scale_is_stable(self):
        factory = self.scaled_identity(dict.fromkeys(self.DIMS, 3.0))
        report = run_sweep(factory, self.DIMS, ["e_0"])
        assert report.flags["fits_stable"] is True
        assert (report.classification, report.riesz_class) == ("regular", "riesz")

    def test_singular_dim_is_skipped_and_left_out(self):
        dims = [8, 16, 32, 64, 128]
        factory = pair_factory(ModelSpec("paper_example", 8))
        report = run_sweep(self.singular_at(factory, {32}), dims, ["e_0", "geom:0.5"])
        reference = run_sweep(factory, [8, 16, 64, 128], ["e_0", "geom:0.5"])
        assert report.dims == [8, 16, 64, 128]
        assert report.skipped == [(32, str(SingularOperatorError(0.0, 1e-12)))]
        assert report.to_csv() == reference.to_csv()
        assert not any(line.startswith("32,") for line in report.to_csv().splitlines())
        assert report.fit_exponents == reference.fit_exponents
        assert report.flags == reference.flags
        text = report.verdict_text()
        skipped = [line for line in text.splitlines() if "skipped" in line]
        assert skipped == [f"  skipped dim 32: {report.skipped[0][1]}"]
        assert text == reference.verdict_text() + skipped[0] + "\n"

    def test_one_surviving_dim_with_probes_is_inconclusive(self):
        factory = pair_factory(ModelSpec("identity", 8))
        report = run_sweep(self.singular_at(factory, {16, 32}), [8, 16, 32], ["e_0"])
        assert report.dims == [8]
        assert report.flags["fits_stable"] is False
        assert report.classification == "inconclusive"
        assert report.riesz_class == "inconclusive"

    def test_one_surviving_dim_without_probes_is_stable(self):
        # op_norm and inv_norm have no probe: one point fits slope 0, and
        # does not make the fits unstable.
        factory = pair_factory(ModelSpec("identity", 8))
        report = run_sweep(self.singular_at(factory, {16, 32}), [8, 16, 32], [])
        assert report.flags["fits_stable"] is True
        assert report.fit_exponents == {("op_norm", ""): 0.0, ("inv_norm", ""): 0.0}
        assert report.riesz_class == "riesz"

    def test_all_dims_singular_raises(self):
        factory = pair_factory(ModelSpec("identity", 8))
        with pytest.raises(SweepError, match="all requested dimensions were singular"):
            run_sweep(self.singular_at(factory, {8, 16, 32}), [8, 16, 32], ["e_0"])
