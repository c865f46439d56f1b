import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rieszlab import linalg
from rieszlab.errors import ModelError
from rieszlab.ladder import shift_matrices
from rieszlab.models import (
    MODEL_KINDS,
    ModelSpec,
    evaluate_rule,
    instantiate_pair,
    instantiate_system,
    model_catalogue,
    pair_factory,
    paper_example_pair,
    parse_model,
    random_unitary,
)
from rieszlab.pseudoboson import PseudoBosonSystem


class TestEvaluateRule:
    def test_linear(self):
        assert np.allclose(evaluate_rule("k+1", np.arange(4)), [1, 2, 3, 4])

    def test_caret_power(self):
        assert np.allclose(evaluate_rule("2^k", np.arange(4)), [1, 2, 4, 8])

    def test_float_base(self):
        assert np.allclose(evaluate_rule("1.1**k", np.arange(3)), [1.0, 1.1, 1.21])

    def test_rejects_zero_values(self):
        with pytest.raises(ModelError):
            evaluate_rule("k", np.arange(4))

    def test_rejects_foreign_tokens(self):
        with pytest.raises(ModelError):
            evaluate_rule("__import__('os')", np.arange(4))
        with pytest.raises(ModelError):
            evaluate_rule("n+1", np.arange(4))

    def test_rejects_non_finite(self):
        with pytest.raises(ModelError):
            evaluate_rule("1/(k-1)", np.arange(4))


class TestModelSpec:
    def test_unknown_kind(self):
        with pytest.raises(ModelError):
            ModelSpec("mystery", 8)

    def test_minimum_dimension(self):
        with pytest.raises(ModelError):
            ModelSpec("identity", 3)

    def test_rule_required(self):
        with pytest.raises(ModelError):
            ModelSpec("diagonal", 8)

    @pytest.mark.parametrize("kappa", [math.inf, math.nan, 0.5])
    def test_kappa_max_must_be_finite_and_at_least_1(self, kappa):
        with pytest.raises(ModelError, match="kappa_max must be finite and >= 1"):
            ModelSpec("random_regular", 8, kappa_max=kappa)

    def test_is_system(self):
        assert ModelSpec("ccr", 8).is_system
        assert not ModelSpec("identity", 8).is_system


class TestParseModel:
    def test_plain_kind(self):
        assert parse_model("identity", 8).kind == "identity"

    def test_rule_argument(self):
        spec = parse_model("similarity:2^k", 8)
        assert spec.kind == "similarity" and spec.rule == "2^k"

    def test_kappa_argument(self):
        assert parse_model("random_regular:500", 8).kappa_max == 500.0

    def test_dash_alias(self):
        assert parse_model("paper-example", 8).kind == "paper_example"

    def test_stray_argument_rejected(self):
        with pytest.raises(ModelError):
            parse_model("identity:3", 8)


class TestInstantiation:
    def test_identity(self):
        pair = instantiate_pair(ModelSpec("identity", 6))
        assert np.array_equal(pair.phi.coeffs, np.eye(6))

    def test_paper_example_shape(self):
        pair = paper_example_pair(8)
        assert pair.phi.dim == 8 and pair.phi.size == 7
        # phi_n = e_n + e_0
        assert np.array_equal(pair.phi.coeffs[0, :], np.ones(7))

    def test_diagonal_duality_oracle(self):
        pair = instantiate_pair(ModelSpec("diagonal", 5, rule="k+1"))
        gram = pair.psi.coeffs.conj().T @ pair.phi.coeffs
        assert linalg.max_abs(gram - np.eye(5)) <= 1e-14

    def test_random_regular_is_seed_deterministic(self):
        a = instantiate_pair(ModelSpec("random_regular", 8, seed=3))
        b = instantiate_pair(ModelSpec("random_regular", 8, seed=3))
        assert np.array_equal(a.phi.coeffs, b.phi.coeffs)

    def test_random_regular_condition_bound(self):
        pair = instantiate_pair(ModelSpec("random_regular", 12, seed=1, kappa_max=50.0))
        kappa = linalg.Factorization(pair.phi.coeffs).kappa
        assert kappa == pytest.approx(50.0, rel=1e-8)

    def test_random_unitary_is_unitary(self):
        u = random_unitary(9, np.random.default_rng(5))
        assert linalg.max_abs(u.conj().T @ u - np.eye(9)) <= 1e-12

    def test_system_kinds(self):
        sys = instantiate_system(ModelSpec("ccr", 8))
        assert isinstance(sys, PseudoBosonSystem)
        pair = instantiate_pair(ModelSpec("similarity", 8, rule="k+1"))
        assert pair.phi.is_square()

    @pytest.mark.parametrize("rule", ["2^k", "k+1", "1.01^k"])
    def test_similarity_equals_dense_product(self, rule):
        # Row and column scaling is S M S^-1 with S = diag(s), entry for entry.
        n = 32
        sys = instantiate_system(ModelSpec("similarity", n, rule=rule))
        s = evaluate_rule(rule, np.arange(n))
        S, S_inv = np.diag(s), np.diag(1.0 / s)
        s_minus, s_plus, _ = shift_matrices(n)
        assert np.array_equal(sys.a, S @ s_minus @ S_inv)
        assert np.array_equal(sys.b, S @ s_plus @ S_inv)

    @pytest.mark.parametrize("spec", [ModelSpec("diagonal", 8, rule="2^k"),
                                      ModelSpec("similarity", 8, rule="1.1^k"),
                                      ModelSpec("random_regular", 8, seed=5, kappa_max=30.0)],
                             ids=lambda spec: spec.kind)
    def test_pair_factory_keeps_every_field_but_dim(self, spec):
        pair = pair_factory(spec)(16)
        expected = instantiate_pair(ModelSpec(spec.kind, 16, spec.rule, spec.seed,
                                              spec.kappa_max))
        assert pair.dim == 16
        assert np.array_equal(pair.phi.coeffs, expected.phi.coeffs)
        assert np.array_equal(pair.psi.coeffs, expected.psi.coeffs)

    def test_catalogue_covers_all_kinds(self):
        names = " ".join(name for name, _ in model_catalogue())
        for kind in MODEL_KINDS:
            assert kind in names


class TestRuleWalker:
    @pytest.mark.parametrize("rule,expected", [
        ("(k+1)^-1", [1.0, 1 / 2, 1 / 3, 1 / 4]),
        ("-k-1", [-1.0, -2.0, -3.0, -4.0]),
        ("+k+1", [1.0, 2.0, 3.0, 4.0]),
        ("2^10*k+1", [1.0, 1025.0, 2049.0, 3073.0]),
        ("(k+1)/3", [1 / 3, 2 / 3, 1.0, 4 / 3]),
        ("3", [3.0, 3.0, 3.0, 3.0]),
    ])
    def test_arithmetic(self, rule, expected):
        assert np.array_equal(evaluate_rule(rule, np.arange(4)), expected)

    def test_float_powers_match_numpy(self):
        ks = np.arange(64, dtype=np.float64)
        assert np.array_equal(evaluate_rule("1.01^k", np.arange(64)), np.power(1.01, ks))

    @pytest.mark.parametrize("rule", ["...", "k(2)", "()", "2 3",
                                      pytest.param("9" * 400, id="int-beyond-float")])
    def test_rejects_what_is_not_arithmetic(self, rule):
        with pytest.raises(ModelError):
            evaluate_rule(rule, np.arange(4))

    # 9^9^9 runs in test_tower_rule_exits_at_once, under a timeout
    @pytest.mark.parametrize("rule", ["(k+1)^400", "1/0"])
    def test_overflow_is_a_clean_error_without_warnings(self, rule):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ModelError, match="non-finite"):
                evaluate_rule(rule, np.arange(8))
        assert caught == []

    @pytest.mark.parametrize("rule", ["k+1", "3", "1.01^k"])
    def test_values_are_float64(self, rule):
        assert evaluate_rule(rule, np.arange(4)).dtype == np.float64

    def test_negative_base_to_a_fractional_power_is_rejected(self):
        # (-2)^0.5 is NaN in float64, not a complex number
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ModelError, match="non-finite"):
                evaluate_rule("(k-2)^0.5", np.arange(4))
        assert caught == []


def _analyze(model: str) -> subprocess.CompletedProcess:
    """`rieszlab analyze --model MODEL --dim 8` in a new interpreter, so that warnings reach stderr."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run(
        [sys.executable, "-m", "rieszlab.cli", "analyze", "--model", model, "--dim", "8"],
        env=env, capture_output=True, text=True, timeout=10)


def test_tower_rule_exits_at_once():
    # 9^9^9 as Python integers would not finish; the float walker overflows to inf.
    proc = _analyze("diagonal:9^9^9")
    assert proc.returncode == 1
    assert "non-finite" in proc.stderr


@pytest.mark.parametrize("kappa", ["inf", "nan"])
def test_non_finite_kappa_is_one_input_error_line(kappa):
    # inf leaked a geomspace warning; nan passed `< 1` and failed on the family
    # entries.  Neither is an ASCII decimal literal.
    proc = _analyze(f"random_regular:{kappa}")
    assert proc.returncode == 1
    assert proc.stderr == (f"input error: model random_regular:{kappa}: kappa_max: "
                           f"'{kappa}' is not an ASCII decimal literal\n")


def test_kappa_that_overflows_is_refused_by_its_range_check():
    proc = _analyze("random_regular:1e400")
    assert proc.returncode == 1
    assert proc.stderr == "input error: kappa_max must be finite and >= 1, got inf\n"


def test_kappa_beyond_the_rank_cut_is_one_check_failure_line():
    # psi columns of 1e-200 entries are not zero columns; T is numerically singular
    proc = _analyze("random_regular:1e200")
    assert proc.returncode == 2
    assert proc.stderr.startswith("check failure: operator numerically singular")
    assert proc.stderr.count("\n") == 1


def test_system_pair_is_pairing_gated(monkeypatch):
    # generate_families gates nothing, so instantiate_pair gates the pair it returns.
    from rieszlab import models
    from rieszlab.errors import NotBiorthogonalError
    from rieszlab.family import SequenceFamily

    generate = models.generate_families

    def generate_with_bad_psi(sys, count):
        phi, psi = generate(sys, count)
        return phi, SequenceFamily(2.0 * psi.coeffs)

    monkeypatch.setattr(models, "generate_families", generate_with_bad_psi)
    with pytest.raises(NotBiorthogonalError):
        instantiate_pair(ModelSpec("ccr", 8))
