"""Each operator is factorized once per command.

numpy.linalg.svd, solve and qr are counted around one CLI call.  An analyze
run factors its analysis operator T once (one values-only SVD for the rank
gate and kappa, one solve for the inverse) and spends one QR on the psi-side
span distance; every other check reuses that factorization.  A sweep factors
each family once per dimension: one QR per side serves the span distance of
every probe, and one values-only SVD of T gives op_norm and inv_norm.  A
pseudoboson run generates each family once, at full truncation.
"""

from collections import Counter

import numpy as np
import pytest

from rieszlab import pseudoboson
from rieszlab.cli import EXIT_OK, main


@pytest.fixture
def factor_counts(monkeypatch):
    counts: Counter = Counter()
    svd, solve, qr = np.linalg.svd, np.linalg.solve, np.linalg.qr

    def counted_svd(a, *args, **kwargs):
        compute_uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
        counts["svd" if compute_uv else "svd_values"] += 1
        return svd(a, *args, **kwargs)

    def counted_solve(a, b):
        counts["solve"] += 1
        return solve(a, b)

    def counted_qr(a, *args, **kwargs):
        counts["qr"] += 1
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    return counts


def test_analyze_factors_the_analysis_operator_once(factor_counts, capsys):
    assert main(["analyze", "--model", "paper_example", "--dim", "32"]) == EXIT_OK
    capsys.readouterr()
    assert factor_counts == Counter({"svd_values": 1, "solve": 1, "qr": 1})


@pytest.mark.parametrize("model, side", [
    ("paper_example", "psi"),
    ("paper_example", "phi"),
    ("random_regular:50", "psi"),
])
def test_ladder_needs_one_factorization_for_either_side(factor_counts, tmp_path, capsys,
                                                        model, side):
    # One operator, T: its inverse serves the phi side, and adjoint(T) is the
    # inverse the psi side needs.
    assert main(["ladder", "--model", model, "--dim", "24", "--side", side,
                 "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    assert factor_counts["svd"] + factor_counts["svd_values"] <= 1
    assert factor_counts["solve"] <= 1


def test_pseudoboson_factors_each_operator_at_most_once(factor_counts, capsys):
    # Three operators: a and adjoint(b) (for the vacua) and the analysis
    # operator of the generated family (for the transported ladder).
    assert main(["pseudoboson", "--model", "ccr", "--dim", "16"]) == EXIT_OK
    capsys.readouterr()
    assert factor_counts["svd"] + factor_counts["svd_values"] <= 3
    assert factor_counts["solve"] <= 1


@pytest.mark.parametrize("probes", [["e_0"], ["e_0", "geom:0.5", "random:7"]])
def test_sweep_factors_each_family_once_per_dimension(factor_counts, capsys, probes):
    argv = ["sweep", "--model", "paper_example", "--dims", "8,16,32"]
    for p in probes:
        argv += ["--probe", p]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert factor_counts == Counter({"qr": 2 * 3, "svd_values": 3})


def test_pseudoboson_generates_each_family_once(factor_counts, monkeypatch, capsys):
    # phi and psi are generated at full truncation; the count columns the
    # checks read are their leading block, not a second generation.
    generate = pseudoboson._generate

    def counted_generate(*args):
        factor_counts["generate"] += 1
        return generate(*args)

    monkeypatch.setattr(pseudoboson, "_generate", counted_generate)
    assert main(["pseudoboson", "--model", "similarity:1.1^k", "--dim", "32"]) == EXIT_OK
    capsys.readouterr()
    assert factor_counts == Counter({"generate": 2, "svd": 2, "svd_values": 1,
                                     "solve": 1, "qr": 1})
