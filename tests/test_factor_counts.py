"""Each operator is factorized once per command.

numpy.linalg.svd, solve and qr are counted around one CLI call.  An analyze
run factors its analysis operator T once (one values-only SVD for the rank
gate and kappa, one solve for the inverse) and spends one QR on the psi-side
span distance when the psi family is not square; every other check reuses
that factorization.  A sweep factors each family at most once per dimension:
one QR per non-square side serves the span distance of every probe, and one
values-only SVD of T gives op_norm and inv_norm.  A square family spans the
whole truncation, so its span distances do not factor it.  A pseudoboson
run generates each family once, at full truncation, finds each vacuum from
one values-only SVD and one bordered solve, and takes kappa of the generated
family from one more values-only SVD; it neither inverts that family nor
transports a ladder through it.  No command computes singular vectors.
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


def test_analyze_of_a_square_family_does_no_qr(factor_counts, capsys):
    # diagonal:k+1 has N columns on each side: the psi-side span distance is 0.
    assert main(["analyze", "--model", "diagonal:k+1", "--dim", "32"]) == EXIT_OK
    capsys.readouterr()
    assert factor_counts == Counter({"svd_values": 1, "solve": 1})


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
    # Three operators, one values-only SVD each: a and adjoint(b), each with
    # the bordered solve of its vacuum, and the analysis operator of the
    # generated family, whose kappa alone the restriction bound reads.  The
    # restriction line is computed in closed form, so that family is not
    # inverted (no third solve), and no ladder is transported through it.
    assert main(["pseudoboson", "--model", "ccr", "--dim", "16"]) == EXIT_OK
    capsys.readouterr()
    assert factor_counts == Counter({"svd_values": 3, "solve": 2})


@pytest.mark.parametrize("probes", [["e_0"], ["e_0", "geom:0.5", "random:7"]])
def test_sweep_factors_each_family_once_per_dimension(factor_counts, capsys, probes):
    argv = ["sweep", "--model", "paper_example", "--dims", "8,16,32"]
    for p in probes:
        argv += ["--probe", p]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert factor_counts == Counter({"qr": 2 * 3, "svd_values": 3})


def test_sweep_of_square_families_factors_no_family(factor_counts, capsys):
    # random_regular's families are square; its 3 QRs are the random unitaries
    # of the model itself, one per dimension.
    assert main(["sweep", "--model", "random_regular:50", "--dims", "8,16,32"]) == EXIT_OK
    capsys.readouterr()
    assert factor_counts == Counter({"qr": 3, "svd_values": 3})


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
    assert factor_counts == Counter({"generate": 2, "svd_values": 3, "solve": 2})


@pytest.mark.parametrize("argv", [
    ["analyze", "--model", "paper_example", "--dim", "16"],
    ["sweep", "--model", "paper_example", "--dims", "8,16", "--probe", "e_0"],
    ["ladder", "--model", "random_regular:50", "--dim", "16", "--side", "psi"],
    ["pseudoboson", "--model", "similarity:1.1^k", "--dim", "16"],
])
def test_no_command_computes_singular_vectors(factor_counts, tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    assert factor_counts["svd"] == 0
    assert factor_counts["svd_values"] > 0


@pytest.mark.parametrize("argv, count", [
    (["--model", "ccr", "--dim", "16"], 15),
    (["--model", "similarity:1.01^k", "--dim", "64", "--window", "40"], 40),
])
def test_pseudoboson_computes_one_pairing_gram(monkeypatch, capsys, argv, count):
    # The table's pairing line is the one pairing check of a pseudoboson run,
    # over the count generated columns it reports: one walk of row blocks
    # whose rows cover the count psi columns once.
    from rieszlab import family

    blocks = []
    gram_defect = family.gram_defect

    def counted_gram_defect(phi, psi, rows):
        blocks.append((phi.size, *rows.indices(psi.size)[:2]))
        return gram_defect(phi, psi, rows)

    monkeypatch.setattr(family, "gram_defect", counted_gram_defect)
    assert main(["pseudoboson", *argv]) == EXIT_OK
    capsys.readouterr()
    assert {size for size, _, _ in blocks} == {count}
    assert [start for _, start, _ in blocks] == [0, *(stop for _, _, stop in blocks[:-1])]
    assert blocks[-1][2] == count
