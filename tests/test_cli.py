import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from rieszlab.cli import EXIT_CHECK, EXIT_INPUT, EXIT_OK, main
from rieszlab.family import SequenceFamily
from rieszlab.io import load_matrix, save_family, save_matrix

from conftest import border_orthogonal_operator


class TestExampleList:
    def test_lists_models(self, capsys):
        assert main(["example-list"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "paper_example" in out
        assert "similarity:RULE" in out


class TestAnalyze:
    def test_identity_passes(self, capsys):
        assert main(["analyze", "--model", "identity", "--dim", "8"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "pairing residual" in out

    def test_semi_regular_warning(self, capsys):
        assert main(["analyze", "--model", "paper_example", "--dim", "16"]) == EXIT_OK
        assert "WARNING" in capsys.readouterr().out

    def test_report_written(self, tmp_path, capsys):
        code = main(["analyze", "--model", "random_regular:20", "--dim", "12",
                     "--seed", "5", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "analyze.txt").read_text() == capsys.readouterr().out

    def test_file_model(self, tmp_path, capsys):
        save_family(SequenceFamily.identity(6), tmp_path / "phi.csv")
        save_family(SequenceFamily.identity(6), tmp_path / "psi.csv")
        code = main(["analyze", "--model",
                     f"file:{tmp_path / 'phi.csv'},{tmp_path / 'psi.csv'}"])
        capsys.readouterr()
        assert code == EXIT_OK

    def test_non_biorthogonal_file_pair_is_check_failure(self, tmp_path, capsys):
        save_family(SequenceFamily.identity(6), tmp_path / "phi.csv")
        save_family(SequenceFamily(2.0 * np.eye(6)), tmp_path / "psi.csv")
        code = main(["analyze", "--model",
                     f"file:{tmp_path / 'phi.csv'},{tmp_path / 'psi.csv'}"])
        capsys.readouterr()
        assert code == EXIT_CHECK


class TestInputErrors:
    def test_unknown_model(self, capsys):
        assert main(["analyze", "--model", "mystery", "--dim", "8"]) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    def test_bad_rule(self, capsys):
        assert main(["sweep", "--model", "diagonal:q+1", "--dims", "8,16"]) == EXIT_INPUT
        capsys.readouterr()

    def test_missing_config_file(self, capsys):
        assert main(["analyze", "--config", "/nonexistent.yaml"]) == EXIT_INPUT
        capsys.readouterr()

    def test_malformed_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("model: [identity\ndims: {8, 16\n")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_INPUT
        assert "malformed YAML" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["analyze", "--model", "identity", "--dim", "4097"],
        ["ladder", "--model", "identity", "--dim", "4097"],
        ["pseudoboson", "--model", "ccr", "--dim", "4097"],
        ["sweep", "--model", "identity", "--dims", "8,4097"],
    ])
    def test_dimension_above_dense_limit(self, argv, capsys):
        assert main(argv) == EXIT_INPUT
        assert "exceeds the dense limit 4096" in capsys.readouterr().err

    def test_file_model_above_dense_limit(self, tmp_path, capsys):
        m = 4097
        text = (",".join(f"re_{k},im_{k}" for k in range(m)) + "\n"
                + ",".join(["1"] * (2 * m)) + "\n")
        (tmp_path / "phi.csv").write_text(text)
        (tmp_path / "psi.csv").write_text(text)
        code = main(["analyze", "--model",
                     f"file:{tmp_path / 'phi.csv'},{tmp_path / 'psi.csv'}"])
        assert code == EXIT_INPUT
        assert "exceeds the dense limit" in capsys.readouterr().err

    def test_missing_model(self, capsys):
        assert main(["sweep", "--dims", "8,16"]) == EXIT_INPUT
        capsys.readouterr()


class TestSweep:
    def test_writes_csv_and_verdict(self, tmp_path, capsys):
        code = main(["sweep", "--model", "paper_example", "--dims", "8,16,32,64",
                     "--probe", "e_0", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert "classification: semi-regular-phi" in capsys.readouterr().out
        csv_text = (tmp_path / "sweep.csv").read_text()
        assert csv_text.splitlines()[0] == "dim,metric,probe,value"
        assert "classification" in (tmp_path / "verdict.txt").read_text()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["sweep", "--model", "random_regular:30", "--seed", "9",
                "--dims", "8,16,32", "--probe", "random:4"]
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(args + ["--out", str(out)]) == EXIT_OK
            outputs.append((out / "sweep.csv").read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({
            "model": "identity",
            "dims": [8, 16, 32],
            "probes": ["e_0"],
        }))
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == EXIT_OK
        assert "classification: regular" in capsys.readouterr().out


class TestPseudoboson:
    def test_similarity_pipeline(self, capsys):
        code = main(["pseudoboson", "--model", "similarity:1.1^k",
                     "--dim", "16", "--window", "12"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "commutator defect" in out
        assert "FAIL" not in out

    def test_file_system(self, tmp_path, capsys):
        from rieszlab.ladder import shift_matrices

        s_minus, s_plus, _ = shift_matrices(8)
        save_matrix(s_minus, tmp_path / "a.csv")
        save_matrix(s_plus, tmp_path / "b.csv")
        code = main(["pseudoboson", "--model",
                     f"file:{tmp_path / 'a.csv'},{tmp_path / 'b.csv'}"])
        capsys.readouterr()
        assert code == EXIT_OK

    def test_border_orthogonal_to_the_vacuum_is_a_check_failure(self, tmp_path, capsys):
        # a = I - x adjoint(x) with x orthogonal to the border vector of the
        # vacuum solve: its bordered system is singular.
        from rieszlab.ladder import shift_matrices

        save_matrix(border_orthogonal_operator(8, "both")[0], tmp_path / "a.csv")
        save_matrix(shift_matrices(8)[1], tmp_path / "b.csv")
        code = main(["pseudoboson", "--model",
                     f"file:{tmp_path / 'a.csv'},{tmp_path / 'b.csv'}"])
        captured = capsys.readouterr()
        assert code == EXIT_CHECK
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("check failure: bordered vacuum system")

    @pytest.mark.parametrize("count", [0, -1, 17])
    def test_count_outside_range_is_input_error(self, tmp_path, capsys, count):
        argv = ["pseudoboson", "--model", "ccr", "--dim", "16"]
        assert main([*argv, "--count", str(count)]) == EXIT_INPUT
        assert "count: must lie in 1..16" in capsys.readouterr().err
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"count": count}))
        assert main([*argv, "--config", str(cfg)]) == EXIT_INPUT
        assert "count: must lie in 1..16" in capsys.readouterr().err

    def test_count_reports_its_leading_columns(self, capsys):
        assert main(["pseudoboson", "--model", "ccr", "--dim", "16", "--count", "16"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "generated columns 16" in out and "FAIL" not in out


class TestLadder:
    def test_export(self, tmp_path, capsys):
        code = main(["ladder", "--model", "identity", "--dim", "8",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        capsys.readouterr()
        lowering = load_matrix(tmp_path / "lowering.csv")
        assert lowering.shape == (8, 8)
        assert lowering[0, 1] == 1.0

    def test_psi_side(self, tmp_path, capsys):
        code = main(["ladder", "--model", "random_regular:10", "--dim", "8",
                     "--seed", "2", "--side", "psi", "--out", str(tmp_path)])
        assert code == EXIT_OK
        capsys.readouterr()
        meta = json.loads((tmp_path / "ladder.meta.json").read_text())
        assert meta["side"] == "psi"

    def test_config_side_is_used(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"model": "paper_example", "dim": 8, "side": "psi"}))
        out = tmp_path / "out"
        assert main(["ladder", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        meta = json.loads((out / "ladder.meta.json").read_text())
        assert meta["side"] == "psi"
        # A flag that is given still overrides the config file.
        code = main(["ladder", "--config", str(cfg), "--side", "phi", "--out", str(out)])
        assert code == EXIT_OK
        capsys.readouterr()
        assert json.loads((out / "ladder.meta.json").read_text())["side"] == "phi"

    def test_unknown_side_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"model": "identity", "dim": 8, "side": "phy"}))
        assert main(["ladder", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_INPUT
        assert "side: must be phi or psi" in capsys.readouterr().err
        assert main(["ladder", "--model", "identity", "--dim", "8", "--side", "phy",
                     "--out", str(tmp_path)]) == EXIT_INPUT
        assert "side: must be phi or psi" in capsys.readouterr().err
        assert not (tmp_path / "ladder.meta.json").exists()


def test_import_does_not_load_yaml():
    # Only --config needs yaml; the import every CLI call pays stays without it.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, rieszlab.cli; print('yaml' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["analyze", "--model", "identity", "--dim", "abc"],
        ["analyze", "--model", "identity", "--no-such-flag"],
        ["no-such-command"],
        [],
    ])
    def test_usage_error_is_input_error(self, argv, capsys):
        # argparse's own exit status 2 would read as a failed check
        assert main(argv) == EXIT_INPUT
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_ok(self, capsys):
        assert main(["analyze", "--help"]) == EXIT_OK
        assert "--dim" in capsys.readouterr().out


class TestLadderTolerance:
    ARGV = ["ladder", "--model", "random_regular:50", "--dim", "16"]

    def _meta(self, out):
        return json.loads((out / "ladder.meta.json").read_text())

    def test_flag_and_config_set_the_base(self, tmp_path, capsys):
        assert main([*self.ARGV, "--out", str(tmp_path / "d")]) == EXIT_OK
        default = self._meta(tmp_path / "d")
        assert main([*self.ARGV, "--tol-ladder", "1e-3", "--out", str(tmp_path / "f")]) == EXIT_OK
        flagged = self._meta(tmp_path / "f")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"tolerances": {"ladder": 1e-3}}))
        assert main([*self.ARGV, "--config", str(cfg), "--out", str(tmp_path / "c")]) == EXIT_OK
        configured = self._meta(tmp_path / "c")
        capsys.readouterr()
        kappa = default["kappa"]
        assert default["ladder_tolerance"] == pytest.approx(1e-12 * kappa ** 2, rel=1e-12)
        assert flagged["ladder_tolerance"] == pytest.approx(1e-3 * kappa ** 2, rel=1e-12)
        assert configured["ladder_tolerance"] == flagged["ladder_tolerance"]


class TestMalformedFileModels:
    HEADER_ONLY = "re_0,im_0,re_1,im_1\n"

    def _model(self, tmp_path, first, second):
        return f"file:{tmp_path / first},{tmp_path / second}"

    @pytest.mark.parametrize("command", ["analyze", "pseudoboson"])
    def test_header_without_rows(self, tmp_path, capsys, command):
        (tmp_path / "x.csv").write_text(self.HEADER_ONLY)
        (tmp_path / "y.csv").write_text(self.HEADER_ONLY)
        assert main([command, "--model", self._model(tmp_path, "x.csv", "y.csv")]) == EXIT_INPUT
        assert "no data rows" in capsys.readouterr().err

    def test_pseudoboson_pair_of_two_sizes(self, tmp_path, capsys):
        from rieszlab.ladder import shift_matrices

        save_matrix(shift_matrices(8)[0], tmp_path / "a.csv")
        save_matrix(shift_matrices(6)[1], tmp_path / "b.csv")
        assert main(["pseudoboson", "--model",
                     self._model(tmp_path, "a.csv", "b.csv")]) == EXIT_INPUT
        assert "square and of one size" in capsys.readouterr().err

    def test_pseudoboson_pair_not_square(self, tmp_path, capsys):
        save_matrix(np.ones((8, 6)), tmp_path / "a.csv")
        save_matrix(np.ones((8, 6)), tmp_path / "b.csv")
        assert main(["pseudoboson", "--model",
                     self._model(tmp_path, "a.csv", "b.csv")]) == EXIT_INPUT
        assert "square and of one size" in capsys.readouterr().err

    def test_non_finite_entry(self, tmp_path, capsys):
        from rieszlab.ladder import shift_matrices

        s_minus, s_plus, _ = shift_matrices(8)
        s_minus[3, 4] = np.nan
        save_matrix(s_minus, tmp_path / "a.csv")
        save_matrix(s_plus, tmp_path / "b.csv")
        assert main(["pseudoboson", "--model",
                     self._model(tmp_path, "a.csv", "b.csv")]) == EXIT_INPUT
        assert "non-finite" in capsys.readouterr().err

    def test_family_with_more_columns_than_rows(self, tmp_path, capsys):
        save_matrix(np.ones((4, 6)), tmp_path / "phi.csv")
        save_matrix(np.ones((4, 6)), tmp_path / "psi.csv")
        assert main(["analyze", "--model",
                     self._model(tmp_path, "phi.csv", "psi.csv")]) == EXIT_INPUT
        assert "more columns" in capsys.readouterr().err


class TestPseudobosonTableIsTheOneGate:
    """build and generate_families gate nothing; each table line gates its statement."""

    N, WINDOW = 32, 24

    def _run(self, tmp_path, a, b, *flags):
        save_matrix(a, tmp_path / "a.csv")
        save_matrix(b, tmp_path / "b.csv")
        return main(["pseudoboson", "--model", f"file:{tmp_path / 'a.csv'},{tmp_path / 'b.csv'}",
                     "--window", str(self.WINDOW), *flags])

    def test_defect_above_the_window_does_not_fail(self, tmp_path, capsys):
        # Only b[30, 29] differs from the canonical pair, so the generated
        # pairing breaks at (30, 30), outside the window the checks quantify.
        from rieszlab.ladder import shift_matrices

        s_minus, s_plus, _ = shift_matrices(self.N)
        s_plus[30, 29] *= 3
        assert self._run(tmp_path, s_minus, s_plus) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS  generated pairing residual" in out

    def _perturbed_pair(self, delta=1e-9):
        # a = S S_- S^-1, b = S (S_+ + delta E) S^-1 with E's first row zeroed,
        # so both vacua survive and, for delta > 0, the pairing breaks inside
        # the window.
        from rieszlab.ladder import shift_matrices

        s_minus, s_plus, _ = shift_matrices(self.N)
        upper = np.triu(np.random.default_rng(3).standard_normal((self.N, self.N)), 1)
        S = np.eye(self.N) + 0.3 * upper
        E = np.random.default_rng(11).standard_normal((self.N, self.N))
        E[0, :] = 0.0
        S_inv = np.linalg.inv(S)
        return S @ s_minus @ S_inv, S @ (s_plus + delta * E) @ S_inv

    def test_similar_pair_passes(self, tmp_path, capsys):
        # The first column of a is exactly zero, so its vacuum is exactly e_0
        # and a phi_0 = 0; a vacuum off e_0 by 1.5e-13 made the falling
        # factorials (5, 6), (6, 5) and (6, 6) FAIL by up to 6.5x.
        assert self._run(tmp_path, *self._perturbed_pair(0.0)) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS  vacuum residual ||a phi_0||: residual 0.000e+00" in out

    @pytest.mark.parametrize("delta", [1e-9, 1e-6])
    def test_perturbed_pair_fails_its_identities(self, tmp_path, capsys, delta):
        assert self._run(tmp_path, *self._perturbed_pair(delta)) == EXIT_CHECK
        assert capsys.readouterr().out.count("FAIL") == 40

    def test_in_window_perturbation_prints_a_failing_table(self, tmp_path, capsys):
        assert self._run(tmp_path, *self._perturbed_pair()) == EXIT_CHECK
        out = capsys.readouterr().out
        assert "PASS  vacuum residual ||a phi_0||" in out
        assert "FAIL  generated pairing residual" in out
        assert "span invariance (phi side)" in out  # the last line: the table is whole

    def test_tol_pb_governs_the_pairing_line(self, tmp_path, capsys):
        self._run(tmp_path, *self._perturbed_pair(), "--tol-pb", "1e6")
        assert "PASS  generated pairing residual" in capsys.readouterr().out
