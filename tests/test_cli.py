import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

from rieszlab import ladder, linalg
from rieszlab.cli import EXIT_CHECK, EXIT_INPUT, EXIT_OK, Check, build_parser, main
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

    @pytest.mark.parametrize("model", ["random_regular:50", "paper_example", "diagonal:k+1"])
    def test_psi_side_runs_after_T_and_its_inverse_are_freed(self, monkeypatch, capsys, model):
        # The first transported call is the phi side's, transported(T, T^-1)
        # with T^-1 the Factorization's cached inverse; by the psi side's
        # call both arrays must be gone, with no collector run needed.
        transported = ladder.transported
        refs, alive = [], []

        def watched(M, M_inv):
            if refs:
                alive.append([ref() is not None for ref in refs])
            else:
                refs.extend([weakref.ref(M), weakref.ref(M_inv)])
            return transported(M, M_inv)

        monkeypatch.setattr(ladder, "transported", watched)
        assert main(["analyze", "--model", model, "--dim", "70", "--seed", "3"]) == EXIT_OK
        capsys.readouterr()
        assert alive == [[False, False]]

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

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_border_orthogonal_to_the_vacuum_is_a_check_failure(self, tmp_path, capsys, real):
        # a = I - x adjoint(x) with x orthogonal to the border vector of the
        # vacuum solve: its bordered system is singular.  A real a is read as
        # float64 and bordered by the real border vector.
        from rieszlab.ladder import shift_matrices

        save_matrix(border_orthogonal_operator(8, "both", real=real)[0], tmp_path / "a.csv")
        save_matrix(shift_matrices(8)[1], tmp_path / "b.csv")
        code = main(["pseudoboson", "--model",
                     f"file:{tmp_path / 'a.csv'},{tmp_path / 'b.csv'}"])
        captured = capsys.readouterr()
        assert code == EXIT_CHECK
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("check failure: bordered vacuum system")

    def test_vacua_that_cannot_be_paired_are_a_check_failure(self, tmp_path, capsys):
        # ker(a) = e_0 and ker(adjoint(b)) = e_1 for a = S_-, b = P S_+ P with
        # P swapping e_0 and e_1: each vacuum is unique, but (phi0|psi0) = 0.
        from rieszlab.ladder import shift_matrices

        s_minus, s_plus, _ = shift_matrices(8)
        swap = np.eye(8)[[1, 0, *range(2, 8)]]
        save_matrix(s_minus, tmp_path / "a.csv")
        save_matrix(swap @ s_plus @ swap, tmp_path / "b.csv")
        code = main(["pseudoboson", "--model",
                     f"file:{tmp_path / 'a.csv'},{tmp_path / 'b.csv'}"])
        captured = capsys.readouterr()
        assert code == EXIT_CHECK
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "vacua cannot be paired" in lines[0]
        # the cut of the rule for two unit vectors: N eps
        assert f"<= cut N*eps={8 * np.finfo(float).eps:.3e}" in lines[0]
        assert "ambiguous" not in lines[0] and "kernel dimension" not in lines[0]

    def test_checks_read_the_window_columns(self, capsys):
        assert main(["pseudoboson", "--model", "ccr", "--dim", "16", "--window", "9"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("pseudoboson: dim 16, window 9, generated columns 9\n")
        assert "FAIL" not in out


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


class TestNonFiniteResiduals:
    """A line passes only when its residual and its bound are finite."""

    @pytest.mark.parametrize("residual, bound", [
        (np.inf, np.inf), (np.nan, 1.0), (np.nan, np.nan), (np.inf, 1.0), (0.0, np.inf),
        (0.0, np.nan)])
    def test_line_fails(self, residual, bound):
        check = Check("x", residual, bound)
        assert not check.ok and str(check).startswith("FAIL  x: residual ")

    def test_finite_line_at_its_bound_passes(self):
        check = Check("x", 1.0, 1.0)
        assert check.ok and str(check) == "PASS  x: residual 1.000e+00 (tolerance 1.000e+00)"

    @pytest.mark.parametrize("residual, bound", [(0.0, 1.0), (None, None)])
    def test_line_with_a_reason_fails(self, residual, bound):
        check = Check("x", residual, bound, reason="operator numerically singular")
        assert not check.ok and str(check) == "FAIL  x: operator numerically singular"

    @pytest.mark.parametrize("command", ["ladder", "analyze"])
    def test_pair_whose_gram_overflows_is_a_check_failure(self, tmp_path, capsys, command):
        # phi = psi = 1e200 I: the residual and its bound are both inf.
        save_matrix(1e200 * np.eye(8), tmp_path / "phi.csv")
        model = f"file:{tmp_path / 'phi.csv'},{tmp_path / 'phi.csv'}"
        assert main([command, "--model", model, "--out", str(tmp_path / "out")]) == EXIT_CHECK
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("check failure: pairing defect inf at (n, m)=(0, 0) exceeds "
                                "tolerance inf\n")


def _run_python(*args):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


class TestClosedStdout:
    """A reader that has closed its end of the pipe is not bad input.

    The read end is closed before the command starts, so every write to stdout
    meets a closed pipe.  The command still writes its files and exits with
    its own status, with nothing on stderr.
    """

    @pytest.mark.parametrize("argv, code, files", [
        (["sweep", "--model", "paper_example", "--dims", "16,32,64,128", "--probe", "e_0",
          "--out", "out"], EXIT_OK, ["sweep.csv", "verdict.txt"]),
        (["sweep", "--model", "paper_example", "--dims", "16,32"], EXIT_OK, []),
        (["pseudoboson", "--model", "similarity:2^k", "--dim", "64", "--out", "out"],
         EXIT_CHECK, ["pseudoboson.txt"]),
        (["ladder", "--model", "identity", "--dim", "8", "--out", "out"], EXIT_OK,
         ["ladder.meta.json", "lowering.csv", "number.csv", "raising.csv"]),
        (["--help"], EXIT_OK, []),
    ])
    def test_command_runs_to_its_own_end(self, tmp_path, capsys, argv, code, files):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            src = str(Path(__file__).resolve().parent.parent / "src")
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
            proc = subprocess.run([sys.executable, "-m", "rieszlab.cli", *argv], cwd=tmp_path,
                                  env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (code, "")
        out = tmp_path / "out"
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
        assert written == files
        if files:  # the files of a run whose stdout stays open
            assert main([*argv[:-1], str(tmp_path / "ref")]) == code
            assert capsys.readouterr().out
            for name in files:
                assert (out / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def test_import_does_not_load_yaml():
    # Only --config needs yaml; the import every CLI call pays stays without it.
    proc = _run_python("-c", "import sys, rieszlab.cli; print('yaml' in sys.modules)")
    assert proc.stdout.strip() == "False"


def test_singular_operator_message_states_its_cut():
    # sigma(T) runs from 1 to 1e200, so sigma_min = 1 lies under the cut 8 eps 1e200.
    proc = _run_python("-m", "rieszlab.cli", "analyze", "--model", "random_regular:1e200",
                       "--dim", "8")
    assert proc.returncode == EXIT_CHECK
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert "sigma_min=1.000e+00" in lines[0]
    assert "cut N*eps*sigma_max=1.776e+185" in lines[0]


#: The flags each command reads, with a value each takes; a command accepts no other.
FLAGS = {
    "analyze": {"--config": "run.yaml", "--model": "identity", "--out": "out", "--seed": "1",
                "--dim": "8"},
    "sweep": {"--config": "run.yaml", "--model": "identity", "--out": "out", "--seed": "1",
              "--dims": "8,16", "--probe": "e_0"},
    "pseudoboson": {"--config": "run.yaml", "--model": "ccr", "--out": "out", "--dim": "8",
                    "--window": "4"},
    "ladder": {"--config": "run.yaml", "--model": "identity", "--out": "out", "--seed": "1",
               "--dim": "8", "--side": "psi"},
}

#: Flags a command once accepted: never read, setting the constant of the
#: tolerance rule, which is 1 (--tol-*), or checking other than the window's
#: columns (--count).
UNREAD_FLAGS = [("pseudoboson", "--seed"), ("pseudoboson", "--count"),
                *((command, f"--tol-{name}") for command in FLAGS
                  for name in ("pair", "ladder", "pb"))]


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["analyze", "--model", "identity", "--no-such-flag"],
        ["no-such-command"],
        [],
        *([command, "--model", "ccr", flag, "1"] for command, flag in UNREAD_FLAGS),
    ])
    def test_usage_error_is_input_error(self, argv, capsys):
        # argparse's own exit status 2 would read as a failed check
        assert main(argv) == EXIT_INPUT
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [(c, f) for c, flags in FLAGS.items() for f in flags])
    def test_each_read_flag_parses(self, command, flag):
        args = build_parser().parse_args([command, flag, FLAGS[command][flag]])
        dest = flag[2:].replace("-", "_")
        assert getattr(args, dest) is not None

    def test_each_command_has_exactly_its_flags(self):
        parser = build_parser()
        for command, flags in FLAGS.items():
            args = parser.parse_args([command])
            assert set(vars(args)) - {"command"} == {f[2:].replace("-", "_") for f in flags}
        assert sum(map(len, FLAGS.values())) == 22

    def test_help_exits_ok(self, capsys):
        assert main(["analyze", "--help"]) == EXIT_OK
        assert "--dim" in capsys.readouterr().out


class TestLadderTolerance:
    ARGV = ["ladder", "--model", "random_regular:50", "--dim", "16"]

    def _meta(self, out):
        return json.loads((out / "ladder.meta.json").read_text())

    def test_recorded_tolerance_is_the_rule(self, tmp_path, capsys):
        assert main([*self.ARGV, "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        meta = self._meta(tmp_path)
        # The phi side of random_regular:50 has columns of norm up to 50.
        rule = linalg.error_bound(16, 4.0 * 50.0, kappa=meta["kappa"] ** 2)
        assert meta["ladder_tolerance"] == pytest.approx(rule, rel=1e-12)


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

    def _run(self, tmp_path, a, b, *flags, window=WINDOW):
        save_matrix(a, tmp_path / "a.csv")
        save_matrix(b, tmp_path / "b.csv")
        return main(["pseudoboson", "--model", f"file:{tmp_path / 'a.csv'},{tmp_path / 'b.csv'}",
                     "--window", str(window), *flags])

    def test_defect_above_the_window_does_not_fail(self, tmp_path, capsys):
        # Only b[30, 29] differs from the canonical pair, so the generated
        # pairing breaks at (30, 30), outside the window the checks quantify.
        from rieszlab.ladder import shift_matrices

        s_minus, s_plus, _ = shift_matrices(self.N)
        s_plus[30, 29] *= 3
        assert self._run(tmp_path, s_minus, s_plus) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS  generated pairing residual" in out

    def test_defect_of_a_on_its_family_fails_the_restriction_line(self, tmp_path, capsys):
        # The ccr pair at N = 32 with a[3, 5] moved by 1e-6: a e_0 = 0 still, so
        # phi_n = e_n and a phi_5 - sqrt(5) phi_4 = 1e-6 e_3.  The b half of the
        # line is true by construction (phi_{n+1} is generated as
        # b phi_n / sqrt(n+1)), so the a half is what the line can fail on.
        from rieszlab.models import ModelSpec, instantiate_system

        system = instantiate_system(ModelSpec("ccr", self.N))
        a, b = np.array(system.a), system.b
        assert self._run(tmp_path, a, b) == EXIT_OK
        assert "PASS  restriction containment (phi side)" in capsys.readouterr().out
        a[3, 5] += 1e-6
        assert self._run(tmp_path, a, b) == EXIT_CHECK
        out = capsys.readouterr().out
        assert "FAIL  restriction containment (phi side): residual 1.000e-06" in out

    def _perturbed_pair(self, delta=1e-9, scale=0.3, n=N):
        # a = S S_- S^-1, b = S (S_+ + delta E) S^-1 with E's first row zeroed,
        # so both vacua survive and, for delta > 0, the pairing breaks inside
        # the window.
        from rieszlab.ladder import shift_matrices

        s_minus, s_plus, _ = shift_matrices(n)
        upper = np.triu(np.random.default_rng(3).standard_normal((n, n)), 1)
        S = np.eye(n) + scale * upper
        E = np.random.default_rng(11).standard_normal((n, n))
        E[0, :] = 0.0
        S_inv = np.linalg.inv(S)
        return S @ s_minus @ S_inv, S @ (s_plus + delta * E) @ S_inv

    def test_similar_pair_passes(self, tmp_path, capsys):
        # The first column of a is exactly zero, so its vacuum is exactly e_0
        # and a phi_0 = 0.
        assert self._run(tmp_path, *self._perturbed_pair(0.0)) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS  vacuum residual ||a phi_0||: residual 0.000e+00" in out

    def test_ill_conditioned_similar_pair_passes(self, tmp_path, capsys):
        # kappa(S) = 1.4e4: the commutator defect of the exact pair exceeded a
        # fixed 1e-12, but it stays far below its bound 2 N eps ||a|| ||b||.
        assert self._run(tmp_path, *self._perturbed_pair(0.0, scale=0.8)) == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out
        assert self._run(tmp_path, *self._perturbed_pair(1e-9, scale=0.8)) == EXIT_CHECK
        assert "FAIL  commutator defect" in capsys.readouterr().out

    def test_pairing_bound_does_not_grow_with_the_family(self, tmp_path, capsys):
        # a = D S_- D^-1 and b = D S_+ D^-1 with D = diag(2^k), so ||phi_n||
        # grows like 2^n.  A relative 1e-6 in b[11, 10] breaks the pairing at
        # entry (11, 11), whose bound scales with ||phi_11|| ||psi_11|| = 1,
        # not with the largest generated column.
        from rieszlab.ladder import shift_matrices

        n = 24
        d = 2.0 ** np.arange(n)
        s_minus, s_plus, _ = shift_matrices(n)
        a, b = d[:, None] * s_minus / d, d[:, None] * s_plus / d
        assert self._run(tmp_path, a, b, window=20) == EXIT_OK
        capsys.readouterr()
        b[11, 10] *= 1 + 1e-6
        assert self._run(tmp_path, a, b, window=20) == EXIT_CHECK
        assert "FAIL  generated pairing residual: residual 1.000e-06" in capsys.readouterr().out

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

    def test_singular_transported_ladder_keeps_the_table(self, tmp_path, capsys):
        # At N = 128 the generated family of the perturbed pair is numerically
        # singular, so the two ladder lines cannot be computed; the lines
        # computed before them still print, and one FAIL line names the stage.
        out_dir = tmp_path / "out"
        assert self._run(tmp_path, *self._perturbed_pair(n=128), "--out", str(out_dir)) \
            == EXIT_CHECK
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "pseudoboson: dim 128, window 24, generated columns 24"
        assert "PASS  commutator defect on window 24" in captured.out
        assert "FAIL  generated pairing residual" in captured.out
        assert lines[-1].startswith("FAIL  transported ladder (phi side): "
                                    "operator numerically singular (sigma_min=")
        assert "restriction containment" not in captured.out
        assert captured.err == ""
        assert (out_dir / "pseudoboson.txt").read_text() == captured.out

    def test_no_setting_passes_the_perturbed_pair(self, tmp_path, capsys):
        # The constant of the tolerance rule is 1: neither a flag nor a config
        # key can widen a bound until the perturbed pair passes.
        pair = self._perturbed_pair()
        assert self._run(tmp_path, *pair) == EXIT_CHECK
        assert "FAIL  generated pairing residual" in capsys.readouterr().out
        assert self._run(tmp_path, *pair, "--tol-pb", "1e6") == EXIT_INPUT
        assert "usage:" in capsys.readouterr().err
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"tolerances": {"pb": 1.0e6}}))
        assert self._run(tmp_path, *pair, "--config", str(cfg)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == "input error: config: pseudoboson does not read tolerances\n"
