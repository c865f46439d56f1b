"""Malformed input exits 1: never 2 (a failed check), never a traceback.

Each case runs the CLI in-process.  The hypothesis tests write their files to
a fresh temporary directory per example instead of a function-scoped fixture.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszlab.cli import EXIT_CHECK, EXIT_INPUT, EXIT_OK, main
from rieszlab.diagnostics import ProbeSpec, ascii_int
from rieszlab.family import SequenceFamily
from rieszlab.io import load_family, save_family, save_matrix
from rieszlab.ladder import shift_matrices


def _files(tmp_path, *names):
    return "file:" + ",".join(str(tmp_path / name) for name in names)


class TestLoadedFamiliesThatDisagree:
    @pytest.mark.parametrize("command", ["analyze", "ladder"])
    def test_two_shapes(self, tmp_path, capsys, command):
        save_family(SequenceFamily.identity(6), tmp_path / "phi6.csv")
        save_family(SequenceFamily.identity(5), tmp_path / "psi5.csv")
        argv = [command, "--model", _files(tmp_path, "phi6.csv", "psi5.csv"),
                "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_INPUT
        assert "families disagree" in capsys.readouterr().err

    def test_square_families_whose_sidecars_say_offset_1(self, tmp_path, capsys):
        # The offset is N - M, so 0 here: the sidecar is bad input, not a
        # failed check.
        for name in ("phi.csv", "psi.csv"):
            save_matrix(np.eye(6), tmp_path / name)
            (tmp_path / f"{name}.meta.json").write_text(
                json.dumps({"N": 6, "M": 6, "index_offset": 1}))
        assert main(["analyze", "--model", _files(tmp_path, "phi.csv", "psi.csv")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "index_offset is 1, but 6 columns in dimension 6" in err

    @pytest.mark.parametrize("sidecar", [True, False])
    def test_family_that_does_not_fill_its_dimension(self, tmp_path, capsys, sidecar):
        # five columns at offset 0 in dimension 6: no square embedding exists
        for name in ("phi.csv", "psi.csv"):
            save_matrix(np.eye(6)[:, :5], tmp_path / name)
            if sidecar:
                (tmp_path / f"{name}.meta.json").write_text(
                    json.dumps({"N": 6, "M": 5, "index_offset": 0}))
        assert main(["analyze", "--model", _files(tmp_path, "phi.csv", "psi.csv")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "index_offset is 0, but 5 columns in dimension 6" in err


class TestFileModelsBelowTheMinimumDimension:
    @pytest.mark.parametrize("command", ["analyze", "ladder"])
    def test_one_by_one_family(self, tmp_path, capsys, command):
        for name in ("phi.csv", "psi.csv"):
            save_family(SequenceFamily.identity(1), tmp_path / name)
        argv = [command, "--model", _files(tmp_path, "phi.csv", "psi.csv"),
                "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_INPUT
        assert "dimension >= 4" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [2, 3])
    def test_small_pseudoboson_pair(self, tmp_path, capsys, n):
        s_minus, s_plus, _ = shift_matrices(n)
        save_matrix(s_minus, tmp_path / "a.csv")
        save_matrix(s_plus, tmp_path / "b.csv")
        assert main(["pseudoboson", "--model", _files(tmp_path, "a.csv", "b.csv")]) == EXIT_INPUT
        assert "dimension >= 4" in capsys.readouterr().err

    def test_smallest_allowed_pair_runs(self, tmp_path, capsys):
        for name in ("phi.csv", "psi.csv"):
            save_family(SequenceFamily.identity(4), tmp_path / name)
        assert main(["analyze", "--model", _files(tmp_path, "phi.csv", "psi.csv")]) == EXIT_OK
        capsys.readouterr()


class TestValuesOutsideTheRangeOfFloat64:
    """Finite entries whose products overflow or underflow float64 exit 1 with
    one line, neither a traceback nor a numpy warning.  phi = s I, psi = I / s
    is a biorthogonal pair at every s; analyze squares sigma_min(T) = s.  A
    column that pseudoboson generates from well-formed a and b and that leaves
    the range is a check failure instead (exit 2)."""

    def _analyze(self, tmp_path, s):
        save_matrix(s * np.eye(8), tmp_path / "phi.csv")
        save_matrix(np.eye(8) / s, tmp_path / "psi.csv")
        return main(["analyze", "--model", _files(tmp_path, "phi.csv", "psi.csv")])

    @pytest.mark.parametrize("s", [1e155, 1e160, 1e200, 1e-200])
    def test_analyze_exits_1(self, tmp_path, capsys, s):
        assert self._analyze(tmp_path, s) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("input error: values outside the range of float64: ")

    @pytest.mark.parametrize("s", [1e150, 1e-150])
    def test_analyze_within_the_range_runs(self, tmp_path, capsys, s):
        assert self._analyze(tmp_path, s) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "" and "FAIL" not in captured.out

    def test_pseudoboson_exits_1(self, tmp_path, capsys):
        # a = 1e200 S_-, b = S_+ / 1e200: the vacuum solve of a is of order
        # 1e-200, and the squares of its norm underflow to 0.
        s_minus, s_plus, _ = shift_matrices(16)
        save_matrix(1e200 * s_minus, tmp_path / "a.csv")
        save_matrix(s_plus / 1e200, tmp_path / "b.csv")
        assert main(["pseudoboson", "--model", _files(tmp_path, "a.csv", "b.csv")]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("input error: values outside the range of float64: ")

    @pytest.mark.parametrize("s", [1e50, 1e150])
    def test_pseudoboson_generated_column_leaves_the_range(self, tmp_path, capsys, s):
        # a = s S_-, b = S_+ / s: the vacua are e_0, but phi_n = b^n phi_0 / sqrt(n!)
        # is of order s^-n and underflows to 0.  The files are fine; the
        # generated family is not, which is a check failure.
        s_minus, s_plus, _ = shift_matrices(16)
        save_matrix(s * s_minus, tmp_path / "a.csv")
        save_matrix(s_plus / s, tmp_path / "b.csv")
        assert main(["pseudoboson", "--model", _files(tmp_path, "a.csv", "b.csv")]) == EXIT_CHECK
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("check failure: generated family left the range of float64: "
                                "zero column in family: every phi_k must be nonzero\n")


class TestSweepInput:
    def test_probe_beyond_the_smallest_dimension(self, capsys):
        argv = ["sweep", "--model", "identity", "--dims", "8,16", "--probe", "e_12"]
        assert main(argv) == EXIT_INPUT
        assert "probe e_12 does not exist at dim 8" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", ["8,8", "8"])
    def test_fewer_than_two_distinct_dimensions(self, capsys, dims):
        assert main(["sweep", "--model", "identity", "--dims", dims]) == EXIT_INPUT
        assert "two distinct dimensions" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", ["8,,16,", "8, ,16", ",8,16", "8,16,"])
    def test_empty_entry(self, capsys, dims):
        # An empty entry is a typo: 8,,16, ran as 8,16.
        assert main(["sweep", "--model", "identity", "--dims", dims]) == EXIT_INPUT
        assert capsys.readouterr().err == f"input error: dims: empty entry in {dims!r}\n"

    def test_file_model(self, tmp_path, capsys):
        # Refused before any file is read: neither CSV exists.
        argv = ["sweep", "--model", _files(tmp_path, "a.csv", "b.csv"), "--dims", "8,16"]
        assert main(argv) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("input error: model: sweep rebuilds its model at each dimension, "
                       "and a file:... model has only the dimension of its files\n")


class TestNegativeSeed:
    # -1 passes the number grammar; random_regular was refused by numpy with a
    # line naming no flag, and a model that reads no seed ran with it.
    ERR = "input error: seed: must be >= 0, got -1\n"

    @pytest.mark.parametrize("argv", [
        ["analyze", "--model", "random_regular:50", "--dim", "8"],
        ["analyze", "--model", "paper_example", "--dim", "8"],
        ["sweep", "--model", "paper_example", "--dims", "8,16"],
        ["sweep", "--model", "random_regular:50", "--dims", "8,16"],
        ["ladder", "--model", "identity", "--dim", "8"],
    ])
    def test_flag(self, tmp_path, capsys, argv):
        assert main([*argv, "--seed", "-1", "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert capsys.readouterr().err == self.ERR
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, text", [
        ("analyze", "dim: 8"), ("sweep", "dims: [8, 16]"), ("ladder", "dim: 8"),
    ])
    def test_config(self, tmp_path, capsys, command, text):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"model: paper_example\n{text}\nseed: -1\n")
        assert main([command, "--config", str(cfg)]) == EXIT_INPUT
        assert capsys.readouterr().err == self.ERR


class TestConfigValuesOfTheWrongType:
    # Each value must have the type its flag gives; none may print a traceback
    # or be truncated (dim: 8.7 used to run at dim 8).
    @pytest.mark.parametrize("command, text", [
        ("analyze", "dim: [8]"),
        ("analyze", "seed: [1]"),
        ("analyze", "out: 5"),
        ("sweep", "dims: 8"),
        ("pseudoboson", "window: [3]"),
        ("sweep", "probes: e_0\ndims: 8,16"),
        ("analyze", "dim: 8.7"),
    ])
    def test_one_input_error_line_naming_the_key(self, tmp_path, capsys, command, text):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"model: paper_example\n{text}\n")
        assert main([command, "--config", str(cfg)]) == EXIT_INPUT
        err = capsys.readouterr().err
        key = text.split(":")[0]
        assert err.startswith(f"input error: config: {key} must be ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestConfigKeysTheCommandDoesNotRead:
    # A key its command ignores would make a setting that changes nothing:
    # dimm: 512 ran at dim 16, probe: [...] ran the default probes.
    @pytest.mark.parametrize("command, text, key", [
        ("analyze", "dimm: 512", "dimm"),
        ("sweep", "dims: [8, 16]\nprobe: [e_0]", "probe"),
        ("sweep", "dims: [8, 16]\ntolerances: {pair: 1.0e-10}", "tolerances"),
        ("analyze", "tolerances: {pb: 1.0e-9}", "tolerances"),
        ("analyze", "tolerances: [1, 2]", "tolerances"),
        ("pseudoboson", "seed: 1", "seed"),
        ("pseudoboson", "count: 16", "count"),
    ])
    def test_one_input_error_line_naming_the_key(self, tmp_path, capsys, command, text, key):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"model: paper_example\n{text}\n")
        assert main([command, "--config", str(cfg)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == f"input error: config: {command} does not read {key}\n"


class TestNegativeProbeIndex:
    def test_e_minus_1_is_refused(self, capsys):
        # e_{-1} would be e_{N-1}: a different vector at each dimension
        with pytest.raises(ValueError, match=">= 0"):
            ProbeSpec.parse("e_-1")
        argv = ["sweep", "--model", "paper_example", "--dims", "8,16", "--probe", "e_-1"]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "basis index must be >= 0" in err

    def test_negative_seed_is_refused_when_parsed(self, capsys):
        # numpy refuses it too, but only at the first dimension and without the probe
        with pytest.raises(ValueError, match="probe random:-3: seed must be >= 0"):
            ProbeSpec.parse("random:-3")
        argv = ["sweep", "--model", "paper_example", "--dims", "8,16", "--probe", "random:-3"]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "probe random:-3: seed must be >= 0" in err


class TestProbeSpellings:
    # Python's int and float also take digit separators, a plus sign and
    # non-ASCII digits: e_1_0 ran as e_10 and geom:0.2_5 as geom:0.25, each
    # under the other spelling's name.
    @pytest.mark.parametrize("probe", [
        "e_1_0", "e_+3", "e_\u0663", "e_\uff13", "e_-0", "e_",
        "random:1_0", "random:+7", "random:\u0667",
        "geom:0.2_5", "geom:+0.5", "geom:nan", "geom:inf", "geom:0x1p-1", "geom:.", "geom:1e",
    ])
    def test_refused_with_one_line_naming_the_probe(self, capsys, probe):
        argv = ["sweep", "--model", "paper_example", "--dims", "8,16", "--probe", probe]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"input error: probe {probe}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("spelling, name", [
        ("e_01", "e_1"), ("random:007", "random:7"), ("geom:.50", "geom:0.5"),
        ("geom:5E-1", "geom:0.5"), ("geom:-5.e-1", "geom:-0.5"), ("geom:0.25", "geom:0.25"),
    ])
    def test_ascii_literals_name_their_number(self, spelling, name):
        assert ProbeSpec.parse(spelling).name == name


class TestSidecarThatIsNotAnIntegerRecord:
    @pytest.mark.parametrize("meta", [
        [1, 2],
        {"N": 6, "M": 6, "index_offset": None, "n_padding": 0},
        {"N": 6, "M": 6, "index_offset": [0], "n_padding": 0},
        {"N": 6, "M": 6, "index_offset": 0, "n_padding": 0.0},
        {"N": 6.0, "M": 6, "index_offset": 0, "n_padding": 0},
    ])
    def test_value_error_and_exit_1(self, tmp_path, capsys, meta):
        for name in ("phi.csv", "psi.csv"):
            save_family(SequenceFamily.identity(6), tmp_path / name)
        (tmp_path / "phi.csv.meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError):
            load_family(tmp_path / "phi.csv")
        assert main(["analyze", "--model", _files(tmp_path, "phi.csv", "psi.csv")]) == EXIT_INPUT
        assert "Traceback" not in capsys.readouterr().err


class TestCellsThatFloatWouldForgive:
    # float() reads "1_0" as 10 and strips surrounding whitespace, Unicode too
    @pytest.mark.parametrize("cell", ["1_0", " 1 ", "1 ", "\t1", "1\x1f", "1\xa0", "\u0661"])
    def test_value_error_and_exit_1(self, tmp_path, capsys, cell):
        for name in ("phi.csv", "psi.csv"):
            (tmp_path / name).write_text(f"re_0,im_0,re_1,im_1\n{cell},0,0,0\n0,0,1,0\n",
                                         encoding="utf-8")
        with pytest.raises(ValueError, match="must not contain"):
            load_family(tmp_path / "phi.csv")
        assert main(["analyze", "--model", _files(tmp_path, "phi.csv", "psi.csv")]) == EXIT_INPUT
        assert "must not contain" in capsys.readouterr().err


class TestSidecarWithNonzeroPadding:
    # Every stored column is a family member, so a sidecar that marks some (1)
    # or all (6) of them as padding is refused, not read as a pairing over
    # fewer columns: with all six marked, phi = I and psi = 3 I would pair over none.
    @pytest.mark.parametrize("n_padding", [1, 6])
    def test_is_refused(self, tmp_path, capsys, n_padding):
        save_family(SequenceFamily.identity(6), tmp_path / "phi.csv")
        save_family(SequenceFamily(3 * np.eye(6)), tmp_path / "psi.csv")
        for name in ("phi.csv", "psi.csv"):
            meta = {"N": 6, "M": 6, "index_offset": 0, "n_padding": n_padding}
            (tmp_path / f"{name}.meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="n_padding must be 0"):
            load_family(tmp_path / "phi.csv")
        assert main(["analyze", "--model", _files(tmp_path, "phi.csv", "psi.csv")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "n_padding" in err and "Traceback" not in err


class TestNumberSpellings:
    # Python's int and float also take digit separators, a plus sign,
    # whitespace and non-ASCII digits, and so give one number many spellings;
    # each such spelling is one input error line naming its flag.
    @pytest.mark.parametrize("argv, name", [
        (["sweep", "--model", "paper_example", "--dims", "1_6,3_2"], "dim"),
        (["sweep", "--model", "paper_example", "--dims", "\u0661\u0666,32"], "dim"),
        (["analyze", "--model", "identity", "--dim", "1_6"], "dim"),
        (["analyze", "--model", "identity", "--dim", "abc"], "dim"),
        (["ladder", "--model", "identity", "--dim", "+16"], "dim"),
        (["pseudoboson", "--model", "ccr", "--dim", " 16"], "dim"),
        (["analyze", "--model", "random_regular:50", "--dim", "8", "--seed", "0_1"], "seed"),
        (["analyze", "--model", "random_regular:5_0", "--dim", "8"],
         "model random_regular:5_0: kappa_max"),
        (["analyze", "--model", "random_regular:+50", "--dim", "8"],
         "model random_regular:+50: kappa_max"),
        (["pseudoboson", "--model", "ccr", "--dim", "16", "--window", "1_0"], "window"),
    ])
    def test_refused_with_one_line_naming_the_flag(self, capsys, argv, name):
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {name}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["sweep", "--model", "paper_example", "--dims", "08, 016", "--probe", "e_0"],
        ["analyze", "--model", "random_regular:050.0", "--dim", "08", "--seed", "003"],
        ["pseudoboson", "--model", "ccr", "--dim", "016", "--window", "04"],
    ])
    def test_leading_zeros_are_legal(self, capsys, argv):
        assert main(argv) == EXIT_OK
        capsys.readouterr()


_ASCII_DIGITS = st.text(st.sampled_from("0123456789"), min_size=1, max_size=5)


@given(st.booleans(), _ASCII_DIGITS)
def test_accepted_integer_spellings_are_their_int(minus, digits):
    text = "-" * minus + digits
    assert ascii_int(text, "dim") == int(text)


#: Characters that int() skips or reads as digits: a digit separator, a plus
#: sign, whitespace, and Arabic-Indic, fullwidth and Devanagari digits.
_FOREIGN = st.sampled_from(["_", "+", " ", "\u0663", "\uff13", "\u0967"])
_NUMBER_FLAGS = {
    "dim": ["analyze", "--model", "identity", "--dim"],
    "seed": ["analyze", "--model", "random_regular:50", "--dim", "8", "--seed"],
    "window": ["pseudoboson", "--model", "ccr", "--dim", "8", "--window"],
}


@settings(max_examples=60, deadline=None)
@given(_ASCII_DIGITS, _FOREIGN, st.integers(0, 5), st.sampled_from(sorted(_NUMBER_FLAGS)))
def test_foreign_characters_exit_1_naming_the_flag(digits, char, at, flag):
    text = digits[:at] + char + digits[at:]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main([*_NUMBER_FLAGS[flag], text]) == EXIT_INPUT
    assert err.getvalue().startswith(f"input error: {flag}: ")
    assert err.getvalue().count("\n") == 1


# --- property tests -------------------------------------------------------

_DIM = 4
_BAD_CELLS = st.sampled_from(["nan", "inf", "-inf", "1e400", "abc", "", "1,0", "0x1"])
_BAD_META = st.one_of(st.none(), st.text("01-.ek ", max_size=5), st.lists(st.integers(), max_size=2),
                      st.floats(allow_nan=True), st.integers(max_value=-1))


def _csv_lines(mat: np.ndarray) -> list[str]:
    header = ",".join(f"re_{k},im_{k}" for k in range(mat.shape[1]))
    return [header] + [",".join(f"{v.real:.17g},{v.imag:.17g}" for v in row) for row in mat]


def _run(files: dict[str, str], command: str) -> int:
    """main on files written to a fresh directory; the exit code, with no exception let out."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text)
        first, second = sorted(n for n in files if n.endswith(".csv"))
        return main([command, "--model", f"file:{Path(tmp) / first},{Path(tmp) / second}",
                     "--out", str(Path(tmp) / "out")])


_GOOD = "\n".join(_csv_lines(np.eye(_DIM))) + "\n"


@pytest.mark.parametrize("command", ["analyze", "ladder"])
def test_unbroken_files_run(command):
    # the baseline the property tests break: a valid pair of identity families
    sidecar = json.dumps({"N": _DIM, "M": _DIM, "index_offset": 0, "n_padding": 0})
    files = {"phi.csv": _GOOD, "psi.csv": _GOOD, "phi.csv.meta.json": sidecar}
    assert _run(files, command) == EXIT_OK


@st.composite
def broken_csv(draw) -> str:
    lines = _csv_lines(np.eye(_DIM))
    row = draw(st.integers(0, _DIM))  # row 0 is the header
    cells = lines[row].split(",")
    col = draw(st.integers(0, len(cells) - 1))
    how = draw(st.sampled_from(["drop", "replace"]))
    if how == "drop":
        del cells[col]
    elif row == 0:
        cells[col] = draw(st.sampled_from(["", "re_9", "x", "1", "re_-1"]))
    else:
        cells[col] = draw(_BAD_CELLS)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(broken_csv(), st.sampled_from(["analyze", "ladder", "pseudoboson"]), st.booleans())
def test_broken_csv_exits_1(text, command, first):
    files = {"a.csv": text, "b.csv": _GOOD} if first else {"a.csv": _GOOD, "b.csv": text}
    assert _run(files, command) == EXIT_INPUT


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["N", "M", "index_offset", "n_padding"]), _BAD_META,
       st.sampled_from(["analyze", "ladder"]))
def test_sidecar_with_a_bad_value_exits_1(key, value, command):
    meta = {"N": _DIM, "M": _DIM, "index_offset": 0, "n_padding": 0, key: value}
    files = {"phi.csv": _GOOD, "psi.csv": _GOOD, "phi.csv.meta.json": json.dumps(meta)}
    assert _run(files, command) == EXIT_INPUT
