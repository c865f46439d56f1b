"""Malformed input exits 1: never 2 (a failed check), never a traceback.

Each case runs the CLI in-process.  The hypothesis tests write their files to
a fresh temporary directory per example instead of a function-scoped fixture.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszlab.cli import EXIT_INPUT, EXIT_OK, main
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

    def test_two_index_offsets(self, tmp_path, capsys):
        save_family(SequenceFamily(np.eye(6)[:, 1:], index_offset=1), tmp_path / "phi.csv")
        save_family(SequenceFamily(np.eye(6)[:, 1:]), tmp_path / "psi.csv")
        assert main(["analyze", "--model", _files(tmp_path, "phi.csv", "psi.csv")]) == EXIT_INPUT
        assert "families disagree" in capsys.readouterr().err

    def test_family_that_does_not_fill_its_dimension(self, tmp_path, capsys):
        # five columns at offset 0 in dimension 6: no square embedding exists
        for name in ("phi.csv", "psi.csv"):
            save_family(SequenceFamily(np.eye(6)[:, :5]), tmp_path / name)
        assert main(["analyze", "--model", _files(tmp_path, "phi.csv", "psi.csv")]) == EXIT_INPUT
        assert "cannot embed" in capsys.readouterr().err


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


class TestSweepInput:
    def test_probe_beyond_the_smallest_dimension(self, capsys):
        argv = ["sweep", "--model", "identity", "--dims", "8,16", "--probe", "e_12"]
        assert main(argv) == EXIT_INPUT
        assert "probe e_12 does not exist at dim 8" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", ["8,8", "8"])
    def test_fewer_than_two_distinct_dimensions(self, capsys, dims):
        assert main(["sweep", "--model", "identity", "--dims", dims]) == EXIT_INPUT
        assert "two distinct dimensions" in capsys.readouterr().err


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
