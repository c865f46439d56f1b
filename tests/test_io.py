import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rieszlab.io
from rieszlab.cli import EXIT_INPUT, main
from rieszlab.family import SequenceFamily, pad_to_square
from rieszlab.io import (
    _matrix_to_csv,
    _row_blocks,
    atomic_write_text,
    load_family,
    load_matrix,
    save_family,
    save_ladder,
    save_matrix,
)
from rieszlab.ladder import build_ladder
from rieszlab.linalg import narrow
from rieszlab.models import paper_example_pair

from conftest import random_complex


class TestMatrixRoundTrip:
    def test_bit_exact_random(self, rng, tmp_path):
        mat = random_complex(rng, 6, 4)
        p = tmp_path / "m.csv"
        save_matrix(mat, p)
        assert np.array_equal(load_matrix(p), mat)

    def test_extreme_values_round_trip(self, tmp_path):
        mat = np.array([[1e-300 + 1e300j, np.pi], [-0.1 + 1j / 3, 2.0 ** -52]])
        p = tmp_path / "m.csv"
        save_matrix(mat, p)
        assert np.array_equal(load_matrix(p), mat)

    def test_header_shape(self, tmp_path):
        p = tmp_path / "m.csv"
        save_matrix(np.eye(2), p)
        header = p.read_text().splitlines()[0]
        assert header == "re_0,im_0,re_1,im_1"

    def test_writer_matches_per_cell_formatting_byte_for_byte(self, rng):
        def per_cell(mat):
            # reference: one f-string per cell
            lines = [",".join(f"re_{k},im_{k}" for k in range(mat.shape[1]))]
            for i in range(mat.shape[0]):
                lines.append(",".join(f"{z.real:.17g},{z.imag:.17g}" for z in mat[i]))
            return "\n".join(lines) + "\n"

        tiny = 5e-324  # smallest subnormal
        edge = np.array([
            [-0.0, complex(0.0, -0.0), complex(-0.0, -0.0), tiny],
            [complex(-tiny, 2.5e-310), 1e30 / 3, complex(-1e30, 1e30 / 7), 2.0 ** -1074 * 3],
            [complex(np.nextafter(1.0, 2.0), -np.nextafter(1.0, 0.0)), 0.1, -1j, 1e-300],
        ])
        assert _matrix_to_csv(edge) == per_cell(edge)
        scaled = random_complex(rng, 5, 7) * 1e30
        assert _matrix_to_csv(scaled) == per_cell(scaled)
        assert _matrix_to_csv(-scaled / 1e60) == per_cell(-scaled / 1e60)

    @pytest.mark.parametrize("rows, m", [(1, 4097), (4097, 1)])
    def test_oversized_matrix_rejected(self, tmp_path, rows, m):
        p = tmp_path / "big.csv"
        p.write_text(",".join(f"re_{k},im_{k}" for k in range(m)) + "\n"
                     + (",".join(["0"] * (2 * m)) + "\n") * rows)
        with pytest.raises(ValueError, match=f"CSV matrix of {rows} x {m} exceeds the dense limit"):
            load_matrix(p)

    def test_malformed_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_matrix(p)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("re_0,im_0\n1,2\n3\n")
        with pytest.raises(ValueError):
            load_matrix(p)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(_FINITE, min_size=4, max_size=4),
       st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072009e-308,
                        1.7976931348623157e308, -1.7976931348623157e308]))
def test_any_finite_float_round_trips_bit_for_bit(values, edge):
    # hypothesis draws -0.0, subnormals and +-max among its floats; the edge
    # case puts one of them in every example
    mat = np.array(values + [edge, 0.0]).reshape(2, 3)
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "m.csv"
        save_matrix(mat, p)
        assert load_matrix(p).tobytes() == mat.tobytes()
        cplx = mat + 1j * mat[::-1]  # read back as float64 when every im is 0
        save_matrix(cplx, p)
        assert load_matrix(p).tobytes() == narrow(cplx).tobytes()


class TestFamilyRoundTrip:
    @pytest.mark.parametrize("square", [True, False])
    def test_metadata_preserved(self, tmp_path, square):
        fam = paper_example_pair(6).phi
        fam = pad_to_square(fam) if square else fam
        p = tmp_path / "phi.csv"
        save_family(fam, p)
        loaded = load_family(p)
        assert np.array_equal(loaded.coeffs, fam.coeffs)

    def test_sidecar_contents(self, tmp_path):
        # index_offset is N - M, the first index of the columns
        fam = SequenceFamily(np.eye(3)[:, :2])
        p = tmp_path / "f.csv"
        save_family(fam, p)
        meta = json.loads((tmp_path / "f.csv.meta.json").read_text())
        assert meta == {"N": 3, "M": 2, "index_offset": 1}

    def test_missing_sidecar_defaults(self, rng, tmp_path):
        # no sidecar means offset 0: a square CSV loads, a non-square one is refused
        mat = random_complex(rng, 4, 4)
        p = tmp_path / "f.csv"
        save_matrix(mat, p)
        assert np.array_equal(load_family(p).coeffs, mat)
        save_matrix(mat[:, 1:], p)
        with pytest.raises(ValueError, match="index_offset is 0, but 3 columns in dimension 4"):
            load_family(p)

    @pytest.mark.parametrize("n, m, offset", [(4, 4, 1), (4, 3, 0), (4, 3, 2), (4, 2, 1)])
    def test_sidecar_offset_other_than_n_minus_m_is_refused(self, tmp_path, n, m, offset):
        p = tmp_path / "f.csv"
        save_matrix(np.eye(n)[:, n - m:], p)
        meta = {"N": n, "M": m, "index_offset": offset}
        (tmp_path / "f.csv.meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"index_offset is {offset}, but .* N - M = {n - m}"):
            load_family(p)

    def test_shape_disagreement_rejected(self, tmp_path):
        fam = SequenceFamily.identity(3)
        p = tmp_path / "f.csv"
        save_family(fam, p)
        meta_path = tmp_path / "f.csv.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["M"] = 2
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError):
            load_family(p)


class TestAtomicWrite:
    def test_creates_parents(self, tmp_path):
        p = tmp_path / "a" / "b" / "x.txt"
        atomic_write_text(p, "hello")
        assert p.read_text() == "hello"

    def test_no_tmp_leftovers(self, tmp_path):
        atomic_write_text(tmp_path / "x.txt", "data")
        assert [q.name for q in tmp_path.iterdir()] == ["x.txt"]


class TestSaveLadder:
    def test_export_set(self, rng, tmp_path):
        from conftest import random_well_conditioned

        T = random_well_conditioned(rng, 6)
        ls = build_ladder(T)
        written = save_ladder(ls, tmp_path, tolerance=1e-10)
        names = sorted(p.name for p in written)
        assert names == ["ladder.meta.json", "lowering.csv", "number.csv", "raising.csv"]
        assert np.array_equal(load_matrix(tmp_path / "lowering.csv"), ls.lowering)
        meta = json.loads((tmp_path / "ladder.meta.json").read_text())
        assert meta["side"] == "phi"
        assert meta["window"] == 5
        assert meta["ladder_tolerance"] == 1e-10


class TestMatrixReadChecks:
    def test_header_without_rows_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("re_0,im_0\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_matrix(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, tmp_path, cell):
        p = tmp_path / "bad.csv"
        p.write_text(f"re_0,im_0,re_1,im_1\n1,0,{cell},0\n0,0,1,0\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_matrix(p)

    def test_reader_matches_per_cell_parsing_bit_for_bit(self, rng, tmp_path):
        def per_cell(text):
            # reference: one complex() per (re, im) pair
            rows = []
            for ln in text.strip().splitlines()[1:]:
                parts = [float(x) for x in ln.split(",")]
                rows.append([complex(parts[2 * k], parts[2 * k + 1])
                             for k in range(len(parts) // 2)])
            return np.asarray(rows, dtype=np.complex128)

        mat = random_complex(rng, 5, 3) * 1e-200
        mat[0, 0] = complex(-0.0, 5e-324)
        p = tmp_path / "m.csv"
        save_matrix(mat, p)
        loaded = load_matrix(p)
        assert loaded.shape == (5, 3) and loaded.dtype == np.complex128
        reference = per_cell(p.read_text())
        assert loaded.view(np.float64).tobytes() == reference.view(np.float64).tobytes()

    @pytest.mark.parametrize("layout", [
        "crlf", "blank_lines", "whitespace_lines", "no_final_newline", "padded_ends"])
    def test_line_layout_does_not_change_the_matrix(self, rng, tmp_path, layout):
        mat = random_complex(rng, 4, 3)
        p = tmp_path / "m.csv"
        save_matrix(mat, p)
        header, *rows = p.read_text().splitlines()
        text = {
            "crlf": "\r\n".join([header, *rows]) + "\r\n",
            "blank_lines": "\n\n".join([header, *rows]) + "\n\n\n",
            "whitespace_lines": "\n \t \n".join([header, *rows]) + "\n  \n",
            "no_final_newline": "\n".join([header, *rows]),
            "padded_ends": " \n\t" + "\n".join([header, *rows]) + " \t\n \n",
        }[layout]
        p.write_bytes(text.encode())
        assert load_matrix(p).tobytes() == mat.tobytes()

    @pytest.mark.parametrize("text", ["", "\n\n", " \t\r\n  \n"])
    def test_file_without_a_line_of_text_is_empty(self, tmp_path, text):
        p = tmp_path / "blank.csv"
        p.write_bytes(text.encode())
        with pytest.raises(ValueError, match="empty CSV"):
            load_matrix(p)

    def test_whitespace_inside_the_rows_is_still_refused(self, tmp_path):
        # only whitespace that ends the file is dropped; a row that ends in a
        # blank before another row follows is malformed
        p = tmp_path / "m.csv"
        p.write_text("re_0,im_0\n1,0 \n2,0\n")
        with pytest.raises(ValueError, match="must not contain"):
            load_matrix(p)

    @pytest.mark.parametrize("cell", [
        "1.0#x", '"1.0"', "", "0x1p0", "1_0", " 1.0", "nan", "inf"])
    def test_cell_that_is_not_a_written_float_is_refused(self, tmp_path, capsys, cell):
        # numpy's reader would take a comment, skip blanks around a cell and
        # parse nan and inf; each of these is refused, and the CLI exits 1.
        # The cell ends its row, where a comment would leave the width intact.
        for name, mat in (("a.csv", np.eye(4, k=1)), ("b.csv", np.eye(4, k=-1))):
            save_matrix(mat, tmp_path / name)
        path = tmp_path / "a.csv"
        header, first, *rows = path.read_text().splitlines()
        first = first.rpartition(",")[0] + "," + cell
        path.write_text("\n".join([header, first, *rows]) + "\n")
        with pytest.raises(ValueError):
            load_matrix(path)
        model = f"file:{path},{tmp_path / 'b.csv'}"
        assert main(["pseudoboson", "--model", model]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error: ")

    def test_row_with_the_header_width_in_other_cells_is_refused(self, tmp_path):
        # every row holds four cells where the header names two: equal widths,
        # so only the comma count against the header tells
        p = tmp_path / "m.csv"
        p.write_text("re_0,im_0\n1,0,2,0\n3,0,4,0\n")
        with pytest.raises(ValueError, match="row width"):
            load_matrix(p)

    def test_family_with_too_many_columns_is_value_error(self, tmp_path):
        p = tmp_path / "wide.csv"
        save_matrix(np.ones((3, 5)), p)
        with pytest.raises(ValueError, match="more columns"):
            load_family(p)


class TestParallelWriter:
    EDGE = [0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1, -1e-300]

    @pytest.fixture
    def four_cpus(self, monkeypatch):
        # split as on a four-CPU machine, whatever this one has
        monkeypatch.setattr(rieszlab.io, "_usable_cpus", lambda: 4)

    @pytest.mark.parametrize("n, blocks", [(183, 1), (256, 2), (257, 2), (384, 4)])
    def test_bytes_equal_the_serial_rendering(self, rng, tmp_path, four_cpus, n, blocks):
        # 182 rows (2*182**2 cells) is the first size at the gate; 183 still fits one block
        assert len(_row_blocks(n, 2 * n)) - 1 == blocks
        mat = random_complex(rng, n, n)
        cells = mat.view(np.float64)
        cells[0, :6] = self.EDGE  # formatted by this process
        cells[-1, -6:] = self.EDGE  # formatted by the last helper, if there is one
        p = tmp_path / "m.csv"
        save_matrix(mat, p)
        assert p.read_bytes() == _matrix_to_csv(mat).encode()
        assert load_matrix(p).view(np.float64).tobytes() == cells.tobytes()

    def test_failing_helper_is_os_error_and_leaves_files_alone(self, tmp_path, monkeypatch,
                                                               four_cpus):
        exit_1 = shutil.which("false")
        if exit_1 is None:
            pytest.skip("no `false` program to stand in for the interpreter")
        monkeypatch.setattr(sys, "executable", exit_1)
        kept = tmp_path / "kept.csv"
        kept.write_text("old")
        for p in (tmp_path / "new.csv", kept):
            with pytest.raises(OSError, match="exited with status 1"):
                save_matrix(np.ones((256, 256)), p)
        assert sorted(q.name for q in tmp_path.iterdir()) == ["kept.csv"]
        assert kept.read_text() == "old"
        out = tmp_path / "out"
        argv = ["ladder", "--model", "paper_example", "--dim", "256", "--out", str(out)]
        assert main(argv) == EXIT_INPUT
        assert not any(q.suffix == ".tmp" for q in out.iterdir())

    @pytest.mark.parametrize("n", [64, 384])
    def test_real_matrix_bytes_equal_its_complex_rendering(self, rng, tmp_path, four_cpus, n):
        # A real matrix writes the literal 0 for each im cell, in this process
        # and in the helpers alike: the bytes of its complex128 copy.
        mat = rng.standard_normal((n, n))
        mat[0, :6] = self.EDGE
        mat[-1, -6:] = self.EDGE
        p = tmp_path / "m.csv"
        save_matrix(mat, p)
        assert p.read_bytes() == _matrix_to_csv(mat.astype(np.complex128)).encode()
        loaded = load_matrix(p)
        assert loaded.dtype == np.float64
        assert loaded.tobytes() == mat.tobytes()

    def test_cli_import_loads_no_subprocess(self):
        src = str(Path(rieszlab.io.__file__).parent.parent)
        code = "import rieszlab.cli, sys; assert 'subprocess' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def _traced_peak(fn, *args):
    """Peak of the memory that numpy and Python allocate while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    N = 256

    def test_saving_a_real_matrix_makes_no_complex_copy(self, rng, tmp_path, monkeypatch):
        # Serial formatting; a complex128 copy alone would be twice the matrix.
        monkeypatch.setattr(rieszlab.io, "_usable_cpus", lambda: 1)
        mat = rng.standard_normal((self.N, self.N))
        save_matrix(mat, tmp_path / "warm.csv")  # imports and caches outside the trace
        assert _traced_peak(save_matrix, mat, tmp_path / "m.csv") < mat.nbytes / 4

    def test_reading_holds_no_python_float_per_cell(self, rng, tmp_path):
        # The file is read a line at a time, so the float64 cells and the
        # narrowed result stay near the size of the text; holding the whole
        # text once would take it past 1.5 times, one Python float per cell
        # to about five times.
        text = rieszlab.io._matrix_to_csv(rng.standard_normal((self.N, self.N)))
        path = tmp_path / "m.csv"
        path.write_text(text)
        assert _traced_peak(load_matrix, path) < 1.5 * len(text)
