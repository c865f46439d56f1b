import json

import numpy as np
import pytest

from rieszlab.family import SequenceFamily, pad_to_square
from rieszlab.io import (
    _matrix_to_csv,
    atomic_write_text,
    load_family,
    load_matrix,
    save_family,
    save_ladder,
    save_matrix,
)
from rieszlab.ladder import build_ladder
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

    def test_oversized_matrix_rejected(self, tmp_path):
        p = tmp_path / "wide.csv"
        m = 4097
        p.write_text(",".join(f"re_{k},im_{k}" for k in range(m)) + "\n"
                     + ",".join(["0"] * (2 * m)) + "\n")
        with pytest.raises(ValueError, match="dense limit"):
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


class TestFamilyRoundTrip:
    def test_metadata_preserved(self, tmp_path):
        fam = pad_to_square(paper_example_pair(6).phi)
        p = tmp_path / "phi.csv"
        save_family(fam, p)
        loaded = load_family(p)
        assert np.array_equal(loaded.coeffs, fam.coeffs)
        assert loaded.n_padding == fam.n_padding
        assert loaded.index_offset == fam.index_offset

    def test_sidecar_contents(self, tmp_path):
        fam = SequenceFamily(np.eye(3)[:, :2], index_offset=1)
        p = tmp_path / "f.csv"
        save_family(fam, p)
        meta = json.loads((tmp_path / "f.csv.meta.json").read_text())
        assert meta == {"N": 3, "M": 2, "index_offset": 1, "n_padding": 0}

    def test_missing_sidecar_defaults(self, rng, tmp_path):
        mat = random_complex(rng, 4, 4)
        p = tmp_path / "f.csv"
        save_matrix(mat, p)
        loaded = load_family(p)
        assert loaded.index_offset == 0 and loaded.n_padding == 0

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

    def test_family_with_too_many_columns_is_value_error(self, tmp_path):
        p = tmp_path / "wide.csv"
        save_matrix(np.ones((3, 5)), p)
        with pytest.raises(ValueError, match="more columns"):
            load_family(p)
