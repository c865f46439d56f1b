"""CSV persistence for families, matrices and ladder sets.

Family format: header row re_0,im_0,re_1,im_1,..., one (re, im) column block
per vector, one row per ambient coordinate; a real matrix is written with
every im cell 0.  Values are written with 17 significant digits, which
round-trips float64 bit-exactly.  A read checks each line and hands the lines
to numpy's C reader, which parses the cells into float64 with the bits float()
gives.  Reading follows the dtype rule of linalg.narrow: a CSV whose im
columns are all zero loads as float64, any other as complex128.  Shape
metadata (N, M, index_offset) lives in a JSON sidecar next to the CSV.  All
writes go through a temp file and an atomic rename.

Formatting a value to 17 digits takes about a microsecond of interpreter
time, so a large matrix is cut into row blocks formatted at once: the first
in this process, each other one in a helper interpreter, one block per usable
CPU.  The bytes are those of the serial rendering, `_matrix_to_csv`.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import tempfile
from collections.abc import Iterator
from pathlib import Path
from typing import BinaryIO, TextIO

import numpy as np

from .errors import TruncationShapeError
from .family import SequenceFamily
from .ladder import LadderSet
from .linalg import DENSE_DIM_LIMIT, narrow

#: Fewest float cells a row block may hold: a helper interpreter starts in
#: about the time it takes to format this many, so smaller matrices are
#: formatted serially.
PARALLEL_MIN_CELLS = 1 << 16

_CELL = "%.17g"

#: Format of a real matrix entry: its re cell and the literal 0 of its im
#: cell, which is what _CELL makes of 0.0.
_REAL_ENTRY = _CELL + ",0"

#: Helper interpreter for one row block (it runs with -I -S, so stdlib only).
#: stdin holds the block as native float64 bytes, argv[1] the floats per row
#: and argv[2] the format of each; stdout receives the block's CSV lines as
#: `_csv_rows` renders them.
_FORMAT_BLOCK = """
import sys
width = int(sys.argv[1])
cells = memoryview(sys.stdin.buffer.read()).cast("d")
row = ",".join([sys.argv[2]] * width) + "\\n"
write = sys.stdout.write
for start in range(0, len(cells), width):
    write(row % tuple(cells[start:start + width].tolist()))
"""

#: Bytes that no written cell holds but that a float parser may skip: digit
#: separators and ASCII whitespace.
_CELL_NOISE = tuple(bytes([c]) for c in b"_ \t\r\x0b\x0c\x1c\x1d\x1e\x1f")


@contextlib.contextmanager
def _atomic_open(path: str | os.PathLike) -> Iterator[TextIO]:
    """Text handle on a temp file that replaces path when the with-block succeeds."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    with _atomic_open(path) as handle:
        handle.write(text)


def _csv_header(m: int) -> str:
    return ",".join(f"re_{k},im_{k}" for k in range(m)) + "\n"


def _float_cells(mat: np.ndarray) -> tuple[np.ndarray, str]:
    """The floats of mat's CSV rows, and the format that renders each of them.

    A complex matrix gives re_k, im_k interleaved per row, each rendered by
    _CELL.  A real matrix gives its own entries, each rendered by _REAL_ENTRY
    as both of its cells, so that it is written without a complex copy.
    """
    if np.iscomplexobj(mat):
        return np.ascontiguousarray(mat, dtype=np.complex128).view(np.float64), _CELL
    return np.ascontiguousarray(mat, dtype=np.float64), _REAL_ENTRY


def _csv_rows(cells: np.ndarray, entry: str) -> Iterator[str]:
    row = ",".join([entry] * cells.shape[1]) + "\n"
    return (row % tuple(r.tolist()) for r in cells)


def _matrix_to_csv(mat: np.ndarray) -> str:
    """The CSV text of mat, formatted serially: the reference rendering."""
    return _csv_header(mat.shape[1]) + "".join(_csv_rows(*_float_cells(mat)))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _row_blocks(n_rows: int, width: int) -> list[int]:
    """Row bounds of the blocks: one per usable CPU, none below PARALLEL_MIN_CELLS."""
    min_rows = -(-PARALLEL_MIN_CELLS // max(width, 1))
    blocks = max(1, min(_usable_cpus(), n_rows // min_rows))
    return [n_rows * k // blocks for k in range(blocks + 1)]


def _write_matrix_csv(handle: TextIO, mat: np.ndarray) -> None:
    """Write the CSV of mat to handle, row blocks formatted in parallel.

    Each block after the first goes through temporary files to a helper
    interpreter, which leaves all its I/O to the OS; the helpers' output is
    appended in order once this process has written its own block, so the
    whole text is never held in memory.  A helper that fails raises OSError.
    """
    cells, entry = _float_cells(mat)
    bounds = _row_blocks(cells.shape[0], 2 * mat.shape[1])
    handle.write(_csv_header(mat.shape[1]))
    import shutil
    import subprocess

    def stop(proc: subprocess.Popen) -> None:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    with contextlib.ExitStack() as stack:
        helpers = []
        for start, end in zip(bounds[1:-1], bounds[2:]):
            block, out, err = (stack.enter_context(tempfile.TemporaryFile()) for _ in range(3))
            block.write(cells[start:end])
            block.seek(0)
            proc = subprocess.Popen(
                [sys.executable, "-I", "-S", "-c", _FORMAT_BLOCK, str(cells.shape[1]), entry],
                stdin=block, stdout=out, stderr=err)
            stack.callback(stop, proc)
            helpers.append((proc, out, err))
        handle.writelines(_csv_rows(cells[:bounds[1]], entry))
        handle.flush()
        for proc, out, err in helpers:
            if proc.wait() != 0:
                err.seek(0)
                detail = err.read().decode(errors="replace").strip().splitlines()
                raise OSError(f"CSV formatter helper exited with status {proc.returncode}"
                              + (f": {detail[-1]}" if detail else ""))
            out.seek(0)
            shutil.copyfileobj(out, handle.buffer)


def _data_lines(handle: BinaryIO) -> Iterator[bytes]:
    """The lines of a CSV file that hold more than whitespace, line ends dropped."""
    return (ln.rstrip(b"\r\n") for ln in handle if not ln.isspace())


def load_matrix(path: str | os.PathLike) -> np.ndarray:
    """The matrix of a CSV file, its checked lines parsed by numpy's C reader into float64.

    A first binary pass counts the rows, so that a matrix above the dense
    limit is refused before anything of its size is allocated, and no more
    than one line of text is held at a time.  Each data line is checked as
    numpy's reader takes it: ASCII only, no digit separator or whitespace,
    and the header's number of commas.  The reader, with no comment and no
    quote character, then refuses any cell that is not a decimal, inf or nan
    literal, and gives the bits float() gives.
    """
    with open(path, "rb") as handle:
        n_lines = sum(1 for _ in _data_lines(handle))
        if not n_lines:
            raise ValueError("empty CSV")
        handle.seek(0)
        lines = _data_lines(handle)
        header = next(lines).lstrip().split(b",")
        m, n = len(header) // 2, n_lines - 1
        if max(m, n) > DENSE_DIM_LIMIT:
            raise ValueError(f"CSV matrix of {n} x {m} exceeds the dense limit {DENSE_DIM_LIMIT}")
        if header != [f"{part}_{k}".encode() for k in range(m) for part in ("re", "im")]:
            raise ValueError("malformed family CSV header")
        if not n:
            raise ValueError("CSV has a header but no data rows")

        def checked_lines() -> Iterator[bytes]:
            for i, ln in enumerate(lines):
                if i == n - 1:
                    ln = ln.rstrip()  # whitespace that ends the file
                if not ln.isascii() or any(ch in ln for ch in _CELL_NOISE):
                    raise ValueError("CSV cells must not contain '_', whitespace or non-ASCII "
                                     "characters")
                if ln.count(b",") != 2 * m - 1:
                    raise ValueError("row width does not match header")
                yield ln

        cells = np.loadtxt(checked_lines(), delimiter=",", comments=None, dtype=np.float64,
                           ndmin=2)
    if not np.all(np.isfinite(cells)):
        raise ValueError("CSV contains non-finite values")
    return narrow(cells.view(np.complex128))  # re_k, im_k interleaved per row, as written


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def save_family(fam: SequenceFamily, path: str | os.PathLike) -> None:
    path = Path(path)
    save_matrix(fam.coeffs, path)
    meta = {"N": fam.dim, "M": fam.size, "index_offset": fam.dim - fam.size}
    atomic_write_text(_sidecar(path), json.dumps(meta, indent=2) + "\n")


def load_family(path: str | os.PathLike) -> SequenceFamily:
    """The family of a CSV and its optional sidecar, whose n_padding key, if any, must be 0.

    The index_offset, 0 without a sidecar, must be N - M, the first index of the columns.
    """
    path = Path(path)
    mat = load_matrix(path)
    index_offset = 0
    sidecar = _sidecar(path)
    if sidecar.exists():
        meta = json.loads(sidecar.read_text())
        if not isinstance(meta, dict):
            raise ValueError(f"{sidecar}: sidecar must be a JSON object")
        meta = {"index_offset": 0, "n_padding": 0, **meta}
        for key in ("N", "M", "index_offset", "n_padding"):
            if type(meta.get(key)) is not int:
                raise ValueError(f"{sidecar}: {key} must be an integer, got {meta.get(key)!r}")
        if (meta["N"], meta["M"]) != mat.shape:
            raise ValueError(
                f"sidecar shape ({meta['N']}, {meta['M']}) disagrees with CSV {mat.shape}"
            )
        if meta["n_padding"]:
            raise ValueError(f"{sidecar}: n_padding must be 0, got {meta['n_padding']}: "
                             "every stored column is a family member")
        index_offset = meta["index_offset"]
    try:
        fam = SequenceFamily(mat)
    except TruncationShapeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if index_offset != fam.dim - fam.size:
        raise ValueError(f"{path}: index_offset is {index_offset}, but {fam.size} columns in "
                         f"dimension {fam.dim} need N - M = {fam.dim - fam.size}")
    return fam


def save_matrix(mat: np.ndarray, path: str | os.PathLike) -> None:
    with _atomic_open(path) as handle:
        _write_matrix_csv(handle, np.asarray(mat))


def save_ladder(ls: LadderSet, out_dir: str | os.PathLike, tolerance: float) -> list[Path]:
    """Ladder export: three matrix CSVs plus a metadata record."""
    out = Path(out_dir)
    written = []
    for name, mat in (("lowering", ls.lowering), ("raising", ls.raising),
                      ("number", ls.number)):
        p = out / f"{name}.csv"
        save_matrix(mat, p)
        written.append(p)
    meta = {
        "side": ls.side,
        "window": ls.window,
        "kappa": ls.kappa,
        "dim": ls.dim,
        "ladder_tolerance": tolerance,
    }
    p = out / "ladder.meta.json"
    atomic_write_text(p, json.dumps(meta, indent=2) + "\n")
    written.append(p)
    return written
