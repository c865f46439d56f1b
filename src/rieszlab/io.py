"""CSV persistence for families, matrices and ladder sets.

Family format: header row re_0,im_0,re_1,im_1,..., one (re, im) column block
per vector, one row per ambient coordinate.  Values are written with 17
significant digits, which round-trips float64 bit-exactly.  Shape metadata
(N, M, index_offset, n_padding) lives in a JSON sidecar next to the CSV.
All writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .family import SequenceFamily
from .ladder import LadderSet
from .linalg import DENSE_DIM_LIMIT


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _matrix_to_csv(mat: np.ndarray) -> str:
    n, m = mat.shape
    header = ",".join(f"re_{k},im_{k}" for k in range(m))
    cells = np.ascontiguousarray(mat).view(np.float64)  # re_k, im_k interleaved per row
    row = ",".join(["%.17g"] * (2 * m))
    return "\n".join([header, *(row % tuple(r.tolist()) for r in cells)]) + "\n"


def _matrix_from_csv(text: str) -> np.ndarray:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0].split(",")
    if len(header) % 2 or not header[0].startswith("re_"):
        raise ValueError("malformed family CSV header")
    m = len(header) // 2
    if max(m, len(lines) - 1) > DENSE_DIM_LIMIT:
        raise ValueError(f"CSV matrix of {len(lines) - 1} x {m} exceeds the dense limit "
                         f"{DENSE_DIM_LIMIT}")
    rows = []
    for ln in lines[1:]:
        parts = [float(p) for p in ln.split(",")]
        if len(parts) != 2 * m:
            raise ValueError("row width does not match header")
        rows.append([complex(parts[2 * k], parts[2 * k + 1]) for k in range(m)])
    return np.asarray(rows, dtype=np.complex128)


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def save_family(fam: SequenceFamily, path: str | os.PathLike) -> None:
    path = Path(path)
    atomic_write_text(path, _matrix_to_csv(fam.coeffs))
    meta = {
        "N": fam.dim,
        "M": fam.size,
        "index_offset": fam.index_offset,
        "n_padding": fam.n_padding,
    }
    atomic_write_text(_sidecar(path), json.dumps(meta, indent=2) + "\n")


def load_family(path: str | os.PathLike) -> SequenceFamily:
    path = Path(path)
    mat = _matrix_from_csv(path.read_text())
    index_offset = 0
    n_padding = 0
    sidecar = _sidecar(path)
    if sidecar.exists():
        meta = json.loads(sidecar.read_text())
        if (meta.get("N"), meta.get("M")) != mat.shape:
            raise ValueError(
                f"sidecar shape ({meta.get('N')}, {meta.get('M')}) disagrees with CSV {mat.shape}"
            )
        index_offset = int(meta.get("index_offset", 0))
        n_padding = int(meta.get("n_padding", 0))
    return SequenceFamily(mat, index_offset=index_offset, n_padding=n_padding)


def save_matrix(mat: np.ndarray, path: str | os.PathLike) -> None:
    atomic_write_text(path, _matrix_to_csv(np.asarray(mat, dtype=np.complex128)))


def load_matrix(path: str | os.PathLike) -> np.ndarray:
    return _matrix_from_csv(Path(path).read_text())


def save_ladder(ls: LadderSet, out_dir: str | os.PathLike,
                tolerance: float | None = None) -> list[Path]:
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
    }
    if tolerance is not None:
        meta["ladder_tolerance"] = tolerance
    p = out / "ladder.meta.json"
    atomic_write_text(p, json.dumps(meta, indent=2) + "\n")
    written.append(p)
    return written
