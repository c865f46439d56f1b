#!/usr/bin/env python3
"""SHA-256 digests of a fixed list of rieszlab CLI runs, for byte-identity checks.

Usage, from the root of a checkout (PARENT is a second checkout of the parent
commit, e.g. made with `git archive`):

    python3 bench/digests.py --checkout PARENT > parent.txt
    python3 bench/digests.py > change.txt
    diff parent.txt change.txt

Each command of COMMANDS runs as `python -m rieszlab.cli` from the `src/` of
the checkout (default: the one this script lives in), in its own working
directory, with `--out` pointing at a relative directory, so that no absolute
path reaches stdout or the written files.  For every command the output holds
its exit code, the number of lines it wrote to stderr (so that a traceback
or a numpy warning shows), one digest of its stdout and one digest per
written file (paths relative to the output directory).  A second, masked digest of stdout and
of each written table (`*.txt`) replaces every `(tolerance ...)` field by
`(tolerance *)`, and one of `ladder.meta.json` leaves out its
`ladder_tolerance`: a change of the
tolerance rule alone leaves every masked digest as it was, so a diff of two
outputs shows whether exit codes, PASS/FAIL statuses, residual digits and the
other files moved with it.  The file inputs are written by perfbench's
own CSV writer, not by the rieszlab under test, so both checkouts read the same
bytes: the pseudo-boson pair, so that the `pseudoboson-pipeline` commands run
exactly as in the benchmark, and the family pairs at N = 64 (with JSON
sidecars) that the file-model `analyze` and `ladder` runs read: paper-example
pairs with index offsets 1 and 2, whose 0/1 entries make every product exact,
a real and a complex dense pair with offset 1, whose products round, and a
square identity pair whose sidecars claim offset 1, which is bad input (the
offset of N x M columns is N - M).  The complex pair is written with its im
cells, which perfbench's writer leaves 0.  Further runs spell a number with
a digit separator, a plus sign or non-ASCII digits, give a negative seed (to
a model that reads it and to one that does not), leave a `--dims` entry
empty or sweep a file model (the N = 64 family pair), each of which is bad
input too.  The scaled runs read finite
entries whose products leave float64's range (SCALED_INPUTS): analyze of
phi = s I, psi = I / s at N = 8, ladder of phi = psi = 1e200 I, whose
pairing overflows, and pseudoboson of a = s S_-, b = S_+ / s at N = 16,
S_- the truncated lowering shift: at s = 1e200 the vacuum solve leaves the
range (exit 1), at s = 1e50 the generated phi_n, of order s^-n, underflows
to a zero column, a check failure (exit 2).  One run per command
reads its settings from a `--config run.yaml` written from CONFIGS, so that
the config path is under the gate too.  BLAS runs on one thread, so that the digests do not depend
on the thread count of the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
import numpy as np  # noqa: E402

from perfbench.workloads import _write_matrix_csv, commands, write_inputs  # noqa: E402

#: Input seed of the perfbench commands and of the seeded models.
SEED = 3
PROBES = ["--probe", "e_0", "--probe", "geom:0.5", "--probe", f"random:{SEED}"]
PIPELINE = "pseudoboson-pipeline"
#: Model specs of the family pairs written by _write_family_pair, with their
#: index offsets: the offset-2 psi family leaves two coordinates outside its
#: span.
FAMILY_MODEL = "file:phi.csv,psi.csv"
FAMILY_MODEL_2 = "file:phi2.csv,psi2.csv"
FAMILY_MODEL_DENSE = "file:phid.csv,psid.csv"
FAMILY_MODEL_COMPLEX = "file:phic.csv,psic.csv"
FAMILY_MODEL_SQUARE = "file:phis.csv,psis.csv"
FAMILY_MODELS = {FAMILY_MODEL: 1, FAMILY_MODEL_2: 2, FAMILY_MODEL_DENSE: 1,
                 FAMILY_MODEL_COMPLEX: 1, FAMILY_MODEL_SQUARE: 1}
FAMILY_DIM = 64
#: Per command, the YAML of its `--config run.yaml` run: only keys the command reads.
CONFIGS = {
    "analyze": f"model: random_regular:50\ndim: 64\nseed: {SEED}\n",
    "sweep": f"model: random_regular:50\ndims: [16, 32, 64]\nseed: {SEED}\n"
             "probes: [e_0, 'geom:0.5']\n",
    "pseudoboson": "model: similarity:1.01^k\ndim: 64\nwindow: 32\n",
    "ladder": f"model: random_regular:50\ndim: 64\nseed: {SEED}\nside: psi\n",
}
#: The five scales s of the analyze runs on phi = s I, psi = I / s.
SCALES = ("1e-200", "1e-150", "1e150", "1e155", "1e200")
SHIFT_DOWN = np.diag(np.sqrt(np.arange(1.0, 16.0)), 1)
#: Per scaled file model: the matrices of its two files, in the order of the spec.
SCALED_INPUTS = {
    **{f"file:phi{s}.csv,psi{s}.csv": (float(s) * np.eye(8), np.eye(8) / float(s))
       for s in SCALES},
    "file:phiinf.csv,psiinf.csv": (1e200 * np.eye(8), 1e200 * np.eye(8)),
    "file:ascaled.csv,bscaled.csv": (1e200 * SHIFT_DOWN, SHIFT_DOWN.T / 1e200),
    "file:a1e50.csv,b1e50.csv": (1e50 * SHIFT_DOWN, SHIFT_DOWN.T / 1e50),
}


def _command_list() -> list[list[str]]:
    cmds = []
    for model in ("identity", "paper_example", "diagonal:k+1", "random_regular:50",
                  "ccr", "similarity:1.01^k"):
        for n in (64, 128, 256):
            cmds.append(["analyze", "--model", model, "--dim", str(n), "--seed", str(SEED)])
    for model in ("ccr", "similarity:1.01^k"):
        for n in (64, 128):
            cmds.append(["pseudoboson", "--model", model, "--dim", str(n)])
            cmds.append(["pseudoboson", "--model", model, "--dim", str(n),
                         "--window", str(n // 2)])
    cmds += [argv for _, argv in commands(PIPELINE, "full", SEED)]
    for model, side in (("random_regular:50", "phi"), ("random_regular:50", "psi"),
                        ("paper_example", "phi"), ("paper_example", "psi")):
        cmds.append(["ladder", "--model", model, "--dim", "64", "--seed", str(SEED),
                     "--side", side])
    cmds += [["analyze", "--model", FAMILY_MODEL],
             ["ladder", "--model", FAMILY_MODEL, "--side", "psi"],
             ["analyze", "--model", FAMILY_MODEL_2],
             ["analyze", "--model", FAMILY_MODEL_DENSE],
             ["ladder", "--model", FAMILY_MODEL_DENSE, "--side", "psi"]]
    # Above io.PARALLEL_MIN_CELLS: row blocks formatted by helper interpreters.
    cmds.append(["ladder", "--model", "random_regular:50", "--dim", "256", "--seed", str(SEED),
                 "--side", "phi"])
    cmds += [
        ["sweep", "--model", "paper_example", "--dims", "16,32,64,128", *PROBES],
        ["sweep", "--model", "random_regular:50", "--dims", "16,32,64,128",
         "--seed", str(SEED), *PROBES],
        ["sweep", "--model", "diagonal:k+1", "--dims", "16,32,64,128", *PROBES],
        ["sweep", "--model", "similarity:1.01^k", "--dims", "16,32,64", *PROBES],
        # Spellings of e_1, geom:0.5 and random:7, named in normal form; the
        # sweep comes out inconclusive.
        ["sweep", "--model", "random_regular:50", "--seed", str(SEED), "--dims", "16,32,64,128",
         "--probe", "e_01", "--probe", "geom:.50", "--probe", "random:007"],
    ]
    # A check failure (exit 2): the table of a singular transported ladder ends in a FAIL line.
    cmds.append(["pseudoboson", "--model", "similarity:2^k", "--dim", "64"])
    cmds += [[command, "--config", "run.yaml"] for command in CONFIGS]
    cmds += [["analyze", "--model", FAMILY_MODEL_COMPLEX],
             ["ladder", "--model", FAMILY_MODEL_COMPLEX, "--side", "psi"],
             ["analyze", "--model", FAMILY_MODEL_SQUARE]]
    # Numbers that Python's int and float read but the number grammar refuses.
    cmds += [["sweep", "--model", "paper_example", "--dims", "1_6,3_2"],
             ["sweep", "--model", "paper_example", "--dims", "\u0661\u0666,32"],
             ["analyze", "--model", "identity", "--dim", "1_6"],
             ["analyze", "--model", "random_regular:50", "--dim", "16", "--seed", "0_1"],
             ["analyze", "--model", "random_regular:5_0", "--dim", "16"],
             ["pseudoboson", "--model", "ccr", "--dim", "16", "--window", "1_0"]]
    # A negative seed, read by the model or not, and an empty --dims entry.
    cmds += [["analyze", "--model", "random_regular:50", "--dim", "16", "--seed", "-1"],
             ["sweep", "--model", "paper_example", "--dims", "16,32", "--seed", "-1"],
             ["sweep", "--model", "identity", "--dims", "8,,16,"]]
    cmds += [["analyze", "--model", f"file:phi{s}.csv,psi{s}.csv"] for s in SCALES]
    cmds += [["ladder", "--model", "file:phiinf.csv,psiinf.csv"],
             ["pseudoboson", "--model", "file:ascaled.csv,bscaled.csv"],
             ["pseudoboson", "--model", "file:a1e50.csv,b1e50.csv"]]
    cmds.append(["sweep", "--model", FAMILY_MODEL, "--dims", "8,16"])
    return cmds


COMMANDS = _command_list()


def _write_family_pair(workdir: Path, model: str) -> None:
    """Two family CSVs with sidecars that state the offset d of model.

    The paper-example pairs are phi_k = e_k + e_0 + ... + e_(d-1) and
    psi_k = e_k, k = d..N-1.  A dense pair is the tail of
    A = Q diag(geomspace(1, 50)) with column 0 set to e_0, for Q the orthogonal
    (or unitary) factor of a seeded real (or complex) Gaussian matrix, and psi
    the tail of the inverse conjugate transpose of A.  The square pair is two
    identities.
    """
    offset = FAMILY_MODELS[model]
    if model == FAMILY_MODEL_SQUARE:
        phi = psi = np.eye(FAMILY_DIM)
    elif model in (FAMILY_MODEL_DENSE, FAMILY_MODEL_COMPLEX):
        rng = np.random.default_rng(SEED)
        gauss = rng.standard_normal((FAMILY_DIM,) * 2)
        if model == FAMILY_MODEL_COMPLEX:
            gauss = gauss + 1j * rng.standard_normal((FAMILY_DIM,) * 2)
        q, _ = np.linalg.qr(gauss)
        square = q * np.geomspace(1.0, 50.0, FAMILY_DIM)
        square[:, 0] = np.eye(FAMILY_DIM)[:, 0]
        phi, psi = square[:, offset:], np.linalg.inv(square).conj().T[:, offset:]
    else:
        psi = np.eye(FAMILY_DIM)[:, offset:]
        phi = psi.copy()
        phi[:offset, :] = 1.0
    meta = {"N": FAMILY_DIM, "M": phi.shape[1], "index_offset": offset}
    for name, cols in zip(model[5:].split(","), (phi, psi)):
        if np.iscomplexobj(cols):
            _write_complex_csv(workdir / name, cols)
        else:
            _write_matrix_csv(workdir / name, cols)
        (workdir / f"{name}.meta.json").write_text(json.dumps(meta) + "\n")


def _write_complex_csv(path: Path, mat: np.ndarray) -> None:
    """perfbench's CSV format (re_k,im_k column pairs, 17 digits) with the im cells filled."""
    cells = np.ascontiguousarray(mat, dtype=np.complex128).view(np.float64)
    header = ",".join(f"re_{k},im_{k}" for k in range(mat.shape[1]))
    np.savetxt(path, cells, fmt="%.17g", delimiter=",", header=header, comments="")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


TOLERANCE_FIELD = re.compile(rb"\(tolerance [^)]*\)")


def _masked_table(data: bytes) -> bytes:
    return TOLERANCE_FIELD.sub(b"(tolerance *)", data)


def _masked_meta(data: bytes) -> bytes:
    meta = json.loads(data)
    meta.pop("ladder_tolerance", None)
    return json.dumps(meta, sort_keys=True).encode()


def run_all(checkout: Path, work: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    lines = []
    for i, argv in enumerate(COMMANDS):
        cwd = work / f"c{i:02d}"
        cwd.mkdir()
        if argv[1] == "--config":
            (cwd / argv[2]).write_text(CONFIGS[argv[0]])
        elif argv[2] in FAMILY_MODELS:
            _write_family_pair(cwd, argv[2])
        elif argv[2] in SCALED_INPUTS:
            for name, mat in zip(argv[2][5:].split(","), SCALED_INPUTS[argv[2]]):
                _write_matrix_csv(cwd / name, mat)
        elif argv[2].startswith("file:"):
            write_inputs(PIPELINE, "full", SEED, cwd)
        proc = subprocess.run([sys.executable, "-m", "rieszlab.cli", *argv, "--out", "out"],
                              cwd=cwd, env=env, capture_output=True, timeout=600)
        lines.append(f"exit {proc.returncode}  {' '.join(argv)}")
        lines.append(f"  {len(proc.stderr.splitlines())}  stderr lines")
        lines.append(f"  {_sha(proc.stdout)}  stdout")
        lines.append(f"  {_sha(_masked_table(proc.stdout))}  stdout, masked")
        out = cwd / "out"
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
        for p in files:
            name = p.relative_to(out).as_posix()
            lines.append(f"  {_sha(p.read_bytes())}  {name}")
            if p.suffix == ".txt":
                lines.append(f"  {_sha(_masked_table(p.read_bytes()))}  {name}, masked")
            elif p.name == "ladder.meta.json":
                lines.append(f"  {_sha(_masked_meta(p.read_bytes()))}  {name}, masked")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="checkout whose src/rieszlab runs (default: this one)")
    args = parser.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="rieszlab-digests-"))
    try:
        lines = run_all(args.checkout.resolve(), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
