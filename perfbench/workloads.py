"""The command lists one benchmark pass runs, per workload and scale.

Pass p of a run draws its inputs from the input seed (seed + p) mod
SEED_TABLE: the seed of `random_regular` models, of `random:` probes and of
the generated pseudo-boson CSV pair.  Every pass of a run therefore gets new
inputs (a run makes far fewer than SEED_TABLE passes), so a cache that lives
across calls cannot fake a gain.  The table is finite because sweep verdicts
depend on the random probe, and the correctness gate compares them with the
verdicts recorded for the same input seed (see capture.py).

"full" is the measured scale; "tiny" runs the same commands at N=16 and
dims 8..32 for the smoke test.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

SEED_TABLE = 64

WORKLOADS = ("analyze-factor", "sweep-span", "pseudoboson-pipeline", "ladder-export")

SCALES = {
    "full": {"analyze": 512, "sweep_dims": "64,128,256,512,1024",
             "rr_dims": "64,128,256,512", "ccr": 384, "similarity": 512,
             "window": 400, "file": 384, "ladder": 384},
    "tiny": {"analyze": 16, "sweep_dims": "8,12,16,24,32",
             "rr_dims": "8,12,16,24", "ccr": 16, "similarity": 16,
             "window": 12, "file": 16, "ladder": 16},
}

#: Factorization counts of the seed commit, per command label, independent of
#: N.  "svd" counts full and values-only SVDs together.  A trace run reports
#: whether they still hold; a change that factors less is expected to break
#: them, so they inform and do not gate.
REFERENCE_COUNTS = {
    "analyze paper_example": {"svd": 11, "solve": 8, "qr": 1},
    "sweep paper_example": {"svd": 5, "solve": 0, "qr": 30},
    "pseudoboson ccr": {"svd": 4, "solve": 1, "qr": 1},
    "pseudoboson similarity": {"svd": 4, "solve": 1, "qr": 1},
    "pseudoboson file": {"svd": 4, "solve": 1, "qr": 1},
}

#: File names of the generated pseudo-boson input pair, relative to the
#: working directory the commands run in.
PAIR_FILES = ("a.csv", "b.csv")


def input_seed(seed: int, pass_index: int) -> int:
    return (seed + pass_index) % SEED_TABLE


def commands(workload: str, scale: str, s: int) -> list[tuple[str, list[str]]]:
    """(label, argv) for each CLI call of one pass at input seed s."""
    z = SCALES[scale]
    probes = ["--probe", "e_0", "--probe", "geom:0.5", "--probe", f"random:{s}"]
    if workload == "analyze-factor":
        n = str(z["analyze"])
        return [
            ("analyze paper_example", ["analyze", "--model", "paper_example", "--dim", n]),
            ("analyze random_regular", ["analyze", "--model", "random_regular:50",
                                        "--dim", n, "--seed", str(s)]),
            ("analyze diagonal", ["analyze", "--model", "diagonal:k+1", "--dim", n]),
        ]
    if workload == "sweep-span":
        return [
            ("sweep paper_example", ["sweep", "--model", "paper_example",
                                     "--dims", z["sweep_dims"], *probes]),
            ("sweep random_regular", ["sweep", "--model", "random_regular:50",
                                      "--dims", z["rr_dims"], "--seed", str(s), *probes]),
        ]
    if workload == "pseudoboson-pipeline":
        return [
            ("pseudoboson ccr", ["pseudoboson", "--model", "ccr", "--dim", str(z["ccr"])]),
            ("pseudoboson similarity", ["pseudoboson", "--model", "similarity:1.01^k",
                                        "--dim", str(z["similarity"]),
                                        "--window", str(z["window"])]),
            ("pseudoboson file", ["pseudoboson", "--model", "file:" + ",".join(PAIR_FILES)]),
        ]
    if workload == "ladder-export":
        n = str(z["ladder"])
        return [
            ("ladder random_regular", ["ladder", "--model", "random_regular:50", "--dim", n,
                                       "--seed", str(s), "--side", "phi", "--out", "ladder-phi"]),
            ("ladder paper_example", ["ladder", "--model", "paper_example", "--dim", n,
                                      "--side", "psi", "--out", "ladder-psi"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, scale: str, s: int, workdir: Path) -> None:
    """Write the file inputs a pass reads, if its workload has any.

    The pseudo-boson pair is a = S S_minus S^-1, b = S S_plus S^-1 with
    S = diag(exp(u_k)), u_k uniform on [-1, 1]: the canonical commutation
    relation holds exactly off the truncation edge and kappa(S) <= e^2, so
    every check of the pipeline passes.
    """
    if workload != "pseudoboson-pipeline":
        return
    n = SCALES[scale]["file"]
    d = np.exp(np.random.default_rng(s).uniform(-1.0, 1.0, n))
    w = np.sqrt(np.arange(1, n, dtype=np.float64))
    a = np.zeros((n, n))
    b = np.zeros((n, n))
    a[np.arange(n - 1), np.arange(1, n)] = w * d[:-1] / d[1:]
    b[np.arange(1, n), np.arange(n - 1)] = w * d[1:] / d[:-1]
    for name, mat in zip(PAIR_FILES, (a, b)):
        _write_matrix_csv(workdir / name, mat)


def _write_matrix_csv(path: Path, mat: np.ndarray) -> None:
    """The rieszlab matrix CSV format: re_k,im_k column pairs, 17 digits."""
    n, m = mat.shape
    cells = np.zeros((n, 2 * m))
    cells[:, 0::2] = mat
    header = ",".join(f"re_{k},im_{k}" for k in range(m))
    np.savetxt(path, cells, fmt="%.17g", delimiter=",", header=header, comments="")
