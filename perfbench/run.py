#!/usr/bin/env python3
"""rieszlab benchmark: end-to-end pass times of the `rieszlab` CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyze-factor --seed 0 --seconds 20 --trace 0

The workload runs in one worker process (worker.py), so `peak_rss_mb` is
that process's peak RSS.  Set-up time (`setup_s`) is the median wall time of
fresh `python -c "import rieszlab.cli"` processes that the worker starts
between its passes.
BLAS threads are pinned to the CPUs this process may use.  A machine-drift
calibration at N=1024 is recorded with every run and normalizes nothing.

The last line of standard output is the result object; the line before it
holds the environment, calibration, sample counts and informational counts.
See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Every run must end within 180 s; the calibration after the worker needs a few.
WORKER_DEADLINE_S = 165.0


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas(threads: int) -> None:
    """Pin BLAS threads for this process (before numpy loads) and its children."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def calibrate(n: int) -> dict[str, float]:
    """Seconds of one complex128 kernel call each at size n."""
    import numpy as np

    rng = np.random.default_rng(1234)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    kernels = {
        "svd": lambda: np.linalg.svd(a),
        "svd_values": lambda: np.linalg.svd(a, compute_uv=False),
        "solve": lambda: np.linalg.solve(a, np.eye(n)),
        "qr": lambda: np.linalg.qr(a),
        "gemm": lambda: a @ a,
    }
    out = {}
    for name, kernel in kernels.items():
        t0 = time.perf_counter()
        kernel()
        out[name] = time.perf_counter() - t0
    return out


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "commit": git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    threads = blas_threads()
    pin_blas(threads)
    from workloads import WORKLOADS  # loads numpy, so only after pinning

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="N=16 and dims 8..32, for the smoke test")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "rieszlab" / "cli.py").is_file():
        sys.stderr.write(f"no rieszlab sources under {ROOT / 'src'}: nothing to benchmark\n")
        return 2

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--scale", "tiny" if args.tiny else "full", "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    budget = WORKER_DEADLINE_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"worker did not finish within {budget:.0f} s\n")
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.stderr.write(f"worker exited with code {proc.returncode}\n")
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(threads),
        "calibration_s": calibrate(64 if args.tiny else 1024),
        **{k: v for k, v in report.items() if k != "layers"},
    }
    print(json.dumps({"info": info}))

    correct = report["failed"] == 0 and report.get("counts_repeat", True)
    if args.trace:
        values = report["layers"]
    else:
        values = {"pass_s": statistics.median(report["pass_s"]),
                  "pass_cpu_s": statistics.median(report["pass_cpu_s"]),
                  "setup_s": statistics.median(report["setup_s"]),
                  "peak_rss_mb": report["peak_rss_mb"]}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
