#!/usr/bin/env python3
"""Peak working set of each benchmark command, in N x N arrays and in peak RSS.

Usage, from the root of a checkout (PARENT is a second checkout, e.g. made
with `git archive`):

    python3 bench/working_set.py                     # every perfbench command
    python3 bench/working_set.py --checkout PARENT   # the same, of PARENT's src/
    python3 bench/working_set.py --dim 2048 --label "analyze random_regular"

Each command of perfbench's workloads (full scale, input seed --seed) runs
twice as `rieszlab.cli.main(argv)`, each time in a fresh interpreter with BLAS
on one thread, as in bench/digests.py:

- once under tracemalloc, with the cyclic garbage collector off, for the
  traced peak: every block Python and numpy allocated during the call,
  temporaries included, in KB and in N x N arrays of the run's dtype
  (complex128 for random_regular, float64 for every other model);
- once untraced, for the peak resident set size of the process from
  getrusage(RUSAGE_SELF), interpreter and imports included.

The children run with GLIBC_TUNABLES=glibc.malloc.mmap_threshold=131072, a
setting of the child process alone.  By default glibc raises its mmap
threshold each time a large block is freed (up to 32 MB), after which large
arrays come from the heap, where a freed one can stay resident under a
live neighbour; the peak RSS then moves with the order of allocations even
where the traced peak does not.  With the threshold fixed, every block of
128 KiB or more (an N x N float64 array from N = 128) is its own mapping,
given back when freed, so the RSS column is the interpreter and its imports
plus the small-object heap plus the large arrays live at the peak.

So that the traced peak is a function of the checkout's src/ alone, to the
byte, each interpreter runs from a copy of that src/ at a temporary path of
fixed length (the paths of the imported modules are part of the peak), with
an environment that holds only the variables set here (the size of an
inherited one, which holds PWD, moves the heap), without writing bytecode
(so that no child reads what an earlier one wrote), with a fixed hash seed and,
where `setarch -R` exists, without address-space randomization (object ids
feed some hashes).

perfbench's own tracer records no memory, so this is the layer-level evidence
for a working-set change.  --dim sets the dimension of every command that
takes --dim and leaves out the ones that do not (sweeps and file models).
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.workloads import SCALES, WORKLOADS, commands, write_inputs  # noqa: E402

#: Runs one command in the child interpreter and prints its measurements as JSON.
CHILD = """
import contextlib, gc, io, json, resource, sys, tracemalloc
from rieszlab.cli import main
argv, traced = json.loads(sys.argv[1]), sys.argv[2] == "1"
if traced:
    gc.disable()  # so that the peak does not depend on when the cyclic collector runs
    tracemalloc.start()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(argv)
peak = tracemalloc.get_traced_memory()[1] if traced else None
print(json.dumps({"exit": code, "traced_peak": peak,
                  "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""

#: Runs a child without address-space randomization, where setarch exists.
SETARCH = shutil.which("setarch")
NO_ASLR = [SETARCH, platform.machine(), "-R"] if SETARCH else []


def _value(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def size_and_itemsize(argv: list[str]) -> tuple[int, int]:
    """(N, bytes per entry) of a command: its largest dimension and its model's dtype."""
    dims = _value(argv, "--dims")
    if dims is not None:
        n = max(int(d) for d in dims.split(","))
    else:
        n = int(_value(argv, "--dim") or SCALES["full"]["file"])
    return n, 16 if _value(argv, "--model").startswith("random_regular") else 8


def measure(src: Path, argv: list[str], workload: str, seed: int) -> dict:
    env = dict(PYTHONPATH=str(src), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               GLIBC_TUNABLES="glibc.malloc.mmap_threshold=131072")
    result = {}
    for traced in ("1", "0"):
        with tempfile.TemporaryDirectory(prefix="rieszlab-ws-") as cwd:
            write_inputs(workload, "full", seed, Path(cwd))
            proc = subprocess.run([*NO_ASLR, sys.executable, "-c", CHILD, json.dumps(argv), traced],
                                  cwd=cwd, env=env, capture_output=True, text=True,
                                  timeout=1800, check=True)
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        result["exit"] = record["exit"]
        if traced == "1":
            result["traced_peak"] = record["traced_peak"]
        else:
            result["maxrss_kib"] = record["maxrss_kib"]
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="checkout whose src/rieszlab runs (default: this one)")
    parser.add_argument("--seed", type=int, default=3, help="input seed of the commands")
    parser.add_argument("--dim", type=int, default=None,
                        help="run only the commands that take --dim, at this dimension")
    parser.add_argument("--label", action="append", default=None,
                        help="run only the commands with this label (repeatable)")
    args = parser.parse_args(argv)

    sys.stdout.write(f"{'command':28s} {'N':>5s} {'dtype':>10s} {'exit':>4s} "
                     f"{'traced KB':>12s} {'N x N arrays':>12s} {'peak RSS MB':>11s}\n")
    with tempfile.TemporaryDirectory(prefix="rieszlab-ws-src-") as copy:
        src = Path(copy) / "src"
        shutil.copytree(args.checkout.resolve() / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        run_all(src, args)
    return 0


def run_all(src: Path, args: argparse.Namespace) -> None:
    for workload in WORKLOADS:
        for label, cmd in commands(workload, "full", args.seed):
            if args.label and label not in args.label:
                continue
            if args.dim is not None:
                if "--dim" not in cmd:
                    continue
                cmd[cmd.index("--dim") + 1] = str(args.dim)
            n, itemsize = size_and_itemsize(cmd)
            r = measure(src, cmd, workload, args.seed)
            dtype = "complex128" if itemsize == 16 else "float64"
            sys.stdout.write(
                f"{label:28s} {n:5d} {dtype:>10s} {r['exit']:4d} {r['traced_peak'] / 1e3:12.3f} "
                f"{r['traced_peak'] / (n * n * itemsize):12.2f} {r['maxrss_kib'] / 1024:11.1f}\n")
            sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
