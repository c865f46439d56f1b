"""Benchmark worker: one closed-loop client running a workload in-process.

run.py starts this process with the BLAS thread count already pinned in its
environment.  It calls `rieszlab.cli.main(argv)` for one command at a time,
pass after pass, gates every command against the outputs recorded at the
seed commit (expected.json) and prints one JSON object as its last line.
Between passes it times fresh `python -c "import rieszlab.cli"` processes
(setup_s), so that those samples span the run.  With --trace 1 it installs
the tracer and alternates untraced and traced passes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer, command_counts, dump_spans, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
#: Set-up samples per untraced run, spread over its passes.
SETUP_SAMPLES = 24
#: Relative tolerance of the gate's floats (ladder norms, entries, kappa):
#: six significant digits, so a change in the last digits still passes.
GATE_RTOL = 1e-6


def load_package():
    """Import rieszlab from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rieszlab
    import rieszlab.cli

    if Path(rieszlab.__file__).resolve().parent != src / "rieszlab":
        raise SystemExit(f"rieszlab imported from {rieszlab.__file__}, not from {src}")
    return rieszlab


def observe(argv: list[str], code, text: str) -> tuple[dict, str]:
    """Gate record and byte digest of one command's outcome.

    The record holds the exit code and the lines the gate compares, without
    residual digits: PASS/FAIL status with check name for analyze and
    pseudoboson, classification, riesz class and flag lines for sweep, and the
    files written for ladder with a summary of each (see ladder_file).  The
    digest covers the whole output, files included.
    """
    lines = text.splitlines()
    digest = hashlib.sha256(text.encode())
    record = {"exit": code}
    if argv[0] == "sweep":
        record["lines"] = [ln for ln in lines
                           if ln.startswith(("classification:", "riesz class:"))
                           or (ln.startswith("  ") and ln.endswith((": True", ": False")))]
    elif argv[0] == "ladder":
        record["lines"] = [ln for ln in lines if ln.startswith("wrote ")]
        paths = [Path(ln[len("wrote "):]) for ln in record["lines"]]
        for path in paths:
            if path.is_file():
                digest.update(path.read_bytes())
        record["files"] = [ladder_file(path) for path in paths]
    else:
        record["lines"] = [ln.split(": residual ")[0] for ln in lines
                           if ln.startswith(("PASS ", "FAIL "))]
    return record, digest.hexdigest()[:16]


def _digits(x: float) -> float:
    """x to 10 significant digits, enough for a GATE_RTOL comparison."""
    return float(f"{x:.10g}")


def ladder_file(path: Path) -> dict:
    """What the gate checks of one file `ladder --out` wrote, read with numpy.

    A matrix CSV gives its header check, shape, finiteness, Frobenius norm
    and seven fixed entries as (re, im) over that norm, off-diagonal pairs
    among them so that a transposed matrix shows; the metadata record gives
    side, window, dim and kappa.
    """
    if not path.is_file():
        return {"file": path.name, "missing": True}
    if path.suffix == ".json":
        meta = json.loads(path.read_text())
        return {"file": path.name, "side": meta.get("side"), "window": meta.get("window"),
                "dim": meta.get("dim"), "kappa": _digits(meta.get("kappa", math.nan))}
    with open(path) as handle:
        header = handle.readline().rstrip("\n")
        cells = np.loadtxt(handle, delimiter=",", ndmin=2)
    n = cells.shape[0]
    z = cells[:, 0::2] + 1j * cells[:, 1::2]
    norm = float(np.linalg.norm(z)) if z.size else 0.0
    scale = norm if norm > 0 else 1.0
    entries = []
    if z.size:
        for i, j in ((0, 0), (0, 1), (1, 0), (n // 2, n // 4), (n // 4, n // 2),
                     (n - 1, 0), (n - 1, n - 1)):
            v = z[min(i, n - 1), min(j, z.shape[1] - 1)] / scale
            entries.append([_digits(v.real), _digits(v.imag)])
    return {"file": path.name,
            "header_ok": header == ",".join(f"re_{k},im_{k}"
                                            for k in range(cells.shape[1] // 2)),
            "shape": list(cells.shape), "finite": bool(np.isfinite(cells).all()),
            "frob": _digits(norm), "entries": entries}


def agrees(got, want) -> bool:
    """Gate comparison: floats to GATE_RTOL (entries, being over the norm,
    also absolutely), everything else exactly."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(agrees(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(agrees(g, w) for g, w in zip(got, want)))
    if isinstance(want, float) or isinstance(got, float):
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and math.isclose(got, want, rel_tol=GATE_RTOL, abs_tol=GATE_RTOL * 1e-3))
    return got == want


def call_cli(cli, argv: list[str]):
    """Exit code of one CLI call, or a description of what escaped it."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:  # noqa: BLE001 - a crash counts as a failed command
        return "raised: " + traceback.format_exc(limit=3)


def run_pass(cli, workload: str, scale: str, s: int, workdir: Path,
             tracer: Tracer | None = None) -> dict:
    """One timed pass over the workload's commands at input seed s."""
    workloads.write_inputs(workload, scale, s, workdir)
    cmds = workloads.commands(workload, scale, s)
    outputs = []
    command_s = {}
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for label, argv in cmds:
        if tracer is not None:
            tracer.command = label
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = call_cli(cli, argv)
        command_s[label] = time.perf_counter() - t0
        outputs.append((label, argv, code, buf.getvalue()))
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    observed = {label: observe(argv, code, text) for label, argv, code, text in outputs}
    for entry in workdir.iterdir():
        shutil.rmtree(entry) if entry.is_dir() else entry.unlink()
    return {"wall": wall, "cpu": cpu, "command_s": command_s, "observed": observed}


def expectation(table: dict, label: str, s: int) -> tuple[dict, str]:
    entry = table[label]
    variant = entry["by_seed"][s] if "by_seed" in entry else 0
    digests = entry["digests"]
    return entry["variants"][variant], digests[s] if len(digests) > 1 else digests[0]


class Client:
    """The closed loop: passes until the run's time is up, with the gate applied."""

    def __init__(self, cli, workload: str, scale: str, seed: int, workdir: Path):
        self.cli, self.workload, self.scale, self.seed = cli, workload, scale, seed
        self.workdir = workdir
        self.table = json.loads(EXPECTED.read_text())[scale][workload]
        self.passes = 0
        self.attempted = self.failed = 0
        self.digest_matches = 0
        self.failures: list[str] = []

    def one_pass(self, tracer: Tracer | None = None) -> dict:
        s = workloads.input_seed(self.seed, self.passes)
        result = run_pass(self.cli, self.workload, self.scale, s, self.workdir, tracer)
        self.passes += 1
        for label, (got, digest) in result["observed"].items():
            want, want_digest = expectation(self.table, label, s)
            self.attempted += 1
            self.digest_matches += digest == want_digest
            if not agrees(got, want):
                self.failed += 1
                self.failures.append(f"{label} (input seed {s}): expected {want}, got {got}")
        return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--scale", required=True, choices=tuple(workloads.SCALES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    package = load_package()
    workdir = ROOT / ".bench_work" / f"worker-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    try:
        report = measure(package, args, workdir)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def setup_seconds(samples: int) -> list[float]:
    """Wall times of fresh interpreter processes importing the CLI."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rieszlab.cli"], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def measure(package, args, workdir: Path) -> dict:
    cli = package.cli
    # Warm-up at tiny scale: loads lazy imports and code paths, not measured.
    run_pass(cli, args.workload, "tiny", workloads.input_seed(args.seed, 0), workdir)

    client = Client(cli, args.workload, args.scale, args.seed, workdir)
    report: dict = {}
    deadline = time.perf_counter() + args.seconds

    def more(done: int) -> bool:
        # At least two passes; then a pass while half of one still fits, so
        # that the run ends on average at the deadline, not a pass before it.
        now = time.perf_counter()
        return done < 2 or now + 0.5 * (now - start) / client.passes <= deadline

    start = time.perf_counter()
    if not args.trace:
        setup_seconds(1)  # untimed: fills the page cache and writes bytecode
        walls, cpus, per_command, setup = [], [], {}, []
        while more(client.passes):
            r = client.one_pass()
            walls.append(r["wall"])
            cpus.append(r["cpu"])
            for label, sec in r["command_s"].items():
                per_command.setdefault(label, []).append(sec)
            # Set-up samples fall due in step with the run's elapsed share.
            due = math.ceil(SETUP_SAMPLES * (time.perf_counter() - start) / args.seconds)
            setup += setup_seconds(min(due, SETUP_SAMPLES) - len(setup))
        setup += setup_seconds(SETUP_SAMPLES - len(setup))
        report.update(
            pass_s=walls, pass_cpu_s=cpus, setup_s=setup,
            command_s={k: statistics.median(v) for k, v in per_command.items()},
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    else:
        # Untraced and traced passes alternate, so that both see the same
        # machine; the installed tracer costs one flag test per call when off.
        tracer = Tracer()
        tracer.install(package)
        untraced, walls, per_pass, counts, spans = [], [], [], [], []
        while more(len(walls)):
            index = client.passes
            tracer.active = index % 2 == 1
            r = client.one_pass(tracer)
            if not tracer.active:
                untraced.append(r["wall"])
                continue
            walls.append(r["wall"])
            per_pass.append(layer_metrics(tracer))
            counts.append(command_counts(tracer))
            spans.extend({**sp, "pass": index} for sp in tracer.spans)
            tracer.clear()
        dump_spans(ROOT / ".bench_out" /
                   f"spans-{args.workload}-{args.scale}-seed{args.seed}.jsonl", spans)
        layers = {k: _typical([p[k] for p in per_pass]) for k in per_pass[0]}
        layers["trace.overhead_ratio"] = statistics.median(walls) / statistics.median(untraced)
        report.update(layers=layers, traced_pass_s=walls, untraced_pass_s=untraced,
                      span_count=len(spans), **check_counts(client, per_pass, counts))
    report.update(passes=client.passes, attempted=client.attempted, failed=client.failed,
                  failures=client.failures[:5], digest_matches=client.digest_matches)
    return report


def _typical(values: list):
    """The value itself when every pass agrees (counts), else the median."""
    return values[0] if all(v == values[0] for v in values) else statistics.median(values)


def check_counts(client: Client, per_pass: list[dict], counts: list[dict]) -> dict:
    """Factorization counts must repeat exactly between traced passes (the run
    is incorrect otherwise); the seed-commit reference counts are only reported."""
    calls = [{k: v for k, v in p.items() if k.startswith("linalg.") and k.endswith("_calls")}
             for p in per_pass]
    repeat = all(c == calls[0] for c in calls)
    if not repeat:
        client.failures.append(f"linalg call counts differ between traced passes: {calls}")
    mismatches = {label: {"reference": ref, "traced": counts[0].get(label)}
                  for label, ref in workloads.REFERENCE_COUNTS.items()
                  if label in counts[0]
                  and {k: counts[0][label][k] for k in ref} != ref}
    return {"counts_repeat": repeat, "command_counts": counts[0],
            "reference_counts_match": not mismatches, "reference_mismatches": mismatches}


if __name__ == "__main__":
    sys.exit(main())
