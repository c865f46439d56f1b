#!/usr/bin/env python3
"""Alternating parent/change runs of perfbench, summarized into BENCH_<pr>.json.

Usage, from the root of a checkout (PARENT is a second checkout of the parent
commit, e.g. made with `git archive`):

    python3 bench/pairs.py --parent PARENT --change . --out BENCH_2.json

Before the first pair, `python -m compileall -q src` writes current `.pyc`
files in both checkouts: a worker that compiles its modules at import (as
under PYTHONDONTWRITEBYTECODE, or in a fresh checkout) starts about 1 MB
higher in peak RSS than one that loads them, which would otherwise tilt the
comparison.  For every workload in BENCHMARK.json, pair i of PAIRS runs
`perfbench/run.py --trace 0` for the benchmark's run_seconds once in each
checkout with the same seed (BASE_SEED + i); which side goes
first alternates from pair to pair, so drift of a shared machine hits both
sides alike.  Then one `--trace 1` run per side records the per-layer
factorization counts.  The output holds, per workload and end-to-end metric,
the median and quartiles of each side, the change/parent ratio of the
medians, and the number of pairs the change won.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

TRACE_KEYS = ("linalg.factorizations", "linalg.svd_calls", "linalg.svd_values_calls",
              "linalg.solve_calls", "linalg.qr_calls", "linalg.factor_s",
              "linalg.distinct_factor_ratio", "io.write_s")
PAIRS = 10
BASE_SEED = 100


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(info, result) of one perfbench run in checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=240, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "samples": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = [m["name"] for m in bench["end_to_end"]]
    sides = {"parent": args.parent, "change": args.change}
    report: dict = {"pairs": PAIRS, "seconds": seconds, "workloads": {}}
    for checkout in sides.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout,
                       check=True)

    for workload in (w["name"] for w in bench["workloads"]):
        samples = {side: {m: [] for m in metrics} for side in sides}
        failed = {side: 0 for side in sides}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                info, result = run(sides[side], workload, BASE_SEED + i, seconds, 0)
                report.setdefault("environment", {})[side] = info["environment"]
                failed[side] += result["failed"]
                for m in metrics:
                    samples[side][m].append(result["metrics"][m]["value"])
            sys.stderr.write(f"{workload} pair {i + 1}/{PAIRS} done\n")
        entry: dict = {"failed": failed}
        for m in metrics:
            par, chg = samples["parent"][m], samples["change"][m]
            entry[m] = {
                "parent": quartiles(par),
                "change": quartiles(chg),
                "ratio_of_medians": statistics.median(chg) / statistics.median(par),
                "change_wins": sum(c < p for c, p in zip(chg, par)),
            }
        entry["trace"] = {}
        for side, checkout in sides.items():
            info, result = run(checkout, workload, BASE_SEED, seconds, 1)
            entry["trace"][side] = {k: result["metrics"][k]["value"] for k in TRACE_KEYS}
            entry["trace"][side]["command_counts"] = info["command_counts"]
        report["workloads"][workload] = entry
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
