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
medians, the number of pairs the change won (ties count for neither side),
and two verdicts:

- `claim_met`: a claimed gain holds when the change wins at least
  CLAIM_WINS of the PAIRS pairs and its median beats the parent's by more
  than the parent's own spread, the distance q3 - q1 between its quartiles.
  A 10% gain on a workload whose parent IQR is 16% of its median is short.
- `within_bound`: the change's median is at most parent median x (1 + bound),
  the bound of the metric in BENCHMARK.json; for a metric where higher is
  better, at least parent median x (1 - bound).

One summary line per workload goes to stdout as each workload finishes.
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
#: Pairs out of PAIRS a claimed gain must win: nine tenths.
CLAIM_WINS = 9
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


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> dict:
    """The entry of one metric: both sides' quartiles, wins and the claim_met / within_bound rules."""
    sign = 1.0 if better == "lower" else -1.0  # gains are positive: parent - change for "lower"
    par, chg = quartiles(parent), quartiles(change)
    wins = sum(sign * (p - c) > 0 for c, p in zip(change, parent))
    return {
        "parent": par,
        "change": chg,
        "ratio_of_medians": chg["median"] / par["median"],
        "change_wins": wins,
        "claim_met": wins >= CLAIM_WINS and sign * (par["median"] - chg["median"]) > par["iqr"],
        "within_bound": sign * (par["median"] - chg["median"]) >= -bound * par["median"],
    }


def summary(workload: str, entry: dict, metrics: list[str]) -> str:
    """One line: per metric, the change/parent ratio, the wins and which verdicts hold."""
    cells = []
    for m in metrics:
        e = entry[m]
        flags = ("claim met" if e["claim_met"] else "no claim") + (
            "" if e["within_bound"] else ", OUT OF BOUND")
        cells.append(f"{m} {e['ratio_of_medians']:.3f}x {e['change_wins']}/{PAIRS} ({flags})")
    return f"{workload}: " + "; ".join(cells)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    metrics = list(end_to_end)
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
            entry[m] = verdict(samples["parent"][m], samples["change"][m],
                               end_to_end[m]["bound"], end_to_end[m]["better"])
        entry["trace"] = {}
        for side, checkout in sides.items():
            info, result = run(checkout, workload, BASE_SEED, seconds, 1)
            entry["trace"][side] = {k: result["metrics"][k]["value"] for k in TRACE_KEYS}
            entry["trace"][side]["command_counts"] = info["command_counts"]
        report["workloads"][workload] = entry
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(summary(workload, entry, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
