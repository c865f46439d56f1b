"""Smoke test of the benchmark itself, at N=16 and dims 8..32.

Run from the root of the repository:

    python3 -m pytest perfbench/test_smoke.py -q

Every workload, untraced and traced, must emit exactly the metrics that
BENCHMARK.json names, and no command may fail the correctness gate.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_emits_every_metric_and_passes_the_gate(workload, trace):
    result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0  # fail_frac
    assert result["correct"] is True


def test_refuses_to_run_without_the_program():
    """A directory holding only BENCHMARK.json and perfbench/ gives no result."""
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        bare = Path(tmp)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep-span", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
