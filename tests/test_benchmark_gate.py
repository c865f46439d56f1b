"""The benchmark's correctness gate, run at its tiny scale.

For every perfbench workload and input seeds 0..15, one pass of its commands
runs in-process in a fresh working directory, and what each command gives
(exit code and PASS/FAIL check names, sweep verdict lines, or the ladder files
it wrote) must agree with perfbench/expected.json.  A change that flips a check
name the benchmark records fails here, before the benchmark itself runs.  The
test only reads perfbench/.
"""

import json
import sys
from pathlib import Path

import pytest

from rieszlab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import worker  # noqa: E402
import workloads  # noqa: E402

EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())["tiny"]
SEEDS = range(16)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_passes_agree_with_the_recorded_gate(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the commands name their files relative to the cwd
    failures = []
    for s in SEEDS:
        observed = worker.run_pass(cli, workload, "tiny", s, tmp_path)["observed"]
        for label, (got, _digest) in observed.items():
            want, _ = worker.expectation(EXPECTED[workload], label, s)
            if not worker.agrees(got, want):
                failures.append(f"{label} (input seed {s}): expected {want}, got {got}")
    assert not failures, "\n".join(failures)
