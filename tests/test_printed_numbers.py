"""The printed numbers of a few runs at N = 16, against recorded values.

Other tests pin exit codes, statuses and check names; these pin the numbers
each PASS/FAIL line prints, tolerant of last-bit drift:

- a residual recorded as exactly 0 must stay 0;
- any other residual must stay within a factor of 10 of its record;
- each tolerance, and kappa(T) in an analyze header, must agree with its
  record to a relative 1e-9.

So a check whose residual is replaced by 0, or whose bound moves, fails here.
The records are in printed_numbers.json; `python tests/test_printed_numbers.py`
rewrites it from the runs of the checkout it sits in.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
RECORDS = HERE / "printed_numbers.json"

#: Per run: its argv.  The file pair is written by _write_dense_pair.
RUNS = {
    "analyze random_regular": ["analyze", "--model", "random_regular:50", "--dim", "16",
                               "--seed", "3"],
    "analyze diagonal": ["analyze", "--model", "diagonal:k+1", "--dim", "16"],
    "analyze paper_example": ["analyze", "--model", "paper_example", "--dim", "16"],
    "pseudoboson similarity": ["pseudoboson", "--model", "similarity:1.1^k", "--dim", "16"],
    "pseudoboson ccr": ["pseudoboson", "--model", "ccr", "--dim", "16"],
    # The built-in pseudo-boson models have the vacuum e_0, on which a is
    # exactly 0; this one's vacuum is dense, so its vacuum residuals round.
    "pseudoboson dense file": ["pseudoboson", "--model", "file:a.csv,b.csv"],
}

CHECK_LINE = re.compile(r"(PASS|FAIL)  (.+): residual (\S+) \(tolerance (\S+)\)")
KAPPA = re.compile(r"kappa\(T\) (\S+)")


def _write_dense_pair(workdir: Path) -> None:
    """a = T S_- T^-1, b = T S_+ T^-1 for T = diag(I + G, 1), G seeded with entries of size 0.05.

    T leaves e_(N-1) alone, so the commutator is exact on every column but the
    last; its vacuum T e_0 is dense.
    """
    from rieszlab.io import save_matrix
    from rieszlab.ladder import shift_matrices

    t = np.eye(16)
    t[:15, :15] += 0.05 * np.random.default_rng(3).standard_normal((15, 15))
    s_minus, s_plus, _ = shift_matrices(16)
    t_inv = np.linalg.inv(t)
    save_matrix(t @ s_minus @ t_inv, workdir / "a.csv")
    save_matrix(t @ s_plus @ t_inv, workdir / "b.csv")


def observe(label: str, workdir: Path, monkeypatch) -> dict:
    """Exit code, header kappa and (status, name, residual, tolerance) of each check line."""
    from rieszlab.cli import main

    if label == "pseudoboson dense file":
        _write_dense_pair(workdir)
    monkeypatch.chdir(workdir)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(RUNS[label])
    text = out.getvalue()
    kappa = KAPPA.search(text.splitlines()[0])
    lines = [[m[1], m[2], float(m[3]), float(m[4])]
             for m in map(CHECK_LINE.fullmatch, text.splitlines()) if m]
    return {"exit": code, "kappa": float(kappa[1]) if kappa else None, "lines": lines}


@pytest.mark.parametrize("label", sorted(RUNS))
def test_printed_numbers_match_the_record(label, tmp_path, monkeypatch):
    record = json.loads(RECORDS.read_text())[label]
    seen = observe(label, tmp_path, monkeypatch)
    assert seen["exit"] == record["exit"]
    if record["kappa"] is None:
        assert seen["kappa"] is None
    else:
        assert seen["kappa"] == pytest.approx(record["kappa"], rel=1e-9, abs=0)
    assert [line[:2] for line in seen["lines"]] == [line[:2] for line in record["lines"]]
    for (status, name, residual, tolerance), (*_, rec_residual, rec_tolerance) in zip(
            seen["lines"], record["lines"]):
        if rec_residual == 0:
            assert residual == 0, f"{name}: residual {residual:.3e}, recorded 0"
        else:
            assert rec_residual / 10 <= residual <= rec_residual * 10, \
                f"{name}: residual {residual:.3e}, recorded {rec_residual:.3e}"
        assert tolerance == pytest.approx(rec_tolerance, rel=1e-9, abs=0), name


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(HERE.parent / "src"))
    records = {}
    with pytest.MonkeyPatch.context() as mp:
        for label in sorted(RUNS):
            with tempfile.TemporaryDirectory() as workdir:
                records[label] = observe(label, Path(workdir), mp)
    RECORDS.write_text("{\n" + ",\n".join(
        f' {json.dumps(label)}: {{"exit": {r["exit"]}, "kappa": {json.dumps(r["kappa"])}, '
        '"lines": [\n' + ",\n".join(f"  {json.dumps(line)}" for line in r["lines"]) + "]}"
        for label, r in records.items()) + "\n}\n")
