"""The numbers of the check lines of a few runs at N = 16, against recorded values.

Other tests pin exit codes, statuses and check names; these pin the residual
and bound of each PASS/FAIL line, read at full precision from its `Check`
record as the command hands it to `cli._report`, tolerant of last-bit drift:

- a residual recorded as exactly 0 must stay 0;
- any other residual must stay within a factor of 10 of its record;
- each bound, and kappa(T) as an analyze header prints it, must agree with
  its record to a relative 1e-9.

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
    """Exit code, header kappa and (status, name, residual, bound) of each check with numbers."""
    from rieszlab import cli

    report, seen = cli._report, {}

    def captured(cfg, name, title, checks, notes=()):
        seen.update(title=title, checks=checks)
        return report(cfg, name, title, checks, notes)

    if label == "pseudoboson dense file":
        _write_dense_pair(workdir)
    monkeypatch.chdir(workdir)
    monkeypatch.setattr(cli, "_report", captured)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(RUNS[label])
    kappa = KAPPA.search(seen["title"])
    lines = [["PASS" if c.ok else "FAIL", c.name, float(c.residual), float(c.bound)]
             for c in seen["checks"] if c.reason is None]
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
    for (status, name, residual, bound), (*_, rec_residual, rec_bound) in zip(
            seen["lines"], record["lines"]):
        if rec_residual == 0:
            assert residual == 0, f"{name}: residual {residual:.3e}, recorded 0"
        else:
            assert rec_residual / 10 <= residual <= rec_residual * 10, \
                f"{name}: residual {residual:.3e}, recorded {rec_residual:.3e}"
        assert bound == pytest.approx(rec_bound, rel=1e-9, abs=0), name


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
