"""Peak working set of each command, in N x N arrays of the run's dtype.

Each command runs in-process under tracemalloc, after a run at N = 16 has
loaded every module it imports lazily.  The traced peak counts every array
the command allocates, temporaries of numpy and LAPACK wrappers included;
the bound is the count measured for the command plus one array.  A command
that keeps one more N x N array alive than it reads, or copies an operand it
only reads, crosses it.
"""

import tracemalloc

import numpy as np
import pytest

from rieszlab.cli import EXIT_OK, main

N = 256


def _argv(command: str, dim: int, out) -> list[str]:
    return {
        "analyze random_regular": ["analyze", "--model", "random_regular:50", "--dim", str(dim),
                                   "--seed", "3"],
        "analyze paper_example": ["analyze", "--model", "paper_example", "--dim", str(dim)],
        "ladder random_regular": ["ladder", "--model", "random_regular:50", "--dim", str(dim),
                                  "--seed", "3", "--out", str(out)],
        "sweep paper_example": ["sweep", "--model", "paper_example",
                                "--dims", f"{dim // 4},{dim}"],
        "pseudoboson similarity": ["pseudoboson", "--model", "similarity:1.01^k",
                                   "--dim", str(dim), "--window", str(dim * 25 // 32)],
        "pseudoboson ccr": ["pseudoboson", "--model", "ccr", "--dim", str(dim)],
    }[command]


#: Per command: the dtype of its N x N arrays and its bound in such arrays.
#: Measured peaks (numpy 2.4, N = 256): 4.8, 5.2, 6.0, 3.2, 5.3 and 5.6 arrays;
#: the last was 6.1 before the pairing check stopped forming the whole defect.
#: The first two were 8.4 and 8.5 before analyze checked each transported
#: ladder operator as it was formed and freed it, and the first four 16.3,
#: 19.3, 9.3 and 5.2 before build_analysis stopped copying T and each check
#: freed its arrays; before the pseudo-boson system stopped keeping b a and
#: its adjoint for the whole run, the last two were 10.7 and 11.1, and 8.5 and
#: 9.2 before the commutator formed only its window columns and the dual
#: number relation stopped copying adjoint(b a).  They were 7.5 and 8.2 (and
#: the sweep 3.4) before the column norms, max-norms and norm estimates ran
#: in column blocks and pseudoboson freed the shift matrices before the
#: vacua, generated psi to the window alone, bounded the pairing one row
#: block at a time and freed a and b before the number relations.  The
#: first two were 6.4 and 6.5, and the last two 5.8 and 6.5, before analyze
#: freed T and T^-1 before its psi side, the metric, the intertwining defect
#: and the pairing defects were formed one block of rows at a time, and the
#: shift defects subtracted the shifted family one block of columns at a time.
BOUNDS = {
    "analyze random_regular": (np.complex128, 5.8),
    "analyze paper_example": (np.float64, 6.2),
    "ladder random_regular": (np.complex128, 7.1),
    "sweep paper_example": (np.float64, 4.5),
    "pseudoboson similarity": (np.float64, 6.3),
    "pseudoboson ccr": (np.float64, 7.1),
}


def _traced_peak(argv: list[str]) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", sorted(BOUNDS))
def test_peak_working_set(tmp_path, capsys, command):
    dtype, bound = BOUNDS[command]
    assert main(_argv(command, 16, tmp_path / "warm")) == EXIT_OK
    peak = _traced_peak(_argv(command, N, tmp_path / "out"))
    capsys.readouterr()
    arrays = peak / (N * N * np.dtype(dtype).itemsize)
    assert arrays <= bound, f"{command}: traced peak {arrays:.2f} N x N arrays > {bound}"
