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
#: Measured peaks (numpy 2.4, one BLAS thread, N = 256), in this order: 4.79,
#: 5.21, 6.04, 3.23, 5.17 and 5.65 arrays; CHANGES.md has how each came down.
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
