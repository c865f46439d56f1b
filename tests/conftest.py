import os

# One BLAS thread, set before numpy loads its BLAS: the count at which
# bench/digests.py, bench/working_set.py and the recorded numbers define bits
# and peaks.  At two threads beside a busy process, small products wait for
# time slices, and a test with a wall-clock limit fails.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from rieszlab import linalg  # noqa: E402
from rieszlab.pseudoboson import border_vector  # noqa: E402


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_well_conditioned(rng, n, kappa=50.0):
    """Seeded invertible matrix with condition number exactly kappa."""
    q1, _ = np.linalg.qr(random_complex(rng, n, n))
    q2, _ = np.linalg.qr(random_complex(rng, n, n))
    s = np.geomspace(1.0, kappa, n)
    return (q1 * s) @ q2


def border_orthogonal_operator(n, kind, seed=5, real=False):
    """(T, x): T = I - x adjoint(y) / (x|y) has kernel x and left kernel y.

    kind says which of x and y is made orthogonal to the border vector; for
    "both", y = x.  With real=True, x and y are real, and so are T and the
    border vector that its vacuum solve uses.
    """
    u = border_vector(n, np.float64 if real else np.complex128)
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    if real:
        # The imaginary parts: at seed 0, the real part of x is the border itself.
        x, y = x.imag.copy(), y.imag.copy()
    if kind in ("right", "both"):
        x -= linalg.inner(x, u) * u
    if kind == "left":
        y -= linalg.inner(y, u) * u
    if kind == "both":
        y = x
    return np.eye(n) - np.outer(x, y.conj()) / linalg.inner(x, y), x / np.linalg.norm(x)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
