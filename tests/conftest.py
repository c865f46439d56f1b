import numpy as np
import pytest

from rieszlab import linalg
from rieszlab.pseudoboson import border_vector


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_well_conditioned(rng, n, kappa=50.0):
    """Seeded invertible matrix with condition number exactly kappa."""
    q1, _ = np.linalg.qr(random_complex(rng, n, n))
    q2, _ = np.linalg.qr(random_complex(rng, n, n))
    s = np.geomspace(1.0, kappa, n)
    return (q1 * s) @ q2


def border_orthogonal_operator(n, kind, seed=5):
    """(T, x): T = I - x adjoint(y) / (x|y) has kernel x and left kernel y.

    kind says which of x and y is made orthogonal to the border vector; for
    "both", y = x.
    """
    u = border_vector(n)
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    if kind in ("right", "both"):
        x -= linalg.inner(x, u) * u
    if kind == "left":
        y -= linalg.inner(y, u) * u
    if kind == "both":
        y = x
    return np.eye(n) - linalg.rank_one(x, y) / linalg.inner(x, y), x / np.linalg.norm(x)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
