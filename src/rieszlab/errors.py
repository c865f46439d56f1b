"""Exception hierarchy shared across the package."""


class RieszLabError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatchError(RieszLabError):
    """Operands live on truncated spaces of different dimension."""


class TruncationShapeError(RieszLabError):
    """An operation required a square (N x N) truncation and got something else."""


class SingularOperatorError(RieszLabError):
    """A matrix failed the numerical-rank test for invertibility.

    Carries the offending smallest singular value and the cut N * eps * sigma_max
    it did not exceed.
    """

    def __init__(self, sigma_min: float, cut: float, message: str | None = None):
        self.sigma_min = float(sigma_min)
        self.cut = float(cut)
        super().__init__(message or f"operator numerically singular (sigma_min={sigma_min:.3e}"
                                    f" <= cut N*eps*sigma_max={cut:.3e})")


class NotBiorthogonalError(RieszLabError):
    """Pairing residual exceeded tolerance; carries the worst (n, m) entry."""

    def __init__(self, n: int, m: int, value: float, tolerance: float):
        self.n = int(n)
        self.m = int(m)
        self.value = float(value)
        self.tolerance = float(tolerance)
        super().__init__(
            f"pairing defect {value:.3e} at (n, m)=({n}, {m}) exceeds tolerance {tolerance:.3e}"
        )


class AmbiguousVacuumError(RieszLabError):
    """Kernel of a lowering-type operator is not one-dimensional."""

    def __init__(self, kernel_dim: int, which: str = ""):
        self.kernel_dim = int(kernel_dim)
        label = f" of {which}" if which else ""
        super().__init__(f"vacuum{label} is ambiguous: kernel dimension {kernel_dim} != 1")


class ModelError(RieszLabError):
    """A model specification could not be instantiated."""


class SweepError(RieszLabError):
    """A truncation sweep produced no usable data points."""
