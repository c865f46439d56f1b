"""rieszlab: a finite-truncation laboratory for biorthogonal pairs,
generalized Riesz bases, ladder operators and pseudo-bosonic families.

All operations are pure functions of immutable inputs and may be freely
shared across threads.
"""

__version__ = "0.1.0"
