"""Built-in model generators for pairs and pseudo-bosonic systems.

Diagonal and similarity models take a tiny index rule k -> value, restricted
to polynomial and exponential expressions in k (digits, k, + - * / ** ^ and
parentheses); this covers bounded, unbounded and compact-inverse regimes
without a general expression language.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .family import BiorthogonalPair, SequenceFamily, check_pairing
from .ladder import shift_matrices
from .pseudoboson import PseudoBosonSystem, generate_families

MODEL_KINDS = ("identity", "paper_example", "diagonal", "random_regular", "ccr", "similarity")

_RULE_TOKENS = re.compile(r"^[0-9k+\-*/^.() ]+$")


def evaluate_rule(rule: str, ks: np.ndarray) -> np.ndarray:
    """Evaluate an index rule like "k+1", "2^k" or "1.1**k" on an index array."""
    if not rule or not _RULE_TOKENS.match(rule):
        raise ModelError(f"invalid index rule {rule!r}: only digits, k, +-*/^() allowed")
    expr = rule.replace("^", "**")
    try:
        # non-finite intermediate values are rejected below, not warned about
        with np.errstate(divide="ignore", invalid="ignore"):
            values = eval(expr, {"__builtins__": {}}, {"k": ks.astype(np.float64)})  # noqa: S307
    except Exception as exc:
        raise ModelError(f"index rule {rule!r} failed to evaluate: {exc}") from exc
    values = np.broadcast_to(np.asarray(values, dtype=np.complex128), ks.shape).copy()
    if not np.all(np.isfinite(values.view(np.float64))):
        raise ModelError(f"index rule {rule!r} produced non-finite values")
    if np.any(values == 0):
        raise ModelError(f"index rule {rule!r} evaluates to 0 at some index")
    return values


@dataclass(frozen=True)
class ModelSpec:
    """Recipe for a built-in pair or pseudo-bosonic system."""

    kind: str
    dim: int
    rule: str | None = None
    seed: int = 0
    kappa_max: float = 100.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ModelError(f"unknown model kind {self.kind!r}; choose from {MODEL_KINDS}")
        if self.dim < 4:
            raise ModelError(f"model dimension must be >= 4, got {self.dim}")
        if self.kind in ("diagonal", "similarity") and not self.rule:
            raise ModelError(f"model kind {self.kind!r} requires an index rule")
        if self.kind == "random_regular" and self.kappa_max < 1:
            raise ModelError("kappa_max must be >= 1")

    def with_dim(self, dim: int) -> "ModelSpec":
        return ModelSpec(self.kind, dim, self.rule, self.seed, self.kappa_max)

    @property
    def is_system(self) -> bool:
        return self.kind in ("ccr", "similarity")


def parse_model(text: str, dim: int, seed: int = 0) -> ModelSpec:
    """Parse a CLI model string: kind[:argument].

    Arguments: diagonal/similarity take the index rule; random_regular takes
    the maximum condition number.
    """
    kind, _, arg = text.partition(":")
    kind = kind.strip().replace("-", "_")
    rule = None
    kappa_max = 100.0
    if kind in ("diagonal", "similarity"):
        rule = arg.strip() or None
    elif kind == "random_regular" and arg.strip():
        kappa_max = float(arg)
    elif arg.strip():
        raise ModelError(f"model kind {kind!r} takes no argument, got {arg!r}")
    return ModelSpec(kind=kind, dim=dim, rule=rule, seed=seed, kappa_max=kappa_max)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    # Fix the phase ambiguity so the result is a deterministic function of the seed.
    return q * (np.diag(r) / np.abs(np.diag(r)))


def instantiate_pair(spec: ModelSpec) -> BiorthogonalPair:
    """Build the biorthogonal pair a model describes.

    Pseudo-bosonic kinds (ccr, similarity) are materialized through their
    generated families at full square truncation, pairing-checked there.
    """
    n = spec.dim
    if spec.kind == "identity":
        fam = SequenceFamily.identity(n)
        return check_pairing(fam, fam)
    if spec.kind == "paper_example":
        return paper_example_pair(n)
    if spec.kind == "diagonal":
        d = evaluate_rule(spec.rule, np.arange(n))
        phi = SequenceFamily(np.diag(d))
        psi = SequenceFamily(np.diag(1.0 / d.conj()))
        return check_pairing(phi, psi)
    if spec.kind == "random_regular":
        rng = np.random.default_rng(spec.seed)
        u = random_unitary(n, rng)
        s = np.geomspace(1.0, spec.kappa_max, n)
        # phi = u diag(s) with u unitary, so psi = adjoint(phi^-1) = u diag(1/s).
        phi = SequenceFamily(u * s)
        psi = SequenceFamily(u / s)
        return check_pairing(phi, psi, tolerance=max(1e-10, spec.kappa_max * 1e-13 * n))
    if spec.is_system:
        return BiorthogonalPair(*generate_families(instantiate_system(spec), count=n))
    raise ModelError(f"cannot build a pair from model kind {spec.kind!r}")


def instantiate_system(spec: ModelSpec, window: int | None = None) -> PseudoBosonSystem:
    """Build the (a, b) pseudo-bosonic system a model describes."""
    n = spec.dim
    s_minus, s_plus, _ = shift_matrices(n)
    if spec.kind == "ccr":
        return PseudoBosonSystem.build(s_minus, s_plus, window=window)
    if spec.kind == "similarity":
        # S M S^-1 with S = diag(s): scale the rows by s and the columns by 1/s.
        s = evaluate_rule(spec.rule, np.arange(n))
        row, col = s[:, None], (1.0 / s)[None, :]
        return PseudoBosonSystem.build(row * s_minus * col, row * s_plus * col, window=window)
    raise ModelError(f"model kind {spec.kind!r} is not a pseudo-bosonic system")


def instantiate(spec: ModelSpec, window: int | None = None):
    """Pair for pair kinds, PseudoBosonSystem for system kinds."""
    if spec.is_system:
        return instantiate_system(spec, window=window)
    return instantiate_pair(spec)


def paper_example_pair(dim: int) -> BiorthogonalPair:
    """The semi-regular, non-regular example: phi_n = e_n + e_0, psi_n = e_n, n >= 1.

    Families carry indices 1..dim-1 (index_offset 1); square embeddings are
    obtained through family.pair_to_square.
    """
    if dim < 4:
        raise ModelError("paper_example needs dimension >= 4")
    eye = np.eye(dim, dtype=np.complex128)
    phi_cols = eye[:, 1:].copy()
    phi_cols[0, :] = 1.0
    psi_cols = eye[:, 1:]
    phi = SequenceFamily(phi_cols, index_offset=1)
    psi = SequenceFamily(psi_cols, index_offset=1)
    return check_pairing(phi, psi)


def pair_factory(spec: ModelSpec):
    """Dimension-indexed factory for sweeps: dim -> BiorthogonalPair."""

    def factory(dim: int) -> BiorthogonalPair:
        return instantiate_pair(spec.with_dim(dim))

    return factory


def model_catalogue() -> list[tuple[str, str]]:
    """Human-readable list of the built-in model kinds."""
    return [
        ("identity", "orthonormal pair phi_k = psi_k = e_k"),
        ("paper_example", "semi-regular pair phi_n = e_n + e_0, psi_n = e_n (n >= 1)"),
        ("diagonal:RULE", "phi_k = d_k e_k, psi_k = e_k / conj(d_k) with d_k = RULE(k)"),
        ("random_regular[:KAPPA]", "seeded unitary x diagonal family, condition <= KAPPA"),
        ("ccr", "truncated canonical pair a = S_minus, b = S_plus"),
        ("similarity:RULE", "a = S S_minus S^-1, b = S S_plus S^-1 with S = diag(RULE(k))"),
    ]
