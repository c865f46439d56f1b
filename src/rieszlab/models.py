"""Built-in model generators for pairs and pseudo-bosonic systems.

Diagonal and similarity models take a tiny index rule k -> value, restricted
to polynomial and exponential expressions in k (digits, k, + - * / ** ^ and
parentheses); this covers bounded, unbounded and compact-inverse regimes
without a general expression language.  Rules are evaluated by walking their
syntax tree in float64, never by eval, so no rule can build a huge integer.
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import ascii_float
from .errors import ModelError
from .family import BiorthogonalPair, SequenceFamily, check_pairing
from .ladder import shift_matrices
from .pseudoboson import PseudoBosonSystem, generate_families

#: Smallest truncation of any model, built-in or loaded from files.
MIN_DIM = 4

MODEL_KINDS = ("identity", "paper_example", "diagonal", "random_regular", "ccr", "similarity")

_RULE_TOKENS = re.compile(r"^[0-9k+\-*/^.() ]+$")

_BINARY_OPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
               ast.Div: np.true_divide, ast.FloorDiv: np.floor_divide, ast.Pow: np.power}
_UNARY_OPS = {ast.UAdd: np.positive, ast.USub: np.negative}


def _evaluate_node(node: ast.AST, ks: np.ndarray):
    """Value of a rule's syntax tree: float64 constants, the name k and arithmetic."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return np.float64(node.value)
    if isinstance(node, ast.Name) and node.id == "k":
        return ks
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        return _BINARY_OPS[type(node.op)](_evaluate_node(node.left, ks),
                                          _evaluate_node(node.right, ks))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
        return _UNARY_OPS[type(node.op)](_evaluate_node(node.operand, ks))
    raise ValueError(f"unsupported {type(node).__name__} expression")


def evaluate_rule(rule: str, ks: np.ndarray) -> np.ndarray:
    """Evaluate an index rule like "k+1", "2^k" or "1.1**k" on an index array, in float64."""
    if not rule or not _RULE_TOKENS.match(rule):
        raise ModelError(f"invalid index rule {rule!r}: only digits, k, +-*/^() allowed")
    try:
        tree = ast.parse(rule.replace("^", "**"), mode="eval")
        # non-finite intermediate values are rejected below, not warned about
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = _evaluate_node(tree.body, ks.astype(np.float64))
    except Exception as exc:
        raise ModelError(f"index rule {rule!r} failed to evaluate: {exc}") from exc
    values = np.broadcast_to(values, ks.shape).copy()
    if not np.all(np.isfinite(values)):
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
        if self.dim < MIN_DIM:
            raise ModelError(f"model dimension must be >= {MIN_DIM}, got {self.dim}")
        if self.kind in ("diagonal", "similarity") and not self.rule:
            raise ModelError(f"model kind {self.kind!r} requires an index rule")
        if self.kind == "random_regular" and not 1 <= self.kappa_max < math.inf:
            raise ModelError(f"kappa_max must be finite and >= 1, got {self.kappa_max}")

    @property
    def is_system(self) -> bool:
        return self.kind in ("ccr", "similarity")


def parse_model(text: str, dim: int, seed: int = 0) -> ModelSpec:
    """Parse a CLI model string: kind[:argument].

    Arguments: diagonal/similarity take the index rule; random_regular takes
    the maximum condition number, an ASCII decimal literal.
    """
    kind, _, arg = text.partition(":")
    kind = kind.strip().replace("-", "_")
    rule = None
    kappa_max = 100.0
    if kind in ("diagonal", "similarity"):
        rule = arg.strip() or None
    elif kind == "random_regular" and arg.strip():
        kappa_max = ascii_float(arg.strip(), f"model {text}: kappa_max")
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
    if spec.kind == "paper_example":
        return paper_example_pair(n)
    if spec.kind == "identity":
        phi = psi = SequenceFamily.identity(n)
    elif spec.kind == "diagonal":
        d = evaluate_rule(spec.rule, np.arange(n))
        phi, psi = SequenceFamily(np.diag(d)), SequenceFamily(np.diag(1.0 / d))
    elif spec.kind == "random_regular":
        u = random_unitary(n, np.random.default_rng(spec.seed))
        s = np.geomspace(1.0, spec.kappa_max, n)
        # phi = u diag(s) with u unitary, so psi = adjoint(phi^-1) = u diag(1/s), made in u.
        phi, psi = SequenceFamily(u * s), SequenceFamily(np.divide(u, s, out=u))
    elif spec.is_system:
        phi, psi = generate_families(instantiate_system(spec), count=n)
    else:
        raise ModelError(f"cannot build a pair from model kind {spec.kind!r}")
    return check_pairing(phi, psi)


def instantiate_system(spec: ModelSpec, window: int | None = None) -> PseudoBosonSystem:
    """Build the (a, b) pseudo-bosonic system a model describes."""
    n = spec.dim
    s_minus, s_plus = shift_matrices(n)[:2]  # N0 is freed before the vacua are solved for
    if spec.kind == "ccr":
        return PseudoBosonSystem.build(s_minus, s_plus, window=window)
    if spec.kind == "similarity":
        # S M S^-1 with S = diag(s): scale the rows by s and the columns by 1/s,
        # in place, so that a and b are the shifts' own arrays.
        s = evaluate_rule(spec.rule, np.arange(n))
        row, col = s[:, None], (1.0 / s)[None, :]
        for shift in (s_minus, s_plus):
            shift *= row
            shift *= col
        return PseudoBosonSystem.build(s_minus, s_plus, window=window)
    raise ModelError(f"model kind {spec.kind!r} is not a pseudo-bosonic system")


def paper_example_pair(dim: int) -> BiorthogonalPair:
    """The semi-regular, non-regular example: phi_n = e_n + e_0, psi_n = e_n, n >= 1.

    The families are dim x (dim - 1), indices 1..dim-1; family.embed_pair
    embeds them in a square pair, filling index 0.
    """
    if dim < MIN_DIM:
        raise ModelError(f"paper_example needs dimension >= {MIN_DIM}")
    eye = np.eye(dim)
    phi_cols = eye[:, 1:].copy()
    phi_cols[0, :] = 1.0
    psi_cols = eye[:, 1:]
    return check_pairing(SequenceFamily(phi_cols), SequenceFamily(psi_cols))


def pair_factory(spec: ModelSpec):
    """Dimension-indexed factory for sweeps: dim -> BiorthogonalPair."""

    def factory(dim: int) -> BiorthogonalPair:
        return instantiate_pair(replace(spec, dim=dim))

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
