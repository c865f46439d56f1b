"""Truncation sweeps: finite evidence for infinite-dimensional properties.

Density of spans, membership in the coefficient domains, and boundedness of
the analysis operator cannot be decided at any fixed truncation.  A sweep
evaluates the corresponding finite surrogates at increasing dimensions, fits
log-log slopes, and maps the fitted trends to a classification through
declared cutpoints (`_verdict`): a span distance is dense when its last value
is at most DENSITY_FLOOR or its slope at most DENSITY_SLOPE, and any other
series is bounded when its slope is at most BOUNDED_SLOPE.  Each series is
fitted over all dimensions and over the top half.  "inconclusive" is a
first-class outcome: when the two fits of a series disagree on its verdict,
or a probe series has fewer than two points, no branch is forced; stable
fits look the classification and the Riesz class up in two tables.

Each family is factored at most once per dimension: one Householder QR per
side, kept as its reflectors, serves the span distance of every probe, and a
square side needs none (its span is the whole truncation).  One conjugate
transpose per side gives the coefficients (x | phi_k) that the domain sums
and the quasi-basis residual share, and one values-only SVD of T gives
op_norm and inv_norm.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, SingularOperatorError, SweepError
from .family import (
    BiorthogonalPair,
    SequenceFamily,
    analysis_coefficients,
    as_vectors,
    coefficient_energy,
    pad_to_square,
)


#: Classification cutpoints for fitted trends, read by _verdict at call time.
DENSITY_SLOPE = -0.25
BOUNDED_SLOPE = 0.05
DENSITY_FLOOR = 1e-8

#: Each fitted metric -> (the flag its series decide, True when it is a span
#: distance judged dense, False when it is a quantity judged bounded).
_SERIES_FLAGS = {
    "span_dist_phi": ("span_dense_phi", True),
    "span_dist_psi": ("span_dense_psi", True),
    "domain_partial_phi": ("domain_bounded_phi", False),
    "domain_partial_psi": ("domain_bounded_psi", False),
    "op_norm": ("op_norm_bounded", False),
    "inv_norm": ("inv_norm_bounded", False),
}
#: (span_dense_phi, span_dense_psi) -> classification of stable fits.
_CLASSIFICATIONS = {(True, True): "regular", (True, False): "semi-regular-phi",
                    (False, True): "semi-regular-psi", (False, False): "irregular"}
#: (op_norm_bounded, inv_norm_bounded) -> Riesz class of stable fits.
_RIESZ_CLASSES = {(True, True): "riesz", (True, False): "semi-riesz",
                  (False, True): "semi-riesz", (False, False): "neither"}


@dataclass(frozen=True)
class ProbeSpec:
    """Dimension-consistent probe vector, defined by an index rule.

    kinds: "basis" (e_j), "geom" (normalized (1, r, r^2, ...)),
    "random" (seeded complex Gaussian, normalized).  The index j and the seed
    stay int, so that every integer names and draws itself.
    """

    kind: str
    param: int | float = 0

    @classmethod
    def parse(cls, text: str) -> "ProbeSpec":
        """The probe of a spelling whose parameter is ASCII digits (e_j, random:s) or,
        for geom:r, an ASCII decimal literal (see ascii_int and ascii_float).
        """
        text = text.strip()
        if text.startswith("e_"):
            return cls("basis", _digits(text, text[2:], "basis index"))
        if text.startswith("geom:"):
            r = ascii_float(text[5:], f"probe {text}: ratio")
            if not 0 < abs(r) < 1:
                raise ValueError(f"probe {text}: geometric ratio must satisfy 0 < |r| < 1, "
                                 f"got {r}")
            return cls("geom", r)
        if text.startswith("random:"):
            return cls("random", _digits(text, text[7:], "seed"))
        raise ValueError(f"unknown probe spec {text!r} (use e_j, geom:r, random:seed)")

    @property
    def name(self) -> str:
        if self.kind == "basis":
            return f"e_{self.param}"
        if self.kind == "geom":
            return f"geom:{self.param:g}"
        return f"random:{self.param}"

    def instantiate(self, dim: int) -> np.ndarray:
        if self.kind == "basis":
            if self.param >= dim:
                raise ValueError(f"probe {self.name} does not exist at dim {dim}")
            return linalg.basis_vector(self.param, dim)
        if self.kind == "geom":
            v = self.param ** np.arange(dim, dtype=np.float64)
            return v / np.linalg.norm(v)
        rng = np.random.default_rng(self.param)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return v / np.linalg.norm(v)


#: The grammar of every number a user types: an ASCII integer is an optional
#: minus and digits; an ASCII decimal literal is an optional minus, digits with
#: an optional point (or a point and digits) and an optional exponent.  Leading
#: zeros are legal.  Python's int and float would also take digit separators, a
#: plus sign, whitespace and non-ASCII digits, and so give one number many names.
_INTEGER = re.compile(r"-?[0-9]+")
_DECIMAL = re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def ascii_int(value: str | int, what: str) -> int:
    """The int that value spells as an ASCII integer; an int (a YAML integer) is itself."""
    if type(value) is int:
        return value
    if not _INTEGER.fullmatch(value):
        raise ValueError(f"{what}: {value!r} is not an ASCII integer")
    return int(value)


def ascii_float(text: str, what: str) -> float:
    """The float that text spells as an ASCII decimal literal; what names it in the error."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"{what}: {text!r} is not an ASCII decimal literal")
    return float(text)


def _digits(probe: str, text: str, what: str) -> int:
    """The int that the ASCII digits of text spell; what names it in the error of probe."""
    n = ascii_int(text, f"probe {probe}: {what}")
    if text.startswith("-"):
        raise ValueError(f"probe {probe}: {what} must be >= 0")
    return n


def span_distances(fam: SequenceFamily, vectors) -> list[float]:
    """Distance from each vector to the span of the family columns.

    The distance is the norm of the trailing N - M entries of Q^H x, for the
    reduced QR A = Q R of the N x M family block (Golub & Van Loan, 5.3).  One
    QR serves every vector, and Q stays in factored form: each vector is
    passed through the M Householder reflectors on its own, with vector
    operations only, so that its distance does not depend on the other
    vectors.  A square family (M = N) leaves no trailing entries: its
    distances are exactly 0.0, and it is not factored.
    """
    vectors = as_vectors(fam, vectors)
    block = fam.coeffs
    if block.shape[1] == fam.dim:
        return [0.0] * len(vectors)
    # Row j of h holds reflector j below its implicit leading 1: v_j = [1, h[j, j+1:]].
    h, tau = np.linalg.qr(block, mode="raw")
    dists = []
    for x in vectors:
        y = x.astype(np.result_type(h, x))
        for j, ctau in enumerate(tau.conj()):
            v = h[j, j + 1:]
            # Q^H = H_M^H ... H_1^H with H_j^H = I - conj(tau_j) v_j v_j^H; y[j] is
            # not read again, so only its tail is updated.
            s = ctau * (y[j] + np.vdot(v, y[j + 1:]))
            y[j + 1:] -= s * v
        dists.append(float(np.linalg.norm(y[len(tau):])))
    return dists


def span_distance(fam: SequenceFamily, x) -> float:
    """Distance from x to the span of the family columns."""
    return span_distances(fam, [x])[0]


def quasi_basis_residual(pair: BiorthogonalPair, f, g) -> float:
    """Defect of (f|g) against both quasi-basis expansion sums."""
    f = linalg.as_vector(f)
    g = linalg.as_vector(g)
    if f.shape[0] != pair.dim or g.shape[0] != pair.dim:
        raise DimensionMismatchError("probe vectors do not match the pair dimension")
    phi = pair.phi.coeffs
    psi = pair.psi.coeffs
    return _quasi_basis_defect(f, g, phi @ (psi.conj().T @ f), psi @ (phi.conj().T @ f))


def _quasi_basis_defect(f: np.ndarray, g: np.ndarray,
                        phi_psih_f: np.ndarray, psi_phih_f: np.ndarray) -> float:
    """quasi_basis_residual, given Phi Psi^H f and Psi Phi^H f, which serve every g."""
    ref = linalg.inner(f, g)
    # sum_k (f|psi_k)(phi_k|g) = g^H Phi Psi^H f, and the role-swapped sum.
    s1 = complex(np.vdot(g, phi_psih_f))
    s2 = complex(np.vdot(g, psi_phih_f))
    return max(abs(ref - s1), abs(ref - s2))


@dataclass
class SweepReport:
    """Per-truncation records plus fitted slopes and the derived classification."""

    dims: list[int]
    records: list[dict]          # one dict per dim: {(metric, probe): value}
    skipped: list[tuple[int, str]] = field(default_factory=list)
    fit_exponents: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    classification: str = "inconclusive"
    riesz_class: str = "inconclusive"

    def series(self, metric: str, probe: str = "") -> tuple[np.ndarray, np.ndarray]:
        xs, ys = [], []
        for dim, rec in zip(self.dims, self.records):
            key = (metric, probe)
            if key in rec and math.isfinite(rec[key]):
                xs.append(dim)
                ys.append(rec[key])
        return np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)

    def csv_rows(self) -> list[tuple[int, str, str, float]]:
        rows = []
        for dim, rec in zip(self.dims, self.records):
            for (metric, probe), value in sorted(rec.items()):
                rows.append((dim, metric, probe, value))
        return rows

    def to_csv(self) -> str:
        lines = ["dim,metric,probe,value"]
        for dim, metric, probe, value in self.csv_rows():
            lines.append(f"{dim},{metric},{probe},{value:.17g}")
        return "\n".join(lines) + "\n"

    def verdict_text(self) -> str:
        lines = [
            f"classification: {self.classification}",
            f"riesz class: {self.riesz_class}",
            f"thresholds: density slope <= {DENSITY_SLOPE}, "
            f"bounded slope <= {BOUNDED_SLOPE}, floor {DENSITY_FLOOR:g}",
        ]
        for key in sorted(self.flags):
            lines.append(f"  {key}: {self.flags[key]}")
        for key in sorted(self.fit_exponents):
            metric, probe = key
            tag = f"{metric}[{probe}]" if probe else metric
            dense = _SERIES_FLAGS[metric][1]
            if _verdict(dense, self.fit_exponents[key], self.series(*key)[1])[1]:
                # A slope fitted to rounding-level distances would flip with the last bits.
                slope = "below floor"
            else:
                slope = f"{self.fit_exponents[key]:+.3f}"
                if slope == "-0.000":
                    # The sign of a slope that rounds to zero is rounding noise.
                    slope = "+0.000"
            lines.append(f"  slope {tag}: {slope}")
        for dim, reason in self.skipped:
            lines.append(f"  skipped dim {dim}: {reason}")
        return "\n".join(lines) + "\n"


def _fit_slope(dims: np.ndarray, values: np.ndarray) -> float:
    """Log-log slope of values against dims; zeros are clipped from below."""
    if len(dims) < 2:
        return 0.0
    y = np.log(np.clip(values, 1e-300, None))
    x = np.log(dims.astype(float))
    return float(np.polyfit(x, y, 1)[0])


def _verdict(dense: bool, slope: float, values: np.ndarray) -> tuple[bool, bool]:
    """(verdict, True when the floor alone decided it) of a series fitted to slope."""
    if not dense:
        return slope <= BOUNDED_SLOPE, False
    if values[-1] <= DENSITY_FLOOR:
        return True, True
    return slope <= DENSITY_SLOPE, False


def run_sweep(pair_factory: Callable[[int], BiorthogonalPair],
              dims: Iterable[int],
              probes: Iterable[ProbeSpec | str]) -> SweepReport:
    """Evaluate the diagnostic surrogates over a list of truncations.

    pair_factory must build the same model at any requested dimension.
    Dimensions at which the model is singular are recorded and excluded from
    the fits; the sweep fails only when no dimension survives.
    """
    dims = sorted(set(int(d) for d in dims))
    if len(dims) < 2:
        raise SweepError("a sweep needs at least two distinct dimensions")
    probes = [p if isinstance(p, ProbeSpec) else ProbeSpec.parse(p) for p in probes]

    records: list[dict] = []
    kept_dims: list[int] = []
    skipped: list[tuple[int, str]] = []
    for dim in dims:
        try:
            pair = pair_factory(dim)
            rec = _evaluate_dim(pair, probes)
        except SingularOperatorError as exc:
            skipped.append((dim, str(exc)))
            continue
        kept_dims.append(dim)
        records.append(rec)
    if not kept_dims:
        raise SweepError("all requested dimensions were singular")

    report = SweepReport(dims=kept_dims, records=records, skipped=skipped)
    flags = {flag: True for flag, _ in _SERIES_FLAGS.values()}
    stable = True
    for metric, probe in records[0]:  # every record holds the same keys
        if metric not in _SERIES_FLAGS:
            continue
        flag, dense = _SERIES_FLAGS[metric]
        xs, ys = report.series(metric, probe)
        if probe and len(xs) < 2:
            # op_norm and inv_norm fit slope 0 to fewer points; a probe series does not.
            stable = False
            continue
        slope = report.fit_exponents[(metric, probe)] = _fit_slope(xs, ys)
        verdict = _verdict(dense, slope, ys)[0]
        half = len(xs) // 2
        if len(xs) - half >= 2:
            top = _verdict(dense, _fit_slope(xs[half:], ys[half:]), ys[half:])[0]
            stable = stable and top == verdict
        flags[flag] = flags[flag] and verdict
    report.flags = {**flags, "fits_stable": stable}
    if stable:
        report.classification = _CLASSIFICATIONS[flags["span_dense_phi"], flags["span_dense_psi"]]
        report.riesz_class = _RIESZ_CLASSES[flags["op_norm_bounded"], flags["inv_norm_bounded"]]
    return report


def _evaluate_dim(pair: BiorthogonalPair, probes: list[ProbeSpec]) -> dict:
    rec: dict = {}
    vectors = {p.name: p.instantiate(pair.dim) for p in probes}
    xs = list(vectors.values())
    # One side after the other, so that the N x M temporaries of a side (the QR
    # reflectors, the conjugate family) are freed before the next side allocates its own.
    coeffs = {}
    for side, fam in (("phi", pair.phi), ("psi", pair.psi)):
        coeffs[side] = analysis_coefficients(fam, xs)
        for name, dist, c in zip(vectors, span_distances(fam, xs), coeffs[side]):
            rec[(f"span_dist_{side}", name)] = dist
            rec[(f"domain_partial_{side}", name)] = coefficient_energy(c)
    sigma = linalg.singular_values(pad_to_square(pair.phi).coeffs)
    rec[("op_norm", "")] = float(sigma[0])
    rec[("inv_norm", "")] = float(1.0 / sigma[-1]) if sigma[-1] > 0 else float("inf")
    rec[("pairing_residual", "")] = pair.pairing_residual
    worst_qb = 0.0
    for f, c_phi, c_psi in zip(xs, coeffs["phi"], coeffs["psi"]):
        phi_psih_f = pair.phi.coeffs @ c_psi
        psi_phih_f = pair.psi.coeffs @ c_phi
        for g in xs:
            worst_qb = max(worst_qb, _quasi_basis_defect(f, g, phi_psih_f, psi_phih_f))
    rec[("quasi_basis_residual", "")] = worst_qb
    return rec
