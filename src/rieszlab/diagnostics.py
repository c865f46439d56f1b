"""Truncation sweeps: finite evidence for infinite-dimensional properties.

Density of spans, membership in the coefficient domains, and boundedness of
the analysis operator cannot be decided at any fixed truncation.  A sweep
evaluates the corresponding finite surrogates at increasing dimensions, fits
log-log slopes, and maps the fitted trends to a classification through
declared cutpoints.  "inconclusive" is a first-class outcome: when the slope
fitted over all dimensions and the slope fitted over the top half disagree on
a verdict, no branch is forced.

Each family is factored once per dimension: one QR per side serves the span
distance of every probe, one conjugate transpose per side gives the
coefficients (x | phi_k) that the domain sums and the quasi-basis residual
share, and one values-only SVD of T gives op_norm and inv_norm.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class Thresholds:
    """Classification cutpoints for fitted trends."""

    density_slope: float = -0.25
    bounded_slope: float = 0.05
    density_floor: float = 1e-8


DEFAULT_THRESHOLDS = Thresholds()


@dataclass(frozen=True)
class ProbeSpec:
    """Dimension-consistent probe vector, defined by an index rule.

    kinds: "basis" (e_j), "geom" (normalized (1, r, r^2, ...)),
    "random" (seeded complex Gaussian, normalized).
    """

    kind: str
    param: float = 0.0

    @classmethod
    def parse(cls, text: str) -> "ProbeSpec":
        text = text.strip()
        if text.startswith("e_"):
            return cls("basis", float(int(text[2:])))
        if text.startswith("geom:"):
            r = float(text[5:])
            if not 0 < abs(r) < 1:
                raise ValueError(f"geometric ratio must satisfy 0 < |r| < 1, got {r}")
            return cls("geom", r)
        if text.startswith("random:"):
            return cls("random", float(int(text[7:])))
        raise ValueError(f"unknown probe spec {text!r} (use e_j, geom:r, random:seed)")

    @property
    def name(self) -> str:
        if self.kind == "basis":
            return f"e_{int(self.param)}"
        if self.kind == "geom":
            return f"geom:{self.param:g}"
        return f"random:{int(self.param)}"

    def instantiate(self, dim: int) -> np.ndarray:
        if self.kind == "basis":
            j = int(self.param)
            if j >= dim:
                raise ValueError(f"probe e_{j} does not exist at dim {dim}")
            return linalg.basis_vector(j, dim)
        if self.kind == "geom":
            v = self.param ** np.arange(dim, dtype=np.float64)
            return (v / np.linalg.norm(v)).astype(np.complex128)
        rng = np.random.default_rng(int(self.param))
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return v / np.linalg.norm(v)


def span_distances(fam: SequenceFamily, vectors) -> list[float]:
    """Distance from each vector to the span of the family columns (padding excluded).

    One QR of the family serves every vector; Q and Q^H are freed on return.
    """
    vectors = as_vectors(fam, vectors)
    # [0] drops R at once instead of keeping an N x M array alive.
    q = np.linalg.qr(fam.family_coeffs)[0]
    qh = q.conj().T
    return [float(np.linalg.norm(x - q @ (qh @ x))) for x in vectors]


def span_distance(fam: SequenceFamily, x) -> float:
    """Distance from x to the span of the family columns (padding excluded)."""
    return span_distances(fam, [x])[0]


def quasi_basis_residual(pair: BiorthogonalPair, f, g) -> float:
    """Defect of (f|g) against both quasi-basis expansion sums."""
    f = linalg.as_vector(f)
    g = linalg.as_vector(g)
    if f.shape[0] != pair.dim or g.shape[0] != pair.dim:
        raise DimensionMismatchError("probe vectors do not match the pair dimension")
    phi = pair.phi.family_coeffs
    psi = pair.psi.family_coeffs
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
    thresholds: Thresholds = DEFAULT_THRESHOLDS

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
        t = self.thresholds
        lines = [
            f"classification: {self.classification}",
            f"riesz class: {self.riesz_class}",
            f"thresholds: density slope <= {t.density_slope}, "
            f"bounded slope <= {t.bounded_slope}, floor {t.density_floor:g}",
        ]
        for key in sorted(self.flags):
            lines.append(f"  {key}: {self.flags[key]}")
        for key in sorted(self.fit_exponents):
            metric, probe = key
            tag = f"{metric}[{probe}]" if probe else metric
            if metric.startswith("span_dist_") and self.series(*key)[1][-1] <= t.density_floor:
                # _dense_verdict decides on the floor alone; a slope fitted to
                # rounding-level distances would flip with the last bits.
                slope = "below floor"
            else:
                slope = f"{self.fit_exponents[key]:+.3f}"
                if slope == "-0.000":
                    # The sign of a slope that rounds to zero is rounding noise.
                    slope = "+0.000"
            lines.append(f"  slope {tag}: {slope}")
        if self.skipped:
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


def _dense_verdict(dims, values, thr: Thresholds) -> bool:
    if values[-1] <= thr.density_floor:
        return True
    return _fit_slope(dims, values) <= thr.density_slope


def _bounded_verdict(dims, values, thr: Thresholds) -> bool:
    return _fit_slope(dims, values) <= thr.bounded_slope


def _stable(dims, values, verdict_fn, thr) -> tuple[bool, bool]:
    """(verdict over all dims, True when the top-half fit agrees)."""
    full = verdict_fn(dims, values, thr)
    half = len(dims) // 2
    if len(dims) - half >= 2:
        top = verdict_fn(dims[half:], values[half:], thr)
        return full, top == full
    return full, True


def run_sweep(pair_factory: Callable[[int], BiorthogonalPair],
              dims: Iterable[int],
              probes: Iterable[ProbeSpec | str],
              thresholds: Thresholds = DEFAULT_THRESHOLDS) -> SweepReport:
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

    report = SweepReport(dims=kept_dims, records=records, skipped=skipped,
                         thresholds=thresholds)
    _classify(report, probes)
    return report


def _evaluate_dim(pair: BiorthogonalPair, probes: list[ProbeSpec]) -> dict:
    rec: dict = {}
    vectors = {p.name: p.instantiate(pair.dim) for p in probes}
    xs = list(vectors.values())
    # One side after the other, so that the N x M temporaries of a side (Q, Q^H,
    # the conjugate family) are freed before the next side allocates its own.
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
        phi_psih_f = pair.phi.family_coeffs @ c_psi
        psi_phih_f = pair.psi.family_coeffs @ c_phi
        for g in xs:
            worst_qb = max(worst_qb, _quasi_basis_defect(f, g, phi_psih_f, psi_phih_f))
    rec[("quasi_basis_residual", "")] = worst_qb
    return rec


def _classify(report: SweepReport, probes: list[ProbeSpec]) -> None:
    thr = report.thresholds
    dims = np.asarray(report.dims, dtype=float)
    stable = True

    def all_probes(metric: str, verdict_fn) -> bool:
        nonlocal stable
        verdict = True
        for p in probes:
            xs, ys = report.series(metric, p.name)
            if len(xs) < 2:
                stable = False
                continue
            v, ok = _stable(xs, ys, verdict_fn, thr)
            report.fit_exponents[(metric, p.name)] = _fit_slope(xs, ys)
            stable = stable and ok
            verdict = verdict and v
        return verdict

    span_phi = all_probes("span_dist_phi", _dense_verdict)
    span_psi = all_probes("span_dist_psi", _dense_verdict)
    dom_phi = all_probes("domain_partial_phi", _bounded_verdict)
    dom_psi = all_probes("domain_partial_psi", _bounded_verdict)

    def global_bounded(metric: str) -> bool:
        nonlocal stable
        xs, ys = report.series(metric)
        report.fit_exponents[(metric, "")] = _fit_slope(xs, ys)
        v, ok = _stable(xs, ys, _bounded_verdict, thr)
        stable = stable and ok
        return v

    t_bounded = global_bounded("op_norm")
    tinv_bounded = global_bounded("inv_norm")

    report.flags.update({
        "span_dense_phi": span_phi,
        "span_dense_psi": span_psi,
        "domain_bounded_phi": dom_phi,
        "domain_bounded_psi": dom_psi,
        "op_norm_bounded": t_bounded,
        "inv_norm_bounded": tinv_bounded,
        "fits_stable": stable,
    })

    if not stable:
        report.classification = "inconclusive"
    elif span_phi and span_psi:
        report.classification = "regular"
    elif span_phi:
        report.classification = "semi-regular-phi"
    elif span_psi:
        report.classification = "semi-regular-psi"
    else:
        report.classification = "irregular"

    if not stable:
        report.riesz_class = "inconclusive"
    elif t_bounded and tinv_bounded:
        report.riesz_class = "riesz"
    elif t_bounded or tinv_bounded:
        report.riesz_class = "semi-riesz"
    else:
        report.riesz_class = "neither"
