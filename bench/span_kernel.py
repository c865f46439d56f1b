#!/usr/bin/env python3
"""Time diagnostics.span_distances against the explicit-Q projection it replaced.

Usage, from the root of a checkout:

    python3 bench/span_kernel.py [--repeats 3]

For each (N, M, dtype) of SHAPES, a seeded Gaussian N x M family and the
sweep's three probes (e_0, geom:0.5, random:3) go through both kernels:

- Q path: Q from a reduced QR of the family, distance ||x - Q (Q^H x)||;
- reflector path: `span_distances`, Q kept as Householder reflectors.

Each line gives the best of --repeats wall times per kernel and the largest
difference of the distances.  BLAS runs on the threads it picks by default;
pin them with OPENBLAS_NUM_THREADS to compare runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from rieszlab.diagnostics import ProbeSpec, span_distances  # noqa: E402
from rieszlab.family import SequenceFamily  # noqa: E402

SHAPES = [(1024, 1023, "real"), (1024, 512, "real"), (1024, 64, "real"),
          (2048, 1024, "real"), (2048, 2047, "real"), (512, 510, "complex")]
PROBES = ["e_0", "geom:0.5", "random:3"]


def q_path(fam: SequenceFamily, xs: list[np.ndarray]) -> list[float]:
    q = np.linalg.qr(fam.family_coeffs)[0]
    qh = q.conj().T
    return [float(np.linalg.norm(x - q @ (qh @ x))) for x in xs]


def best_time(fn, *args, repeats: int) -> tuple[float, list[float]]:
    best, out = float("inf"), []
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    print("N, M, dtype: Q path s -> reflector path s, max |delta dist|")
    for n, m, kind in SHAPES:
        block = rng.standard_normal((n, m))
        if kind == "complex":
            block = block + 1j * rng.standard_normal((n, m))
        fam = SequenceFamily(block)
        xs = [ProbeSpec.parse(p).instantiate(n) for p in PROBES]
        t_q, d_q = best_time(q_path, fam, xs, repeats=args.repeats)
        t_r, d_r = best_time(span_distances, fam, xs, repeats=args.repeats)
        delta = max(abs(a - b) for a, b in zip(d_q, d_r))
        print(f"{n}, {m}, {kind}: {t_q:.3f} s -> {t_r:.3f} s, {delta:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
