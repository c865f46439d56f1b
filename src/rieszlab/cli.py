"""Command-line front door.

Commands:
  analyze       one-dimension identity checks for a pair model
  sweep         truncation sweep with CSV output and a classification verdict
  pseudoboson   full (a, b) pipeline: vacua, families, identity tables
  ladder        build and export the ladder operators of a model
  example-list  catalogue of built-in models

Exit codes: 0 success, 1 input/config error (usage errors included),
2 mathematical check failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, io, ladder, linalg, models, pseudoboson, riesz
from .errors import (
    DimensionMismatchError,
    ModelError,
    RieszLabError,
    SingularOperatorError,
    TruncationShapeError,
)
from .family import (
    PAIR_TOLERANCE,
    BiorthogonalPair,
    SequenceFamily,
    build_analysis,
    build_coanalysis,
    check_pairing,
    embed_pair,
    pad_to_square,
    verify_left_inverse,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CHECK = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszlab",
        description="Numerical checks for biorthogonal pairs, generalized Riesz "
                    "bases and pseudo-bosonic families on truncated Hilbert spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML config file; flags override its values")
        p.add_argument("--model", help="model spec, e.g. identity, paper_example, "
                                       "diagonal:k+1, similarity:2^k, random_regular:50, "
                                       "ccr, or file:...")
        p.add_argument("--out", help="output directory for reports and CSV")
        p.add_argument("--seed", type=int, default=None, help="seed for random models")
        p.add_argument("--tol-pair", type=float, default=None, dest="tol_pair")
        p.add_argument("--tol-ladder", type=float, default=None, dest="tol_ladder")
        p.add_argument("--tol-pb", type=float, default=None, dest="tol_pb")

    p = sub.add_parser("analyze", help="single-truncation identity checks for a pair")
    common(p)
    p.add_argument("--dim", type=int, default=None)

    p = sub.add_parser("sweep", help="truncation sweep and classification verdict")
    common(p)
    p.add_argument("--dims", default=None, help="comma-separated dimensions, e.g. 8,16,32,64")
    p.add_argument("--probe", action="append", default=None,
                   help="probe spec (repeatable): e_j, geom:r, random:seed")

    p = sub.add_parser("pseudoboson", help="(a, b) pipeline checks")
    common(p)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--count", type=int, default=None, help="number of generated columns")

    p = sub.add_parser("ladder", help="build and export ladder operators")
    common(p)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--side", default=None, help="phi or psi (default phi)")

    p = sub.add_parser("example-list", help="list built-in models")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """Config file values, overridden by any flags that were actually given."""
    cfg: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ValueError(f"config: file not found: {path}")
        import yaml  # only --config needs it; keeps `import rieszlab.cli` light

        try:
            loaded = yaml.safe_load(path.read_text())
        except yaml.YAMLError as exc:
            raise ValueError(f"config: malformed YAML in {path}: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ValueError("config: top level must be a mapping")
        cfg.update(loaded)
    for key in ("model", "dim", "dims", "out", "seed", "window", "count", "side"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    probes = getattr(args, "probe", None)
    if probes:
        cfg["probes"] = probes
    tols = dict(cfg.get("tolerances") or {})
    for key, name in (("tol_pair", "pair"), ("tol_ladder", "ladder"), ("tol_pb", "pb")):
        val = getattr(args, key, None)
        if val is not None:
            tols[name] = val
    cfg["tolerances"] = tols
    return cfg


def _require(cfg: dict, key: str, default=None):
    if key in cfg and cfg[key] is not None:
        return cfg[key]
    if default is not None:
        return default
    raise ValueError(f"{key}: missing required value (flag --{key} or config key)")


def _dim(value) -> int:
    """A truncation dimension from a flag or config value, within the dense limit."""
    dim = int(value)
    if dim > linalg.DENSE_DIM_LIMIT:
        raise ValueError(f"dim: {dim} exceeds the dense limit {linalg.DENSE_DIM_LIMIT}")
    return dim


def _model_spec(cfg: dict, dim: int) -> models.ModelSpec:
    text = _require(cfg, "model")
    seed = int(cfg.get("seed") or 0)
    return models.parse_model(str(text), dim=dim, seed=seed)


def _load_pair_model(cfg: dict, dim: int) -> BiorthogonalPair:
    text = str(_require(cfg, "model"))
    if text.startswith("file:"):
        paths = text[5:].split(",")
        if len(paths) != 2:
            raise ValueError("model: file form needs two paths: file:phi.csv,psi.csv")
        phi = io.load_family(paths[0].strip())
        psi = io.load_family(paths[1].strip())
        if phi.dim < models.MIN_DIM:
            raise ValueError(f"model: file families need dimension >= {models.MIN_DIM}")
        tol = float(cfg["tolerances"].get("pair", PAIR_TOLERANCE))
        try:
            pad_to_square(phi)  # analyze and ladder embed phi in a square truncation
            return check_pairing(phi, psi, tolerance=tol)
        except (DimensionMismatchError, TruncationShapeError) as exc:
            raise ValueError(f"model: {exc}") from exc
    return models.instantiate_pair(_model_spec(cfg, dim))


def _emit(cfg: dict, name: str, text: str) -> None:
    sys.stdout.write(text)
    out = cfg.get("out")
    if out:
        io.atomic_write_text(Path(out) / name, text)


class CheckTable:
    """Accumulates residual lines with their gating tolerances."""

    def __init__(self):
        self.lines: list[str] = []
        self.failed = False

    def add(self, name: str, residual: float, tolerance: float) -> None:
        ok = residual <= tolerance
        self.failed = self.failed or not ok
        status = "PASS" if ok else "FAIL"
        self.lines.append(f"{status}  {name}: residual {residual:.3e} (tolerance {tolerance:.3e})")

    def info(self, text: str) -> None:
        self.lines.append(text)

    def render(self, title: str) -> str:
        return title + "\n" + "\n".join(self.lines) + "\n"


def cmd_analyze(cfg: dict) -> int:
    dim = _dim(_require(cfg, "dim", 16))
    pair = _load_pair_model(cfg, dim)
    dim = pair.dim  # file models carry their own dimension
    tol_pair = float(cfg["tolerances"].get("pair", PAIR_TOLERANCE))
    tol_ladder_base = float(cfg["tolerances"].get("ladder", ladder.LADDER_TOL_BASE))

    table = CheckTable()
    table.add("pairing residual", pair.pairing_residual, tol_pair)

    # The one factorization of T: every check below reads from it.
    phi_full = SequenceFamily(pad_to_square(pair.phi).coeffs)
    cp = riesz.ConstructingPair.from_family(phi_full)
    fac = cp.factorization
    sq = embed_pair(pair, fac)
    T = cp.T
    K = build_coanalysis(sq.phi)
    table.add("coanalysis == adjoint(analysis)", linalg.max_abs(K - linalg.adjoint(T)), 0.0)
    table.add("analysis action T e_k == phi_k",
              linalg.max_column_norm(T - sq.phi.coeffs), riesz.ACTION_TOLERANCE)
    table.add("left-inverse identity", verify_left_inverse(sq), dim * tol_pair)

    dual = riesz.dual_family(cp)
    table.add("dual family pairing", BiorthogonalPair(phi_full, dual).pairing_residual,
              riesz.dual_pairing_tolerance(cp, tol_pair))

    tol_ladder = ladder.ladder_tolerance(cp.kappa, tol_ladder_base) * 10
    ls_phi = ladder.build_ladder(fac, side="phi")
    table.add("ladder actions (phi side)",
              ladder.verify_ladder_actions(ls_phi, phi_full, window=dim - 2), tol_ladder)
    ls_psi = ladder.dual_ladder(fac, side="psi")
    table.add("ladder actions (psi side)",
              ladder.verify_ladder_actions(ls_psi, dual, window=dim - 2), tol_ladder)

    metric = ladder.metric_operator(fac, source="analysis operator")
    table.add("metric intertwining",
              ladder.intertwining_residual(metric, ls_phi.number), tol_ladder)

    d_psi = diagnostics.span_distance(pair.psi, linalg.basis_vector(0, dim))
    if d_psi > 0.5:
        table.info(f"WARNING  psi-side span is far from e_0 "
                   f"(distance {d_psi:.3f}): psi span likely non-dense")

    text = table.render(f"analyze: dim {dim}, kappa(T) {cp.kappa:.3e}")
    _emit(cfg, "analyze.txt", text)
    return EXIT_CHECK if table.failed else EXIT_OK


def cmd_sweep(cfg: dict) -> int:
    dims_value = _require(cfg, "dims")
    if isinstance(dims_value, str):
        dims = [_dim(d) for d in dims_value.split(",") if d.strip()]
    else:
        dims = [_dim(d) for d in dims_value]
    if len(set(dims)) < 2:
        raise ValueError("dims: a sweep needs at least two distinct dimensions")
    probes = cfg.get("probes") or ["e_0", "e_1"]
    spec = _model_spec(cfg, max(dims))
    report = diagnostics.run_sweep(models.pair_factory(spec), dims, probes)
    csv_text = report.to_csv()
    verdict = report.verdict_text()
    sys.stdout.write(verdict)
    out = cfg.get("out")
    if out:
        io.atomic_write_text(Path(out) / "sweep.csv", csv_text)
        io.atomic_write_text(Path(out) / "verdict.txt", verdict)
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _load_system(cfg: dict, dim: int, window: int | None):
    text = str(_require(cfg, "model"))
    if text.startswith("file:"):
        paths = text[5:].split(",")
        if len(paths) != 2:
            raise ValueError("model: file form needs two paths: file:a.csv,b.csv")
        a = io.load_matrix(paths[0].strip())
        b = io.load_matrix(paths[1].strip())
        if a.shape != b.shape or a.shape[0] != a.shape[1]:
            raise ValueError(f"model: a {a.shape} and b {b.shape} must be square and of one size")
        if a.shape[0] < models.MIN_DIM:
            raise ValueError(f"model: a and b need dimension >= {models.MIN_DIM}")
        return pseudoboson.PseudoBosonSystem.build(a, b, window=window)
    return models.instantiate_system(_model_spec(cfg, dim), window=window)


def cmd_pseudoboson(cfg: dict) -> int:
    dim = _dim(_require(cfg, "dim", 32))
    window = cfg.get("window")
    window = int(window) if window is not None else None
    system = _load_system(cfg, dim, window)
    n = system.dim
    count = cfg.get("count")
    count = int(count) if count is not None else min(system.window, n - 1)
    if not 1 <= count <= n:
        raise ValueError(f"count: must lie in 1..{n}, got {count}")
    tol_pb_base = float(cfg["tolerances"].get("pb", pseudoboson.PB_TOL_BASE))

    table = CheckTable()
    table.add("vacuum residual ||a phi_0||",
              float(np.linalg.norm(system.a @ system.phi0)), pseudoboson.VACUUM_TOLERANCE)
    table.add("vacuum residual ||adjoint(b) psi_0||",
              float(np.linalg.norm(linalg.adjoint(system.b) @ system.psi0)),
              pseudoboson.VACUUM_TOLERANCE)
    table.add(f"commutator defect on window {system.window}",
              system.commutator_defect(), pseudoboson.COMMUTATOR_TOLERANCE)

    # The families are generated once, at full truncation.  Each column is
    # computed from the one before, so their first count columns are exactly
    # what generating count columns gives; the pairing line gates those alone.
    sq_phi, sq_psi = pseudoboson.generate_families(system, n)
    phi = SequenceFamily(sq_phi.coeffs[:, :count])
    psi = SequenceFamily(sq_psi.coeffs[:, :count])
    pair = BiorthogonalPair(phi, psi)
    tol_pb = pseudoboson.pb_tolerance(phi, psi, base=tol_pb_base)
    table.add("generated pairing residual", pair.pairing_residual, tol_pb)

    nmax = min(6, count - 1, system.window // 2)
    for npow in range(nmax + 1):
        for mpow in range(nmax + 1):
            r = pseudoboson.falling_factorial_identity(system, npow, mpow)
            table.add(f"falling-factorial n={npow} m={mpow}", r, tol_pb)
    table.add("number eigen-relations (m <= 3)",
              pseudoboson.number_eigen_check(system, (phi, psi), mmax=3), tol_pb * 10)

    ls_phi = ladder.build_ladder(build_analysis(sq_phi), side="phi")
    table.add("restriction containment (phi side)",
              pseudoboson.restriction_containment(system, ls_phi, phi, side="phi"), tol_pb)
    table.add("span invariance (phi side)",
              pseudoboson.span_invariance(ls_phi, sq_phi), tol_pb)

    text = table.render(
        f"pseudoboson: dim {n}, window {system.window}, generated columns {count}"
    )
    _emit(cfg, "pseudoboson.txt", text)
    return EXIT_CHECK if table.failed else EXIT_OK


def cmd_ladder(cfg: dict) -> int:
    dim = _dim(_require(cfg, "dim", 16))
    side = cfg.get("side") or "phi"
    if side not in ("phi", "psi"):
        raise ValueError(f"side: must be phi or psi, got {side!r}")
    pair = _load_pair_model(cfg, dim)
    fac = linalg.Factorization(build_analysis(pad_to_square(pair.phi)))
    if side == "phi":
        ls = ladder.build_ladder(fac, side="phi")
    else:
        ls = ladder.dual_ladder(fac, side="psi")
    tol = ladder.ladder_tolerance(
        ls.kappa, float(cfg["tolerances"].get("ladder", ladder.LADDER_TOL_BASE)))
    out = cfg.get("out") or "."
    written = io.save_ladder(ls, out, tolerance=tol)
    for p in written:
        sys.stdout.write(f"wrote {p}\n")
    return EXIT_OK


def cmd_example_list() -> int:
    for name, desc in models.model_catalogue():
        sys.stdout.write(f"{name:28s} {desc}\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        if args.command == "example-list":
            return cmd_example_list()
        cfg = _merge_config(args)
        if args.command == "analyze":
            return cmd_analyze(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "pseudoboson":
            return cmd_pseudoboson(cfg)
        if args.command == "ladder":
            return cmd_ladder(cfg)
        raise ValueError(f"unknown command {args.command!r}")
    except (SingularOperatorError,) as exc:
        sys.stderr.write(f"check failure: {exc}\n")
        return EXIT_CHECK
    except RieszLabError as exc:
        # Pairing/vacuum failures are mathematical outcomes, not input errors,
        # unless they come from unreadable input handled above.
        if isinstance(exc, ModelError):
            sys.stderr.write(f"input error: {exc}\n")
            return EXIT_INPUT
        sys.stderr.write(f"check failure: {exc}\n")
        return EXIT_CHECK
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
