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
import itertools
import os
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, io, ladder, linalg, models, pseudoboson, riesz
from .errors import (
    DimensionMismatchError,
    ModelError,
    RieszLabError,
    SingularOperatorError,
)
from .family import (
    BiorthogonalPair,
    SequenceFamily,
    build_analysis,
    build_coanalysis,
    check_pairing,
    embed_pair,
    pad_to_square,
    pairing_bound,
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

    def command(name: str, help: str, seed: bool):
        """A subcommand with exactly the flags it reads: these, then its own."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="YAML config file; flags override its values")
        p.add_argument("--model", help="model spec, e.g. identity, paper_example, "
                                       "diagonal:k+1, similarity:2^k, random_regular:50, "
                                       "ccr, or file:...")
        p.add_argument("--out", help="output directory for reports and CSV")
        if seed:
            p.add_argument("--seed", default=None, help="seed for random models")
        return p

    p = command("analyze", "single-truncation identity checks for a pair", seed=True)
    p.add_argument("--dim", default=None)

    p = command("sweep", "truncation sweep and classification verdict", seed=True)
    p.add_argument("--dims", default=None, help="comma-separated dimensions, e.g. 8,16,32,64")
    p.add_argument("--probe", action="append", default=None,
                   help="probe spec (repeatable): e_j, geom:r, random:seed")

    p = command("pseudoboson", "(a, b) pipeline checks", seed=False)
    p.add_argument("--dim", default=None)
    p.add_argument("--window", default=None)

    p = command("ladder", "build and export ladder operators", seed=True)
    p.add_argument("--dim", default=None)
    p.add_argument("--side", default=None, help="phi or psi (default phi)")

    sub.add_parser("example-list", help="list built-in models")
    return parser


def _is_int(v) -> bool:
    return type(v) is int  # a YAML true is a bool, not a dimension


def _is_str(v) -> bool:
    return isinstance(v, str)


#: Per config key: the test its value must pass (the type its flag gives) and
#: the name of that type for the error message.
_CONFIG_TYPES = {
    "model": (_is_str, "a string"),
    "out": (_is_str, "a string"),
    "side": (_is_str, "a string"),
    "dim": (_is_int, "an integer"),
    "seed": (_is_int, "an integer"),
    "window": (_is_int, "an integer"),
    "dims": (lambda v: _is_str(v) or isinstance(v, list) and all(map(_is_int, v)),
             "a string or a list of integers"),
    "probes": (lambda v: isinstance(v, list) and all(map(_is_str, v)), "a list of strings"),
}


def _check_config_types(loaded: dict) -> None:
    for key, (ok, what) in _CONFIG_TYPES.items():
        val = loaded.get(key)
        if val is not None and not ok(val):
            raise ValueError(f"config: {key} must be {what}, got {val!r}")


def _merge_config(args: argparse.Namespace) -> dict:
    """Config file values, overridden by any flags that were actually given.

    The command's flags are the one list of what it reads.  Each flag's config
    key is its name, except that --probe is ``probes``; a config key outside
    that list is refused.
    """
    flags: dict = {}
    for key, val in vars(args).items():
        if key not in ("command", "config"):
            flags["probes" if key == "probe" else key] = val
    cfg: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ValueError(f"config: file not found: {path}")
        import yaml  # only --config needs it; keeps `import rieszlab.cli` light

        try:
            cfg = yaml.safe_load(path.read_text())
        except yaml.YAMLError as exc:
            raise ValueError(f"config: malformed YAML in {path}: {exc}") from exc
        if cfg is None:
            cfg = {}
        if not isinstance(cfg, dict):
            raise ValueError("config: top level must be a mapping")
        _check_config_types(cfg)
        for key in cfg:
            if key not in flags:
                raise ValueError(f"config: {args.command} does not read {key}")
    for key, val in flags.items():
        if val is not None:
            cfg[key] = val
    return cfg


def _require(cfg: dict, key: str, default=None):
    if key in cfg and cfg[key] is not None:
        return cfg[key]
    if default is not None:
        return default
    raise ValueError(f"{key}: missing required value (flag --{key} or config key)")


def _dim(value) -> int:
    """A truncation dimension from a flag's text or a config integer, within the dense limit."""
    dim = diagnostics.ascii_int(value, "dim")
    if dim > linalg.DENSE_DIM_LIMIT:
        raise ValueError(f"dim: {dim} exceeds the dense limit {linalg.DENSE_DIM_LIMIT}")
    return dim


def _seed(value) -> int:
    """A model seed from a flag's text or a config integer: at least 0."""
    seed = diagnostics.ascii_int(value, "seed")
    if seed < 0:
        raise ValueError(f"seed: must be >= 0, got {seed}")
    return seed


def _model_spec(cfg: dict, dim: int) -> models.ModelSpec:
    text = _require(cfg, "model")
    return models.parse_model(str(text), dim=dim, seed=_require(cfg, "seed", 0))


def _file_paths(cfg: dict, first: str, second: str) -> list[str] | None:
    """The two paths of a ``file:FIRST.csv,SECOND.csv`` model; None for a built-in one."""
    text = str(_require(cfg, "model"))
    if not text.startswith("file:"):
        return None
    paths = [p.strip() for p in text[5:].split(",")]
    if len(paths) != 2:
        raise ValueError(f"model: file form needs two paths: file:{first}.csv,{second}.csv")
    return paths


def _load_pair_model(cfg: dict, dim: int) -> BiorthogonalPair:
    paths = _file_paths(cfg, "phi", "psi")
    if paths is None:
        return models.instantiate_pair(_model_spec(cfg, dim))
    phi, psi = (io.load_family(p) for p in paths)
    if phi.dim < models.MIN_DIM:
        raise ValueError(f"model: file families need dimension >= {models.MIN_DIM}")
    try:
        return check_pairing(phi, psi)
    except DimensionMismatchError as exc:
        raise ValueError(f"model: {exc}") from exc


def _drop_stdout() -> None:
    """Point stdout at os.devnull: its reader has closed the pipe."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _write(text: str) -> None:
    """Write to stdout.  A reader that closed the pipe ends the output, not the
    command: the rest goes to os.devnull, so the files under --out are still
    written and the exit status is the command's own."""
    try:
        sys.stdout.write(text)
    except BrokenPipeError:
        _drop_stdout()


def _emit(cfg: dict, name: str, text: str) -> None:
    _write(text)
    out = cfg.get("out")
    if out:
        io.atomic_write_text(Path(out) / name, text)


class CheckTable:
    """Accumulates residual lines with the bounds that gate them."""

    def __init__(self):
        self.lines: list[str] = []
        self.failed = False

    def add(self, name: str, residual: float, tolerance: float) -> None:
        ok = residual <= tolerance < np.inf  # both finite: no inf or NaN passes
        self.failed = self.failed or not ok
        status = "PASS" if ok else "FAIL"
        self.lines.append(f"{status}  {name}: residual {residual:.3e} (tolerance {tolerance:.3e})")

    def fail(self, name: str, reason: str) -> None:
        """A FAIL line for a stage that raised instead of giving a residual."""
        self.failed = True
        self.lines.append(f"FAIL  {name}: {reason}")

    def info(self, text: str) -> None:
        self.lines.append(text)

    def render(self, title: str) -> str:
        return title + "\n" + "\n".join(self.lines) + "\n"


def cmd_analyze(cfg: dict) -> int:
    dim = _dim(_require(cfg, "dim", 16))
    pair = _load_pair_model(cfg, dim)
    dim = pair.dim  # file models carry their own dimension

    table = CheckTable()
    table.add("pairing residual", pair.pairing_residual, pairing_bound(pair.phi, pair.psi))
    # Read now, so that the pair is freed after the left-inverse line; printed last.
    d_psi = diagnostics.span_distance(pair.psi, linalg.basis_vector(0, dim))

    # The one factorization of T: every check below reads from it.
    phi_full = pad_to_square(pair.phi)
    fac = linalg.Factorization(build_analysis(phi_full))
    T = fac.T
    exact = linalg.error_bound(dim, phi_full.max_norm)
    table.add("coanalysis == adjoint(analysis)",
              linalg.max_abs(build_coanalysis(phi_full) - linalg.adjoint(T)), exact)
    table.add("analysis action T e_k == phi_k", linalg.max_column_norm(T - phi_full.coeffs), exact)
    sq = embed_pair(pair, fac)
    del pair
    table.add("left-inverse identity", verify_left_inverse(sq), pairing_bound(sq.phi, sq.psi))
    del sq

    # Each transported operator is checked as soon as it is formed and freed
    # after its check, but for the phi-side number operator, which the metric
    # reads: the metric runs next, so that it is freed before the dual family
    # is formed.  The phi-side generator, drawn three times and never
    # exhausted, is dropped at once: its frame holds T and T^-1.  The lines
    # are printed in their usual order.
    phi_ops = ladder.transported(T, fac.inverse)
    phi_actions = ladder.action_defect(itertools.islice(phi_ops, 2), phi_full, dim - 2)
    number = next(phi_ops)
    del phi_ops
    phi_actions = max(phi_actions, ladder.shift_defect(number, 2, phi_full, dim - 2))
    # ||G|| = 1 / sigma_min(T)^2 for G = adjoint(T^-1) T^-1.
    metric = (ladder.intertwining_residual(ladder.metric_operator(fac), number),
              linalg.error_bound(dim, linalg.norm_estimate(number) / fac.sigma_min ** 2,
                                 kappa=fac.kappa))
    del number

    dual = riesz.dual_family(fac)
    kappa = fac.kappa
    table.add("dual family pairing", BiorthogonalPair(phi_full, dual).pairing_residual,
              linalg.error_bound(dim, kappa=kappa ** 2))
    table.add("ladder actions (phi side)", phi_actions, ladder.action_bound(kappa, phi_full))
    # The psi side reads the dual and adjoint(T) alone: T, phi and the
    # factorization, with the T^-1 it caches, are freed before it.
    T_adj = linalg.adjoint(T)
    del T, phi_full, fac
    table.add("ladder actions (psi side)",
              ladder.action_defect(ladder.transported(dual.coeffs, T_adj), dual, dim - 2),
              ladder.action_bound(kappa, dual))
    table.add("metric intertwining", *metric)

    if d_psi > 0.5:
        table.info(f"WARNING  psi-side span is far from e_0 "
                   f"(distance {d_psi:.3f}): psi span likely non-dense")

    text = table.render(f"analyze: dim {dim}, kappa(T) {kappa:.3e}")
    _emit(cfg, "analyze.txt", text)
    return EXIT_CHECK if table.failed else EXIT_OK


def cmd_sweep(cfg: dict) -> int:
    dims_value = _require(cfg, "dims")
    if isinstance(dims_value, str):
        entries = [d.strip() for d in dims_value.split(",")]
        if "" in entries:
            raise ValueError(f"dims: empty entry in {dims_value!r}")
        dims = [_dim(d) for d in entries]
    else:
        dims = [_dim(d) for d in dims_value]
    if len(set(dims)) < 2:
        raise ValueError("dims: a sweep needs at least two distinct dimensions")
    probes = cfg.get("probes") or ["e_0", "e_1"]
    spec = _model_spec(cfg, max(dims))
    report = diagnostics.run_sweep(models.pair_factory(spec), dims, probes)
    csv_text = report.to_csv()
    verdict = report.verdict_text()
    _write(verdict)
    out = cfg.get("out")
    if out:
        io.atomic_write_text(Path(out) / "sweep.csv", csv_text)
        io.atomic_write_text(Path(out) / "verdict.txt", verdict)
    else:
        _write(csv_text)
    return EXIT_OK


def _load_system(cfg: dict, dim: int, window: int | None):
    paths = _file_paths(cfg, "a", "b")
    if paths is None:
        return models.instantiate_system(_model_spec(cfg, dim), window=window)
    a, b = (io.load_matrix(p) for p in paths)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"model: a {a.shape} and b {b.shape} must be square and of one size")
    if a.shape[0] < models.MIN_DIM:
        raise ValueError(f"model: a and b need dimension >= {models.MIN_DIM}")
    return pseudoboson.PseudoBosonSystem.build(a, b, window=window)


def cmd_pseudoboson(cfg: dict) -> int:
    dim = _dim(_require(cfg, "dim", 32))
    window = cfg.get("window")
    window = diagnostics.ascii_int(window, "window") if window is not None else None
    system = _load_system(cfg, dim, window)
    n, window, kappa_vac = system.dim, system.window, system.kappa_vac
    norm_a, norm_b = linalg.norm_estimate(system.a), linalg.norm_estimate(system.b)

    table = CheckTable()
    table.add("vacuum residual ||a phi_0||",
              float(np.linalg.norm(system.a @ system.phi0)), linalg.error_bound(n, norm_a))
    table.add("vacuum residual ||adjoint(b) psi_0||",
              float(np.linalg.norm(linalg.adjoint(system.b) @ system.psi0)),
              linalg.error_bound(n, norm_b))
    table.add(f"commutator defect on window {window}",
              system.commutator_defect(), linalg.error_bound(n, norm_a * norm_b, k=2))

    # phi is generated at full truncation, which kappa(T_gen) below reads, and
    # psi to the window W alone.  Each column is computed from the one before,
    # so the first W columns of phi are what generating W columns gives; the
    # checks read those alone.
    sq_phi, psi = pseudoboson.generate_families(system, n, psi_count=window)
    phi = SequenceFamily(sq_phi.coeffs[:, :window])
    table.add("generated pairing residual", *pseudoboson.pairing_check(system, phi, psi))

    nmax = min(6, window // 2)
    residuals, bounds = pseudoboson.falling_factorial_checks(system, nmax)
    for (npow, mpow), r in np.ndenumerate(residuals):
        table.add(f"falling-factorial n={npow} m={mpow}", r, bounds[npow, mpow])

    # The ladder transported by the family's analysis operator T acts on the family
    # exactly, so the restriction line compares a and b with that action in closed
    # form; its bound reads kappa(T) alone.  It is computed before the number
    # relations, so that a and b are freed before N = b a is powered.
    try:
        tol_ladder = ladder.action_bound(linalg.Factorization(build_analysis(sq_phi)).kappa, sq_phi)
        restriction = ladder.action_defect((system.a, system.b), phi, window)
    except SingularOperatorError as exc:  # the lines above stand; the two below cannot be bounded
        tol_ladder, singular = None, str(exc)
    number = system.b @ system.a
    del system  # a and b: the number relations read N alone
    table.add("number eigen-relations (m <= 3)", *linalg.worst_ratio(
        *pseudoboson.number_eigen_relations(number, (phi, psi), 3, window, kappa_vac))[:2])
    if tol_ladder is None:
        table.fail("transported ladder (phi side)", singular)
    else:
        table.add("restriction containment (phi side)", restriction, tol_ladder)
        table.add("span invariance (phi side)", 0.0, tol_ladder)  # a square family spans it all

    text = table.render(f"pseudoboson: dim {n}, window {window}, generated columns {window}")
    _emit(cfg, "pseudoboson.txt", text)
    return EXIT_CHECK if table.failed else EXIT_OK


def cmd_ladder(cfg: dict) -> int:
    dim = _dim(_require(cfg, "dim", 16))
    side = cfg.get("side") or "phi"
    if side not in ("phi", "psi"):
        raise ValueError(f"side: must be phi or psi, got {side!r}")
    phi = pad_to_square(_load_pair_model(cfg, dim).phi)  # psi is not read: free it now
    fac = linalg.Factorization(build_analysis(phi))
    if side == "phi":
        ls, fam = ladder.build_ladder(fac, side="phi"), phi
    else:
        ls, fam = ladder.dual_ladder(fac, side="psi"), riesz.dual_family(fac)
    out = cfg.get("out") or "."
    written = io.save_ladder(ls, out, tolerance=ladder.action_bound(fac.kappa, fam))
    for p in written:
        _write(f"wrote {p}\n")
    return EXIT_OK


def cmd_example_list() -> int:
    for name, desc in models.model_catalogue():
        _write(f"{name:28s} {desc}\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "example-list":
            return cmd_example_list()
        run = {"analyze": cmd_analyze, "sweep": cmd_sweep,
               "pseudoboson": cmd_pseudoboson, "ladder": cmd_ladder}[args.command]
        cfg = _merge_config(args)
        if cfg.get("seed") is not None:  # checked whether or not the model reads it
            cfg["seed"] = _seed(cfg["seed"])
        with np.errstate(all="ignore"):  # a non-finite residual fails its line instead
            return run(cfg)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_INPUT if exc.code else EXIT_OK
    except ModelError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except RieszLabError as exc:  # a mathematical outcome, not an input error
        sys.stderr.write(f"check failure: {exc}\n")
        return EXIT_CHECK
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except ArithmeticError as exc:  # finite inputs whose products leave float64's range
        sys.stderr.write(f"input error: values outside the range of float64: {exc}\n")
        return EXIT_INPUT
    finally:
        try:  # what is still buffered, so that no flush at exit meets a closed pipe
            sys.stdout.flush()
        except BrokenPipeError:
            _drop_stdout()


if __name__ == "__main__":
    sys.exit(main())
