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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Check:
    """One PASS/FAIL line: a residual against the bound that gates it, or why a stage gave none."""

    name: str
    residual: float | None
    bound: float | None
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.reason is None and self.residual <= self.bound < np.inf  # no inf or NaN passes

    def __str__(self) -> str:
        if self.reason is not None:
            return f"FAIL  {self.name}: {self.reason}"
        return (f"{'PASS' if self.ok else 'FAIL'}  {self.name}: "
                f"residual {self.residual:.3e} (tolerance {self.bound:.3e})")


def _report(cfg: dict, name: str, title: str, checks: list[Check], notes=()) -> int:
    """Print title, checks and notes, write them to --out/name; exit 2 if a check failed."""
    text = "\n".join([title, *map(str, checks), *notes]) + "\n"
    _write(text)
    out = cfg.get("out")
    if out:
        io.atomic_write_text(Path(out) / name, text)
    return EXIT_OK if all(c.ok for c in checks) else EXIT_CHECK


def _analyze_pair(cfg: dict):
    """The four pairing and embedding lines and the psi span note, with phi
    padded to square and the one factorization of T that every later line reads."""
    pair = _load_pair_model(cfg, _dim(_require(cfg, "dim", 16)))
    dim = pair.dim  # file models carry their own dimension
    checks = [Check("pairing residual", pair.pairing_residual, pairing_bound(pair.phi, pair.psi))]
    d_psi = diagnostics.span_distance(pair.psi, linalg.basis_vector(0, dim))
    notes = [f"WARNING  psi-side span is far from e_0 (distance {d_psi:.3f}): "
             "psi span likely non-dense"] if d_psi > 0.5 else []
    phi = pad_to_square(pair.phi)
    fac = linalg.Factorization(build_analysis(phi))
    exact = linalg.error_bound(dim, phi.max_norm)
    checks += [Check("coanalysis == adjoint(analysis)",
                     linalg.max_abs(build_coanalysis(phi) - linalg.adjoint(fac.T)), exact),
               Check("analysis action T e_k == phi_k",
                     linalg.max_column_norm(fac.T - phi.coeffs), exact)]
    sq = embed_pair(pair, fac)
    del pair  # freed before the left-inverse walk, which a stage of its own would only wrap
    checks.append(Check("left-inverse identity", verify_left_inverse(sq),
                        pairing_bound(sq.phi, sq.psi)))
    return checks, notes, phi, fac


def _analyze_phi_ladder(phi: SequenceFamily, fac: linalg.Factorization) -> tuple[float, Check]:
    """The phi-side ladder defect, checking each transported operator as it is
    formed, and the metric line, which reads the number operator; both die on
    return, with the generator, before the dual family is formed."""
    dim = fac.dim
    ops = ladder.transported(fac.T, fac.inverse)
    actions = ladder.action_defect(itertools.islice(ops, 2), phi, dim - 2)
    number = next(ops)
    actions = max(actions, ladder.shift_defect(number, 2, phi, dim - 2))
    residual = ladder.intertwining_residual(ladder.metric_operator(fac), number)
    # ||G|| = 1 / sigma_min(T)^2 for G = adjoint(T^-1) T^-1.
    return actions, Check("metric intertwining", residual, linalg.error_bound(
        dim, linalg.norm_estimate(number) / fac.sigma_min ** 2, kappa=fac.kappa))


def _analyze_phi(cfg: dict):
    """Every line but the psi-side ladder, with kappa(T) and what that line reads:
    the dual family and adjoint(T).  T, T^-1 and phi die on return."""
    checks, notes, phi, fac = _analyze_pair(cfg)
    actions, metric = _analyze_phi_ladder(phi, fac)
    dual = riesz.dual_family(fac)
    checks += [Check("dual family pairing", BiorthogonalPair(phi, dual).pairing_residual,
                     linalg.error_bound(fac.dim, kappa=fac.kappa ** 2)),
               Check("ladder actions (phi side)", actions, ladder.action_bound(fac.kappa, phi))]
    return checks, notes, metric, fac.kappa, dual, linalg.adjoint(fac.T)


def cmd_analyze(cfg: dict) -> int:
    checks, notes, metric, kappa, dual, T_adj = _analyze_phi(cfg)
    psi_actions = ladder.action_defect(ladder.transported(dual.coeffs, T_adj), dual, dual.dim - 2)
    checks += [Check("ladder actions (psi side)", psi_actions, ladder.action_bound(kappa, dual)),
               metric]
    return _report(cfg, "analyze.txt", f"analyze: dim {dual.dim}, kappa(T) {kappa:.3e}",
                   checks, notes)


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
    if str(_require(cfg, "model")).startswith("file:"):
        raise ValueError("model: sweep rebuilds its model at each dimension, and a "
                         "file:... model has only the dimension of its files")
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


def _pseudoboson_system(cfg: dict):
    """Every line that reads a and b, with the restriction lines apart (they print
    after the number line) and what the number line reads: N = b a, the families
    and kappa_vac.  a and b die on return, before N is powered."""
    dim = _dim(_require(cfg, "dim", 32))
    window = cfg.get("window")
    window = diagnostics.ascii_int(window, "window") if window is not None else None
    system = _load_system(cfg, dim, window)
    n, window = system.dim, system.window
    norm_a, norm_b = linalg.norm_estimate(system.a), linalg.norm_estimate(system.b)
    checks = [Check("vacuum residual ||a phi_0||", float(np.linalg.norm(system.a @ system.phi0)),
                    linalg.error_bound(n, norm_a)),
              Check("vacuum residual ||adjoint(b) psi_0||",
                    float(np.linalg.norm(linalg.adjoint(system.b) @ system.psi0)),
                    linalg.error_bound(n, norm_b)),
              Check(f"commutator defect on window {window}", system.commutator_defect(),
                    linalg.error_bound(n, norm_a * norm_b, k=2))]

    # phi is generated at full truncation, which kappa(T_gen) below reads, and
    # psi to the window W alone.  Each column is computed from the one before,
    # so the first W columns of phi are what generating W columns gives; the
    # checks read those alone.
    sq_phi, psi = pseudoboson.generate_families(system, n, psi_count=window)
    phi = SequenceFamily(sq_phi.coeffs[:, :window])
    checks.append(Check("generated pairing residual",
                        *pseudoboson.pairing_check(system, phi, psi)))

    nmax = min(6, window // 2)
    residuals, bounds = pseudoboson.falling_factorial_checks(system, nmax)
    for (npow, mpow), r in np.ndenumerate(residuals):
        checks.append(Check(f"falling-factorial n={npow} m={mpow}", r, bounds[npow, mpow]))

    # The ladder transported by the family's analysis operator T acts on the family
    # exactly, so the restriction line compares a and b with that action in closed
    # form; its bound reads kappa(T) alone.
    try:
        tol = ladder.action_bound(linalg.Factorization(build_analysis(sq_phi)).kappa, sq_phi)
        restriction = [Check("restriction containment (phi side)",
                             ladder.action_defect((system.a, system.b), phi, window), tol),
                       # a square family spans it all
                       Check("span invariance (phi side)", 0.0, tol)]
    except SingularOperatorError as exc:  # the lines above stand; these cannot be bounded
        restriction = [Check("transported ladder (phi side)", None, None, str(exc))]
    title = f"pseudoboson: dim {n}, window {window}, generated columns {window}"
    return title, checks, restriction, system.b @ system.a, (phi, psi), system.kappa_vac


def cmd_pseudoboson(cfg: dict) -> int:
    title, checks, restriction, number, families, kappa_vac = _pseudoboson_system(cfg)
    relations = pseudoboson.number_eigen_relations(number, families, 3, families[0].size, kappa_vac)
    checks.append(Check("number eigen-relations (m <= 3)", *linalg.worst_ratio(*relations)[:2]))
    return _report(cfg, "pseudoboson.txt", title, checks + restriction)


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
