"""The dtype rule: a model with no nonzero imaginary part runs in float64 end to end."""

import numpy as np
import pytest

from rieszlab import ladder, linalg, pseudoboson
from rieszlab.cli import EXIT_OK, main
from rieszlab.family import (
    BiorthogonalPair,
    SequenceFamily,
    build_analysis,
    embed_pair,
    pad_to_square,
)
from rieszlab.io import load_family, save_family
from rieszlab.models import instantiate_pair, instantiate_system, paper_example_pair, parse_model
from rieszlab.pseudoboson import generate_families
from rieszlab.riesz import dual_family

DIM = 32
REAL_MODELS = ["identity", "paper_example", "diagonal:k+1", "ccr", "similarity:1.01^k"]


def _file_pair(tmp_path, im_cell=0.0):
    """paper_example's families written as CSVs; im_cell goes into one im column of phi."""
    pair = paper_example_pair(DIM)
    phi = pair.phi.coeffs.astype(np.complex128)
    phi[2, 3] += 1j * im_cell
    save_family(SequenceFamily(phi), tmp_path / "phi.csv")
    save_family(pair.psi, tmp_path / "psi.csv")
    return load_family(tmp_path / "phi.csv"), load_family(tmp_path / "psi.csv")


def _pair(model, tmp_path):
    if model.startswith("file:"):
        return _file_pair(tmp_path, im_cell=float(model[5:]))
    pair = instantiate_pair(parse_model(model, DIM, seed=3))
    return pair.phi, pair.psi


def _square_arrays(phi, psi):
    """Every N x N array that analyze and ladder build on the pair (phi, psi)."""
    fac = linalg.Factorization(build_analysis(pad_to_square(phi)))
    sq = embed_pair(BiorthogonalPair(phi, psi), fac)
    arrays = {"T": fac.T, "inverse": fac.inverse, "dual": dual_family(fac).coeffs,
              "phi": sq.phi.coeffs, "psi": sq.psi.coeffs}
    for side, ls in (("phi", ladder.build_ladder(fac)), ("psi", ladder.dual_ladder(fac))):
        arrays.update({f"{side} lowering": ls.lowering, f"{side} raising": ls.raising,
                       f"{side} number": ls.number})
    return arrays


def _system_arrays(model):
    """Every array of the pseudo-boson system of model and of its generated families."""
    sys_ = instantiate_system(parse_model(model, DIM))
    phi, psi = generate_families(sys_, DIM)
    number = sys_.b @ sys_.a  # the number operator number_eigen_relations powers
    return {"a": sys_.a, "b": sys_.b, "number_op": number,
            "number_dag": linalg.adjoint(number), "phi0": sys_.phi0, "psi0": sys_.psi0,
            "generated phi": phi.coeffs, "generated psi": psi.coeffs}


@pytest.mark.parametrize("model", REAL_MODELS + ["file:0"])
def test_real_models_are_float64_end_to_end(model, tmp_path):
    arrays = _square_arrays(*_pair(model, tmp_path))
    if model in ("ccr", "similarity:1.01^k"):
        arrays.update(_system_arrays(model))
    assert {name: a.dtype for name, a in arrays.items() if a.dtype != np.float64} == {}


@pytest.mark.parametrize("model", ["random_regular:50", "file:1e-3"])
def test_complex_models_stay_complex128(model, tmp_path):
    arrays = _square_arrays(*_pair(model, tmp_path))
    assert {name: a.dtype for name, a in arrays.items() if a.dtype != np.complex128} == {}


def test_generation_loops_run_real(monkeypatch):
    # The overlap of two real vacua is a float, so psi_0 is rescaled in
    # float64 and the psi loop runs real, not only its narrowed result.
    sys_ = instantiate_system(parse_model("similarity:1.01^k", DIM))
    assert isinstance(linalg.inner(sys_.phi0, sys_.psi0), float)
    loops = []

    def recorded(op, start, count, _generate=pseudoboson._generate):
        cols = _generate(op, start, count)
        loops.append(cols.dtype)
        return cols

    monkeypatch.setattr(pseudoboson, "_generate", recorded)
    generate_families(sys_, DIM)
    assert loops == [np.float64, np.float64]


@pytest.mark.parametrize("argv", [
    *(["analyze", "--model", m, "--dim", "16"] for m in REAL_MODELS),
    ["sweep", "--model", "paper_example", "--dims", "8,16", "--probe", "geom:0.5",
     "--probe", "random:3"],
    ["pseudoboson", "--model", "similarity:1.01^k", "--dim", "16"],
    ["ladder", "--model", "paper_example", "--dim", "16", "--side", "psi"],
], ids=lambda argv: " ".join(argv[:3]))
def test_commands_on_real_models_factor_only_real_matrices(argv, monkeypatch, tmp_path, capsys):
    dtypes = []
    for name in ("svd", "solve", "qr", "inv"):
        kernel = getattr(np.linalg, name)

        def recorded(a, *args, _kernel=kernel, **kwargs):
            dtypes.append(np.asarray(a).dtype)
            return _kernel(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


@pytest.mark.parametrize("model", REAL_MODELS)
def test_real_kernels_match_a_complex_oracle(model):
    phi = instantiate_pair(parse_model(model, DIM)).phi
    fac = linalg.Factorization(build_analysis(pad_to_square(phi)))
    Tc = fac.T.astype(complex)
    sigma = np.linalg.svd(Tc, compute_uv=False)
    inverse = np.linalg.inv(Tc)
    assert np.abs(fac.sigma - sigma).max() <= 1e-12 * sigma[0]
    for real, oracle in ((fac.inverse, inverse), (dual_family(fac).coeffs, inverse.conj().T)):
        assert np.abs(real - oracle).max() <= 1e-12 * np.abs(oracle).max()


class TestNarrow:
    def test_zero_imaginary_part_is_float64(self):
        v = linalg.narrow(np.array([1 + 0j, -2 + 0j]))
        assert v.dtype == np.float64 and v.tolist() == [1.0, -2.0]

    def test_nonzero_imaginary_part_is_complex128(self):
        assert linalg.narrow([1, 1e-300j]).dtype == np.complex128

    def test_integers_are_float64(self):
        assert linalg.narrow(np.arange(3)).dtype == np.float64

    def test_float64_is_not_copied(self):
        x = np.ones(3)
        assert linalg.narrow(x) is x

    def test_adjoint_of_real_is_its_transpose(self, rng):
        M = rng.standard_normal((3, 4))
        assert np.array_equal(linalg.adjoint(M), M.T)
