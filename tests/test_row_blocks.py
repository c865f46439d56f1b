"""Row-blocked products against their whole-matrix formulas, bit for bit.

ladder.metric_operator, ladder.intertwining_residual and family.gram_defect
(with the pairing residual built on it) form their products one block of
linalg.blocks rows at a time.  Whether a block rounds as the whole product
does is a property of the BLAS (see linalg.blocks), and the byte-identity of
outputs is defined at one BLAS thread, as bench/digests.py runs them; so the
comparisons run in a child interpreter with BLAS on one thread, on operators
whose products round.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SIZES = (2, 63, 64, 65, 129, 130, 191)

CHILD = """
import json, sys
import numpy as np
from rieszlab import linalg
from rieszlab.family import BiorthogonalPair, SequenceFamily, gram_defect
from rieszlab.ladder import build_ladder, intertwining_residual, metric_operator

rng = np.random.default_rng(20240817)
results = {}
for complex_ in (False, True):
    for n in json.loads(sys.argv[1]):
        T = rng.standard_normal((n, n)) + n * np.eye(n)
        if complex_:
            T = T + 1j * rng.standard_normal((n, n))
        fac = linalg.Factorization(T)
        G = metric_operator(fac)
        N = build_ladder(fac).number
        phi, psi = SequenceFamily(fac.T), SequenceFamily(linalg.adjoint(fac.inverse))
        defect = np.abs(psi.coeffs.conj().T @ phi.coeffs - np.eye(n))
        results[f"{n} {'complex' if complex_ else 'real'}"] = {
            "metric": bool(np.array_equal(G, linalg.adjoint(fac.inverse) @ fac.inverse)),
            "intertwining": intertwining_residual(G, N)
                            == linalg.max_abs(G @ N - linalg.adjoint(N) @ G),
            "pairing residual": BiorthogonalPair(phi, psi).pairing_residual
                                == float(defect.max()),
            "gram rows": all(np.array_equal(gram_defect(phi, psi, rows), defect[rows])
                             for rows in linalg.blocks(n, linalg.BLOCK)),
        }
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def one_thread_results():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(SIZES)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("dtype", ["real", "complex"])
@pytest.mark.parametrize("n", SIZES)
def test_bits_of_the_whole_matrix_formulas(one_thread_results, n, dtype):
    result = one_thread_results[f"{n} {dtype}"]
    assert result == dict.fromkeys(result, True)
    assert len(result) == 4
