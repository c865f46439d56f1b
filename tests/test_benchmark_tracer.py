"""The benchmark's span tracer still installs on the package.

perfbench/tracer.py wraps every module it names in MODULES; one that is gone
or renamed would break every traced benchmark run.  Installing the tracer
patches numpy.linalg, so the traced command runs in its own interpreter.  The
test only reads perfbench/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_TRACED_ANALYZE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import rieszlab, rieszlab.cli
from tracer import MODULES, Tracer
tracer = Tracer()
tracer.install(rieszlab)
code = rieszlab.cli.main(["analyze", "--model", "random_regular:50", "--dim", "8",
                          "--out", sys.argv[2]])
layers = sorted({s["layer"] for s in tracer.spans})
print(json.dumps({"code": code, "modules": list(MODULES), "layers": layers}))
"""


def test_traced_analyze_runs_through_every_traced_module(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_ANALYZE, str(ROOT / "perfbench"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    # analyze with --out enters every traced layer but the pseudo-boson one
    assert set(result["layers"]) == set(result["modules"]) - {"pseudoboson"}
