"""The command line's import path stays lean: scipy.integrate, which only
the mesh-free indicator fixtures of tent.py use, is imported on first use,
not when conical_lab.vericli loads. No run that can reach the dense
fallback loads a SciPy module: parsing its configuration loads none, and
neither does a run of comparisons or offdiag on the perturbed preset,
whose expm and sqrtm are numpy kernels.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import sys
import conical_lab.vericli
print(sorted(m for m in sys.modules if m.startswith("scipy.integrate")))
"""


SUBPACKAGES = """
import sys
from conical_lab.vericli import ExperimentConfig
ExperimentConfig.parse("", sys.argv[1:])
heavy = ("scipy.ndimage", "scipy.linalg", "scipy.special", "scipy.integrate")
print(sorted({m for m in sys.modules for h in heavy if m == h or m.startswith(h + ".")}))
"""


DENSE_RUN = """
import sys
from conical_lab import elliptic, vericli
calls = []
kernels = elliptic.sla


def counted(name):
    def call(*args):
        calls.append(name)
        return getattr(kernels, name)(*args)
    return call


elliptic.sla = type(kernels)(expm=counted("expm"), sqrtm=counted("sqrtm"))
code = vericli.main(sys.argv[1:])
assert code in (0, 1), code
assert "expm" in calls and "sqrtm" in calls, calls
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _probe(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_integrate_unloaded():
    assert _probe(PROBE) == "[]"


def test_identity_runs_load_no_scipy_subpackage():
    assert _probe(SUBPACKAGES, "seed=1") == "[]"


def test_dense_runs_load_no_scipy(tmp_path):
    assert _probe(SUBPACKAGES, "seed=1", "preset=perturbed") == "[]"
    for experiment in ("comparisons", "offdiag"):
        args = [experiment, "--out", str(tmp_path), "--set", "seed=1",
                "--set", "preset=perturbed", "--set", "n=1", "--set", "N=16",
                "--set", "samples=2"]
        assert _probe(DENSE_RUN, *args) == "[]", experiment
