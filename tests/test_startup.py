"""The command line's import path stays lean: scipy.integrate, which only
the mesh-free indicator fixtures of tent.py use, is imported on first use,
not when conical_lab.vericli loads. A run with identity coefficients loads
no SciPy subpackage at all; a run that can reach the dense fallback loads
scipy.linalg while its configuration is parsed, before the experiment.
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


def _probe(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_scipy_integrate_unloaded():
    assert _probe(PROBE) == "[]"


def test_identity_runs_load_no_scipy_subpackage():
    assert _probe(SUBPACKAGES, "seed=1") == "[]"
    # the dense workloads keep paying for scipy.linalg in set-up, not in the run
    loaded = _probe(SUBPACKAGES, "seed=1", "preset=perturbed")
    assert "'scipy.linalg'" in loaded, loaded
