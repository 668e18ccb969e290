"""The command line's import path stays lean: scipy.integrate, which only
the mesh-free indicator fixtures of tent.py use, is imported on first use,
not when conical_lab.vericli loads.
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


def test_cli_import_leaves_scipy_integrate_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
