"""perfbench's traced run rebinds conical_lab functions by name
(perfbench/spans.py, install): every name it looks up must still resolve.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import spans
from conical_lab import elliptic, grid, tent, vericli, weights
original = elliptic.offdiagonal_opnorm
original_sum = grid.ball_sum
spans.install(spans.Recorder())
assert vericli.offdiagonal_opnorm is not original, "vericli import not rebound"
# the stacked ball sums of tent and weights count under grid.ball_sum
assert grid.ball_sum is not original_sum, "grid.ball_sum not rebound"
for mod in (tent, weights):
    assert mod.ball_sum is grid.ball_sum, f"{mod.__name__}.ball_sum not rebound"
print("installed")
"""


def test_perfbench_trace_hooks_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"
