"""perfbench's traced run rebinds conical_lab functions by name
(perfbench/spans.py, install): every name it looks up must still resolve,
and each traced semigroup entry must record one span of its own layer.
The dense route reads elliptic.sla at call time, so the tracing proxy sees
its expm and sqrtm; they are numpy kernels, so a traced dense run loads no
SciPy module.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import numpy as np
import spans
from conical_lab import elliptic, grid, tent, vericli, weights
original = elliptic.offdiagonal_opnorm
original_sum = grid.ball_sum
rec = spans.Recorder()
spans.install(rec)
assert vericli.offdiagonal_opnorm is not original, "vericli import not rebound"
# the stacked ball sums of tent and weights count under grid.ball_sum
assert grid.ball_sum is not original_sum, "grid.ball_sum not rebound"
for mod in (tent, weights):
    assert mod.ball_sum is grid.ball_sum, f"{mod.__name__}.ball_sum not rebound"
# the one-time entries delegate to ladder, which is not traced: each call
# still records one span of its own layer, and offdiagonal_opnorm none of them
g = grid.Grid(1, 8)
op = elliptic.assemble(g, elliptic.CoefficientField.preset(g, "laplace"))
f = np.ones(g.shape)
for name in ("heat", "poisson", "heat_gradient", "poisson_gradient"):
    before = len(rec.spans)
    getattr(op, name)(0.2, 1, f)
    names = [s.name for s in rec.spans[before:]]
    assert names == [f"elliptic.{name}"], (name, names)
before = len(rec.spans)
vericli.offdiagonal_opnorm(op, elliptic.SemigroupRequest("heat", 0.2), [0], [4])
names = [s.name for s in rec.spans[before:]]
assert names == ["elliptic.offdiagonal_opnorm"], names
print("installed")
"""


DENSE_PROBE = """
import sys
import numpy as np
import spans
from conical_lab import elliptic, grid


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


rec = spans.Recorder()
spans.install(rec)
assert scipy_modules() == [], scipy_modules()
g = grid.Grid(1, 8)
op = elliptic.assemble(g, elliptic.CoefficientField.preset(g, "perturbed"))
assert op.report.tier == "dense-fallback", op.report.tier
f = np.ones(g.shape)
for name, inner in (("heat", "elliptic.expm"), ("poisson", "elliptic.sqrtm")):
    before = len(rec.spans)
    getattr(op, name)(0.2, 1, f)
    names = [s.name for s in rec.spans[before:]]
    assert inner in names, (name, names)
assert scipy_modules() == [], scipy_modules()
print("traced")
"""


def _probe(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_perfbench_trace_hooks_resolve():
    assert _probe(PROBE) == "installed"


def test_trace_sees_dense_route_installed_before_scipy_linalg():
    assert _probe(DENSE_PROBE) == "traced"
