"""The Poisson semigroup by subordination to the heat ladder: a test oracle.

The operator evaluates e^{-t sqrt(L)} by its functional calculus. This
module takes the independent route through the heat semigroup,

    e^{-t sqrt(L)} f = C sum_i w_i (4 u_i)^K e^{-(t^2/(4 u_i)) L} f

with generalized Gauss-Laguerre nodes for the weight u^{-1/2} e^{-u} and
C = 1/sum_i w_i, which makes the rule exact on constants (so L1 = 0 holds
exactly along this route too). The rule's relative error decays like
exp(-c sqrt(b)) in b = t^2 mu / 4 over spectral content mu; agreement with
the direct route to 1e-6 needs b of order 10 or more, below which the
direct route is the accurate one.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.special import gammaincc, roots_genlaguerre

NODES = 48
TAIL_TOL = 1e-8


class QuadratureError(RuntimeError):
    """Subordination tail bound above tolerance."""


@lru_cache(maxsize=8)
def genlaguerre_rule(nodes):
    u, w = roots_genlaguerre(nodes, -0.5)
    return u, w, float(w.sum())


def tail_check(K, u_max, tol, nodes):
    # integrand beyond the last node bounded by (4K/e)^K u^{K-1/2} e^{-u}
    amp = 1.0 if K == 0 else (4 * K / math.e) ** K

    def bound(u):
        return amp * math.gamma(K + 0.5) * float(gammaincc(K + 0.5, u)) / math.sqrt(math.pi)

    tail = bound(u_max)
    if tail > tol:
        need = nodes
        while need <= 512:
            need *= 2
            if bound(genlaguerre_rule(need)[0][-1]) <= tol:
                raise QuadratureError(
                    f"subordination tail {tail:.2e} above {tol:.0e} at {nodes} nodes "
                    f"for K={K}; use at least {need} nodes")
        raise QuadratureError(
            f"subordination tail {tail:.2e} above {tol:.0e} at {nodes} nodes for K={K}; "
            "no node count up to 512 suffices")


def poisson_ladder(op, order, derivative, levels, f):
    """op.ladder("poisson", order, derivative, levels, f) by the rule.

    Node u takes one heat ladder of the same order at the times
    s = t / (2 sqrt(u)), with node weight (4u)^order since t^2 L = (4u) s^2 L.
    The heat ladder scales each spatial gradient by its own time s, so those
    components are scaled by t/s = 2 sqrt(u); t d/dt acts on each term as
    s d/ds, so the time component is summed as it is.
    """
    times = np.asarray(levels, dtype=float)
    u, w, norm = genlaguerre_rule(NODES)
    tail_check(order, u[-1], TAIL_TOL, NODES)
    n = op.grid.n
    out = 0
    for ui, wi in zip(u, w):
        term = op.ladder("heat", order, derivative, times / (2 * math.sqrt(ui)), f)
        if derivative != "none":
            term[:, :n] *= 2 * math.sqrt(ui)
        out = out + (wi * (4 * ui) ** order) * term
    return out / norm
