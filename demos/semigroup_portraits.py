"""Heat and Poisson profiles of a bump, and two internal consistency checks.

Evolves a narrow bump under both semigroups on a 1d torus, then verifies
the composition law of the heat family and the agreement of the Poisson
semigroup with a Gauss-Laguerre quadrature over the heat flow.
"""

import numpy as np
from scipy.special import roots_genlaguerre

from conical_lab.elliptic import CoefficientField, assemble
from conical_lab.grid import Grid


def rel(a, b):
    return np.linalg.norm((a - b).ravel()) / np.linalg.norm(b.ravel())


def main():
    g = Grid(1, 64)
    op = assemble(g, CoefficientField.preset(g, "perturbed"))
    x = g.cell_centers()[..., 0]
    bump = np.exp(-((x - 0.5) / 0.05) ** 2)

    print("sup of the evolved bump (heat | poisson):")
    for t in (0.02, 0.05, 0.1, 0.2):
        h = np.abs(op.heat(t, 0, bump)).max()
        p = np.abs(op.poisson(t, 0, bump)).max()
        print(f"  t = {t:<5} {h:8.4f} | {p:8.4f}")

    s, t = 0.06, 0.08
    two_step = op.heat(s, 0, op.heat(t, 0, bump))
    one_step = op.heat(np.hypot(s, t), 0, bump)
    print(f"composition law error: {rel(two_step, one_step):.2e}")

    # e^{-t sqrt(L)} = sum_i w_i e^{-(t^2/(4 u_i)) L} / sum_i w_i over
    # Gauss-Laguerre nodes for the weight u^{-1/2} e^{-u}
    direct = op.poisson(1.0, 0, bump)
    u, w = roots_genlaguerre(48, -0.5)
    quad = sum(wi * op.heat(1.0 / (2 * np.sqrt(ui)), 0, bump)
               for ui, wi in zip(u, w)) / w.sum()
    print(f"poisson route agreement at t = 1: {rel(quad, direct):.2e}")


if __name__ == "__main__":
    main()
