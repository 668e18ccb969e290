"""All six conical square functions of one random datum, plus dominations.

Prints the L^2 norm of each square function against the norm of the input,
then the pointwise domination report: spatial-gradient versions never
exceed their full-gradient counterparts, and the plain heat version is
bounded by twice the full-gradient one.
"""

import numpy as np

from conical_lab import squarefn
from conical_lab.elliptic import CoefficientField, assemble
from conical_lab.grid import Grid, GridFunction, lp_norm_weighted


def main():
    g = Grid(2, 16)
    op = assemble(g, CoefficientField.preset(g, "laplace"))
    rng = np.random.default_rng(12)
    f = GridFunction(g, rng.standard_normal(g.shape)
                     + 1j * rng.standard_normal(g.shape))
    base = lp_norm_weighted(f, 1.0, 2.0)

    print(f"{'family':>8} {'order':>5} {'norm ratio':>11}")
    for family in sorted(squarefn.FAMILIES):
        spec = squarefn.SquareFunctionSpec(family)
        val = lp_norm_weighted(squarefn.evaluate(op, spec, f), 1.0, 2.0)
        print(f"{family:>8} {spec.order:>5} {val / base:>11.4f}")

    rep = squarefn.pointwise_domination_report(op, f)
    print(f"worst domination violation: {rep.max_violation:.1e}")
    print(f"factor-two time identity error: {rep.time_identity_error:.1e}")


if __name__ == "__main__":
    main()
