"""Box functionals against cone functionals on random fields.

Two experiments on the same batch of random upper-half-space fields: the
equivalence bracket between the plain box functional and its L^2-average
variant, and the fitted two-sided comparison between the aperture-one cone
norm and the L^{1.2}-average box norm.
"""

import numpy as np

from conical_lab import tent
from conical_lab.grid import Grid, TimeGrid, UpperHalfField, lp_norm_weighted
from conical_lab.weights import BallFamily


def main():
    g = Grid(2, 16)
    tg = TimeGrid.spanning(g)
    fam = BallFamily.dense_dyadic(g)
    rng = np.random.default_rng(4)

    hi = lo = 0.0
    ratios = []
    for _ in range(20):
        shape = (len(tg.levels), *g.shape)
        F = UpperHalfField(g, tg, rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape))
        a = tent.carleson_functional(F, 2.0, fam).values.real
        b = tent.carleson_p0(F, 2.0, 2.0, fam).values.real
        hi, lo = max(hi, (b / a).max()), max(lo, (a / b).max())
        na = lp_norm_weighted(tent.cone_functional(F, 1.0), 1.0, 2.0)
        nc = lp_norm_weighted(tent.carleson_p0(F, 2.0, 1.2, fam), 1.0, 2.0)
        ratios.append(na / nc)

    print(f"equivalence bracket over 20 fields: [{1 / lo:.3f}, {hi:.3f}]")
    rep = tent.fitted_bound_report(ratios[:10], ratios[10:])
    print(f"cone / box ratio: fitted C = {rep.constant:.3f}, "
          f"holdout max = {rep.holdout_max:.3f}, "
          f"within margin: {rep.ok}")


if __name__ == "__main__":
    main()
