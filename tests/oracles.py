"""Test oracles for the weight classes and the covering geometry.

The command line decides Muckenhoupt and reverse Holder membership
analytically (weights.power_weight_in_Ar / _RHs / _exponents). The numerical
estimators here pin those verdicts and the FFT ball machinery they share
with the program:

    A_p:  (avg_B w) * (avg_B w^{1-p'})^{p-1}        p' = p/(p-1), p > 1
    A_1:  (avg_B w) / (min_B w)
    RH_s: (avg_B w^s)^{1/s} / (avg_B w)             1 < s < inf
    RH_1 holds for every weight; RH_inf uses (max_B w) / (avg_B w).

Constants are maxima over the balls of a BallFamily, one radius at a time:
FFT ball sums give the averages at every center at once, and ball maxima
give the extremes. Critical exponents r_w = inf{r : w in A_r} and
s_w = inf{s : w in RH_{s'}} are estimated by bisecting a blow-up
classifier: a constant counts as divergent when it grows by more than a
fixed factor from resolution N/2 to N.

The dense route's Pade step (elliptic._pade13) is pinned bit for bit to
pade13_plain, the plain even/odd evaluation of the same approximant.
"""

import math
from dataclasses import dataclass

import numpy as np

from conical_lab.grid import Grid, ball_kernel, ball_max, ball_sum
from conical_lab.tent import chebyshev_to_complement
from conical_lab.weights import BallFamily, Weight


# ------------------------------------------------------------- geometry


def torus_distance_chebyshev(x, y):
    """Torus distance in the max (l-infinity) metric."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = np.abs(x - y) % 1.0
    d = np.minimum(d, 1.0 - d)
    return np.max(d, axis=-1)


def cell_slices(cube, grid):
    """Index slices of the grid cells that a tent.DyadicCube covers."""
    m = grid.N >> cube.level
    return tuple(slice(c * m, (c + 1) * m) for c in cube.corner)


def cube_sides_and_dists(cubes, mask, grid):
    """(side, dist) of each tent.DyadicCube of a Whitney decomposition of
    mask, by one rule: side = 2**-level, and dist is the minimum of
    tent.chebyshev_to_complement(mask, grid) over cell_slices(cube, grid),
    the distance that the acceptance rule of tent.whitney compares the side
    against."""
    D = chebyshev_to_complement(mask, grid)
    return [(2.0 ** -q.level, float(D[cell_slices(q, grid)].min())) for q in cubes]


def iter_balls(family):
    """(center, radius) pairs of a BallFamily, center-major in row-major cell order."""
    for c in family.grid.cell_centers().reshape(-1, family.grid.n):
        for r in family.radii:
            yield c, r


def at_resolution(w, N, theta=None, center=None):
    """The same weight on the grid with N cells per axis.

    When the caller names w as the power law Weight.power_law(grid, theta,
    center), it is resampled from theta and center, never block-averaged;
    any other weight is tabulated and coarsens by one halving, averaging
    blocks of 2^n cells.
    """
    if N == w.grid.N:
        return w
    if theta is not None:
        return Weight.power_law(Grid(w.grid.n, N), theta, center)
    if N * 2 == w.grid.N:
        v = w.values
        for ax in range(w.grid.n):
            v = 0.5 * (np.take(v, np.arange(0, w.grid.N, 2), axis=ax)
                       + np.take(v, np.arange(1, w.grid.N, 2), axis=ax))
        return Weight(Grid(w.grid.n, N), v)
    raise ValueError("tabulated weights only coarsen by one halving")


# ------------------------------------------------------------ constants


def estimate_Ap_constant(w, p, family):
    """Largest A_p quotient over the family. p >= 1."""
    if p < 1:
        raise ValueError(f"A_p needs p >= 1, got {p}")
    if w.grid != family.grid:
        raise ValueError("family grid does not match the weight")
    vals, grid = w.values, family.grid
    best = 0.0
    with np.errstate(over="ignore", divide="ignore"):
        for r in family.radii:
            _, cnt = ball_kernel(grid.n, grid.N, r)
            avg_w = ball_sum(vals, r) / cnt
            if p == 1:
                q = avg_w / -ball_max(-vals, r)
            else:
                dual = vals ** (1.0 - p / (p - 1.0))
                q = avg_w * (ball_sum(dual, r) / cnt) ** (p - 1.0)
            best = max(best, float(np.max(q)))
    return best


def estimate_RHs_constant(w, s, family):
    """Largest reverse Holder quotient over the family. s >= 1, inf allowed."""
    if s < 1:
        raise ValueError(f"RH_s needs s >= 1, got {s}")
    if w.grid != family.grid:
        raise ValueError("family grid does not match the weight")
    vals, grid = w.values, family.grid
    best = 0.0
    with np.errstate(over="ignore", divide="ignore"):
        for r in family.radii:
            _, cnt = ball_kernel(grid.n, grid.N, r)
            avg_w = ball_sum(vals, r) / cnt
            if s == 1:
                q = np.ones_like(avg_w)
            elif math.isinf(s):
                q = ball_max(vals, r) / avg_w
            else:
                q = (ball_sum(vals**s, r) / cnt) ** (1.0 / s) / avg_w
            best = max(best, float(np.max(q)))
    return best


# -------------------------------------------------- critical exponents


def _conjugate(s):
    if s == 1:
        return math.inf
    if math.isinf(s):
        return 1.0
    return s / (s - 1.0)


@dataclass
class CriticalExponents:
    """Bisection brackets for r_w and s_w; wide brackets mean inconclusive."""

    r_bracket: tuple
    s_bracket: tuple
    tol: float

    @property
    def r_w(self):
        return 0.5 * (self.r_bracket[0] + min(self.r_bracket[1], self.r_bracket[0] + 2 * self.tol))

    @property
    def s_w(self):
        return 0.5 * (self.s_bracket[0] + min(self.s_bracket[1], self.s_bracket[0] + 2 * self.tol))

    @property
    def conclusive(self):
        return (self.r_bracket[1] - self.r_bracket[0] <= 2 * self.tol
                and self.s_bracket[1] - self.s_bracket[0] <= 2 * self.tol)


def estimate_critical_exponents(w, family=None, tol=0.25, cap=16.0, blowup=1.5,
                                theta=None, center=None):
    """Bisect blow-up classifiers for A_r and RH_{s'} membership.

    theta and center name w as a power law, as at_resolution takes them.

    The classifier compares the constant on the dense dyadic family at the
    weight's own resolution N against resolution N/2 and calls the class
    violated when the ratio exceeds `blowup`. Brackets that hit the cap are
    returned wide instead of being collapsed to a point.

    Resolution floor: a two-resolution probe only sees divergence rates above
    log2(blowup) per octave, so a bracket can sit strictly below the true
    exponent when the weight diverges slowly near criticality. The bracket
    width is the bisection width, not an error bound.
    """
    grid = w.grid
    if grid.N < 16:
        raise ValueError("need N >= 16 so that N/2 still admits dyadic balls")
    w_fine, w_coarse = w, at_resolution(w, grid.N // 2, theta, center)
    # the fine family's dyadic radii start at the smallest radius of family
    r = family.radii[0] if family is not None else 2 * grid.h
    radii = []
    while r <= 0.5 + 1e-15:
        radii.append(r)
        r *= 2
    fam_fine = BallFamily(grid, radii)
    fam_coarse = BallFamily.dense_dyadic(w_coarse.grid)

    def ap_blows(r):
        c_f = estimate_Ap_constant(w_fine, r, fam_fine)
        c_c = estimate_Ap_constant(w_coarse, r, fam_coarse)
        return not np.isfinite(c_f) or c_f > blowup * c_c

    def rh_blows(s):
        sp = _conjugate(s)
        c_f = estimate_RHs_constant(w_fine, sp, fam_fine)
        c_c = estimate_RHs_constant(w_coarse, sp, fam_coarse)
        return not np.isfinite(c_f) or c_f > blowup * c_c

    return CriticalExponents(
        _bisect_threshold(ap_blows, 1.0, cap, tol),
        _bisect_threshold(rh_blows, 1.0, cap, tol),
        tol,
    )


def _bisect_threshold(blows, lo, hi, tol):
    # classifier is treated as monotone: blows below the threshold, not above
    if not blows(lo):
        return (lo, lo)
    if blows(hi):
        return (hi, math.inf)
    a, b = lo, hi
    while b - a > tol:
        m = 0.5 * (a + b)
        if blows(m):
            a = m
        else:
            b = m
    return (a, b)


# ------------------------------------------------------------ Pade step

# b_k = (26 - k)! / (k! (13 - k)!), the degree-13 Pade coefficients of e^x
# with b_13 = 1 (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
PADE13 = tuple(float(math.factorial(26 - k) // (math.factorial(k) * math.factorial(13 - k)))
               for k in range(14))


def pade13_plain(A):
    """r_13(A) = (V - U)^{-1} (V + U) with U and V the odd and even parts of
    p(A), evaluated whole: A^2, A^4, A^6, two products for the inner
    polynomials, one for the odd part and one solve."""
    b = PADE13
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
    U += b[7] * A6 + b[5] * A4 + b[3] * A2
    U.flat[::len(A) + 1] += b[1]
    U = A @ U
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
    V += b[6] * A6 + b[4] * A4 + b[2] * A2
    V.flat[::len(A) + 1] += b[0]
    return np.linalg.solve(V - U, V + U)
