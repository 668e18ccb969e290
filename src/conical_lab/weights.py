"""Muckenhoupt machinery over the dense ball family on the discrete torus.

Constants are computed as maxima over the balls of a BallFamily (every cell
center with every listed radius), one radius at a time: FFT ball sums give
the averages at every center at once, and ball maxima give the extremes.
hl_maximal takes the sums of all its radii in one stacked ball_sum call.

    A_p:  (avg_B w) * (avg_B w^{1-p'})^{p-1}        p' = p/(p-1), p > 1
    A_1:  (avg_B w) / (min_B w)
    RH_s: (avg_B w^s)^{1/s} / (avg_B w)             1 < s < inf
    RH_1 holds for every weight; RH_inf uses (max_B w) / (avg_B w).

Critical exponents r_w = inf{r : w in A_r} and s_w = inf{s : w in RH_{s'}}
are estimated by bisecting a blow-up classifier: a constant counts as
divergent when it grows by more than a fixed factor from resolution N/2 to N.

Power weights w_theta(x) = d(x, x0)^{-theta} (torus distance clamped below at
h/2) admit analytic verdicts: w_theta in A_r iff -n(r-1) < theta < n (theta=0
also at r=1) and w_theta in RH_s iff theta < n/s, which pin r_w = max(1,
1 - theta/n) and s_w = max(1, n/(n - theta)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid,
    GridFunction,
    ball_kernel,
    ball_max,
    ball_sum,
    torus_distance,
)


@dataclass(frozen=True)
class PowerWeight:
    theta: float
    center: tuple


@dataclass
class Weight:
    """Strictly positive weight sampled on grid cells.

    A power-law weight keeps its analytic descriptor so it can be resampled
    at other resolutions; tabulated weights coarsen by block averaging.
    """

    grid: Grid
    values: np.ndarray
    power: PowerWeight | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError("weight shape does not match grid")
        if not np.all(np.isfinite(self.values)) or np.any(self.values <= 0):
            raise ValueError("weight must be finite and strictly positive")

    @classmethod
    def ones(cls, grid):
        return cls(grid, np.ones(grid.shape))

    @classmethod
    def power_law(cls, grid, theta, center=None):
        """w_theta(x) = max(d(x, center), h/2)^(-theta), default center 0."""
        if center is None:
            center = (0.0,) * grid.n
        center = tuple(float(c) for c in center)
        d = torus_distance(grid.cell_centers(), np.asarray(center))
        vals = np.maximum(d, grid.h / 2) ** (-theta)
        return cls(grid, vals, power=PowerWeight(theta, center))

    def at_resolution(self, N):
        """The same weight on the grid with N cells per axis."""
        if N == self.grid.N:
            return self
        if self.power is not None:
            return Weight.power_law(Grid(self.grid.n, N), self.power.theta, self.power.center)
        if N * 2 == self.grid.N:
            v = self.values
            for ax in range(self.grid.n):
                v = 0.5 * (np.take(v, np.arange(0, self.grid.N, 2), axis=ax)
                           + np.take(v, np.arange(1, self.grid.N, 2), axis=ax))
            return Weight(Grid(self.grid.n, N), v)
        raise ValueError("tabulated weights only coarsen by one halving")


@dataclass(frozen=True)
class BallFamily:
    """The dense ball family: every cell center paired with every radius.

    radii is stored as the sorted tuple of distinct radii, each in [2h, 1/2]
    for the attached grid. The functionals over the family run one FFT ball
    sum and at most one ball maximum per radius; no ball is visited on its
    own. iter_balls lists the balls one by one for brute-force oracles.
    """

    grid: Grid
    radii: tuple

    def __post_init__(self):
        radii = tuple(sorted({float(r) for r in self.radii}))
        if not radii:
            raise ValueError("ball family is empty")
        h = self.grid.h
        if radii[0] < 2 * h - 1e-15 or radii[-1] > 0.5 + 1e-15:
            raise ValueError("radii must lie in [2h, 1/2]")
        object.__setattr__(self, "radii", radii)

    def __len__(self):
        return self.grid.ncells * len(self.radii)

    @classmethod
    def dense_dyadic(cls, grid, r_min=None, r_max=0.5):
        """Every cell center paired with every dyadic radius 2h, 4h, ... <= r_max."""
        h = grid.h
        r = 2 * h if r_min is None else r_min
        radii = []
        while r <= r_max + 1e-15:
            radii.append(r)
            r *= 2
        if not radii:
            raise ValueError("no dyadic radii in range")
        return cls(grid, radii)

    def iter_balls(self):
        """(center, radius) pairs, center-major in row-major cell order."""
        for c in self.grid.cell_centers().reshape(-1, self.grid.n):
            for r in self.radii:
                yield c, r


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


def power_weight_in_Ar(theta, n, r):
    """Analytic A_r verdict for w_theta = |x|^{-theta} on R^n."""
    if r < 1:
        raise ValueError("A_r needs r >= 1")
    if r == 1:
        return 0 <= theta < n
    return -n * (r - 1.0) < theta < n


def power_weight_in_RHs(theta, n, s):
    """Analytic RH_s verdict for w_theta: theta < n/s (every weight at s=1)."""
    if s < 1:
        raise ValueError("RH_s needs s >= 1")
    if s == 1 or theta == 0:
        return True
    if math.isinf(s):
        return theta < 0
    return theta < n / s


def power_weight_exponents(theta, n):
    """Analytic (r_w, s_w) for w_theta."""
    r_w = 1.0 if theta >= 0 else 1.0 - theta / n
    s_w = 1.0 if theta <= 0 else n / (n - theta)
    return r_w, s_w


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


def estimate_critical_exponents(w, family=None, tol=0.25, cap=16.0, blowup=1.5):
    """Bisect blow-up classifiers for A_r and RH_{s'} membership.

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
    w_fine, w_coarse = w, w.at_resolution(grid.N // 2)
    r_lo = family.radii[0] if family is not None else None
    fam_fine = BallFamily.dense_dyadic(grid, r_min=r_lo)
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


def admissible_interval(p0, q0, r_w, s_w):
    """Open interval (p0 * r_w, q0 / s_w); endpoints 0 and inf pass through."""
    if p0 < 0 or not p0 < q0:
        raise ValueError("need 0 <= p0 < q0")
    lo = 0.0 if p0 == 0 else p0 * r_w
    hi = math.inf if math.isinf(q0) else q0 / s_w
    return (lo, hi)


def p_plus_Kstar(p_plus, K, n):
    """Upper Sobolev-shifted exponent: p+ n/(n - (2K+1) p+), inf once it overflows."""
    if K < 0 or n < 1:
        raise ValueError("need K >= 0 and n >= 1")
    if not p_plus > 1:
        raise ValueError("need p_plus > 1")
    if math.isinf(p_plus):
        return math.inf
    if (2 * K + 1) * p_plus < n:
        return p_plus * n / (n - (2 * K + 1) * p_plus)
    return math.inf


def hl_maximal(f, p0, family, centered=False):
    """Hardy-Littlewood style maximal function over the family.

    At each cell x: sup over balls B containing x (centered=False) or balls
    centered at x (centered=True) of (avg_B |f|^{p0})^{1/p0}.
    """
    if p0 <= 0:
        raise ValueError("p0 must be positive")
    vals = np.abs(f.values if isinstance(f, GridFunction) else np.asarray(f)) ** p0
    grid = family.grid
    if vals.shape != grid.shape:
        raise ValueError("family grid does not match the field")
    radii = family.radii
    sums = ball_sum(np.broadcast_to(vals, (len(radii), *vals.shape)), radii)
    out = np.zeros(grid.shape)
    for r, total in zip(radii, sums):
        _, cnt = ball_kernel(grid.n, grid.N, r)
        avg = total / cnt
        np.maximum(out, avg if centered else ball_max(avg, r), out=out)
    return out ** (1.0 / p0)
