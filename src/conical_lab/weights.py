"""Weights, ball families and weight-class analytics on the discrete torus.

A Weight is a strictly positive field on grid cells; a BallFamily pairs every
cell center with each of a list of radii. hl_maximal, the Hardy-Littlewood
maximal function over a family, takes the FFT ball sums of all its radii in
one stacked ball_sum call and, uncentered, one ball maximum per radius.

Class membership is decided analytically. Power weights
w_theta(x) = d(x, x0)^{-theta} (torus distance clamped below at h/2) satisfy
w_theta in A_r iff -n(r-1) < theta < n (theta=0 also at r=1) and
w_theta in RH_s iff theta < n/s, which pin r_w = max(1, 1 - theta/n) and
s_w = max(1, n/(n - theta)). admissible_interval turns (r_w, s_w) into the
exponent range (p0 r_w, q0 / s_w) of the weighted estimates.

The numerical A_p and RH_s constants and the bisected critical exponents
that pin these verdicts are test oracles (tests/oracles.py).
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


@dataclass
class Weight:
    """Strictly positive weight sampled on grid cells."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError("weight shape does not match grid")
        if not np.all(np.isfinite(self.values)) or np.any(self.values <= 0):
            raise ValueError("weight must be finite and strictly positive")

    @classmethod
    def power_law(cls, grid, theta, center=None):
        """w_theta(x) = max(d(x, center), h/2)^(-theta), default center 0."""
        if center is None:
            center = (0.0,) * grid.n
        center = tuple(float(c) for c in center)
        if len(center) != grid.n:
            raise ValueError(f"center {center} does not have n = {grid.n} coordinates")
        d = torus_distance(grid.cell_centers(), np.asarray(center))
        vals = np.maximum(d, grid.h / 2) ** (-theta)
        return cls(grid, vals)


@dataclass(frozen=True)
class BallFamily:
    """The dense ball family: every cell center paired with every radius.

    radii is stored as the sorted tuple of distinct radii, each in [2h, 1/2]
    for the attached grid. The functionals over the family run one FFT ball
    sum and at most one ball maximum per radius; no ball is visited on its
    own.
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

    @classmethod
    def dense_dyadic(cls, grid):
        """Every cell center paired with every dyadic radius 2h, 4h, ... <= 1/2."""
        r = 2 * grid.h
        radii = []
        while r <= 0.5 + 1e-15:
            radii.append(r)
            r *= 2
        return cls(grid, radii)


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
