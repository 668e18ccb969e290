"""Cone and Carleson-box functionals on discrete upper half-space fields,
a mesh-free evaluator for the indicator fixture, and the covering geometry
(Whitney cubes, density sets) used alongside them.

Conventions shared by every functional here: balls are open, the geometric
time ladder carries the measure element dt/t = log(ratio) per level, and
cell sums are weighted by h^n. Cone cross-sections must embed in the torus,
so aperture * t_max <= 1/2 throughout.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, ball_kernel, ball_max, ball_sum
from .weights import hl_maximal


# ------------------------------------------------------------------- cones


def _cone_sums(F, alpha, q):
    """Per-level cone sums of |F|^q at aperture alpha, stacked along the
    ladder: level k at x is sum_{d(y,x) < alpha t_k} |F(y,t_k)|^q h^n dlog
    / t_k^n. The one stack is scaled in place, level by level."""
    grid, tg = F.grid, F.tgrid
    sums = ball_sum(np.abs(F.values) ** q, [min(alpha * t, 0.5) for t in tg.levels])
    scale = np.array([tg.dlog * (grid.h / t) ** grid.n for t in tg.levels])
    sums *= scale.reshape(-1, *(1,) * grid.n)
    return sums


def cone_functional(F, aperture):
    """Cone functional of an upper-half-space field at the given aperture,
    with q = 2: at each cell x, the square root of the sum of its cone sums
    over every level of the ladder."""
    if aperture <= 0:
        raise ValueError("aperture must be positive")
    t_top = F.tgrid.levels[-1]
    if aperture * t_top > 0.5 + 1e-12:
        raise ValueError(
            f"aperture {aperture} * top level {t_top} exceeds 1/2; "
            "cone cross-sections would wrap around the torus")
    return GridFunction(F.grid, np.sqrt(_cone_sums(F, aperture, 2.0).sum(axis=0)))


# --------------------------------------------------------- Carleson boxes


def _box_radii(F, family):
    """The family radii r with a level t_k <= r, and for each the index of
    its last such level: the levels under a box form a prefix of the ladder."""
    if family.grid != F.grid:
        raise ValueError("family grid does not match the field")
    ends = np.searchsorted(np.asarray(F.tgrid.levels), family.radii, side="right") - 1
    keep = ends >= 0
    return [r for r, hit in zip(family.radii, keep) if hit], ends[keep]


def carleson_functional(F, q, family):
    """sup over family balls containing x of the box average
    ((1/|B|) sum_{t_k <= r_B} sum_{y in B} |F|^q h^n dlog)^{1/q}."""
    if q <= 0:
        raise ValueError("q must be positive")
    grid, tg = F.grid, F.tgrid
    radii, ends = _box_radii(F, family)
    prefix = np.cumsum(np.abs(F.values) ** q, axis=0)
    out = np.zeros(grid.shape)
    if radii:
        for r, total in zip(radii, ball_sum(prefix[ends], radii)):
            _, cnt = ball_kernel(grid.n, grid.N, r)
            np.maximum(out, ball_max((tg.dlog / cnt) * total, r), out=out)
    return GridFunction(grid, out ** (1.0 / q))


def carleson_p0(F, q, p0, family):
    """sup over family balls containing x of the L^{p0} ball average of the
    truncated aperture-one cone value:
    ((1/|B|) sum_{x in B} (sum_{t_k <= r_B} sum_{y in B(x,t_k)} |F|^q
    h^n dlog / t_k^n)^{p0/q} h^n)^{1/p0}."""
    if q <= 0 or p0 <= 0:
        raise ValueError("q and p0 must be positive")
    grid = F.grid
    radii, ends = _box_radii(F, family)
    prefix = np.cumsum(_cone_sums(F, 1.0, q), axis=0)
    out = np.zeros(grid.shape)
    if radii:
        for r, total in zip(radii, ball_sum(prefix[ends] ** (p0 / q), radii)):
            _, cnt = ball_kernel(grid.n, grid.N, r)
            np.maximum(out, ball_max(total / cnt, r), out=out)
    return GridFunction(grid, out ** (1.0 / p0))


# ------------------------------------------------ mesh-free indicator cone


def _overlap_1d(dist, r1, r2):
    # length of [dist - r1, dist + r1] intersected with [-r2, r2]
    return max(0.0, min(dist + r1, r2) - max(dist - r1, -r2))


def _lens_area(d, r1, r2):
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        rmin = min(r1, r2)
        return math.pi * rmin * rmin
    c1 = (d * d + r1 * r1 - r2 * r2) / (2 * d * r1)
    c2 = (d * d + r2 * r2 - r1 * r1) / (2 * d * r2)
    a1 = math.acos(min(1.0, max(-1.0, c1)))
    a2 = math.acos(min(1.0, max(-1.0, c2)))
    k = (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2)
    return r1 * r1 * a1 + r2 * r2 * a2 - 0.5 * math.sqrt(max(k, 0.0))


def cone_profile_on_indicator(rho, alpha, n):
    """A^alpha a(x)^2 at |x| = rho for a = indicator of B(0,1/4) x [1/2,1],
    on the continuum: int_{1/2}^1 vol(B(x,alpha t) cap B(0,1/4)) t^{-n-1} dt."""
    vol = _overlap_1d if n == 1 else _lens_area
    cuts = sorted({(rho - 0.25) / alpha, (rho + 0.25) / alpha,
                   (0.25 - rho) / alpha})
    pts = [c for c in cuts if 0.5 < c < 1.0]
    # imported here: at the top, scipy.integrate would add ~0.6 s and 50 MB
    # (2-vCPU host) to a CLI start that otherwise loads numpy alone
    from scipy.integrate import quad

    val, _ = quad(lambda t: vol(rho, alpha * t, 0.25) * t ** (-n - 1),
                  0.5, 1.0, points=pts or None, limit=100)
    return val


def continuous_cone_on_indicator(alpha, p, theta, n):
    """Mesh-free ||A^alpha a||_{L^p(|x|^{-theta} dx)} on R^n for the
    indicator fixture; the profile is radial with support radius
    alpha + 1/4, and the substitution u = rho^{n-theta} flattens the
    weight's singularity so plain quadrature converges."""
    if n not in (1, 2):
        raise ValueError("n must be 1 or 2")
    if theta >= n:
        raise ValueError("theta must be below n for a finite norm")
    if alpha <= 0 or p <= 0:
        raise ValueError("alpha and p must be positive")
    R = alpha + 0.25
    m = n - theta
    surf = 2.0 if n == 1 else 2 * math.pi
    # outer kinks: radii where an inner regime boundary crosses t = 1/2 or 1
    cand = {0.25, 0.25 + alpha / 2, 0.25 + alpha,
            abs(alpha / 2 - 0.25), abs(alpha - 0.25)}
    upts = sorted(c ** m for c in cand if 0 < c < R)
    # imported here: at the top, scipy.integrate would add ~0.6 s and 50 MB
    # (2-vCPU host) to a CLI start that otherwise loads numpy alone
    from scipy.integrate import quad

    val, _ = quad(
        lambda u: cone_profile_on_indicator(u ** (1.0 / m), alpha, n) ** (p / 2),
        0.0, R ** m, points=upts or None, limit=200)
    return (surf / m * val) ** (1.0 / p)


# --------------------------------------------------------- fitted constants


@dataclass(frozen=True)
class FitReport:
    """Outcome of the fit-then-holdout constant protocol."""

    constant: float
    holdout_max: float
    margin: float

    @property
    def ok(self):
        return bool(self.holdout_max <= self.margin * self.constant)


def fitted_bound_report(fit_ratios, holdout_ratios, margin=1.5):
    """Fit C as the max ratio on one sample batch; a disjoint holdout batch
    must stay within margin * C. Ratios are model-normalized by the caller."""
    fit = np.asarray(list(fit_ratios), dtype=float)
    hold = np.asarray(list(holdout_ratios), dtype=float)
    if fit.size == 0 or hold.size == 0:
        raise ValueError("both batches must be nonempty")
    if np.any(~np.isfinite(fit)) or np.any(~np.isfinite(hold)):
        raise ValueError("ratios must be finite")
    return FitReport(float(fit.max()), float(hold.max()), float(margin))


# --------------------------------------------------------- Whitney cubes


@dataclass(frozen=True)
class DyadicCube:
    """Grid-aligned dyadic cube: side 2^{-level}, corner in units of side."""

    level: int
    corner: tuple


def chebyshev_to_complement(mask, grid):
    """Torus Chebyshev distance from every cell center to the nearest cell
    center outside the mask, by chamfer iteration (exact for this metric)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != grid.shape:
        raise ValueError("mask shape does not match grid")
    D = np.where(mask, np.inf, 0.0)
    for _ in range(grid.N):
        step = _box_min(D) + grid.h
        nxt = np.minimum(D, step)
        if np.array_equal(nxt, D):
            break
        D = nxt
    return D


def _box_min(D):
    """Minimum over the 3^n box of wrapped neighbours of every cell: the
    minimum over the shifts by -1, 0 and +1 along each axis in turn."""
    for axis in range(D.ndim):
        D = np.minimum(D, np.minimum(np.roll(D, 1, axis=axis), np.roll(D, -1, axis=axis)))
    return D


def whitney(mask, grid):
    """Dyadic Whitney decomposition of a cell mask.

    Top-down recursion: a cube is accepted when it lies inside the mask and
    its side does not exceed its center-distance to the complement; cubes of
    side h inside the mask always qualify because distinct cell centers are
    at least h apart. Output is sorted by level, then corner.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != grid.shape:
        raise ValueError("mask shape does not match grid")
    if not mask.any():
        raise ValueError("mask is empty")
    if mask.all():
        raise ValueError("mask covers the whole torus; complement is empty")
    D = chebyshev_to_complement(mask, grid)
    max_level = int(round(math.log2(grid.N)))
    cubes = []

    def visit(level, corner):
        m = grid.N >> level
        block = tuple(slice(c * m, (c + 1) * m) for c in corner)
        inside = bool(mask[block].all())
        if not inside and not mask[block].any():
            return
        side = m * grid.h
        dist = float(D[block].min())
        if inside and side <= dist + 1e-12:
            cubes.append(DyadicCube(level, corner))
            return
        if level == max_level:
            return
        for off in np.ndindex(*(2,) * grid.n):
            visit(level + 1, tuple(2 * c + o for c, o in zip(corner, off)))

    visit(0, (0,) * grid.n)
    cubes.sort(key=lambda q: (q.level, q.corner))
    return cubes


# ---------------------------------------------------------- density sets


def gamma_density_complement(mask, gamma, family):
    """Cells where the centered maximal average of the mask indicator
    exceeds 1 - gamma; the degenerate single-cell ball participates, so the
    mask itself is always included. The complement keeps mask-free mass at
    least gamma on every family ball centered in it."""
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    mask = np.asarray(mask, dtype=bool)
    grid = family.grid
    if mask.shape != grid.shape:
        raise ValueError("mask shape does not match grid")
    chi = mask.astype(float)
    maximal = np.maximum(hl_maximal(chi, 1.0, family, centered=True), chi)
    return maximal > 1 - gamma
