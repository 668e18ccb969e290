"""Discrete model of the flat torus and of fields on its upper half space.

Everything downstream lives on the periodic box [0,1)^n sampled at N^n cell
centers (midpoint rule), n in {1,2,3}, N a power of two, mesh width h = 1/N.
Time scales form a geometric ladder t_{k+1} = ratio * t_k confined to
[h/2, 1/2], so that a cone of aperture alpha truncated at the top level still
fits inside the torus when alpha * t_max <= 1/2.

Distances are torus distances (minimum over integer shifts). Balls are open:
a cell belongs to B(c, r) when the distance from its center to c is < r.
Radii above 1/2 are rejected, everything on the torus is within sqrt(n)/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


def _is_power_of_two(m):
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0,1)^n with cells centered at (i + 1/2) h.

    Attributes:
        n: spatial dimension, 1, 2 or 3.
        N: cells per axis, a power of two, at least 8.
    """

    n: int
    N: int

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.n}")
        if self.N < 8 or not _is_power_of_two(self.N):
            raise ValueError(f"N must be a power of two >= 8, got {self.N}")

    @property
    def h(self):
        return 1.0 / self.N

    @property
    def shape(self):
        return (self.N,) * self.n

    @property
    def ncells(self):
        return self.N**self.n

    def cell_centers(self):
        """Array of shape (*shape, n) with the center of every cell."""
        axes = np.indices(self.shape).astype(float)
        return np.stack([(ax + 0.5) * self.h for ax in axes], axis=-1)

    def coarsen(self):
        """The grid with half the resolution (N/2 per axis)."""
        return Grid(self.n, self.N // 2)


def torus_distance(x, y):
    """Torus (min image) Euclidean distance between points of [0,1)^n.

    Broadcasts over leading axes; the trailing axis holds coordinates.
    Always <= sqrt(n)/2.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = np.abs(x - y) % 1.0
    d = np.minimum(d, 1.0 - d)
    return np.sqrt(np.sum(d * d, axis=-1))


@dataclass
class GridFunction:
    """Complex scalar field sampled at the cell centers of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values.view(float))):
            raise ValueError("values must be finite")


def ball_cells(grid, center, radius):
    """Flat indices (row major, ascending) of cells with centers in B(center, radius).

    The ball is open; radius must lie in (0, 1/2]. radius = 1/2 keeps every
    cell except those at distance exactly 1/2 or more.
    """
    if not 0.0 < radius <= 0.5:
        raise ValueError(f"radius must be in (0, 1/2], got {radius}")
    center = np.asarray(center, dtype=float).reshape(grid.n)
    # the min-image distance per axis, of the N cell-center coordinates, as
    # torus_distance takes it; the squares sum axis by axis in its order
    x = (np.arange(grid.N) + 0.5) * grid.h
    d2 = 0.0
    for c in center:
        d = np.abs(x - c) % 1.0
        d = np.minimum(d, 1.0 - d)
        d2 = np.add.outer(d2, d * d)
    return np.flatnonzero(np.sqrt(d2).ravel() < radius)


def lp_norm_weighted(f, w, p):
    """Weighted norm (sum |f|^p w h^n)^(1/p) for p > 0.

    f is a GridFunction; w is a positive array over the same cells (pass 1.0
    for Lebesgue measure).
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    if not isinstance(f, GridFunction):
        raise TypeError("f must be a GridFunction")
    w = np.asarray(w, dtype=float)
    if not np.all(w > 0):
        raise ValueError("weight must be strictly positive")
    grid = f.grid
    return float(np.sum(np.abs(f.values) ** p * w) * grid.h**grid.n) ** (1.0 / p)


@dataclass(frozen=True)
class TimeGrid:
    """Geometric ladder of time scales tied to a grid.

    levels is strictly increasing with t_{k+1}/t_k constant (relative
    deviation below 1e-12), t_0 >= h/2 and t_{J-1} <= 1/2. The logarithmic
    measure element dt/t is constant: log(ratio) per level.
    """

    grid: Grid
    levels: tuple = field()

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=float)
        if lv.ndim != 1 or lv.size < 2:
            raise ValueError("need at least two time levels")
        if np.any(np.diff(lv) <= 0):
            raise ValueError("levels must be strictly increasing")
        ratios = lv[1:] / lv[:-1]
        if np.max(np.abs(ratios / ratios[0] - 1.0)) > 1e-12:
            raise ValueError("levels must be geometric")
        h = self.grid.h
        if lv[0] < h / 2 - 1e-15:
            raise ValueError(f"t_0 = {lv[0]} below h/2 = {h / 2}")
        if lv[-1] > 0.5 + 1e-15:
            raise ValueError(f"t_max = {lv[-1]} above 1/2")
        object.__setattr__(self, "levels", tuple(float(t) for t in lv))

    @property
    def ratio(self):
        return self.levels[1] / self.levels[0]

    @property
    def dlog(self):
        """Measure of one level under dt/t, equal to log(ratio)."""
        return float(np.log(self.ratio))

    def __len__(self):
        return len(self.levels)

    @classmethod
    def geometric(cls, grid, t0, ratio, count):
        if ratio <= 1:
            raise ValueError("ratio must exceed 1")
        return cls(grid, tuple(t0 * ratio**k for k in range(count)))

    @classmethod
    def spanning(cls, grid):
        """Ladder from h/2 up to at most 1/2, three levels per octave."""
        t0 = grid.h / 2
        ratio = 2.0 ** (1.0 / 3)
        count = int(np.floor(np.log(0.5 / t0) / np.log(ratio))) + 1
        return cls.geometric(grid, t0, ratio, count)


@dataclass
class UpperHalfField:
    """Field F(y, t) on grid cells x time levels, stored as (J, *shape)."""

    grid: Grid
    tgrid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        want = (len(self.tgrid),) + self.grid.shape
        if self.values.shape != want:
            raise ValueError(f"values shape {self.values.shape}, expected {want}")
        if not np.all(np.isfinite(self.values.view(float) if np.iscomplexobj(self.values) else self.values)):
            raise ValueError("values must be finite")


# ---------------------------------------------------------------------------
# displacement kernels shared by the averaging and cone machinery


@lru_cache(maxsize=None)
def _displacement_distance(n, N):
    # distance from the zero displacement class to every class, offsets taken
    # in the minimal image; entry [j] is |min-image(j h)|_2
    shape = (N,) * n
    idx = np.indices(shape)
    d2 = np.zeros(shape)
    h = 1.0 / N
    for ax in range(n):
        m = np.minimum(idx[ax], N - idx[ax]) * h
        d2 = d2 + m * m
    return np.sqrt(d2)


@lru_cache(maxsize=None)
def ball_kernel(n, N, radius):
    """Indicator of the open ball over displacement classes, plus cell count.

    Returns (kernel, count): kernel has shape (N,)*n with kernel[j] = 1 when
    the min-image displacement j*h has length < radius. Circular convolution
    of a cell field with this kernel sums the field over each ball.
    """
    if not 0.0 < radius <= 0.5:
        raise ValueError(f"radius must be in (0, 1/2], got {radius}")
    ker = (_displacement_distance(n, N) < radius).astype(float)
    return ker, int(ker.sum())


@lru_cache(maxsize=None)
def ball_kernel_fft(n, N, radius):
    ker, cnt = ball_kernel(n, N, radius)
    return np.fft.rfftn(ker), cnt


def ball_sum(field, radius):
    """Sum of a real cell field over the ball around every cell center.

    radius may also be a nonempty sequence: field then stacks one cell field
    per radius along a leading axis of the same length, and the stack takes
    one batched rfftn, one product with the stacked kernel FFTs and one
    irfftn. Exact up to FFT roundoff; a field (or slice) that is nonnegative
    is clipped below at its true minimum of 0. Slice k of a stacked call
    equals ball_sum(field[k], radius[k]) bit for bit.
    """
    lead = np.ndim(radius)  # 1 for a stack, 0 for a single field
    shape = field.shape[lead:]
    n, N = len(shape), shape[0]
    if lead:
        if len(radius) != field.shape[0]:
            raise ValueError(f"{len(radius)} radii for a stack of {field.shape[0]} fields")
        kf = np.stack([ball_kernel_fft(n, N, r)[0] for r in radius])
    else:
        kf, _ = ball_kernel_fft(n, N, radius)
    axes = tuple(range(lead, field.ndim))
    out = np.fft.irfftn(np.fft.rfftn(field, axes=axes) * kf, s=shape, axes=axes)
    nonneg = np.all(field >= 0, axis=axes)
    np.maximum(out, 0.0, out=out, where=nonneg.reshape(nonneg.shape + (1,) * n))
    return out


def ball_max(field, radius):
    """Max of a real cell field over the ball around every cell center.

    Exact: the open ball is a union of chords, read from the same mask as
    ball_kernel, and the max is taken chord by chord: O((rN)^(n-1)) work
    per cell where a disc footprint costs O((rN)^n). Every chord runs along
    the field's last axis, so one doubling table serves them all: T[k][j]
    is the max of ext[j : j + 2^k], ext being the field wrap-extended by
    the widest chord's half-width, and a chord of width w is the max of two
    overlapping slices of T[floor(log2 w)]. This is the running-max idea of
    van Herk (1992) and Gil & Werman (1993), with the blocks shared by all
    widths of one call.
    """
    if not 0.0 < radius <= 0.5:
        raise ValueError(f"radius must be in (0, 1/2], got {radius}")
    mask = _displacement_distance(field.ndim, field.shape[0]) < radius
    return _chord_max(field, mask)


def _chord_max(field, mask):
    # max over the displacement classes in mask, which acts on the trailing
    # mask.ndim axes of field; mask is symmetric under j -> -j. d2 adds the
    # last axis term last, so along it the distance grows with |j|: each
    # 1-D chord is the interval |j| <= k, 2k + 1 classes, or the whole
    # circle, whose even window covers every class once
    N = field.shape[-1]
    widest = int(mask.reshape(-1, N).sum(axis=1).max())
    pad = widest // 2
    table = [np.take(field, np.arange(-pad, N + pad) % N, axis=-1)]
    while 2 ** len(table) <= widest:
        half = 2 ** (len(table) - 1)
        table.append(np.maximum(table[-1][..., :-half], table[-1][..., half:]))

    def chord(w):
        k = w.bit_length() - 1
        lo = pad - (w - 1) // 2
        hi = lo + w - 2**k
        return np.maximum(table[k][..., lo:lo + N], table[k][..., hi:hi + N])

    def union(sub):
        if sub.ndim == 1:
            return chord(int(sub.sum()))
        axis = field.ndim - sub.ndim
        out = None
        chords = {}
        for a, row in enumerate(sub):
            if not row.any():
                continue
            key = row.tobytes()
            if key not in chords:
                chords[key] = union(row)
            # out[x] takes the chord max at x + a along the leading mask axis
            shifted = np.roll(chords[key], -a, axis=axis)
            out = shifted if out is None else np.maximum(out, shifted, out=out)
        return out

    return union(mask)
