import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.ndimage import maximum_filter1d

from conical_lab.grid import (
    Grid,
    GridFunction,
    TimeGrid,
    UpperHalfField,
    ball_cells,
    ball_max,
    ball_sum,
    lp_norm_weighted,
    torus_distance,
)
from conical_lab import grid as gridmod
from conical_lab.elliptic import CoefficientField


def brute_torus_distance(x, y, n):
    # oracle: minimum over all integer shifts in {-1,0,1}^n
    best = np.inf
    shifts = np.indices((3,) * n).reshape(n, -1).T - 1
    for s in shifts:
        best = min(best, np.linalg.norm(np.asarray(x) - np.asarray(y) + s))
    return best


def test_grid_validation():
    Grid(2, 32)
    with pytest.raises(ValueError):
        Grid(4, 32)
    with pytest.raises(ValueError):
        Grid(2, 12)
    with pytest.raises(ValueError):
        Grid(2, 4)


def test_torus_distance_against_shift_oracle():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        x = rng.random((50, n))
        y = rng.random((50, n))
        got = torus_distance(x, y)
        want = [brute_torus_distance(a, b, n) for a, b in zip(x, y)]
        assert np.allclose(got, want, atol=1e-13)
        assert np.all(got <= math.sqrt(n) / 2 + 1e-13)


def test_torus_distance_triangle_inequality():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        x, y, z = rng.random((3, 1000, n))
        dxz = torus_distance(x, z)
        dxy = torus_distance(x, y)
        dyz = torus_distance(y, z)
        assert np.all(dxz <= dxy + dyz + 1e-12)


def test_ball_cells_enumeration_oracle():
    rng = np.random.default_rng(3)
    for n, N in [(1, 16), (2, 16), (3, 8)]:
        g = Grid(n, N)
        centers = g.cell_centers().reshape(-1, n)
        for _ in range(5):
            c = rng.random(n)
            r = rng.uniform(g.h, 0.5)
            got = ball_cells(g, c, r)
            want = np.flatnonzero(torus_distance(centers, c) < r)
            assert np.array_equal(got, want)
            assert np.all(np.diff(got) > 0)
    # centers on cell centers, radii equal to a cell-center distance: the
    # strict < decides, so the distances must agree to the last bit
    rng = np.random.default_rng(4)
    for n, N in [(1, 16), (2, 16), (3, 8)]:
        g = Grid(n, N)
        centers = g.cell_centers().reshape(-1, n)
        for _ in range(5):
            c = centers[rng.integers(g.ncells)]
            dist = torus_distance(centers, c)
            for r in np.unique(dist[(dist > 0) & (dist <= 0.5)]):
                got = ball_cells(g, c, r)
                want = np.flatnonzero(dist < r)
                assert np.array_equal(got, want), (n, N, r)


def test_ball_cells_radius_half_and_monotonicity():
    g = Grid(2, 16)
    c = np.array([0.5, 0.5])
    full = ball_cells(g, c, 0.5)
    centers = g.cell_centers().reshape(-1, 2)
    far = np.flatnonzero(torus_distance(centers, c) >= 0.5)
    assert len(full) + len(far) == g.ncells
    prev = set()
    for r in (0.1, 0.2, 0.3, 0.4, 0.5):
        cur = set(ball_cells(g, c, r).tolist())
        assert prev <= cur
        prev = cur
    with pytest.raises(ValueError):
        ball_cells(g, c, 0.6)
    with pytest.raises(ValueError):
        ball_cells(g, c, 0.0)
    for radius in (0.0, 0.6):
        with pytest.raises(ValueError, match="radius"):
            ball_max(np.zeros(g.shape), radius)


def test_lp_norm_against_fsum_oracle():
    rng = np.random.default_rng(5)
    g = Grid(2, 16)
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    w = rng.uniform(0.5, 2.0, g.shape)
    f = GridFunction(g, vals)
    for p in (0.5, 1.0, 2.0, 3.7):
        want = math.fsum(
            abs(v) ** p * wi * g.h**2 for v, wi in zip(vals.ravel(), w.ravel())
        ) ** (1.0 / p)
        assert abs(lp_norm_weighted(f, w, p) - want) <= 1e-12 * want


def test_lp_norm_homogeneity_and_validation():
    rng = np.random.default_rng(9)
    g = Grid(1, 32)
    f = GridFunction(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    c = 3.7 - 1.2j
    for p in (0.7, 1.0, 2.0, 4.0):
        a = lp_norm_weighted(GridFunction(g, c * f.values), 1.0, p)
        b = abs(c) * lp_norm_weighted(f, 1.0, p)
        assert abs(a - b) <= 1e-12 * b
    with pytest.raises(ValueError):
        lp_norm_weighted(f, 1.0, 0.0)
    with pytest.raises(ValueError):
        lp_norm_weighted(f, np.zeros(g.shape), 2.0)
    # a scalar weight is checked as an array weight is
    for w in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            lp_norm_weighted(f, w, 2.0)


def test_gridfunction_validation():
    g = Grid(1, 16)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(8))
    bad = np.zeros(16)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        GridFunction(g, bad)


def test_timegrid_construction():
    g = Grid(1, 32)
    tg = TimeGrid.geometric(g, g.h / 2, 2.0, 5)
    assert len(tg) == 5
    assert abs(tg.ratio - 2.0) < 1e-12
    assert abs(tg.dlog - math.log(2.0)) < 1e-14
    tg2 = TimeGrid.spanning(g)
    assert tg2.levels[0] >= g.h / 2 - 1e-15
    assert tg2.levels[-1] <= 0.5 + 1e-15
    with pytest.raises(ValueError):
        TimeGrid(g, (g.h / 2, g.h, 3 * g.h))  # not geometric
    with pytest.raises(ValueError):
        TimeGrid(g, (g.h / 4, g.h / 2))  # starts below h/2
    with pytest.raises(ValueError):
        TimeGrid.geometric(g, 0.25, 2.0, 3)  # tops out above 1/2


def test_upperhalffield_shape():
    g = Grid(1, 16)
    tg = TimeGrid.geometric(g, g.h / 2, 2.0, 3)
    UpperHalfField(g, tg, np.zeros((3, 16)))
    with pytest.raises(ValueError):
        UpperHalfField(g, tg, np.zeros((2, 16)))


def test_ball_sum_and_max_against_bruteforce():
    rng = np.random.default_rng(1)
    for n, N in [(1, 16), (2, 16), (3, 8)]:
        g = Grid(n, N)
        field = rng.standard_normal(g.shape)
        centers = g.cell_centers().reshape(-1, n)
        for radius in (2 * g.h, 0.3, 0.5):
            want_sum = np.empty(g.ncells)
            want_max = np.empty(g.ncells)
            for i, c in enumerate(centers):
                idx = ball_cells(g, c, radius)
                want_sum[i] = field.ravel()[idx].sum()
                want_max[i] = field.ravel()[idx].max()
            assert np.allclose(ball_sum(field, radius).ravel(), want_sum, atol=1e-10)
            assert np.array_equal(ball_max(field, radius).ravel(), want_max)


@pytest.mark.parametrize("n,N", [(1, 64), (2, 32), (3, 16)])
def test_stacked_ball_sum_matches_per_slice_calls(n, N):
    # slice 0 is a nonnegative spike, whose raw FFT sums dip below 0 by
    # roundoff; slice 1 is the same spike negated, with negative entries, so
    # its raw sums are exactly the negated ones and stay unclipped: their
    # positive roundoff shows what the clip took from slice 0
    rng = np.random.default_rng(3)
    spike = np.zeros((N,) * n)
    spike[(1,) * n] = 1.0
    stack = np.stack([spike, -spike, rng.standard_normal(spike.shape) ** 2,
                      rng.standard_normal(spike.shape)])
    radii = [0.25, 0.25, 0.5, 2.0 / N]
    out = ball_sum(stack, radii)
    assert out.shape == stack.shape
    for k, r in enumerate(radii):
        assert np.array_equal(out[k], ball_sum(stack[k], r))
    assert (out[1] > 0).any()
    assert np.array_equal(out[0], np.maximum(-out[1], 0.0))
    assert np.array_equal(out[:1], ball_sum(stack[:1], radii[:1]))
    with pytest.raises(ValueError, match="radii"):
        ball_sum(stack, radii[:3])


@st.composite
def ball_max_cases(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    g = Grid(n, draw(st.sampled_from([8, 16] if n == 3 else [8, 16, 32])))
    if draw(st.booleans()):
        # a radius equal to a cell distance leaves those cells out of the
        # open ball, the boundary case a recomputed radius would get wrong
        j = np.array(draw(st.tuples(*[st.integers(0, g.N // 2)] * n)))
        radius = float(np.sqrt(np.sum((j * g.h) ** 2)))
        assume(0.0 < radius <= 0.5)
    else:
        radius = draw(st.floats(0.0, 0.5, exclude_min=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # small integers give ties between cells, normals give none
    if draw(st.booleans()):
        field = rng.integers(-3, 4, g.shape).astype(float)
    else:
        field = rng.standard_normal(g.shape)
    some_cells = draw(st.lists(st.integers(0, g.ncells - 1), min_size=1, max_size=4))
    return g, radius, field, some_cells


def brute_ball_max(g, field, radius):
    # cell centers are dyadic, so torus distances between them are exact and
    # the ball around each cell is the ball_cells of cell 0 shifted there
    c0 = g.cell_centers().reshape(-1, g.n)[0]
    out = np.full(g.shape, -np.inf)
    for j in zip(*np.unravel_index(ball_cells(g, c0, radius), g.shape)):
        np.maximum(out, np.roll(field, [-k for k in j], axis=tuple(range(g.n))), out=out)
    return out.ravel()


@settings(max_examples=100, deadline=None)
@given(ball_max_cases())
def test_ball_max_equals_max_over_ball_cells(case):
    g, radius, field, some_cells = case
    got = ball_max(field, radius).ravel()
    assert np.array_equal(got, brute_ball_max(g, field, radius))
    # and ball_cells around a few cells, with no shift assumed
    centers = g.cell_centers().reshape(-1, g.n)
    for i in some_cells:
        assert got[i] == field.ravel()[ball_cells(g, centers[i], radius)].max()


def scipy_chord_max(field, mask):
    # the chord decomposition with SciPy's wrapped running max for every
    # 1-D chord along the last axis, the oracle for the doubling table
    axis = field.ndim - mask.ndim
    if mask.ndim == 1:
        return maximum_filter1d(field, int(mask.sum()), axis=-1, mode="wrap")
    out = np.full(field.shape, -np.inf)
    for a, sub in enumerate(mask):
        if sub.any():
            np.maximum(out, np.roll(scipy_chord_max(field, sub), -a, axis=axis), out=out)
    return out


def window_mask(N, w):
    # the 1-D chord of w classes: |j| <= (w - 1) / 2 for odd w, all of them for w = N
    j = np.arange(N)
    return np.minimum(j, N - j) <= (w - 1) // 2 if w < N else np.ones(N, dtype=bool)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chord_windows_match_scipy_wrapped_max(n):
    rng = np.random.default_rng(40 + n)
    for N in (2, 4, 8, 16, 32, 64):
        if N**n > 2**15:
            continue
        # small integers give ties between cells, normals give none
        fields = (rng.integers(-3, 4, (N,) * n).astype(float), rng.standard_normal((N,) * n))
        for w in [*range(1, N, 2), N]:
            mask = window_mask(N, w)
            for field in fields:
                for ax in range(n):
                    got = np.moveaxis(gridmod._chord_max(np.moveaxis(field, ax, -1), mask), -1, ax)
                    want = maximum_filter1d(field, w, axis=ax, mode="wrap")
                    assert np.array_equal(got, want), (n, N, w, ax)


@pytest.mark.parametrize("n", [2, 3])
def test_chord_tables_match_scipy_chords(n):
    # several chord widths share one table: ball masks, and the closed ball
    # of radius 1/2, whose central chord is the whole circle beside odd ones
    rng = np.random.default_rng(50 + n)
    for N in (2, 4, 8, 16, 32, 64):
        if N**n > 2**12:
            continue
        dist = gridmod._displacement_distance(n, N)
        radii = np.unique(dist[dist > 0])
        radii = radii[np.linspace(0, len(radii) - 1, min(len(radii), 10)).astype(int)]
        for mask in [dist < r for r in radii] + [dist <= 0.5]:
            # small integers give ties between cells, normals give none
            for field in (rng.integers(-3, 4, (N,) * n).astype(float),
                          rng.standard_normal((N,) * n)):
                got = gridmod._chord_max(field, mask)
                assert np.array_equal(got, scipy_chord_max(field, mask)), (n, N)


def test_serialization_roundtrip_and_header(tmp_path):
    rng = np.random.default_rng(2)
    g = Grid(2, 16)
    vals = (rng.standard_normal(g.shape + (2, 2))
            + 1j * rng.standard_normal(g.shape + (2, 2)))
    coeff = CoefficientField(g, vals)
    path = tmp_path / "a.coef"
    coeff.to_file(path)
    raw = path.read_bytes()
    assert raw[:4] == b"CLGF"
    n, N = struct.unpack("<II", raw[4:12])
    assert (n, N) == (2, 16)
    assert raw[12:16] == b"\x00" * 4
    assert len(raw) == 16 + 4 * g.ncells * 16
    # payload is little-endian float64 (re, im) pairs: channel A_jk at block
    # j*n + k, each block row major
    block = g.ncells * 16
    re0, im0 = struct.unpack("<dd", raw[16:32])
    assert re0 == vals[0, 0, 0, 0].real and im0 == vals[0, 0, 0, 0].imag
    re1, im1 = struct.unpack("<dd", raw[16 + block + 16:16 + block + 32])
    assert re1 == vals[0, 1, 0, 1].real and im1 == vals[0, 1, 0, 1].imag
    back = CoefficientField.from_file(path)
    assert back.grid == g
    assert np.array_equal(back.values, coeff.values)


def test_serialization_rejects_garbage(tmp_path):
    p = tmp_path / "bad.coef"
    p.write_bytes(b"NOPE" + b"\x00" * 28)
    with pytest.raises(ValueError, match="not a coefficient file"):
        CoefficientField.from_file(p)
    q = tmp_path / "short.coef"
    q.write_bytes(b"CLGF" + struct.pack("<IIxxxx", 1, 16) + b"\x00" * 17)
    with pytest.raises(ValueError, match="expected 1 channels"):
        CoefficientField.from_file(q)
