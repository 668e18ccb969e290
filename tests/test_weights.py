"""Weight machinery against brute-force oracles and analytic power-law facts."""

import math

import numpy as np
import pytest

from conical_lab.grid import (
    Grid,
    GridFunction,
    ball_cells,
    ball_kernel,
    ball_max,
    ball_sum,
)
from conical_lab.weights import (
    BallFamily,
    Weight,
    admissible_interval,
    hl_maximal,
    p_plus_Kstar,
    power_weight_exponents,
    power_weight_in_Ar,
    power_weight_in_RHs,
)
from oracles import (
    at_resolution,
    estimate_Ap_constant,
    estimate_critical_exponents,
    estimate_RHs_constant,
    iter_balls,
)


# ---------------------------------------------------------------- oracles


def brute_ap(w, p, balls):
    """A_p constant by explicit cell enumeration and fsum averages."""
    best = 0.0
    flat = w.values.ravel()
    for c, r in balls:
        idx = ball_cells(w.grid, c, r)
        cells = flat[idx]
        avg = math.fsum(cells) / idx.size
        if p == 1:
            q = avg / cells.min()
        else:
            pp = p / (p - 1.0)
            avg_dual = math.fsum(cells ** (1.0 - pp)) / idx.size
            q = avg * avg_dual ** (p - 1.0)
        best = max(best, q)
    return best


def brute_rh(w, s, balls):
    best = 0.0
    flat = w.values.ravel()
    for c, r in balls:
        cells = flat[ball_cells(w.grid, c, r)]
        avg = math.fsum(cells) / cells.size
        if math.isinf(s):
            q = cells.max() / avg
        else:
            q = (math.fsum(cells**s) / cells.size) ** (1.0 / s) / avg
        best = max(best, q)
    return best


def brute_maximal(f, p0, balls, grid, centered=False):
    out = np.zeros(grid.ncells)
    flat = np.abs(np.asarray(f)).ravel() ** p0
    centers = grid.cell_centers().reshape(-1, grid.n)
    for c, r in balls:
        idx = ball_cells(grid, c, r)
        avg = flat[idx].mean()
        if centered:
            own = np.flatnonzero(np.all(np.isclose(centers, np.asarray(c)), axis=1))
            out[own] = np.maximum(out[own], avg)
        else:
            out[idx] = np.maximum(out[idx], avg)
    return (out ** (1.0 / p0)).reshape(grid.shape)


@pytest.fixture(scope="module")
def g16():
    return Grid(2, 16)


@pytest.fixture(scope="module")
def fam16(g16):
    return BallFamily.dense_dyadic(g16)


@pytest.fixture(scope="module")
def rough_weight(g16):
    rng = np.random.default_rng(7)
    return Weight(g16, np.exp(rng.normal(size=g16.shape)))


# ------------------------------------------------------- constant estimates


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.7])
def test_ap_constant_matches_bruteforce(g16, fam16, rough_weight, p):
    balls = list(iter_balls(fam16))
    for w in (Weight.power_law(g16, 1.0), rough_weight):
        ref = brute_ap(w, p, balls)
        fast = estimate_Ap_constant(w, p, fam16)
        assert fast == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("s", [1.5, 2.0, 3.7, math.inf])
def test_rh_constant_matches_bruteforce(g16, fam16, rough_weight, s):
    balls = list(iter_balls(fam16))
    for w in (Weight.power_law(g16, -2.0), rough_weight):
        ref = brute_rh(w, s, balls)
        fast = estimate_RHs_constant(w, s, fam16)
        assert fast == pytest.approx(ref, rel=1e-9)


def test_constant_weight_gives_unit_constants(g16, fam16):
    for c in (1.0, 3.25e4):
        w = Weight(g16, np.full(g16.shape, c))
        for p in (1.0, 2.0, 5.0):
            assert estimate_Ap_constant(w, p, fam16) == pytest.approx(1.0, abs=1e-11)
        for s in (1.0, 2.0, math.inf):
            assert estimate_RHs_constant(w, s, fam16) == pytest.approx(1.0, abs=1e-11)


def test_ap_nonincreasing_rh_nondecreasing(g16, fam16, rough_weight):
    # per-ball Jensen: larger p can only shrink the quotient; power means grow in s
    weights = [Weight.power_law(g16, 1.0), Weight.power_law(g16, -2.0), rough_weight]
    ps = [1.0, 1.3, 2.0, 3.0, 6.0]
    ss = [1.0, 1.5, 2.0, 4.0, math.inf]
    for w in weights:
        ap = [estimate_Ap_constant(w, p, fam16) for p in ps]
        rh = [estimate_RHs_constant(w, s, fam16) for s in ss]
        assert all(a >= b - 1e-9 * abs(a) for a, b in zip(ap, ap[1:]))
        assert all(a <= b + 1e-9 * abs(b) for a, b in zip(rh, rh[1:]))
        assert min(ap) >= 1 - 1e-12 and min(rh) >= 1 - 1e-12


def test_ap_stability_under_refinement():
    # theta=1, n=2 lies inside A_2, so the constant settles between N=32 and 64
    fams = {N: BallFamily.dense_dyadic(Grid(2, N)) for N in (32, 64)}
    c = {N: estimate_Ap_constant(Weight.power_law(Grid(2, N), 1.0), 2.0, fams[N])
         for N in (32, 64)}
    assert c[64] / c[32] < 1.2 and c[32] / c[64] < 1.2


def test_rh_blowup_outside_class():
    # theta=1.5 fails theta < n/s at s=4, so refinement inflates the constant
    c = {N: estimate_RHs_constant(Weight.power_law(Grid(2, N), 1.5), 4.0,
                                  BallFamily.dense_dyadic(Grid(2, N)))
         for N in (32, 64)}
    assert c[64] / c[32] > 1.5


def test_estimator_rejections(g16, fam16):
    w = Weight(g16, np.ones(g16.shape))
    with pytest.raises(ValueError):
        estimate_Ap_constant(w, 0.5, fam16)
    with pytest.raises(ValueError):
        estimate_RHs_constant(w, 0.9, fam16)


@pytest.mark.parametrize("estimate", [
    lambda w, fam: estimate_Ap_constant(w, 2.0, fam),
    lambda w, fam: estimate_RHs_constant(w, 2.0, fam),
    lambda w, fam: hl_maximal(w.values, 1.0, fam),
    lambda w, fam: hl_maximal(GridFunction(w.grid, w.values), 1.0, fam),
], ids=["Ap", "RHs", "hl_maximal_array", "hl_maximal_gridfunction"])
def test_family_grid_must_match_input(estimate):
    # a flat weight on the 32-grid averaged with cell counts of the 16-grid
    # gave A_2 = 25 and RH_2 = 0.49 instead of 1
    g = Grid(2, 32)
    w = Weight(g, np.ones(g.shape))
    with pytest.raises(ValueError, match="family grid does not match"):
        estimate(w, BallFamily.dense_dyadic(Grid(2, 16)))


# ------------------------------------------------------ analytic predicates


def test_ar_predicate_table():
    assert power_weight_in_Ar(0.0, 2, 1.0)
    assert power_weight_in_Ar(1.0, 2, 1.4)
    for r in (1.0, 2.0, 17.0):
        assert not power_weight_in_Ar(2.0, 2, r)
    # negative theta needs r strictly beyond 1 + |theta|/n
    assert not power_weight_in_Ar(-2.0, 2, 2.0)
    assert power_weight_in_Ar(-2.0, 2, 2.01)
    with pytest.raises(ValueError):
        power_weight_in_Ar(0.5, 2, 0.9)


def test_rh_predicate_table():
    for s in (1.0, 2.0, 40.0, math.inf):
        assert power_weight_in_RHs(-3.0, 2, s)
    assert not power_weight_in_RHs(1.0, 2, 2.0)  # boundary theta = n/s is out
    assert power_weight_in_RHs(1.0, 2, 1.9)
    assert power_weight_in_RHs(1.7, 2, 1.0)
    # constant weight (theta=0) sits in every class, including RH_inf
    assert power_weight_in_RHs(0.0, 2, math.inf)
    assert not power_weight_in_RHs(0.1, 2, math.inf)
    with pytest.raises(ValueError):
        power_weight_in_RHs(1.0, 2, 0.5)


def test_ap_duality_for_power_weights():
    # w in A_p iff w^{1-p'} in A_{p'}; the dual of |x|^{-theta} is |x|^{theta/(p-1)}
    for theta in (-3.0, -2.0, -0.5, 0.0, 0.7, 1.0, 1.5, 1.9, 2.5):
        for p in (1.3, 2.0, 3.7):
            pp = p / (p - 1.0)
            assert power_weight_in_Ar(theta, 2, p) == power_weight_in_Ar(
                -theta / (p - 1.0), 2, pp
            )


def test_power_weight_exponents_formulas():
    assert power_weight_exponents(1.0, 2) == (1.0, 2.0)
    assert power_weight_exponents(-2.0, 2) == (2.0, 1.0)
    assert power_weight_exponents(0.0, 3) == (1.0, 1.0)


# --------------------------------------------- predicates vs estimator blow-up


def _blows_up(theta, kind, expo, N=32, ratio=1.5):
    wf = Weight.power_law(Grid(2, N), theta)
    wc = at_resolution(wf, N // 2, theta)
    ff = BallFamily.dense_dyadic(wf.grid)
    fc = BallFamily.dense_dyadic(wc.grid)
    est = estimate_Ap_constant if kind == "Ap" else estimate_RHs_constant
    cf, cc = est(wf, expo, ff), est(wc, expo, fc)
    return (not np.isfinite(cf)) or cf > ratio * cc


# class exponents sit at least 0.75 octaves of divergence rate from critical,
# the resolution floor of the two-grid ratio probe
CASES = [
    (-2.0, "Ap", 1.0, False),
    (-2.0, "Ap", 3.0, True),
    (-2.0, "RH", 2.0, True),
    (-2.0, "RH", math.inf, True),
    (0.0, "Ap", 1.0, True),
    (0.0, "RH", math.inf, True),
    (1.0, "Ap", 1.0, True),
    (1.0, "Ap", 1.4, True),
    (1.0, "RH", 1.5, True),
    (1.0, "RH", 8.0, False),
    (1.0, "RH", math.inf, False),
    (1.9, "Ap", 1.0, True),
    (1.9, "RH", 2.0, False),
    (1.9, "RH", math.inf, False),
]


@pytest.mark.parametrize("theta,kind,expo,member", CASES)
def test_membership_predicate_matches_blowup(theta, kind, expo, member):
    pred = power_weight_in_Ar if kind == "Ap" else power_weight_in_RHs
    assert pred(theta, 2, expo) == member
    assert _blows_up(theta, kind, expo) == (not member)


# ------------------------------------------------------- critical exponents


def test_critical_exponents_constant_weight(g16, fam16):
    ce = estimate_critical_exponents(Weight(g16, np.ones(g16.shape)), fam16, tol=0.25)
    assert ce.r_bracket == (1.0, 1.0) and ce.s_bracket == (1.0, 1.0)
    assert ce.conclusive and ce.r_w == 1.0 and ce.s_w == 1.0


def test_critical_exponents_power_weights():
    # theta=-2: r_w=2 resolved cleanly at N=32; s side trivial
    ce = estimate_critical_exponents(Weight.power_law(Grid(2, 32), -2.0), tol=0.25,
                                     theta=-2.0)
    assert abs(ce.r_w - 2.0) <= 0.25
    assert ce.s_bracket == (1.0, 1.0)
    # theta=1: r side exact; the s side diverges at rate (2-s)/s per octave,
    # below the 1.5-ratio floor near s=2, so the bracket sits low: tol=0.8
    # absorbs the measured bias of the pinned classifier
    ce = estimate_critical_exponents(Weight.power_law(Grid(2, 32), 1.0), tol=0.8,
                                     theta=1.0)
    assert ce.r_bracket == (1.0, 1.0)
    assert abs(ce.s_w - 2.0) <= 0.8


def test_critical_exponents_cap_reports_wide_bracket():
    # r_w = 5 lies beyond the cap: the bracket must stay wide, not collapse
    ce = estimate_critical_exponents(Weight.power_law(Grid(2, 16), -8.0), tol=0.25,
                                     cap=3.0, theta=-8.0)
    assert ce.r_bracket == (3.0, math.inf)
    assert not ce.conclusive


# ----------------------------------------------------------------- intervals


def test_admissible_interval_conventions():
    assert admissible_interval(0.0, math.inf, 1.7, 3.2) == (0.0, math.inf)
    assert admissible_interval(1.0, 12.0, 1.0, 2.0) == (1.0, 6.0)
    lo, hi = admissible_interval(1.37, math.inf, 1.0, 1.0)
    assert lo == pytest.approx(1.37) and math.isinf(hi)
    with pytest.raises(ValueError):
        admissible_interval(2.0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        admissible_interval(-1.0, 2.0, 1.0, 1.0)


def test_p_plus_kstar_branches():
    assert math.isinf(p_plus_Kstar(math.inf, 3, 2))
    assert p_plus_Kstar(3.0, 1, 10) == pytest.approx(30.0)
    # K=0 is the plain Sobolev exponent
    assert p_plus_Kstar(3.0, 0, 10) == pytest.approx(30.0 / 7.0)
    # (2K+1) p_plus = n lands in the infinite branch
    assert math.isinf(p_plus_Kstar(2.0, 1, 6))
    with pytest.raises(ValueError):
        p_plus_Kstar(1.0, 0, 4)


# ------------------------------------------------------------------ maximal


def test_hl_maximal_matches_bruteforce(g16, fam16):
    rng = np.random.default_rng(3)
    f = rng.normal(size=g16.shape) + 1j * rng.normal(size=g16.shape)
    balls = list(iter_balls(fam16))
    for p0 in (0.5, 1.0, 2.0):
        ref = brute_maximal(f, p0, balls, g16)
        fast = hl_maximal(GridFunction(g16, f), p0, fam16)
        np.testing.assert_allclose(fast, ref, rtol=1e-9)
    cen = hl_maximal(f, 1.0, fam16, centered=True)
    ref_c = brute_maximal(f, 1.0, balls, g16, centered=True)
    np.testing.assert_allclose(cen, ref_c, rtol=1e-9)
    assert np.all(cen <= hl_maximal(f, 1.0, fam16) + 1e-12)


@pytest.mark.parametrize("centered", [False, True])
def test_hl_maximal_matches_radius_loop(g16, centered):
    # the stacked ball sums keep every bit of one ball_sum call per radius
    rng = np.random.default_rng(13)
    f = rng.normal(size=g16.shape) + 1j * rng.normal(size=g16.shape)
    fam = BallFamily(g16, (*BallFamily.dense_dyadic(g16).radii, 0.3))
    for p0 in (0.5, 1.5, 2.0):
        vals = np.abs(f) ** p0
        want = np.zeros(g16.shape)
        for r in fam.radii:
            _, cnt = ball_kernel(g16.n, g16.N, r)
            avg = ball_sum(vals, r) / cnt
            np.maximum(want, avg if centered else ball_max(avg, r), out=want)
        got = hl_maximal(f, p0, fam, centered=centered)
        assert np.array_equal(got, want ** (1.0 / p0))


def test_hl_maximal_dominates_single_ball_averages(g16):
    # non-dyadic radii: every cell center with each of five random radii
    rng = np.random.default_rng(11)
    f = rng.normal(size=g16.shape)
    fam = BallFamily(g16, rng.uniform(2 * g16.h, 0.5, size=5))
    assert len(fam.radii) == 5
    out = hl_maximal(f, 1.0, fam).ravel()
    flat = np.abs(f).ravel()
    for c, r in iter_balls(fam):
        idx = ball_cells(g16, c, r)
        assert np.all(out[idx] >= flat[idx].mean() - 1e-13)


def test_hl_maximal_constant_input(g16, fam16):
    out = hl_maximal(np.full(g16.shape, -2.5), 1.0, fam16)
    np.testing.assert_allclose(out, 2.5, rtol=1e-12)
    with pytest.raises(ValueError):
        hl_maximal(np.ones(g16.shape), 0.0, fam16)


# ----------------------------------------------------- types, report, CSV


def test_weight_validation(g16):
    with pytest.raises(ValueError):
        Weight(g16, np.zeros(g16.shape))
    with pytest.raises(ValueError):
        Weight(g16, -np.ones(g16.shape))
    with pytest.raises(ValueError):
        Weight(g16, np.ones((4, 4)))
    bad = np.ones(g16.shape)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Weight(g16, bad)
    # a center needs one coordinate per axis
    for grid, center in ((g16, (0.5,)), (g16, (0.1, 0.2, 0.3)), (Grid(1, 16), (0.1, 0.2))):
        with pytest.raises(ValueError, match="coordinates"):
            Weight.power_law(grid, 1.0, center)


def test_power_weight_descriptor_consistency(g16):
    from conical_lab.grid import torus_distance

    w = Weight.power_law(g16, 1.3, center=(0.25, 0.5))
    fine = at_resolution(w, 32, 1.3, (0.25, 0.5))
    assert fine.grid.N == 32
    for v in (w, fine):
        d = torus_distance(v.grid.cell_centers(), np.array([0.25, 0.5]))
        np.testing.assert_array_equal(v.values, np.maximum(d, v.grid.h / 2) ** -1.3)


def test_tabulated_weight_coarsens_by_block_average(rough_weight):
    coarse = at_resolution(rough_weight, 8)
    v = rough_weight.values
    ref = 0.25 * (v[0::2, 0::2] + v[0::2, 1::2] + v[1::2, 0::2] + v[1::2, 1::2])
    np.testing.assert_allclose(coarse.values, ref, rtol=1e-14)
    with pytest.raises(ValueError):
        at_resolution(rough_weight, 64)


def test_ball_family_validation(g16):
    with pytest.raises(ValueError, match=r"\[2h, 1/2\]"):
        BallFamily(g16, [g16.h])  # radius below 2h
    with pytest.raises(ValueError, match=r"\[2h, 1/2\]"):
        BallFamily(g16, [0.25, 0.6])
    with pytest.raises(ValueError, match="empty"):
        BallFamily(g16, [])
    fam = BallFamily(g16, [0.5, 0.125, 0.5])
    assert fam.radii == (0.125, 0.5)


@pytest.mark.parametrize("n", [1, 2])
def test_dense_dyadic_enumeration(n):
    # the brute-force oracles walk iter_balls, so pin it against centers
    # built apart from Grid.cell_centers
    grid = Grid(n, 16)
    fam = BallFamily.dense_dyadic(grid)
    assert fam.radii == (0.125, 0.25, 0.5)
    centers = (np.indices(grid.shape).reshape(n, -1).T + 0.5) / grid.N
    want = [(c, r) for c in centers for r in (0.125, 0.25, 0.5)]
    got = list(iter_balls(fam))
    assert len(got) == len(want) == grid.ncells * 3
    for (c, r), (c_ref, r_ref) in zip(got, want):
        np.testing.assert_array_equal(c, c_ref)
        assert r == r_ref


def test_ap_table_nonincreasing_in_p(g16, fam16):
    w = Weight.power_law(g16, 1.0)
    consts = [estimate_Ap_constant(w, p, fam16) for p in (1.0, 2.0, 4.0)]
    assert consts == sorted(consts, reverse=True)
