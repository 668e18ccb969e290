"""Square-function tests.

The scalar-symbol oracle replaces the operator by its eigenvalue on a single
Fourier mode and reduces the cone sum to ball counts; everything else checks
structural identities, fitted comparison constants with holdouts, and
refinement stability of norm ratios.
"""

import math

import numpy as np
import pytest

from conical_lab.grid import (
    Grid,
    GridFunction,
    TimeGrid,
    UpperHalfField,
    ball_kernel,
    lp_norm_weighted,
)
from conical_lab.weights import Weight, p_plus_Kstar, power_weight_in_Ar
from conical_lab.elliptic import CoefficientField, assemble
from conical_lab import squarefn as sf
from conical_lab import tent
from subordination_oracle import poisson_ladder


@pytest.fixture(scope="module")
def lap1():
    grid = Grid(1, 32)
    return assemble(grid, CoefficientField.preset(grid, "laplace"))


@pytest.fixture(scope="module")
def lap2():
    grid = Grid(2, 16)
    return assemble(grid, CoefficientField.preset(grid, "laplace"))


@pytest.fixture(scope="module")
def pert1():
    grid = Grid(1, 16)
    return assemble(grid, CoefficientField.preset(grid, "perturbed"))


def rand_gf(grid, rng):
    return GridFunction(
        grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    )


class TestSpec:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            sf.SquareFunctionSpec("s_x")

    def test_order_floor(self):
        with pytest.raises(ValueError, match="order >= 1"):
            sf.SquareFunctionSpec("s_h", order=0)
        with pytest.raises(ValueError, match="order >= 0"):
            sf.SquareFunctionSpec("g_h", order=-1)
        with pytest.raises(ValueError):
            sf.SquareFunctionSpec("g_h", order=1.5)

    def test_order_defaults(self):
        assert sf.SquareFunctionSpec("s_h").order == 1
        assert sf.SquareFunctionSpec("s_p").order == 1
        assert sf.SquareFunctionSpec("g_h").order == 0
        assert sf.SquareFunctionSpec("gcal_p").order == 0


class TestEvaluate:
    def test_one_semigroup_per_call(self, lap1):
        batch = np.ones((2, *lap1.grid.shape))
        with pytest.raises(ValueError, match="one semigroup"):
            sf.integrand_field(lap1, [sf.SquareFunctionSpec("s_h"),
                                      sf.SquareFunctionSpec("s_p")], batch)

    def test_constants_die(self, lap1):
        one = GridFunction(lap1.grid, np.ones(lap1.grid.shape))
        for family in sf.FAMILIES:
            out = sf.evaluate(lap1, sf.SquareFunctionSpec(family), one)
            assert float(np.abs(out.values).max()) < 1e-10, family

    def test_scalar_symbol_oracle(self, lap1):
        # on a single Fourier mode every integrand magnitude is a constant
        # computable from the stencil symbols, and the cone sum reduces to
        # ball counts
        grid = lap1.grid
        tg = TimeGrid.spanning(grid)
        k, h = 3, grid.h
        x = grid.cell_centers()[..., 0]
        f = GridFunction(grid, np.exp(2j * np.pi * k * x))
        mu = 4 * math.sin(math.pi * k * h) ** 2 / h**2
        sig = abs(np.exp(2j * np.pi * k * h) - 1) / h
        root = math.sqrt(mu)

        def cone_of(level_vals):
            acc = 0.0
            for t, v in zip(tg.levels, level_vals):
                _, cnt = ball_kernel(grid.n, grid.N, min(t, 0.5))
                acc += tg.dlog * (grid.h / t) ** grid.n * cnt * v * v
            return math.sqrt(acc)

        ts = tg.levels
        cases = {
            ("s_h", 1): [(t * t * mu) * math.exp(-t * t * mu) for t in ts],
            ("s_h", 2): [(t * t * mu) ** 2 * math.exp(-t * t * mu) for t in ts],
            ("g_h", 0): [t * sig * math.exp(-t * t * mu) for t in ts],
            ("gcal_h", 0): [
                math.hypot(t * sig, 2 * t * t * mu) * math.exp(-t * t * mu)
                for t in ts
            ],
            ("s_p", 1): [(t * root) ** 2 * math.exp(-t * root) for t in ts],
            ("g_p", 0): [t * sig * math.exp(-t * root) for t in ts],
            ("gcal_p", 0): [
                math.hypot(t * sig, t * root) * math.exp(-t * root) for t in ts
            ],
            ("gcal_p", 1): [
                math.hypot(t * sig * (t * root) ** 2,
                           (2 - t * root) * (t * root) ** 2)
                * math.exp(-t * root)
                for t in ts
            ],
        }
        for (family, order), level_vals in cases.items():
            got = sf.evaluate(lap1, sf.SquareFunctionSpec(family, order=order), f)
            want = cone_of(level_vals)
            err = float(np.abs(got.values - want).max()) / want
            assert err < 1e-6, (family, order, err)

    def test_homogeneity(self, lap1):
        rng = np.random.default_rng(40)
        f = rand_gf(lap1.grid, rng)
        cf = GridFunction(lap1.grid, (2.0 - 3.0j) * f.values)
        for family in ("s_h", "gcal_p"):
            spec = sf.SquareFunctionSpec(family)
            a = sf.evaluate(lap1, spec, cf).values.real
            b = abs(2.0 - 3.0j) * sf.evaluate(lap1, spec, f).values.real
            assert float(np.abs(a - b).max()) <= 1e-12 * float(b.max())

    @pytest.mark.parametrize("pair", [("g_h", "gcal_h"), ("g_p", "gcal_p")])
    def test_spatial_below_full(self, lap1, pair):
        rng = np.random.default_rng(41)
        f = rand_gf(lap1.grid, rng)
        g_fam, gcal_fam = pair
        a = sf.evaluate(lap1, sf.SquareFunctionSpec(g_fam, order=1), f).values.real
        b = sf.evaluate(lap1, sf.SquareFunctionSpec(gcal_fam, order=1), f).values.real
        assert float((a - b).max()) <= 1e-12

    def test_subordination_cross_check(self, lap1):
        # the subordination rule over the heat ladder must agree with the
        # direct matrix functions the square function uses; the 48-node rule lands
        # at 4.2e-4 on this ladder (small times are the hard regime), so the
        # gate sits at 1e-3
        rng = np.random.default_rng(44)
        f = rand_gf(lap1.grid, rng)
        spec = sf.SquareFunctionSpec("s_p")
        tg = TimeGrid.spanning(lap1.grid)
        direct = sf.evaluate(lap1, spec, f).values.real
        comps = poisson_ladder(lap1, spec.order, "none", tg.levels, f)
        F = UpperHalfField(lap1.grid, tg, np.abs(comps[:, 0]))
        sub = tent.cone_functional(F, 1.0).values.real
        err = float(np.abs(direct - sub).max()) / float(direct.max())
        assert err < 1e-3


class TestDomination:
    def test_laplace(self, lap1):
        rng = np.random.default_rng(50)
        rep = sf.pointwise_domination_report(lap1, rand_gf(lap1.grid, rng))
        assert rep.ok
        assert rep.max_violation <= 1e-12
        assert rep.time_identity_error <= 1e-13

    def test_perturbed_without_eigenbasis(self, pert1):
        assert pert1.report.tier == "dense-fallback"
        rng = np.random.default_rng(51)
        for _ in range(3):
            rep = sf.pointwise_domination_report(pert1, rand_gf(pert1.grid, rng))
            assert rep.ok
            assert rep.time_identity_error <= 1e-13


@pytest.fixture(scope="module")
def norm_pairs(lap2):
    grid = lap2.grid
    pairs = [
        (2.0, Weight(grid, np.ones(grid.shape))),
        (2.0, Weight.power_law(grid, -1.0)),
        (4.0, Weight.power_law(grid, 1.0)),
    ]
    assert power_weight_in_Ar(-1.0, grid.n, 2.0)
    assert power_weight_in_Ar(1.0, grid.n, 4.0)
    return pairs


class TestComparisons:
    # one fitted constant per comparison across all (p, w) pairs; a holdout
    # batch of fresh functions has to stay within the margin

    def _ratio_batches(self, op, norm_pairs, top, bottom, count, seed):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            f = rand_gf(op.grid, rng)
            hi = sf.evaluate(op, top, f)
            lo = sf.evaluate(op, bottom, f)
            for p, w in norm_pairs:
                out.append(
                    lp_norm_weighted(hi, w.values, p)
                    / lp_norm_weighted(lo, w.values, p)
                )
        return out

    @pytest.mark.parametrize("top_family,top_order", [("s_h", 2), ("gcal_h", 2)])
    def test_heat_order_two_vs_order_one(self, lap2, norm_pairs, top_family, top_order):
        top = sf.SquareFunctionSpec(top_family, order=top_order)
        bottom = sf.SquareFunctionSpec("s_h", order=1)
        fit = self._ratio_batches(lap2, norm_pairs, top, bottom, 8, seed=60)
        hold = self._ratio_batches(lap2, norm_pairs, top, bottom, 12, seed=61)
        assert tent.fitted_bound_report(fit, hold, margin=1.5).ok

    def test_poisson_vs_heat(self, lap2, norm_pairs):
        # admissible p range is open-ended for this preset, so both test
        # exponents sit strictly inside it
        assert all(p < p_plus_Kstar(math.inf, 1, lap2.grid.n) for p, _ in norm_pairs)
        for top, bottom in [
            (sf.SquareFunctionSpec("s_p", order=1), sf.SquareFunctionSpec("s_h", order=1)),
            (sf.SquareFunctionSpec("gcal_p"), sf.SquareFunctionSpec("gcal_h")),
        ]:
            fit = self._ratio_batches(lap2, norm_pairs, top, bottom, 8, seed=62)
            hold = self._ratio_batches(lap2, norm_pairs, top, bottom, 12, seed=63)
            assert tent.fitted_bound_report(fit, hold, margin=1.5).ok


class TestBoundedness:
    P_LIST = (1.5, 2.0, 4.0)

    @staticmethod
    def _sup_ratios(N, count, seed):
        grid = Grid(1, N)
        op = assemble(grid, CoefficientField.preset(grid, "laplace"))
        w = Weight.power_law(grid, 0.5)
        rng = np.random.default_rng(seed)
        sup = {fam: {p: 0.0 for p in TestBoundedness.P_LIST} for fam in sf.FAMILIES}
        for fam in sf.FAMILIES:
            spec = sf.SquareFunctionSpec(fam)
            for _ in range(count):
                f = rand_gf(grid, rng)
                Sf = sf.evaluate(op, spec, f)
                for p in TestBoundedness.P_LIST:
                    r = lp_norm_weighted(Sf, w.values, p) / lp_norm_weighted(
                        f, w.values, p
                    )
                    sup[fam][p] = max(sup[fam][p], r)
        return sup

    def test_norm_ratios_stable_under_refinement(self):
        # theta = 0.5 keeps the weight in A_p for every tested p
        assert power_weight_in_Ar(0.5, 1, 1.5)
        coarse = self._sup_ratios(32, 100, seed=500)
        fine = self._sup_ratios(64, 100, seed=501)
        for fam in sf.FAMILIES:
            for p in self.P_LIST:
                a, b = coarse[fam][p], fine[fam][p]
                assert np.isfinite(a) and a > 0
                assert abs(b / a - 1.0) < 0.25, (fam, p, a, b)
