"""Conical square functions built from semigroup integrands.

Six families share one recipe: build the upper-half-space field of integrand
magnitudes along a geometric time ladder, then send it through the aperture
cone with q = 2. The s-families square the semigroup member itself, the
g-families its scaled spatial gradient, and the gcal-families the full
space-time gradient (n + 1 components).
"""

from dataclasses import dataclass

import numpy as np

from .grid import TimeGrid, UpperHalfField
from .tent import cone_functional

# family tag -> (semigroup, integrand kind, minimum order)
FAMILIES = {
    "s_h": ("heat", "s", 1),
    "g_h": ("heat", "g", 0),
    "gcal_h": ("heat", "gcal", 0),
    "s_p": ("poisson", "s", 1),
    "g_p": ("poisson", "g", 0),
    "gcal_p": ("poisson", "gcal", 0),
}


@dataclass(frozen=True)
class SquareFunctionSpec:
    """Which square function to evaluate.

    order is the extra power of (t^2 L) or (t sqrt(L))^2 in the integrand;
    the s-families need at least one, the gradient families accept zero.
    When order is omitted it resolves to that minimum. The cone has
    aperture one, over the time ladder spanning the operator's grid.
    """

    family: str
    order: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; choose from {sorted(FAMILIES)}"
            )
        _, _, least = FAMILIES[self.family]
        if self.order is None:
            object.__setattr__(self, "order", least)
        if int(self.order) != self.order or self.order < least:
            raise ValueError(
                f"family {self.family!r} needs an integer order >= {least}"
            )
        object.__setattr__(self, "order", int(self.order))


def integrand_field(op, spec, f):
    """UpperHalfField of pointwise integrand magnitudes for spec.

    The member comes from op.ladder on the direct route: the spectral or
    dense calculus of the operator, for heat and Poisson alike.
    """
    tg = TimeGrid.spanning(op.grid)
    semigroup, kind, _ = FAMILIES[spec.family]
    derivative = {"s": "none", "g": "spatial", "gcal": "full"}[kind]
    comps = op.ladder(semigroup, spec.order, derivative, tg.levels, f)
    if kind == "s":
        mags = np.abs(comps[:, 0])
    else:
        mags = np.sqrt((np.abs(comps) ** 2).sum(axis=1))
    return UpperHalfField(op.grid, tg, mags)


def evaluate(op, spec, f):
    """The conical square function of f as a grid function."""
    F = integrand_field(op, spec, f)
    return cone_functional(F, 1.0)


@dataclass(frozen=True)
class DominationReport:
    """Largest pointwise violations of the structural inequalities.

    The gradient entries compare the spatial-gradient family against the
    space-time one at orders 0, 1 and 2 and for both semigroups; s_vs_gcal_heat
    checks s (order one) against twice gcal (order zero), which holds
    because the time component of the order-zero space-time gradient is
    exactly twice the s-integrand. time_identity_error records how exactly
    that component identity holds.
    """

    gradient_violation_heat: float
    gradient_violation_poisson: float
    s_vs_gcal_heat: float
    time_identity_error: float

    @property
    def max_violation(self):
        return max(
            self.gradient_violation_heat,
            self.gradient_violation_poisson,
            self.s_vs_gcal_heat,
        )

    @property
    def ok(self):
        return self.max_violation <= 1e-12


def pointwise_domination_report(op, f):
    """Check the component-subset and factor-two dominations cell by cell,
    at orders 0, 1 and 2 on the ladder spanning the operator's grid."""
    tg = TimeGrid.spanning(op.grid)
    grid = op.grid

    def cone_of(mags):
        return cone_functional(UpperHalfField(grid, tg, mags), 1.0).values.real

    worst = {"heat": 0.0, "poisson": 0.0}
    heat_zero_time = heat_zero_full = None
    for semigroup in ("heat", "poisson"):
        for m in (0, 1, 2):
            comps = op.ladder(semigroup, m, "full", tg.levels, f)
            sq = np.abs(comps) ** 2
            g_mags = np.sqrt(sq[:, : grid.n].sum(axis=1))
            full_mags = np.sqrt(sq.sum(axis=1))
            gap = cone_of(g_mags) - cone_of(full_mags)
            worst[semigroup] = max(worst[semigroup], float(gap.max()))
            if semigroup == "heat" and m == 0:
                heat_zero_time, heat_zero_full = np.abs(comps[:, -1]), full_mags

    # t d/dt e^{-t^2 L} = -2 (t^2 L) e^{-t^2 L}: the order-one s-integrand
    # is half the time component of the order-zero space-time gradient
    s_mags = np.abs(op.ladder("heat", 1, "none", tg.levels, f)[:, 0])
    ident = float(np.abs(s_mags - 0.5 * heat_zero_time).max())
    s_gap = cone_of(s_mags) - 2.0 * cone_of(heat_zero_full)

    return DominationReport(
        gradient_violation_heat=float(max(0.0, worst["heat"])),
        gradient_violation_poisson=float(max(0.0, worst["poisson"])),
        s_vs_gcal_heat=float(max(0.0, s_gap.max())),
        time_identity_error=ident,
    )
