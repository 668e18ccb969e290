"""Conical square functions built from semigroup integrands.

Six families share one recipe: build the upper-half-space field of integrand
magnitudes along a geometric time ladder, then send it through the aperture
cone with q = 2. The s-families square the semigroup member itself, the
g-families its scaled spatial gradient, and the gcal-families the full
space-time gradient (n + 1 components).

A batch of fields is evaluated per semigroup: on the matrix tiers one walk
of the heat ladder and one of the Poisson ladder serve every requested
square function of that semigroup and every field of the batch
(integrands); the fft tier goes one square function and one field at a
time.
"""

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, TimeGrid, UpperHalfField
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


# integrand kind -> the derivative of the member it takes
_DERIVATIVES = {"s": "none", "g": "spatial", "gcal": "full"}


def integrand_field(op, specs, fields):
    """UpperHalfFields of pointwise integrand magnitudes, [spec][field], for
    square functions of one semigroup on every field of a batch
    (B, *grid.shape).

    The members come from one walk of the semigroup's ladder (op.ladders) on
    the direct route, the spectral or dense calculus of the operator, for
    heat and Poisson alike.
    """
    semigroup = FAMILIES[specs[0].family][0]
    if any(FAMILIES[spec.family][0] != semigroup for spec in specs):
        raise ValueError("integrand_field takes square functions of one semigroup")
    tg = TimeGrid.spanning(op.grid)
    kinds = [FAMILIES[spec.family][1] for spec in specs]
    members = [(spec.order, _DERIVATIVES[kind]) for spec, kind in zip(specs, kinds)]
    ladders = op.ladders(semigroup, members, tg.levels, fields)
    out = []
    for k, kind in enumerate(kinds):
        comps, ladders[k] = ladders[k], None
        if kind == "s":
            mags = np.abs(comps[:, 0])
        else:
            mags = np.sqrt((np.abs(comps) ** 2).sum(axis=1))
        out.append([UpperHalfField(op.grid, tg, mags[:, b]) for b in range(len(fields))])
    return out


def integrands(op, specs, fields):
    """Yield (i, b, F): F is the integrand field of specs[i] on fields[b],
    for every spec and every field of a batch (B, *grid.shape).

    The matrix tiers make one integrand_field call per semigroup on the
    whole batch, where a matrix product serves every field at once, and the
    heat fields are yielded before the Poisson walk starts. The fft tier
    calls it with one spec and one field at a time, as a batch there would
    only hold every field's ladder at once, with no matrix to share.
    """
    if op.report.tier == "fft":
        for i, spec in enumerate(specs):
            for b in range(len(fields)):
                yield i, b, integrand_field(op, [spec], fields[b:b + 1])[0][0]
        return
    for semigroup in ("heat", "poisson"):
        idx = [i for i, spec in enumerate(specs) if FAMILIES[spec.family][0] == semigroup]
        if not idx:
            continue
        for i, per_field in zip(idx, integrand_field(op, [specs[i] for i in idx], fields)):
            for b, F in enumerate(per_field):
                yield i, b, F


def evaluate(op, spec, f):
    """The conical square function of f, a GridFunction or a grid-shaped
    array, as a grid function."""
    values = f.values if isinstance(f, GridFunction) else np.asarray(f)
    F = integrand_field(op, [spec], values[None])[0][0]
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

    # one walk per semigroup: the full gradients at orders 0, 1 and 2, and
    # for heat the order-one s-integrand
    full = [(m, "full") for m in (0, 1, 2)]
    heat = op.ladders("heat", full + [(1, "none")], tg.levels, f)
    poisson = op.ladders("poisson", full, tg.levels, f)
    worst = {"heat": 0.0, "poisson": 0.0}
    heat_zero_full = None
    for semigroup, ladders in (("heat", heat[:3]), ("poisson", poisson)):
        for comps in ladders:
            sq = np.abs(comps) ** 2
            g_mags = np.sqrt(sq[:, : grid.n].sum(axis=1))
            full_mags = np.sqrt(sq.sum(axis=1))
            gap = cone_of(g_mags) - cone_of(full_mags)
            worst[semigroup] = max(worst[semigroup], float(gap.max()))
            if heat_zero_full is None:  # heat at order zero comes first
                heat_zero_full = full_mags

    # t d/dt e^{-t^2 L} = -2 (t^2 L) e^{-t^2 L}: the order-one s-integrand
    # is half the time component of the order-zero space-time gradient
    s_mags = np.abs(heat[3][:, 0])
    ident = float(np.abs(s_mags - 0.5 * np.abs(heat[0][:, -1])).max())
    s_gap = cone_of(s_mags) - 2.0 * cone_of(heat_zero_full)

    return DominationReport(
        gradient_violation_heat=float(max(0.0, worst["heat"])),
        gradient_violation_poisson=float(max(0.0, worst["poisson"])),
        s_vs_gcal_heat=float(max(0.0, s_gap.max())),
        time_identity_error=ident,
    )
