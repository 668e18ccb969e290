"""Seeded experiment harness and command-line surface.

Each experiment builds a ResultTable whose rows carry a measured value, the
reference it is held against, that reference's provenance (paper, derived,
or fitted), a tolerance, and a verdict. Rows whose parameters fall outside
the analytically checked weight classes are emitted as info, never as fail:
nothing is asserted where the hypotheses do not hold.

Two protocols, each written once. Fitted constant (_fit_holdout): the
constant is fitted on the first half of the samples, rounded down, and
asserted on the rest; where the class is not certain, one info row carries
the worst ratio instead. Refinement stability (_drift_rows): a quantity counts as
bounded when its value at N is finite and stays within the configured drift
factor of its value at N/2.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from typing import get_args

import numpy as np

from .grid import (
    Grid,
    TimeGrid,
    UpperHalfField,
    GridFunction,
    ball_cells,
    lp_norm_weighted,
)
from .weights import (
    BallFamily,
    Weight,
    admissible_interval,
    hl_maximal,
    p_plus_Kstar,
    power_weight_exponents,
    power_weight_in_Ar,
    power_weight_in_RHs,
)
from .elliptic import (
    CoefficientField,
    assemble,
    offdiagonal_opnorm,
)
from . import squarefn, tent


class ConfigError(ValueError):
    """Bad configuration or usage; the CLI maps this to exit code 2."""


_LOWER_BOUNDS = (
    ("samples", ">=", 2), ("p", ">", 0), ("p0", ">", 0),
    ("t", ">", 0), ("order", ">=", 0), ("tol", ">", 0),
    ("drift", ">", 0), ("margin", ">", 0), ("p_list", ">", 0),
    ("apertures", ">", 0), ("r", ">=", 1), ("s", ">=", 1),
    ("radius", ">", 0), ("seed", ">=", 0),
)


def _parse_scalar(key, kind, value):
    """value parsed as kind: int, float, a tuple of floats, or else str."""
    try:
        if kind is int:
            return int(value)
        if kind is float:
            value = float(value)
        elif kind is tuple:
            value = tuple(float(x) for x in value.split(",") if x.strip())
        else:
            return value
    except ValueError:
        raise ConfigError(f"cannot parse {key} = {value!r}") from None
    if value == ():
        raise ConfigError(f"{key} needs at least one entry")
    # inf clears every lower bound, and as a tolerance it passes any check
    for v in value if isinstance(value, tuple) else (value,):
        if not math.isfinite(v):
            raise ConfigError(f"{key} = {v} must be finite")
    return value


@dataclass
class ExperimentConfig:
    """Flat key = value configuration; unknown keys are rejected.

    Only seed is mandatory. Every other key has an experiment-specific
    default so a one-line config runs anything.
    """

    seed: int
    experiment: str | None = None
    preset: str = "laplace"
    coeff_file: str | None = None
    n: int | None = None
    N: int | None = None
    t0: float | None = None
    ratio: float | None = None
    levels: int | None = None
    theta: float = 0.0
    center: tuple | None = None
    p: float = 2.0
    p0: float | None = None
    r: float | None = None
    s: float | None = None
    apertures: tuple | None = None
    p_list: tuple = (1.5, 2.0, 4.0)
    separations: tuple | None = None
    radius: float = 0.04
    t: float | None = None
    samples: int | None = None
    order: int = 0
    tol: float = 0.10
    drift: float = 1.25
    margin: float = 1.5
    branch: str | None = None
    family: str | None = None
    out: str | None = None

    def __post_init__(self):
        for key, op, bound in _LOWER_BOUNDS:
            value = getattr(self, key)
            # a tuple key bounds every entry
            for v in value if isinstance(value, tuple) else (value,):
                if v is not None and not (v >= bound if op == ">=" else v > bound):
                    raise ConfigError(f"{key} = {v} must be {op} {bound}")

    @classmethod
    def parse(cls, text="", overrides=()):
        raw = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"config line {lineno}: expected key = value")
            key, value = line.split("=", 1)
            raw[key.strip()] = value.strip()
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"--set needs key=value, got {item!r}")
            key, value = item.split("=", 1)
            raw[key.strip()] = value.strip()
        # each key parses to its field's annotation, X or X | None
        kinds = {f.name: next(t for t in get_args(f.type) or (f.type,)
                              if t is not type(None))
                 for f in fields(cls)}
        for key in raw:
            if key not in kinds:
                raise ConfigError(f"unknown config key {key!r}")
        if "seed" not in raw:
            raise ConfigError("seed is mandatory")
        return cls(**{k: _parse_scalar(k, kinds[k], v) for k, v in raw.items()})

    # ------------------------------------------------------------ builders

    def build_grid(self, default_n=1, default_N=32):
        n = self.n if self.n is not None else default_n
        N = self.N if self.N is not None else default_N
        try:
            return Grid(n, N)
        except ValueError as exc:
            raise ConfigError(f"n = {n}, N = {N}: {exc}") from None

    def build_grid_pair(self, default_n):
        """The run's grid (N defaults to 32) and its N/2 partner, coarse first."""
        grid = self.build_grid(default_n)
        if grid.N < 16:
            raise ConfigError(f"N = {grid.N}: this run also uses N/2, so N must be >= 16")
        return grid.coarsen(), grid

    def build_operator(self, grid):
        if self.coeff_file is not None:
            try:
                coeff = CoefficientField.from_file(self.coeff_file)
            except (OSError, ValueError) as exc:
                raise ConfigError(str(exc)) from None
            if (coeff.grid.n, coeff.grid.N) != (grid.n, grid.N):
                raise ConfigError(
                    f"coefficient file is sampled at n={coeff.grid.n}, "
                    f"N={coeff.grid.N}; this run needs n={grid.n}, N={grid.N}"
                )
        else:
            try:
                coeff = CoefficientField.preset(grid, self.preset)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        try:
            return assemble(grid, coeff)
        except (ValueError, RuntimeError) as exc:
            raise ConfigError(str(exc)) from None

    def build_tgrid(self, grid):
        if self.t0 is None and self.ratio is None and self.levels is None:
            return TimeGrid.spanning(grid)
        if None in (self.t0, self.ratio, self.levels):
            raise ConfigError("a custom time grid needs t0, ratio, and levels")
        try:
            return TimeGrid.geometric(grid, self.t0, self.ratio, self.levels)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def build_weight(self, grid):
        if self.theta != 0.0 and not self.theta < grid.n:
            raise ConfigError(f"theta = {self.theta} must stay below n = {grid.n}")
        try:
            return Weight.power_law(grid, self.theta, self.center)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def count(self, default):
        return self.samples if self.samples is not None else default

    @property
    def identity(self):
        """Identity coefficients, the one case whose exponent range is certain."""
        return self.coeff_file is None and self.preset == "laplace"


# --------------------------------------------------------------- results


_VERDICTS = ("pass", "fail", "info")
_PROVENANCE = ("paper", "derived", "fitted")
CSV_COLUMNS = (
    "experiment", "param_json", "measured", "reference",
    "provenance", "tolerance", "verdict",
)


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    params: dict
    measured: float
    reference: float
    provenance: str
    tolerance: float
    verdict: str

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise ValueError(f"verdict must be one of {_VERDICTS}")
        if self.provenance not in _PROVENANCE:
            raise ValueError(f"provenance must be one of {_PROVENANCE}")


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)

    def add(self, experiment, params, measured, reference, provenance,
            tolerance, verdict):
        self.rows.append(ResultRow(
            experiment, dict(params), float(measured), float(reference),
            provenance, float(tolerance), verdict,
        ))

    def info(self, experiment, params, measured, provenance="derived"):
        self.add(experiment, params, measured, math.nan, provenance,
                 math.nan, "info")

    def extend(self, other):
        self.rows.extend(other.rows)

    @property
    def counts(self):
        out = {v: 0 for v in _VERDICTS}
        for row in self.rows:
            out[row.verdict] += 1
        return out

    @property
    def all_pass(self):
        return self.counts["fail"] == 0

    def to_csv(self):
        buf = io.StringIO()
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        buf.write(f"# generated {stamp}\n")
        writer = csv.writer(buf, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in self.rows:
            writer.writerow([
                row.experiment,
                json.dumps(row.params, sort_keys=True),
                row.measured,
                row.reference,
                row.provenance,
                row.tolerance,
                row.verdict,
            ])
        return buf.getvalue()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


# ------------------------------------------------------------- sampling


def _generators(seed, count):
    """count generators spawned from seed, in spawn order."""
    # sample i draws from the i-th spawned generator, so its field is the
    # same for every count
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _map_samples(fn, seed, count):
    """fn applied to count generators spawned from seed, in spawn order."""
    return [fn(rng) for rng in _generators(seed, count)]


def _rand_complex(rng, out):
    """out filled with complex normal values: every real part drawn first,
    then every imaginary part."""
    out.real = rng.standard_normal(out.shape)
    out.imag = rng.standard_normal(out.shape)
    return out


def _rand_field(grid, tgrid, rng):
    values = np.empty((len(tgrid.levels), *grid.shape), dtype=complex)
    return UpperHalfField(grid, tgrid, _rand_complex(rng, values))


def _rand_batch(grid, seed, count):
    """Batch (count, *grid.shape) of complex normal fields, field i drawn
    from the i-th generator spawned from seed."""
    out = np.empty((count, *grid.shape), dtype=complex)
    for field, rng in zip(out, _generators(seed, count)):
        _rand_complex(rng, field)
    return out


def _fit_holdout(table, experiment, params, ratios, margin, note=None):
    """One fitted-constant row pair: the constant, then the holdout verdict.

    ratios holds one entry per sample, a ratio or a row of ratios; the fit
    takes the first half of the samples, rounded down, so no sample's field
    lies on both sides. A note marks the class as not certain: then a single
    info row, tagged with the note, carries the worst ratio and nothing is
    asserted.
    """
    rows = np.asarray(ratios, dtype=float).reshape(len(ratios), -1)
    if note is not None:
        table.info(experiment, {**params, "note": note}, rows.max())
        return
    half = max(1, len(rows) // 2)
    report = tent.fitted_bound_report(rows[:half].ravel(), rows[half:].ravel(),
                                      margin=margin)
    table.info(experiment, {**params, "stat": "fitted_constant"},
               report.constant, provenance="fitted")
    table.add(experiment, {**params, "stat": "holdout_max"},
              report.holdout_max, report.constant, "fitted", margin,
              "pass" if report.ok else "fail")


def _drift_rows(table, experiment, params, N, fine, coarse, drift, certain=True):
    """One refinement-stability row pair: the value at N/2, then the value at
    N held against drift times it. A value that is not finite fails; where
    the class is not certain the verdict is info."""
    table.info(experiment, {**params, "N": N // 2}, coarse)
    if not certain:
        verdict = "info"
    else:
        verdict = "pass" if math.isfinite(fine) and fine <= drift * coarse else "fail"
    table.add(experiment, {**params, "N": N}, fine, coarse, "derived", drift, verdict)


# ------------------------------------------------------------ sharpness


def run_sharpness(cfg):
    """Growth of the weighted cone norm of the reference indicator profile."""
    n = cfg.n if cfg.n is not None else 2
    if n not in (1, 2):
        raise ConfigError("sharpness runs need n in {1, 2}")
    if not cfg.theta < n:
        raise ConfigError(f"theta = {cfg.theta} must stay below n = {n}")
    p = cfg.p
    alphas = cfg.apertures if cfg.apertures is not None else (1.0, 2.0, 4.0, 8.0, 16.0)
    if len(set(alphas)) < 2:
        raise ConfigError("need at least two apertures that differ to fit a slope")
    table = ResultTable()
    vals = []
    for alpha in alphas:
        v = tent.continuous_cone_on_indicator(alpha, p, cfg.theta, n)
        vals.append(v)
        table.info("sharpness",
                   {"alpha": alpha, "n": n, "p": p, "theta": cfg.theta}, v)
    slope = float(np.polyfit(np.log(alphas), np.log(vals), 1)[0])
    expect = (n - cfg.theta) / p
    verdict = "pass" if abs(slope - expect) <= cfg.tol * expect else "fail"
    table.add("sharpness",
              {"stat": "loglog_slope", "n": n, "p": p, "theta": cfg.theta},
              slope, expect, "paper", cfg.tol, verdict)
    return table


# ------------------------------------------------------- change of angle


def run_change_of_angle(cfg):
    """Aperture growth/decay rates of the discrete cone in weighted norms."""
    if cfg.branch not in ("i", "ii"):
        raise ConfigError("angles runs need branch = i or ii")
    grid = cfg.build_grid(default_n=2, default_N=32)
    tgrid = cfg.build_tgrid(grid)
    weight = cfg.build_weight(grid)
    p = cfg.p
    alphas = sorted(set(cfg.apertures if cfg.apertures is not None else (0.25, 0.5, 1.0)))
    if len(alphas) < 2:
        raise ConfigError("need at least two apertures that differ to compare")
    top = max(tgrid.levels)
    if max(alphas) * top > 0.5 + 1e-12:
        raise ConfigError(
            f"aperture {max(alphas)} with top level {top:.4g} wraps the torus"
        )
    if cfg.branch == "i":
        r = cfg.r if cfg.r is not None else 2.0
        if not power_weight_in_Ar(cfg.theta, grid.n, r):
            raise ConfigError(f"w_theta with theta = {cfg.theta} is not in A_{r}")
        if not p <= 2 * r:
            raise ConfigError(f"branch (i) needs p <= 2r, got p = {p}, r = {r}")
        exponent = grid.n * r / p
        label = {"branch": "i", "r": r}
    else:
        s = cfg.s if cfg.s is not None else 2.0
        s_conj = math.inf if s == 1 else s / (s - 1)
        if not power_weight_in_RHs(cfg.theta, grid.n, s_conj):
            raise ConfigError(f"w_theta with theta = {cfg.theta} is not in RH_{{s'}}")
        if not p >= 2 / s:
            raise ConfigError(f"branch (ii) needs p >= 2/s, got p = {p}, s = {s}")
        exponent = grid.n / (s * p)
        label = {"branch": "ii", "s": s}
    pairs = [(a, b) for i, a in enumerate(alphas) for b in alphas[i + 1:]]

    def one(rng):
        F = _rand_field(grid, tgrid, rng)
        norms = {
            a: lp_norm_weighted(
                tent.cone_functional(F, a), weight.values, p)
            for a in alphas
        }
        out = []
        for a, b in pairs:
            if cfg.branch == "i":
                out.append((norms[b] / norms[a]) / (b / a) ** exponent)
            else:
                out.append((norms[a] / norms[b]) / (a / b) ** exponent)
        return out

    rows = _map_samples(one, cfg.seed, cfg.count(20))
    table = ResultTable()
    params = {**label, "n": grid.n, "N": grid.N, "p": p, "theta": cfg.theta,
              "exponent": exponent, "apertures": list(alphas)}
    _fit_holdout(table, "angles", params, rows, cfg.margin)
    return table


# -------------------------------------------------------- carleson suite


def run_carleson_suite(cfg):
    """Equivalence bracket of the two box functionals plus the two-sided
    comparability of cone and box averages."""
    p0 = cfg.p0 if cfg.p0 is not None else 1.2
    p = cfg.p
    if not p0 < p:
        raise ConfigError(f"the reverse comparison needs p0 < p, got {p0} >= {p}")
    count = cfg.count(50)
    table = ResultTable()

    coarse_grid, grid = cfg.build_grid_pair(default_n=2)
    N = grid.N

    def spanning(grid):
        return TimeGrid.spanning(grid), BallFamily.dense_dyadic(grid)

    def bracket(tgrid, fam, seed):
        def one(rng):
            F = _rand_field(tgrid.grid, tgrid, rng)
            a = tent.carleson_functional(F, 2.0, fam).values.real
            b = tent.carleson_p0(F, 2.0, 2.0, fam).values.real
            return float((b / a).max()), float((a / b).max())

        out = _map_samples(one, seed, count)
        return max(x for x, _ in out), max(y for _, y in out)

    hi_coarse, lo_coarse = bracket(*spanning(coarse_grid), cfg.seed + 1)
    tgrid, fam = spanning(grid)
    hi, lo = bracket(tgrid, fam, cfg.seed)
    for name, fine, coarse in (("ratio_hi", hi, hi_coarse),
                               ("ratio_lo", lo, lo_coarse)):
        _drift_rows(table, "carleson", {"stat": name}, N, fine, coarse, cfg.drift)

    # the zero field sends every functional to zero
    zero = UpperHalfField(grid, tgrid, np.zeros((len(tgrid.levels), *grid.shape)))
    z = float(np.abs(tent.carleson_functional(zero, 2.0, fam).values).max())
    table.info("carleson", {"stat": "zero_field"}, z)

    weight = cfg.build_weight(grid)
    in_class = power_weight_in_Ar(cfg.theta, grid.n, p / p0)

    def one(rng):
        F = _rand_field(grid, tgrid, rng)
        na = lp_norm_weighted(tent.cone_functional(F, 1.0), weight.values, p)
        nc = lp_norm_weighted(tent.carleson_p0(F, 2.0, p0, fam), weight.values, p)
        return na / nc, nc / na

    out = _map_samples(one, cfg.seed + 2, count)
    base = {"p0": p0, "p": p, "theta": cfg.theta, "N": N}
    # outside A_{p/p0} the two-sided comparison carries no claim
    note = None if in_class else "w outside A_{p/p0}"
    for direction, ratios in (("cone_over_box", [x for x, _ in out]),
                              ("box_over_cone", [y for _, y in out])):
        _fit_holdout(table, "carleson", {**base, "direction": direction},
                     ratios, cfg.margin, note)
    return table


# ------------------------------------------------------- cp vs maximal


_CP_INTEGRANDS = {
    "semigroup": "s_h",
    "gradient": "g_h",
    "full_gradient": "gcal_h",
}


def run_cp_vs_maximal(cfg):
    """Box functional of the semigroup integrands against the p0-maximal
    function, pointwise over cells."""
    p0 = cfg.p0 if cfg.p0 is not None else 1.5
    count = cfg.count(20)
    coarse_grid, grid = cfg.build_grid_pair(default_n=1)
    N = grid.N
    # the range p_-(L) < p0 <= 2 is certain for the identity preset; for
    # other coefficients the lower endpoint is only bracketed, so anything
    # below 2 is reported rather than asserted
    in_range = 1.0 < p0 <= 2.0 if cfg.identity else p0 == 2.0
    table = ResultTable()

    def build(grid):
        return cfg.build_operator(grid), BallFamily.dense_dyadic(grid)

    def max_ratios(op, fam, seed):
        fields = _rand_batch(op.grid, seed, count)
        maximal = [hl_maximal(GridFunction(op.grid, f), p0, fam) for f in fields]
        names = list(_CP_INTEGRANDS)
        specs = [squarefn.SquareFunctionSpec(_CP_INTEGRANDS[name]) for name in names]
        out = {name: [None] * count for name in names}
        for i, b, F in squarefn.integrands(op, specs, fields):
            C = tent.carleson_p0(F, 2.0, p0, fam).values.real
            out[names[i]][b] = float((C / maximal[b]).max())
        return out

    coarse = max_ratios(*build(coarse_grid), cfg.seed + 1)
    op, fam = build(grid)
    fine = max_ratios(op, fam, cfg.seed)
    note = None if in_range else "p0 outside the certain range"
    for name in _CP_INTEGRANDS:
        params = {"integrand": name, "p0": p0, "preset": cfg.preset}
        _fit_holdout(table, "cp-maximal", params, fine[name], cfg.margin, note)
        _drift_rows(table, "cp-maximal", {**params, "stat": "max_ratio"}, N,
                    max(fine[name]), max(coarse[name]), cfg.drift, in_range)

    # L1 = 0 holds up to rounding, so the box side of a constant input sits
    # at rounding-noise level
    spec = squarefn.SquareFunctionSpec("s_h")
    F = squarefn.integrand_field(op, [spec], np.ones((1, *grid.shape)))[0][0]
    cval = float(np.abs(tent.carleson_p0(F, 2.0, p0, fam).values).max())
    table.info("cp-maximal", {"stat": "constant_input", "p0": p0}, cval)
    return table


# --------------------------------------------------------- off-diagonal


_OFFDIAG_FAMILIES = (
    # label, semigroup, derivative; heat members are held to the Gaussian
    # model, Poisson members to a minimum polynomial order
    ("heat", "heat", "none"),
    ("heat_gradient", "heat", "spatial"),
    ("poisson", "poisson", "none"),
    ("poisson_gradient", "poisson", "spatial"),
)


def run_offdiagonal(cfg):
    """Decay-model comparison for restricted norms between separated sets."""
    grid = cfg.build_grid(default_n=1, default_N=64)
    op = cfg.build_operator(grid)
    t = cfg.t if cfg.t is not None else 0.1
    seps = cfg.separations if cfg.separations is not None else (
        0.12, 0.18, 0.24, 0.30, 0.36, 0.42)
    radius = cfg.radius
    for d in seps:
        # beyond 1/2 the torus distance wraps back below d
        if not 2 * radius < d <= 0.5:
            raise ConfigError(
                f"separation {d} is outside (2 radius, 1/2] = ({2 * radius:g}, 0.5]: "
                f"sets of radius {radius} would not be disjoint, or their distance "
                "would wrap the torus"
            )
    if len(set(seps)) < 3:
        raise ConfigError("need at least three separations that differ to compare models")
    # E at the anchor, each F shifted from it by d along the first axis
    anchor, axis0 = np.full(grid.n, 0.25), np.eye(grid.n)[0]
    E, *Fs = (ball_cells(grid, anchor + d * axis0, radius) for d in (0.0, *seps))
    if any(cells.size == 0 for cells in (E, *Fs)):
        raise ConfigError(f"radius {radius} captures no cell at N = {grid.N}")
    order = cfg.order
    x_exp = (np.asarray(seps) / t) ** 2
    x_pol = np.log1p(x_exp)
    table = ResultTable()
    for label, family, derivative in _OFFDIAG_FAMILIES:
        vals = offdiagonal_opnorm(op, family, order, derivative, t, E, Fs)
        for d, v in zip(seps, vals):
            table.info("offdiag", {"family": label, "order": order,
                                   "d": d, "t": t}, v)
        y = np.log(vals)
        fit_exp = np.polyfit(x_exp, y, 1)
        slope_exp = fit_exp[0]
        rss_exp = float(((y - np.polyval(fit_exp, x_exp)) ** 2).sum())
        fit_pol = np.polyfit(x_pol, y, 1)
        rss_pol = float(((y - np.polyval(fit_pol, x_pol)) ** 2).sum())
        poly_order = -float(fit_pol[0])
        prefers = "exp" if rss_exp < rss_pol else "poly"
        base = {"family": label, "order": order, "t": t}
        table.info("offdiag", {**base, "stat": "model_preference",
                               "prefers": prefers},
                   rss_exp / rss_pol)
        if family == "heat":
            ok = prefers == "exp" and slope_exp <= -0.125
            table.add("offdiag", {**base, "stat": "exp_slope"},
                      float(slope_exp), -0.125, "derived", 0.0,
                      "pass" if ok else "fail")
        else:
            # Poisson kernels decay polynomially: order K + 1/2 for the
            # member, K + 1 for its gradient
            want = order + (1.0 if derivative == "spatial" else 0.5)
            ok = poly_order >= want - 0.5
            table.add("offdiag", {**base, "stat": "poly_order"},
                      poly_order, want, "paper", 0.5,
                      "pass" if ok else "fail")
    return table


# --------------------------------------------------------- boundedness


def run_boundedness(cfg):
    """Weighted norm ratios of the square functions under refinement."""
    families = [cfg.family] if cfg.family else sorted(squarefn.FAMILIES)
    for family in families:
        if family not in squarefn.FAMILIES:
            raise ConfigError(f"unknown square function family {family!r}")
    p_list = cfg.p_list
    count = cfg.count(20)
    coarse_grid, grid = cfg.build_grid_pair(default_n=1)
    N, n = grid.N, grid.n
    table = ResultTable()

    def sups(grid, seed):
        op = cfg.build_operator(grid)
        weight = cfg.build_weight(grid)
        fields = _rand_batch(grid, seed, count)
        norms = [{p: lp_norm_weighted(GridFunction(grid, f), weight.values, p) for p in p_list}
                 for f in fields]
        specs = [squarefn.SquareFunctionSpec(family) for family in families]
        rows = {family: [None] * count for family in families}
        for i, b, F in squarefn.integrands(op, specs, fields):
            Sf = tent.cone_functional(F, 1.0)
            rows[families[i]][b] = {p: lp_norm_weighted(Sf, weight.values, p) / norms[b][p]
                                    for p in p_list}
        return {family: {p: max(row[p] for row in rows[family]) for p in p_list}
                for family in families}

    coarse = sups(coarse_grid, cfg.seed + 1)
    fine = sups(grid, cfg.seed)
    for family in families:
        for p in p_list:
            # pass/fail needs a certain weight class: identity coefficients
            # put every p > 1 in range when w_theta is in A_p (A_p needs
            # p >= 1, and the range is open at p_-(L) = 1); other presets
            # are certain only at p = 2 with the flat weight, and their
            # Poisson rows stay informational because the upper endpoint is
            # only bracketed
            if cfg.identity:
                certain = p > 1 and power_weight_in_Ar(cfg.theta, n, p)
            else:
                certain = (p == 2.0 and cfg.theta == 0.0
                           and not family.endswith("_p"))
            params = {"family": family, "p": p, "theta": cfg.theta,
                      "preset": cfg.preset, "stat": "sup_ratio"}
            _drift_rows(table, "boundedness", params, N, fine[family][p],
                        coarse[family][p], cfg.drift, certain)
    return table


# --------------------------------------------------------- comparisons


_COMPARISON_PAIRS = (
    ("s_h2_vs_s_h1", ("s_h", 2), ("s_h", 1)),
    ("gcal_h2_vs_s_h1", ("gcal_h", 2), ("s_h", 1)),
    ("s_p1_vs_s_h1", ("s_p", 1), ("s_h", 1)),
    ("gcal_p_vs_gcal_h", ("gcal_p", 0), ("gcal_h", 0)),
)


def run_comparisons(cfg):
    """Norm comparisons across orders and semigroups with fitted constants."""
    grid = cfg.build_grid(default_n=2, default_N=16)
    op = cfg.build_operator(grid)
    weight = cfg.build_weight(grid)
    p = cfg.p
    count = cfg.count(20)
    r_w, s_w = power_weight_exponents(cfg.theta, grid.n)
    table = ResultTable()
    # every pair compares on the same seeded fields, so each distinct square
    # function is evaluated once per field and the ratios share its norm
    keys = list(dict.fromkeys(key for _, top, bottom in _COMPARISON_PAIRS
                              for key in (top, bottom)))
    specs = [squarefn.SquareFunctionSpec(*key) for key in keys]
    samples = [{} for _ in range(count)]
    for i, b, F in squarefn.integrands(op, specs, _rand_batch(grid, cfg.seed, count)):
        Sf = tent.cone_functional(F, 1.0)
        samples[b][keys[i]] = lp_norm_weighted(Sf, weight.values, p)
    for label, top, bottom in _COMPARISON_PAIRS:
        ratios = [norm[top] / norm[bottom] for norm in samples]
        params = {"pair": label, "p": p, "theta": cfg.theta, "N": grid.N}
        if cfg.identity:
            # identity coefficients: lower exponent 1, upper infinite, and
            # the Poisson star exponent stays infinite at every K
            if squarefn.FAMILIES[top[0]][0] == "poisson":
                upper = p_plus_Kstar(math.inf, top[1], grid.n)
            else:
                upper = math.inf
            lo, hi = admissible_interval(1.0, upper, r_w, s_w)
            certain = lo < p < hi
        else:
            certain = False
        _fit_holdout(table, "comparisons", params, ratios, cfg.margin,
                     None if certain else "range not certain for this preset")
    return table


# ----------------------------------------------------------------- CLI


EXPERIMENTS = {
    "sharpness": run_sharpness,
    "angles": run_change_of_angle,
    "carleson": run_carleson_suite,
    "cp-maximal": run_cp_vs_maximal,
    "offdiag": run_offdiagonal,
    "boundedness": run_boundedness,
    "comparisons": run_comparisons,
}


def run_all(cfg):
    table = ResultTable()
    for name in EXPERIMENTS:
        if name == "angles" and cfg.branch is None:
            for branch in ("i", "ii"):
                sub = ExperimentConfig(**{**cfg.__dict__, "branch": branch})
                table.extend(run_change_of_angle(sub))
            continue
        table.extend(EXPERIMENTS[name](cfg))
    return table


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="conical-lab",
        description="seeded numerical experiments emitting CSV verdict tables",
    )
    parser.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    parser.add_argument("--config", help="flat key = value file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    parser.add_argument("--out", help="output directory for the CSV table")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        text = ""
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}")
        cfg = ExperimentConfig.parse(text, args.overrides)
        if (cfg.experiment is not None and args.experiment != "all"
                and cfg.experiment != args.experiment):
            raise ConfigError(
                f"config names experiment {cfg.experiment!r} but the command "
                f"line asked for {args.experiment!r}"
            )
        if args.experiment not in ("angles", "all"):
            # only angles runs build a custom time grid
            ignored = [k for k in ("t0", "ratio", "levels") if getattr(cfg, k) is not None]
            if ignored:
                raise ConfigError(
                    f"{', '.join(ignored)} only apply to angles runs, "
                    f"not to {args.experiment}"
                )
        runner = run_all if args.experiment == "all" else EXPERIMENTS[args.experiment]
        table = runner(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out if args.out is not None else (cfg.out or ".")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.experiment}.csv")
    table.write(path)
    counts = table.counts
    print(f"{args.experiment}: {counts['pass']} pass, {counts['fail']} fail, "
          f"{counts['info']} info -> {path}")
    return 0 if table.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
