"""Independent output checks, one list of named operations per workload.

Every reference here is computed apart from the program: torus distances,
ball membership, the five-point stencil and the semigroups are rebuilt from
their definitions. The program is only called to produce the value under
test. Each check returns (name, ok, detail); its error budget is stated
next to it and in the README. A check of the round's CSV returns ok None
when the experiment wrote none.

References:
- box functionals: a per-ball loop over every centre and dyadic radius,
  with cone values summed cell by cell (no FFT);
- single Fourier modes of the five-point Laplacian: the square-function
  integrands are constant in space, so each cone value is a closed form in
  the symbol sum_j 4 sin^2(pi k_j h) / h^2 and a count of ball cells;
- the heat semigroup of the benchmark's own sparse stencil through
  scipy.sparse.linalg.expm_multiply (Al-Mohy & Higham 2011), directly or
  at small base times followed by repeated squaring of dense matrices;
- the Poisson semigroup through the subordination integral
      e^{-t sqrt(L)} = int_0^inf t / (2 sqrt(pi)) s^{-3/2} e^{-t^2/(4s)} e^{-sL} ds
  on the mean-free part, by the trapezoid rule in log s over that heat
  reference (the mean passes unchanged because L annihilates constants and
  1^T L = 0).
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from conical_lab import squarefn, tent
from conical_lab.grid import Grid, GridFunction, TimeGrid, UpperHalfField
from conical_lab.weights import BallFamily

# error budgets, each over a hundred times the worst error seen over the
# twenty seeds 401-420 (in brackets); see each check for what the error is
# relative to
BOX_RTOL = 1e-12        # [5.9e-16] FFT ball sums against exact loops
MODE_RTOL = 1e-11       # [4.1e-14] Hermitian eigen tier against closed forms
HEAT_RTOL = 1e-12       # [7.0e-16] dense expm against expm_multiply
MEAN_ATOL = 1e-13       # [4.8e-16] mean drift of the heat family
CONST_ATOL = 1e-10      # [4.0e-13] heat family on a constant
POISSON_RTOL = 1e-11    # [3.4e-14] dense sqrtm route against subordination
COMPARE_RTOL = 1e-12    # [6.4e-15] comparisons ratios against the references
OFFDIAG_RTOL = 1e-8     # [2.2e-11] power iteration against an exact SVD


def _check(name, err, budget):
    ok = bool(np.isfinite(err) and err <= budget)
    return name, ok, f"error {err:.2e}, budget {budget:.0e}"


# ------------------------------------------------------------- geometry


def cell_centers(n, N):
    """(N^n, n) row-major cell centres (i + 1/2) h."""
    idx = np.indices((N,) * n).reshape(n, -1).T
    return (idx + 0.5) / N


def torus_dist(x, y):
    """Min-image Euclidean distance; x (a, n) and y (b, n) give (a, b)."""
    d = np.abs(x[:, None, :] - y[None, :, :])
    d = np.minimum(d, 1.0 - d)
    return np.sqrt((d * d).sum(axis=-1))


def dyadic_radii(N):
    radii, r = [], 2.0 / N
    while r <= 0.5 + 1e-15:
        radii.append(r)
        r *= 2
    return radii


# ------------------------------------------------------------------ box


def sample_field(seed, count, index, shape):
    """Array number index of the count complex normal arrays of the given
    shape that vericli draws from seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(count)[index])
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def brute_box(values, levels, n, N, q, p0_list):
    """Per-ball loop: the box functional and the L^p0 cone-average box
    functional for each p0, as flat arrays over cells."""
    h = 1.0 / N
    dlog = math.log(levels[1] / levels[0])
    D = torus_dist(cell_centers(n, N), cell_centers(n, N))
    powed = np.abs(values).reshape(len(levels), -1) ** q
    cone = np.cumsum([dlog * (h / t) ** n * ((D < min(t, 0.5)) @ powed[k])
                      for k, t in enumerate(levels)], axis=0)
    box = np.zeros(N**n)
    box_p0 = {p0: np.zeros(N**n) for p0 in p0_list}
    for r in dyadic_radii(N):
        inside = D < r
        ks = [k for k, t in enumerate(levels) if t <= r]
        if not ks:
            continue
        column = powed[ks].sum(axis=0)
        powered = {p0: cone[len(ks) - 1] ** (p0 / q) for p0 in p0_list}
        for c in range(N**n):
            cells = np.flatnonzero(inside[c])
            val = dlog * column[cells].sum() / cells.size
            box[cells] = np.maximum(box[cells], val)
            for p0, arr in powered.items():
                avg = arr[cells].mean()
                box_p0[p0][cells] = np.maximum(box_p0[p0][cells], avg)
    return box ** (1.0 / q), {p0: v ** (1.0 / p0) for p0, v in box_p0.items()}


def check_box(seed, samples=50, n=2, N=32, p0_cone=1.2):
    """carleson draws its bracket fields from seed (N) and seed + 1 (N/2),
    and its cone comparison fields from seed + 2 (N, p0 = 1.2); the first
    field of each batch is recomputed by brute force. Errors are relative
    to the largest reference value."""
    out = []
    for NN, s, p0s in ((N // 2, seed + 1, (2.0,)), (N, seed, (2.0,)),
                       (N, seed + 2, (p0_cone,))):
        grid = Grid(n, NN)
        tg = TimeGrid.spanning(grid)
        vals = sample_field(s, samples, 0, (len(tg.levels),) + (NN,) * n)
        F = UpperHalfField(grid, tg, vals)
        fam = BallFamily.dense_dyadic(grid)
        box, box_p0 = brute_box(vals, tg.levels, n, NN, 2.0, p0s)
        if p0s == (2.0,):
            got = tent.carleson_functional(F, 2.0, fam).values.real.ravel()
            out.append(_check(f"carleson_functional N={NN}",
                              _rel(got, box), BOX_RTOL))
        for p0 in p0s:
            got = tent.carleson_p0(F, 2.0, p0, fam).values.real.ravel()
            out.append(_check(f"carleson_p0 N={NN} p0={p0}",
                              _rel(got, box_p0[p0]), BOX_RTOL))
    return out


def _rel(got, ref):
    return _err(got, ref, np.abs(ref).max())


def _err(got, ref, unit):
    return float(np.abs(np.asarray(got) - ref).max() / unit)


# -------------------------------------------------------- Fourier modes


def mode_square_functions(k, N, levels):
    """Closed-form conical square functions (aperture 1) of the mode
    e^{2 pi i k.x} for the five-point Laplacian, one value per family."""
    n = len(k)
    h = 1.0 / N
    lam = sum(4 * math.sin(math.pi * kj * h) ** 2 / h**2 for kj in k)
    dlog = math.log(levels[1] / levels[0])
    centers = cell_centers(n, N)
    dist = torus_dist(centers[:1], centers)[0]
    t = np.asarray(levels)
    counts = np.array([(dist < min(tk, 0.5)).sum() for tk in levels])
    x, y = t * t * lam, t * math.sqrt(lam)
    ex, ey = np.exp(-x), np.exp(-y)
    integrand = {
        "s_h": x * ex,                                   # (t^2 L) e^{-t^2 L}
        "g_h": y * ex,                                   # |t grad| = t sqrt(lam)
        "gcal_h": np.sqrt((y * ex) ** 2 + (2 * x * ex) ** 2),
        "s_p": y * y * ey,                               # (t sqrt L)^2 e^{-t sqrt L}
        "g_p": y * ey,
        "gcal_p": math.sqrt(2) * y * ey,                 # time part -(t sqrt L) e^{..}
    }
    return {fam: math.sqrt(float((c * c * counts * h**n * dlog / t**n).sum()))
            for fam, c in integrand.items()}


def check_modes(op, seed):
    """All six families on one seeded nonzero mode, against the closed form;
    errors are relative to the (spatially constant) reference."""
    grid = op.grid
    rng = np.random.default_rng(seed)
    k = (0,) * grid.n
    while not any(k):
        k = tuple(int(v) for v in rng.integers(0, grid.N, size=grid.n))
    tg = TimeGrid.spanning(grid)
    phase = 2 * np.pi * (cell_centers(grid.n, grid.N) @ np.asarray(k))
    f = GridFunction(grid, np.exp(1j * phase).reshape(grid.shape))
    ref = mode_square_functions(k, grid.N, tg.levels)
    out = []
    for fam in sorted(squarefn.FAMILIES):
        got = squarefn.evaluate(op, squarefn.SquareFunctionSpec(fam), f).values.real
        err = float(np.abs(got - ref[fam]).max() / ref[fam])
        out.append(_check(f"{fam} mode {k} N={grid.N}", err, MODE_RTOL))
    return out


# ------------------------------------------------------------- semigroups


def perturbed_face(x):
    """The perturbed preset's coefficient at face coordinate x."""
    return 1 + 0.4 * np.exp(2j * np.pi * x)


def stencil(n, N, face_coeff):
    """Sparse L = -sum_j D-_j a_j D+_j with a_j sampled at the forward face
    (i_j + 1) h of every cell; rows and columns in row-major cell order."""
    h = 1.0 / N
    shape = (N,) * n
    flat = np.arange(N**n).reshape(shape)
    idx = np.indices(shape)
    rows, cols, vals = [], [], []
    for j in range(n):
        a = face_coeff((idx[j] + 1) * h)
        a_back = np.roll(a, 1, axis=j)
        for target, coef in ((flat, a + a_back),
                             (np.roll(flat, -1, axis=j), -a),
                             (np.roll(flat, 1, axis=j), -a_back)):
            rows.append(flat.ravel())
            cols.append(target.ravel())
            vals.append(np.asarray(coef, dtype=complex).ravel() / h**2)
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(N**n, N**n))


def forward_diff(cols, n, N, j):
    """D+_j on columns (N^n, B)."""
    shape = (N,) * n
    arr = cols.reshape(*shape, -1)
    return ((np.roll(arr, -1, axis=j) - arr) * N).reshape(cols.shape)


def heat_dense(L, s):
    """Dense e^{-sL}: expm_multiply on the identity at a base time with
    ||sL||_1 <= 1, then repeated squaring up to s."""
    norm = float(abs(L).sum(axis=0).max())
    halvings = max(0, math.ceil(math.log2(s * norm)))
    H = expm_multiply(-(s / 2**halvings) * L, np.eye(L.shape[0], dtype=complex))
    for _ in range(halvings):
        H = _square(H)
    return H


def _square(H):
    # entries far below rounding would turn subnormal in the next product
    # and slow it down a hundredfold; they carry no information
    H = H @ H
    H[np.abs(H) < 1e-150] = 0.0
    return H


def heat_ladder(L, anchor, lo, hi, per_octave):
    """Yield (s, dense e^{-sL}) for s = anchor 2^{i / per_octave} covering
    [lo, hi]; each residue class of i starts from heat_dense and doubles s
    by squaring."""
    i_lo = math.floor(per_octave * math.log2(lo / anchor))
    i_hi = math.ceil(per_octave * math.log2(hi / anchor))
    for i0 in range(i_lo, min(i_lo + per_octave, i_hi + 1)):
        s = anchor * 2.0 ** (i0 / per_octave)
        H = heat_dense(L, s)
        for i in range(i0, i_hi + 1, per_octave):
            yield s, H
            if i + per_octave <= i_hi:
                H = _square(H)
                s *= 2


def poisson_reference(L, cols, times, lam_min, anchor, per_octave=4):
    """e^{-t sqrt(L)} cols and t d/dt of it, for each t in times, by the
    subordination integral in v = log s with trapezoid step log(2) /
    per_octave. lam_min bounds the decay rate of the mean-free part:
    ||e^{-sL} f0|| <= e^{-lam_min s} ||f0||."""
    t_lo, t_hi = min(times), max(times)
    lo, hi = t_lo**2 / 160, 40.0 / lam_min            # e^{-40} at both ends
    mean = cols.mean(axis=0, keepdims=True)
    free = cols - mean
    dv = math.log(2) / per_octave
    P = {t: np.broadcast_to(mean, cols.shape).astype(complex) for t in times}
    D = {t: np.zeros(cols.shape, dtype=complex) for t in times}
    for s, H in heat_ladder(L, anchor, lo, hi, per_octave):
        Y = H @ free
        for t in times:
            w = dv * t / (2 * math.sqrt(math.pi * s)) * math.exp(-t * t / (4 * s))
            P[t] = P[t] + w * Y
            D[t] = D[t] + (w * (1 - t * t / (2 * s))) * Y
    return P, D


def _lam_min(N, a_min):
    """Lower bound on Re<Lf, f> / <f, f> for mean-free f: the accretivity
    constant a_min times the first nonzero five-point symbol."""
    return a_min * 4 * math.sin(math.pi / N) ** 2 * N * N


def check_perturbed(op, seed):
    """Dense-fallback heat and Poisson families of the perturbed operator on
    one seeded random input, at every level of the spanning ladder. Errors
    are in units of max|f| times (max(1, t^2 ||L||_1))^p for a result that
    applies p factors of t^2 L; on a constant they are absolute."""
    grid = op.grid
    n, N = grid.n, grid.N
    L = stencil(n, N, perturbed_face)
    tg = TimeGrid.spanning(grid)
    rng = np.random.default_rng(seed)
    f = (rng.standard_normal(grid.ncells) + 1j * rng.standard_normal(grid.ncells))
    field = f.reshape(grid.shape)
    one = np.ones(grid.shape)
    norm_L = float(abs(L).sum(axis=0).max())
    size = float(np.abs(f).max())
    heat_err = grad_err = mean_err = const_err = 0.0
    for t in tg.levels:
        tau = t * t
        # rounding in e^{-tau L} f grows by up to ||tau L|| with each further
        # factor tau L, so errors are measured in units of ||f|| g^power
        g = max(1.0, tau * norm_L)
        Q = [expm_multiply(-tau * L, f)]
        for _ in range(3):
            Q.append(tau * (L @ Q[-1]))
        for m in (0, 1, 2):
            got = op.heat(t, m, field).ravel()
            heat_err = max(heat_err, _err(got, Q[m], size * g**m))
        for m in (0, 2):
            got = op.heat_gradient(t, m, field, mode="full").reshape(n + 1, -1)
            want = [t * forward_diff(Q[m][:, None], n, N, j)[:, 0] for j in range(n)]
            want.append(2 * m * Q[m] - 2 * Q[m + 1])
            grad_err = max(grad_err, _err(got, np.stack(want), size * g ** (m + 1)))
        mean_err = max(mean_err, abs(op.heat(t, 0, field).mean() - f.mean()) / size)
        const_err = max(const_err, float(np.abs(op.heat(t, 1, one)).max()),
                        float(np.abs(op.heat_gradient(t, 0, one, mode="full")).max()))
    out = [
        _check("heat m=0,1,2 vs expm_multiply", heat_err, HEAT_RTOL),
        _check("heat_gradient full m=0,2 vs expm_multiply", grad_err, HEAT_RTOL),
        _check("heat conserves the mean", mean_err, MEAN_ATOL),
        _check("heat annihilates constants", const_err, CONST_ATOL),
    ]

    P, Dt = poisson_reference(L, f[:, None], tg.levels, _lam_min(N, 0.6),
                              anchor=tg.levels[0] ** 2)
    p_err = 0.0
    for t in tg.levels:
        g = max(1.0, t * t * norm_L)
        P0 = P[t][:, 0]
        p_err = max(p_err, _err(op.poisson(t, 0, field).ravel(), P0, size))
        p_err = max(p_err, _err(op.poisson(t, 1, field).ravel(),
                                t * t * (L @ P0), size * g))
        got = op.poisson_gradient(t, 0, field, mode="full").reshape(n + 1, -1)
        grad = [t * forward_diff(P0[:, None], n, N, j)[:, 0] for j in range(n)]
        grad.append(Dt[t][:, 0])
        p_err = max(p_err, _err(got, np.stack(grad), size * g))
    out.append(_check("poisson K=0,1 and gradient vs subordination", p_err,
                      POISSON_RTOL))
    return out


# ---------------------------------------------------------- comparisons

# vericli's comparisons pairs: (label, (family, order) on top, at bottom)
COMPARISON_PAIRS = (
    ("s_h2_vs_s_h1", ("s_h", 2), ("s_h", 1)),
    ("gcal_h2_vs_s_h1", ("gcal_h", 2), ("s_h", 1)),
    ("s_p1_vs_s_h1", ("s_p", 1), ("s_h", 1)),
    ("gcal_p_vs_gcal_h", ("gcal_p", 0), ("gcal_h", 0)),
)


def semigroup_references(n, N, levels):
    """The perturbed stencil L and, for each level t, the dense matrices of
    e^{-t^2 L}, e^{-t sqrt(L)} and t d/dt e^{-t sqrt(L)}."""
    L = stencil(n, N, perturbed_face)
    P, D = poisson_reference(L, np.eye(N**n, dtype=complex), levels,
                             _lam_min(N, 0.6), anchor=levels[0] ** 2)
    return L, {t: (heat_dense(L, t * t), P[t], D[t]) for t in levels}


def comparison_ratios(seed, L, refs, n, N, samples=20):
    """{pair label: largest ratio of L^2 norms (flat weight) of the two
    square functions over the samples} for comparisons at seed. The cone
    value at x is the sum over levels t and cells y with |x - y| < t of
    dlog (h / t)^n times the squared integrand at (y, t)."""
    h = 1.0 / N
    levels = sorted(refs)
    dlog = math.log(levels[1] / levels[0])
    F = np.stack([sample_field(seed, samples, i, (N,) * n).ravel()
                  for i in range(samples)], axis=1)
    dist = torus_dist(cell_centers(n, N), cell_centers(n, N))
    cone = {}
    for t in levels:
        H, Pt, Dt = refs[t]
        tau = t * t
        Q = [H @ F]
        for _ in range(3):
            Q.append(tau * (L @ Q[-1]))
        P = Pt @ F

        def grad2(X, t=t):
            return sum(np.abs(t * forward_diff(X, n, N, j)) ** 2 for j in range(n))

        # squared integrands; the time component of the heat gradient at
        # order m is 2m Q_m - 2 Q_{m+1}
        integrand = {
            ("s_h", 1): np.abs(Q[1]) ** 2,
            ("s_h", 2): np.abs(Q[2]) ** 2,
            ("gcal_h", 0): grad2(Q[0]) + np.abs(2 * Q[1]) ** 2,
            ("gcal_h", 2): grad2(Q[2]) + np.abs(4 * Q[2] - 2 * Q[3]) ** 2,
            ("s_p", 1): np.abs(tau * (L @ P)) ** 2,
            ("gcal_p", 0): grad2(P) + np.abs(Dt @ F) ** 2,
        }
        ball = (dist < min(t, 0.5)) * (dlog * (h / t) ** n)
        for key, val in integrand.items():
            cone[key] = cone.get(key, 0.0) + ball @ val
    norm = {key: np.sqrt(val.sum(axis=0) * h**n) for key, val in cone.items()}
    return {label: float((norm[top] / norm[bot]).max())
            for label, top, bot in COMPARISON_PAIRS}


def check_comparisons(rows, want):
    """Every pair row of the round's comparisons CSV against the ratios
    recomputed from the references, relative to the reference."""
    name = "comparisons ratios in the CSV vs references"
    if rows is None:
        return [(name, None, "no CSV to check")]
    got = {params["pair"]: measured for params, measured in rows if "pair" in params}
    if sorted(got) != sorted(want):
        return [(name, False, f"pairs {sorted(got)}, expected {sorted(want)}")]
    err = max(abs(got[k] - want[k]) / want[k] for k in want)
    return [_check(name, err, COMPARE_RTOL)]


# --------------------------------------------------------- off-diagonal


def offdiag_references(n, N, t, radius, separations):
    """{(family, d): largest singular value of the restricted block
    chi_F T chi_E} for the four offdiag families at order 0, with E and F
    the cell sets vericli builds around 0.25 and 0.25 + d."""
    L = stencil(n, N, perturbed_face)
    centers = cell_centers(n, N)
    anchor = np.full((1, n), 0.25)
    E = np.flatnonzero(torus_dist(centers, anchor)[:, 0] < radius)
    cols = np.zeros((N**n, E.size), dtype=complex)
    cols[E, np.arange(E.size)] = 1.0
    heat = heat_dense(L, t * t) @ cols
    P, _ = poisson_reference(L, cols, [t], _lam_min(N, 0.6), anchor=t * t)
    blocks = {"heat": heat, "poisson": P[t]}
    for name in ("heat", "poisson"):
        grads = [t * forward_diff(blocks[name], n, N, j) for j in range(n)]
        blocks[f"{name}_gradient"] = np.concatenate(grads, axis=0)
    out = {}
    for d in separations:
        shifted = anchor.copy()
        shifted[0, 0] += d
        F = np.flatnonzero(torus_dist(centers, shifted)[:, 0] < radius)
        for name, block in blocks.items():
            comps = block.shape[0] // N**n
            rows = np.concatenate([F + c * N**n for c in range(comps)])
            out[(name, d)] = float(np.linalg.svd(block[rows], compute_uv=False)[0])
    return out


def check_offdiag(rows, refs):
    """Every restricted-norm row of an offdiag CSV against its reference,
    relative to the reference."""
    if rows is None:
        return [("offdiag restricted norms vs SVD", None, "no CSV to check")]
    err, seen = 0.0, 0
    for params, measured in rows:
        if "d" not in params:
            continue
        ref = refs[(params["family"], params["d"])]
        err = max(err, abs(measured - ref) / ref)
        seen += 1
    if seen != len(refs):
        return [("offdiag restricted norms vs SVD", False,
                 f"{seen} rows for {len(refs)} references")]
    return [_check("offdiag restricted norms vs SVD", err, OFFDIAG_RTOL)]
