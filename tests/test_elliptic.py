"""Divergence-form operators: assembly, calculus tiers, semigroup families,
off-diagonal decay, and boundedness scans.

Reference values come from independent brute-force implementations written
here (explicit stencil loops, Fourier symbols, dense linear algebra), not
from the module under test.
"""

import math
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg as sla

from conical_lab.grid import (
    Grid,
    GridFunction,
    TimeGrid,
    torus_distance,
    write_gridfunction,
)
from conical_lab import elliptic as el
from conical_lab.elliptic import (
    CoefficientField,
    ConditioningError,
    EllipticityError,
    QuadratureError,
    SemigroupRequest,
    assemble,
    offdiagonal_opnorm,
    restricted_opnorm,
    uniform_boundedness_scan,
)


# --------------------------------------------------------------- reference


def ref_divform(coeff, f):
    """Explicit-loop rendition of the conservative stencil.

    flux_j at the face x + (h/2) e_j uses row j of A sampled there: the
    forward difference along j plus, for k != j, the centered difference
    along k averaged between the two cells sharing the face. L = -div flux.
    """
    g = coeff.grid
    n, N, h = g.n, g.N, g.h
    A = coeff.values

    def shift(idx, axis, step):
        out = list(idx)
        out[axis] = (out[axis] + step) % N
        return tuple(out)

    def flux(idx, j):
        total = 0.0 + 0.0j
        for k in range(n):
            if k == j:
                d = (f[shift(idx, j, 1)] - f[idx]) / h
            else:
                c_here = (f[shift(idx, k, 1)] - f[shift(idx, k, -1)]) / (2 * h)
                up = shift(idx, j, 1)
                c_up = (f[shift(up, k, 1)] - f[shift(up, k, -1)]) / (2 * h)
                d = 0.5 * (c_here + c_up)
            total += A[idx][j, k] * d
        return total

    out = np.zeros(g.shape, dtype=complex)
    for idx in np.ndindex(*g.shape):
        val = 0.0 + 0.0j
        for j in range(n):
            val += (flux(idx, j) - flux(shift(idx, j, -1), j)) / h
        out[idx] = -val
    return out


def symbol_1d(grid, t, m):
    """Fourier multiplier of (t^2 L)^m e^{-t^2 L} for A = I in one dimension."""
    k = np.arange(grid.N)
    mu = 4 * np.sin(np.pi * k * grid.h) ** 2 / grid.h**2
    return (t * t * mu) ** m * np.exp(-t * t * mu)


def rel(a, b):
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(
        np.linalg.norm(np.asarray(b)), 1e-300)


# ---------------------------------------------------------------- fixtures


CROSS_A = np.array([[2.0, 0.5 + 0.3j], [0.1 + 0.3j, 1.5]])


@pytest.fixture(scope="module")
def lap1():
    g = Grid(1, 32)
    return assemble(g, CoefficientField.preset(g, "laplace"))


@pytest.fixture(scope="module")
def lap1_128():
    g = Grid(1, 128)
    return assemble(g, CoefficientField.preset(g, "laplace"))


@pytest.fixture(scope="module")
def pert1_16():
    g = Grid(1, 16)
    return assemble(g, CoefficientField.preset(g, "perturbed"))


@pytest.fixture(scope="module")
def pert1_8():
    g = Grid(1, 8)
    return assemble(g, CoefficientField.preset(g, "perturbed"))


@pytest.fixture(scope="module")
def scalar_complex():
    # normal but not hermitian: (1 + 0.8i) times the 1-d Laplacian
    g = Grid(1, 32)
    return assemble(g, CoefficientField.constant(g, np.array([[1.0 + 0.8j]])))


@pytest.fixture(scope="module")
def cross2():
    # constant coefficients with complex off-diagonal entries whose sum is
    # not real, so the assembled matrix is genuinely non-hermitian
    g = Grid(2, 8)
    return assemble(g, CoefficientField.constant(g, CROSS_A))


# ---------------------------------------------------------------- assembly


def test_laplace_stencil_row(lap1):
    h = lap1.grid.h
    row = lap1.matrix[5].copy()
    expect = np.zeros(32, dtype=complex)
    expect[4] = expect[6] = -1 / h**2
    expect[5] = 2 / h**2
    assert np.array_equal(row, expect)


@pytest.mark.parametrize("builder", [
    lambda: CoefficientField.preset(Grid(1, 8), "perturbed"),
    lambda: CoefficientField.preset(Grid(2, 8), "perturbed"),
    lambda: CoefficientField.constant(Grid(2, 8), CROSS_A),
])
def test_assembly_matches_reference_stencil(builder):
    coeff = builder()
    g = coeff.grid
    rng = np.random.default_rng(42)
    f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    op = assemble(g, coeff)
    got = (op.matrix @ f.ravel()).reshape(g.shape)
    want = ref_divform(coeff, f)
    assert rel(got, want) < 1e-12


@pytest.mark.parametrize("fix", ["lap1", "pert1_16", "cross2"])
def test_annihilates_constants(fix, request):
    op = request.getfixturevalue(fix)
    one = np.ones(op.ncells)
    assert np.max(np.abs(op.matrix @ one)) <= 1e-12


@pytest.mark.parametrize("fix", ["lap1", "pert1_16", "cross2", "scalar_complex"])
def test_accretive(fix, request):
    op = request.getfixturevalue(fix)
    rng = np.random.default_rng(7)
    for _ in range(100):
        f = rng.normal(size=op.ncells) + 1j * rng.normal(size=op.ncells)
        g = op.matrix @ f
        q = np.vdot(f, g).real
        assert q >= -1e-10 * np.linalg.norm(f) * np.linalg.norm(g)


def test_scaled_identity_scales_laplacian():
    g = Grid(1, 16)
    base = assemble(g, CoefficientField.preset(g, "laplace"))
    scaled = assemble(g, CoefficientField.constant(g, 2.3 * np.eye(1)))
    assert np.allclose(scaled.matrix, 2.3 * base.matrix, rtol=1e-14, atol=0)


def test_ellipticity_rejected_with_cell():
    g = Grid(1, 8)
    vals = np.broadcast_to(np.eye(1, dtype=complex), g.shape + (1, 1)).copy()
    vals[5] = -1.0
    coeff = CoefficientField(g, vals)
    with pytest.raises(EllipticityError) as err:
        assemble(g, coeff)
    assert err.value.cell == (5,)
    assert "(5,)" in str(err.value)


def test_preset_bounds_and_face_sampling():
    g = Grid(1, 32)
    coeff = CoefficientField.preset(g, "perturbed")
    assert coeff.lam == pytest.approx(0.6, rel=1e-12)
    assert coeff.Lam == pytest.approx(1.4, rel=1e-12)
    x = g.cell_centers()[..., 0] + g.h / 2
    want = 1 + 0.4 * np.cos(2 * np.pi * x) + 0.4j * np.sin(2 * np.pi * x)
    assert np.allclose(coeff.values[..., 0, 0], want, rtol=1e-14)

    g2 = Grid(2, 8)
    c2 = CoefficientField.preset(g2, "perturbed")
    assert c2.lam == pytest.approx(0.6, rel=1e-12)
    x1 = c2.grid.cell_centers()[..., 1] + g2.h / 2
    want1 = 1 + 0.4 * np.cos(2 * np.pi * x1) + 0.4j * np.sin(2 * np.pi * x1)
    assert np.allclose(c2.values[..., 1, 1], want1, rtol=1e-14)
    assert np.all(c2.values[..., 0, 1] == 0)
    assert np.all(c2.values[..., 1, 0] == 0)


def test_unknown_preset():
    with pytest.raises(ValueError, match="unknown preset"):
        CoefficientField.preset(Grid(1, 8), "checkerboard")


def test_coefficient_file_roundtrip(tmp_path, cross2):
    path = tmp_path / "a.coef"
    cross2.coeff.to_file(path)
    back = CoefficientField.from_file(path)
    assert back.grid == cross2.grid
    assert np.array_equal(back.values, cross2.coeff.values)


def test_coefficient_file_channel_mismatch(tmp_path):
    g = Grid(2, 8)
    f = GridFunction(g, np.ones(g.shape, dtype=complex))
    path = tmp_path / "single.coef"
    write_gridfunction(f, path)
    with pytest.raises(ValueError, match="expected 4 channels"):
        CoefficientField.from_file(path)


def test_build_report_tiers(lap1, pert1_8, pert1_16, cross2):
    assert lap1.report.tier == "hermitian-eig" and lap1.report.hermitian
    assert pert1_8.report.tier == "eig" and pert1_8.report.cond <= 1e8
    assert pert1_16.report.tier == "dense-fallback"
    assert not pert1_16.has_eigenbasis
    assert cross2.report.tier == "eig" and not cross2.report.hermitian


def test_dense_fallback_keeps_unperturbed_matrix(pert1_16):
    # the trial perturbation is discarded when it does not rescue the basis
    assert pert1_16.report.perturbed is False
    g = pert1_16.grid
    stencil = np.stack([ref_divform(pert1_16.coeff, e.reshape(g.shape)).ravel()
                        for e in np.eye(g.ncells)], axis=1)
    assert np.array_equal(pert1_16.matrix, stencil)


def test_sqrtm_residual_recorded():
    g = Grid(1, 16)
    op = assemble(g, CoefficientField.preset(g, "perturbed"))
    op.poisson(0.2, 0, np.ones(g.shape))
    notes = [n for n in op.report.notes if n.startswith("sqrtm residual")]
    assert len(notes) == 1
    assert float(notes[0].split()[-1]) <= 1e-10


def test_sqrtm_residual_guard(monkeypatch):
    g = Grid(1, 16)
    op = assemble(g, CoefficientField.preset(g, "perturbed"))
    monkeypatch.setattr(el.sla, "sqrtm", lambda A: np.eye(A.shape[0], dtype=complex))
    with pytest.raises(RuntimeError, match="sqrtm residual"):
        op.poisson(0.2, 0, np.ones(g.shape))


def test_dense_caches_built_once_under_threads(monkeypatch):
    # more threads than cores walk the same ladder on a fresh operator;
    # every dense matrix must be computed by one of them only
    g = Grid(1, 16)
    op = assemble(g, CoefficientField.preset(g, "perturbed"))
    assert op.report.tier == "dense-fallback"
    calls = {"expm": [], "sqrtm": 0}
    real_expm, real_sqrtm = el.sla.expm, el.sla.sqrtm

    def expm(A):
        calls["expm"].append(A.tobytes())
        time.sleep(0.02)  # widen the window in which a second build could start
        return real_expm(A)

    def sqrtm(A):
        calls["sqrtm"] += 1
        time.sleep(0.02)
        return real_sqrtm(A)

    monkeypatch.setattr(el.sla, "expm", expm)
    monkeypatch.setattr(el.sla, "sqrtm", sqrtm)
    times = (0.05, 0.1, 0.2)
    f = np.cos(2 * np.pi * g.cell_centers()[..., 0])
    workers = 4
    start = threading.Barrier(workers, timeout=60)
    results = [None] * workers

    def work(slot):
        start.wait()
        results[slot] = [op.heat(t, 0, f) for t in times] + [op.poisson(t, 0, f) for t in times]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(calls["expm"]) == 2 * len(times)
    assert len(set(calls["expm"])) == len(calls["expm"])
    assert calls["sqrtm"] == 1
    for other in results[1:]:
        for a, b in zip(results[0], other):
            assert np.array_equal(a, b)


# ---------------------------------------------------------- scalar calculus


@pytest.mark.parametrize("fix", ["lap1", "pert1_8", "scalar_complex", "cross2"])
def test_matrix_function_contracts(fix, request):
    op = request.getfixturevalue(fix)
    rng = np.random.default_rng(3)
    f = rng.normal(size=op.grid.shape) + 1j * rng.normal(size=op.grid.shape)
    # eigenbasis round-trips lose about cond * eps of relative accuracy
    slack = op.report.cond * 1e-15

    out = op.apply_matrix_function(lambda z: np.ones_like(z), f)
    assert np.array_equal(out, f.astype(complex))

    out = op.apply_matrix_function(lambda z: z, f)
    assert rel(out.ravel(), op.matrix @ f.ravel()) < max(1e-10, slack)

    M = op.matrix
    fv = f.ravel()
    poly = M @ (M @ (M @ fv)) - 2 * (M @ (M @ fv)) + M @ fv + 0.5 * fv
    out = op.apply_matrix_function(lambda z: z**3 - 2 * z**2 + z + 0.5, f)
    assert rel(out.ravel(), poly) < max(1e-9, slack)

    t = 0.15
    out = op.apply_matrix_function(lambda z: np.exp(-t * t * z), f)
    want = sla.expm(-t * t * M) @ fv
    assert rel(out.ravel(), want) < max(1e-8, slack)


def test_matrix_function_refused_without_basis(pert1_16):
    f = np.ones(pert1_16.grid.shape)
    with pytest.raises(ConditioningError, match="dense routes"):
        pert1_16.apply_matrix_function(lambda z: z, f)
    # the semigroup families stay available on the dense route
    out = pert1_16.heat(0.1, 0, f)
    assert np.all(np.isfinite(out))


def test_matrix_function_shape_check(lap1):
    with pytest.raises(ValueError, match="elementwise"):
        lap1.apply_matrix_function(lambda z: 1.0, np.ones(lap1.grid.shape))


# ------------------------------------------------------------- heat family


def test_heat_fourier_oracle(lap1):
    g = lap1.grid
    rng = np.random.default_rng(5)
    f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    for t in (0.01, 0.1, 0.5):
        for m in (0, 1, 2):
            want = np.fft.ifft(symbol_1d(g, t, m) * np.fft.fft(f))
            got = lap1.heat(t, m, f)
            assert rel(got, want) < 1e-10, (t, m)


@pytest.mark.parametrize("fix", ["scalar_complex", "pert1_16"])
def test_heat_order_recursion(fix, request):
    op = request.getfixturevalue(fix)
    rng = np.random.default_rng(6)
    f = rng.normal(size=op.grid.shape) + 1j * rng.normal(size=op.grid.shape)
    t = 0.2
    lhs = op.heat(t, 1, f)
    rhs = t * t * (op.matrix @ op.heat(t, 0, f).ravel()).reshape(op.grid.shape)
    assert rel(lhs, rhs) < 1e-8


def test_heat_small_time_continuity():
    g = Grid(1, 64)
    op = assemble(g, CoefficientField.preset(g, "laplace"))
    x = g.cell_centers()[..., 0]
    f = np.cos(2 * np.pi * x) + 0.3 * np.sin(4 * np.pi * x)
    t = g.h / 10
    assert rel(op.heat(t, 0, f), f) < 1e-3


def test_heat_input_containers(lap1):
    g = lap1.grid
    rng = np.random.default_rng(9)
    batch = rng.normal(size=(3,) + g.shape) + 1j * rng.normal(size=(3,) + g.shape)
    out_batch = lap1.heat(0.1, 1, batch)
    assert out_batch.shape == batch.shape
    for b in range(3):
        single = lap1.heat(0.1, 1, batch[b])
        assert np.allclose(out_batch[b], single, rtol=1e-13, atol=1e-13)
    gf = GridFunction(g, batch[0])
    out_gf = lap1.heat(0.1, 1, gf)
    assert isinstance(out_gf, GridFunction)
    assert np.array_equal(out_gf.values, lap1.heat(0.1, 1, batch[0]))
    flat = lap1.heat(0.1, 1, batch[0].ravel())
    assert flat.shape == (g.ncells,)


def test_heat_rejects_bad_arguments(lap1):
    f = np.ones(lap1.grid.shape)
    with pytest.raises(ValueError):
        lap1.heat(0.0, 0, f)
    with pytest.raises(ValueError):
        lap1.heat(0.1, -1, f)
    with pytest.raises(ValueError):
        lap1.heat(0.1, 0, np.ones(7))


# ---------------------------------------------------------- poisson family


@pytest.mark.parametrize("fix", ["lap1", "pert1_16"])
def test_poisson_on_constants(fix, request):
    op = request.getfixturevalue(fix)
    one = np.ones(op.grid.shape)
    for t in (0.1, 1.0):
        assert rel(op.poisson(t, 0, one), one) < 1e-10
        assert np.max(np.abs(op.poisson(t, 1, one))) < 1e-10


@pytest.mark.parametrize("fix", ["lap1", "pert1_16", "pert1_8"])
def test_poisson_direct_vs_subordination(fix, request):
    # error of the 48-node rule decays in t^2 lambda_1; t = 1 sits in the
    # regime where both routes agree to a few parts in 1e7 (K = 0) and to
    # about 1e-6 at K = 1
    op = request.getfixturevalue(fix)
    rng = np.random.default_rng(11)
    f = rng.normal(size=op.grid.shape) + 1j * rng.normal(size=op.grid.shape)
    t = 1.0
    a0 = op.poisson(t, 0, f, method="direct")
    b0 = op.poisson(t, 0, f, method="subordination")
    assert rel(b0, a0) < 1e-6
    a1 = op.poisson(t, 1, f, method="direct")
    b1 = op.poisson(t, 1, f, method="subordination")
    assert rel(b1, a1) < 2e-6


def test_poisson_fourier_oracle(lap1):
    g = lap1.grid
    rng = np.random.default_rng(12)
    f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    k = np.arange(g.N)
    mu = 4 * np.sin(np.pi * k * g.h) ** 2 / g.h**2
    for t, K in [(0.3, 0), (0.3, 1), (1.0, 2)]:
        sym = (t * np.sqrt(mu)) ** (2 * K) * np.exp(-t * np.sqrt(mu))
        want = np.fft.ifft(sym * np.fft.fft(f))
        assert rel(lap1.poisson(t, K, f), want) < 1e-10, (t, K)


def test_subordination_tail_guard(lap1):
    f = np.ones(lap1.grid.shape)
    with pytest.raises(QuadratureError, match="96 nodes"):
        lap1.poisson(0.5, 24, f, method="subordination")


def test_unknown_poisson_method(lap1):
    with pytest.raises(ValueError, match="unknown method"):
        lap1.poisson(0.5, 0, np.ones(lap1.grid.shape), method="cayley")


# ---------------------------------------------------------------- gradients


def test_gradient_of_flat_input(lap1):
    one = np.ones(lap1.grid.shape)
    g_heat = lap1.heat_gradient(0.3, 0, one, mode="full")
    assert g_heat.shape == (2,) + lap1.grid.shape
    assert np.max(np.abs(g_heat)) < 1e-10
    g_poi = lap1.poisson_gradient(0.3, 0, one, mode="full")
    assert np.max(np.abs(g_poi)) < 1e-10


def test_gradient_spatial_fourier_oracle(lap1):
    g = lap1.grid
    rng = np.random.default_rng(13)
    f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    t = 0.2
    k = np.arange(g.N)
    dsym = (np.exp(2j * np.pi * k * g.h) - 1) / g.h
    want = np.fft.ifft(t * dsym * symbol_1d(g, t, 0) * np.fft.fft(f))
    got = lap1.heat_gradient(t, 0, f)[0]
    assert rel(got, want) < 1e-10


@pytest.mark.parametrize("family", ["heat", "poisson"])
def test_time_derivative_fd_order(lap1, family):
    # analytic time component vs centered differences of the plain family;
    # the measured convergence order is 2, well above the 1.8 floor
    g = lap1.grid
    rng = np.random.default_rng(14)
    f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    t, m = 0.3, 1

    if family == "heat":
        analytic = lap1.heat_gradient(t, m, f, mode="full")[-1]
        fam = lambda s: lap1.heat(s, m, f)
    else:
        analytic = lap1.poisson_gradient(t, m, f, mode="full")[-1]
        fam = lambda s: lap1.poisson(s, m, f)

    errs = []
    for delta in (0.02, 0.01, 0.005):
        fd = t * (fam(t + delta) - fam(t - delta)) / (2 * delta)
        errs.append(np.linalg.norm(fd - analytic))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 > 1.8 and order2 > 1.8


def test_gradient_modes_and_validation(lap1):
    f = np.ones(lap1.grid.shape)
    spatial = lap1.heat_gradient(0.2, 0, f, mode="spatial")
    assert spatial.shape == (1,) + lap1.grid.shape
    with pytest.raises(ValueError, match="mode"):
        lap1.heat_gradient(0.2, 0, f, mode="radial")
    with pytest.raises(ValueError, match="mode"):
        lap1.poisson_gradient(0.2, 0, f, mode="radial")


# -------------------------------------------------------------- time ladder


def _per_level(op, family, order, derivative, t, f, method="direct"):
    if derivative == "none":
        if family == "heat":
            return op.heat(t, order, f)[None]
        return op.poisson(t, order, f, method=method)[None]
    if family == "heat":
        return op.heat_gradient(t, order, f, mode=derivative)
    return op.poisson_gradient(t, order, f, mode=derivative, method=method)


@pytest.mark.parametrize("fix", ["lap1", "pert1_8", "cross2", "pert1_16"])
def test_ladder_matches_per_level(fix, request):
    op = request.getfixturevalue(fix)
    g = op.grid
    rng = np.random.default_rng(23)
    f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    levels = TimeGrid.spanning(g).levels
    # eigenbasis round trips lose about cond * eps in the eig tier
    tol = 1e-12 * (op.report.cond if op.report.tier == "eig" else 1.0)
    for family in ("heat", "poisson"):
        for derivative in ("none", "spatial", "full"):
            for order in (0, 1, 2):
                got = op.ladder(family, order, derivative, levels, f)
                ncomp = {"none": 1, "spatial": g.n, "full": g.n + 1}[derivative]
                assert got.shape == (len(levels), ncomp, *g.shape)
                for k, t in enumerate(levels):
                    want = _per_level(op, family, order, derivative, t, f)
                    # at large t the differences cancel the near-constant
                    # member, so both routes carry roundoff of the member's size
                    member = _per_level(op, family, order, "none", t, f)
                    scale = max(np.linalg.norm(want), np.linalg.norm(member))
                    err = np.linalg.norm(got[k] - want) / scale
                    assert err < tol, (family, derivative, order, t)


def test_ladder_subordination_route(lap1):
    g = lap1.grid
    f = GridFunction(g, np.sin(2 * np.pi * g.cell_centers()[..., 0]) + 0j)
    levels = (0.2, 0.4)
    got = lap1.ladder("poisson", 1, "full", levels, f, method="subordination")
    for k, t in enumerate(levels):
        want = lap1.poisson_gradient(t, 1, f, mode="full", method="subordination")
        assert np.array_equal(got[k], want)


def test_ladder_validation(lap1):
    f = np.ones(lap1.grid.shape)
    with pytest.raises(ValueError, match="family"):
        lap1.ladder("wave", 0, "none", (0.1,), f)
    with pytest.raises(ValueError, match="derivative"):
        lap1.ladder("heat", 0, "radial", (0.1,), f)
    with pytest.raises(ValueError, match="order"):
        lap1.ladder("heat", -1, "none", (0.1,), f)
    with pytest.raises(ValueError, match="time"):
        lap1.ladder("heat", 0, "none", (0.1, 0.0), f)
    with pytest.raises(ValueError, match="nonempty"):
        lap1.ladder("heat", 0, "none", (), f)
    with pytest.raises(ValueError, match="unknown method"):
        lap1.ladder("poisson", 0, "none", (0.1,), f, method="cayley")
    with pytest.raises(ValueError, match="single field"):
        lap1.ladder("heat", 0, "none", (0.1,), np.ones((2, *lap1.grid.shape)))


# ----------------------------------------------------------------- adjoints


REQUESTS = [
    SemigroupRequest("heat", 0.2),
    SemigroupRequest("heat", 0.2, order=2),
    SemigroupRequest("heat", 0.3, derivative="spatial"),
    SemigroupRequest("heat", 0.3, order=1, derivative="full"),
    SemigroupRequest("poisson", 0.4),
    SemigroupRequest("poisson", 0.4, order=1),
    SemigroupRequest("poisson", 0.4, order=1, derivative="full"),
]


@pytest.mark.parametrize("fix", ["lap1", "pert1_8", "pert1_16"])
def test_request_adjoint_identities(fix, request):
    # <T f, g> == <f, T* g> with the pairing summing over components and cells
    op = request.getfixturevalue(fix)
    rng = np.random.default_rng(15)
    f = (rng.normal(size=(op.ncells, 1)) + 1j * rng.normal(size=(op.ncells, 1)))
    tol = max(1e-9, op.report.cond * 1e-16)
    for req in REQUESTS:
        out = el._request_apply(op, req, f)
        gvec = (rng.normal(size=out.shape) + 1j * rng.normal(size=out.shape))
        lhs = np.vdot(gvec, out)
        back = el._request_apply_adjoint(op, req, gvec)
        rhs = np.vdot(back, f)
        assert abs(lhs - rhs) <= tol * max(abs(lhs), 1e-12), (fix, req)


def test_request_validation():
    with pytest.raises(ValueError, match="family"):
        SemigroupRequest("wave", 0.1)
    with pytest.raises(ValueError, match="derivative"):
        SemigroupRequest("heat", 0.1, derivative="angular")
    with pytest.raises(ValueError, match="order"):
        SemigroupRequest("heat", 0.1, order=-1)
    with pytest.raises(ValueError, match="time"):
        SemigroupRequest("heat", 0.0)


# ------------------------------------------------------- off-diagonal decay


def _interval_sets(grid, cE, cF, r):
    pts = grid.cell_centers().reshape(-1, 1)
    E = np.where(torus_distance(pts, [cE]) <= r)[0]
    F = np.where(torus_distance(pts, [cF]) <= r)[0]
    return E, F


def test_restricted_opnorm_validation(lap1_128):
    g = lap1_128.grid
    E, F = _interval_sets(g, 0.2, 0.5, 0.05)
    with pytest.raises(ValueError, match="disjoint"):
        offdiagonal_opnorm(lap1_128, SemigroupRequest("heat", 0.1), E, E)
    with pytest.raises(ValueError, match="nonempty"):
        offdiagonal_opnorm(lap1_128, SemigroupRequest("heat", 0.1), E[:0], F)


def test_offdiagonal_gaussian_decay(lap1_128):
    # log of the restricted norm against (d/t)^2 should fall at least as
    # fast as a fixed-rate Gaussian; the measured slope is about -1/4
    g = lap1_128.grid
    t, r = 0.02, 0.04
    xs, ys = [], []
    for d in (0.06, 0.08, 0.10, 0.12):
        E, F = _interval_sets(g, 0.2, 0.2 + 2 * r + d, r)
        v = offdiagonal_opnorm(lap1_128, SemigroupRequest("heat", t), E, F)
        xs.append((d / t) ** 2)
        ys.append(math.log(v))
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope <= -1 / 8


def test_offdiagonal_large_time_projection(lap1_128):
    # at t = 1 every nonzero mode is dead and the semigroup is the mean
    # projection, whose restricted norm is h sqrt(|E| |F|)
    g = lap1_128.grid
    E, F = _interval_sets(g, 0.2, 0.62, 0.04)
    v = offdiagonal_opnorm(lap1_128, SemigroupRequest("heat", 1.0), E, F)
    want = g.h * math.sqrt(E.size * F.size)
    assert v == pytest.approx(want, rel=1e-6)
    assert v <= 1 + 1e-9


def test_offdiagonal_sup_norm_route(lap1_128):
    g = lap1_128.grid
    E, F = _interval_sets(g, 0.2, 0.5, 0.05)
    v = offdiagonal_opnorm(lap1_128, SemigroupRequest("heat", 0.1), E, F,
                           p=math.inf, q=math.inf)
    assert 0 < v <= 1 + 1e-9


def test_gaffney_difference_decay(lap1_128):
    # (s^2/t^2)(e^{-s^2 L} - e^{-(s^2+t^2) L}) between separated sets decays
    # as separation grows at fixed times
    op = lap1_128
    g = op.grid
    s, t, r = 0.05, 0.05, 0.04
    scale = s * s / (t * t)
    st = math.sqrt(s * s + t * t)

    def fwd(cols):
        B = cols.T.reshape(cols.shape[1], *g.shape)
        out = scale * (op.heat(s, 0, B) - op.heat(st, 0, B))
        return out.reshape(cols.shape[1], -1).T[None]

    def adj(comps):
        B = comps[0].T.reshape(comps.shape[2], *g.shape)
        out = scale * (op.heat(s, 0, B, adjoint=True) - op.heat(st, 0, B, adjoint=True))
        return out.reshape(comps.shape[2], -1).T

    vals = []
    for d in (0.08, 0.16, 0.32):
        E, F = _interval_sets(g, 0.2, 0.2 + 2 * r + d, r)
        vals.append(restricted_opnorm(fwd, g, E, F, adjoint_fn=adj))
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.1 * vals[0]


def test_composition_split_bound(lap1_128):
    # ||chi_F P_t Q_s chi_E|| against the triangle split through the set G
    # of cells at least (r + d/2) from the F center: the composite norm is
    # bounded by the near-half term of P plus the far-half term of Q, with
    # unrestricted heat factors equal to one at p = 2
    op = lap1_128
    g = op.grid
    pts = g.cell_centers().reshape(-1, 1)
    r, cE = 0.04, 0.2
    for (t, s, d) in [(0.03, 0.03, 0.08), (0.03, 0.03, 0.2),
                      (0.02, 0.06, 0.2), (0.05, 0.02, 0.12)]:
        cF = cE + 2 * r + d
        E = np.where(torus_distance(pts, [cE]) <= r)[0]
        F = np.where(torus_distance(pts, [cF]) <= r)[0]
        distF = torus_distance(pts, [cF])
        G = np.where(distF >= r + d / 2)[0]
        Gc = np.where(distF < r + d / 2)[0]

        def fwd(cols):
            B = cols.T.reshape(cols.shape[1], *g.shape)
            out = op.heat(t, 0, op.heat(s, 0, B))
            return out.reshape(cols.shape[1], -1).T[None]

        def adj(comps):
            B = comps[0].T.reshape(comps.shape[2], *g.shape)
            out = op.heat(s, 0, op.heat(t, 0, B, adjoint=True), adjoint=True)
            return out.reshape(comps.shape[2], -1).T

        comp = restricted_opnorm(fwd, g, E, F, adjoint_fn=adj)
        term_p = offdiagonal_opnorm(op, SemigroupRequest("heat", t), G, F)
        term_q = offdiagonal_opnorm(op, SemigroupRequest("heat", s), E, Gc)
        rhs = term_p + term_q
        assert comp <= 1.1 * rhs, (t, s, d)
        assert rhs < 0.5  # separation keeps the bound informative


# --------------------------------------------------------- boundedness scan


def test_scan_heat_contraction(lap1):
    g32 = lap1.grid
    coarse = assemble(g32.coarsen(), CoefficientField.preset(g32.coarsen(), "laplace"))
    rows = uniform_boundedness_scan(lap1, "heat", [1.1, 2.0, 4.0, 10.0],
                                    [0.05, 0.1, 0.3, 1.0], coarse_op=coarse)
    for row in rows:
        assert 0.995 <= row.sup_norm <= 1 + 1e-9
        assert row.grows is False


def test_scan_gradient_family(pert1_16, pert1_8):
    rows = uniform_boundedness_scan(pert1_16, "heat-gradient", [1.5, 2.0],
                                    [0.05, 0.1, 0.2], coarse_op=pert1_8)
    for row in rows:
        assert np.isfinite(row.sup_norm) and row.sup_norm > 0
        assert row.grows is False


def test_scan_growth_flag_semantics(lap1):
    # a ratio below one must flag any non-shrinking sup, exercising the
    # growth branch without fabricating data
    rows = uniform_boundedness_scan(lap1, "heat", [2.0], [0.1],
                                    coarse_op=lap1, growth_ratio=0.5)
    assert rows[0].grows is True
    assert rows[0].sup_norm_coarse == pytest.approx(rows[0].sup_norm)


def test_scan_validation(lap1):
    with pytest.raises(ValueError, match="family"):
        uniform_boundedness_scan(lap1, "wave", [2.0], [0.1])
    with pytest.raises(ValueError, match="empty"):
        uniform_boundedness_scan(lap1, "heat", [], [0.1])


def test_matrix_pnorm_against_direct_bounds():
    rng = np.random.default_rng(21)
    B = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    assert el._matrix_pnorm(B, 1) == pytest.approx(np.abs(B).sum(axis=0).max())
    assert el._matrix_pnorm(B, math.inf) == pytest.approx(np.abs(B).sum(axis=1).max())
    assert el._matrix_pnorm(B, 2) == pytest.approx(np.linalg.norm(B, 2))

    p = 3.0
    boyd = el._matrix_pnorm(B, p)
    probes = rng.normal(size=(40, 3000)) + 1j * rng.normal(size=(40, 3000))
    num = np.linalg.norm(B @ probes, ord=p, axis=0)
    den = np.linalg.norm(probes, ord=p, axis=0)
    lower = float((num / den).max())
    upper = np.linalg.norm(B, 2) ** (2 / 3) * np.abs(B).sum(axis=1).max() ** (1 / 3)
    assert lower <= boyd * (1 + 1e-9)
    assert boyd <= upper * (1 + 1e-9)


def test_dense_family_matches_apply(lap1, pert1_16):
    for op in (lap1, pert1_16):
        rng = np.random.default_rng(22)
        f = rng.normal(size=op.grid.shape) + 1j * rng.normal(size=op.grid.shape)
        T = el._dense_family(op, "heat", 0.2)
        assert rel((T @ f.ravel()).reshape(op.grid.shape), op.heat(0.2, 0, f)) < 1e-11
        P = el._dense_family(op, "poisson", 0.2)
        assert rel((P @ f.ravel()).reshape(op.grid.shape), op.poisson(0.2, 0, f)) < 1e-11
        G = el._dense_gradient(op, "heat", 0.2)
        got = (G @ f.ravel()).reshape(op.grid.n, *op.grid.shape)
        want = op.heat_gradient(0.2, 0, f)
        assert rel(got, want) < 1e-11
