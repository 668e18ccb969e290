"""Divergence-form operators: assembly, calculus tiers, semigroup families,
the dense exponential's squaring, and off-diagonal decay and exact norms.

Reference values come from independent brute-force implementations written
here (explicit stencil loops, Fourier symbols, dense linear algebra), not
from the module under test.
"""

import math
import struct
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

from conical_lab.grid import (
    Grid,
    GridFunction,
    TimeGrid,
    torus_distance,
)
from conical_lab import elliptic as el
from conical_lab.elliptic import (
    CoefficientField,
    EllipticityError,
    assemble,
    offdiagonal_opnorm,
)
from oracles import pade13_plain
from subordination_oracle import QuadratureError, poisson_ladder


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


def ref_matrix(coeff):
    """Dense matrix of ref_divform, one unit field per column."""
    g = coeff.grid
    return np.stack([ref_divform(coeff, e.reshape(g.shape)).ravel()
                     for e in np.eye(g.ncells)], axis=1)


def symbol_1d(grid, t, m):
    """Fourier multiplier of (t^2 L)^m e^{-t^2 L} for A = I in one dimension."""
    k = np.arange(grid.N)
    mu = 4 * np.sin(np.pi * k * grid.h) ** 2 / grid.h**2
    return (t * t * mu) ** m * np.exp(-t * t * mu)


def symbol_constant(grid, A):
    """Fourier multiplier of L for constant coefficients A: its value on the
    mode exp(i theta . x / h), theta_j = 2 pi k_j / N, in np.fft order.

    Forward, backward and centered differences multiply the mode by
    (e^{i theta} - 1)/h, (1 - e^{-i theta})/h and i sin(theta)/h, and the
    face average along j by (1 + e^{i theta_j})/2.
    """
    n, h = grid.n, grid.h
    theta = np.meshgrid(*([2 * np.pi * np.arange(grid.N) / grid.N] * n), indexing="ij")
    sym = np.zeros(grid.shape, dtype=complex)
    for j in range(n):
        sym += A[j, j] * 4 * np.sin(theta[j] / 2) ** 2 / h**2
        for k in range(n):
            if k != j:
                sym -= (A[j, k] * (1 - np.exp(-1j * theta[j])) / h
                        * (1 + np.exp(1j * theta[j])) / 2 * 1j * np.sin(theta[k]) / h)
    return sym


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
def herm1_16():
    g = Grid(1, 16)
    return assemble(g, _cosine_diagonal(g))


@pytest.fixture(scope="module")
def herm2_8():
    g = Grid(2, 8)
    return assemble(g, _cosine_diagonal(g))


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
    assert "(5,)" in str(err.value)


def test_preset_bounds_and_face_sampling():
    g = Grid(1, 32)
    coeff = CoefficientField.preset(g, "perturbed")
    assert coeff.lam == pytest.approx(0.6, rel=1e-12)
    # Lambda, the largest operator norm of A over the cells:
    # |1 + 0.4 e^{2 pi i x}| peaks at 1.4 on the face x = 1
    Lam = float(np.linalg.svd(coeff.values, compute_uv=False).max())
    assert Lam == pytest.approx(1.4, rel=1e-12)
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
    # a 2-D header followed by one channel where four are due
    g = Grid(2, 8)
    path = tmp_path / "single.coef"
    path.write_bytes(b"CLGF" + struct.pack("<IIxxxx", g.n, g.N)
                     + np.ones(g.ncells, dtype="<c16").tobytes())
    with pytest.raises(ValueError, match="expected 4 channels"):
        CoefficientField.from_file(path)


def test_build_report_tiers(lap1, pert1_8, pert1_16, cross2, scalar_complex):
    for op in (lap1, cross2, scalar_complex):
        assert op.report.tier == "fft" and op.report.cond == 1.0
        assert op.has_eigenbasis
    for op in (pert1_8, pert1_16):
        assert op.report.tier == "dense-fallback"
        assert math.isnan(op.report.cond)
        assert not op.has_eigenbasis


def test_dense_fallback_keeps_unperturbed_matrix(pert1_16):
    # the note names the dense route; the matrix is the stencil itself
    assert pert1_16.report.notes[0] == (
        "non-Hermitian: no eigendecomposition, semigroups run via expm/sqrtm")
    g = pert1_16.grid
    stencil = np.stack([ref_divform(pert1_16.coeff, e.reshape(g.shape)).ravel()
                        for e in np.eye(g.ncells)], axis=1)
    assert np.array_equal(pert1_16.matrix, stencil)


@pytest.mark.parametrize("build", [
    lambda: CoefficientField.preset(Grid(2, 16), "perturbed"),
    lambda: _cosine_diagonal(Grid(1, 128)),
    lambda: CoefficientField.constant(Grid(2, 16), CROSS_A),
], ids=["perturbed-2d-16", "cosine-1d-128", "cross-2d-16"])
def test_stencil_matrix_blocks_are_one_batch(build):
    # the matrix is built in blocks of columns; every column keeps the bits
    # of the stencil applied to the whole identity batch at once
    coeff = build()
    nc = coeff.grid.ncells
    assert nc > el._BLOCK
    unit = np.eye(nc, dtype=complex).reshape(nc, *coeff.grid.shape)
    want = np.ascontiguousarray(el.apply_divform(coeff, unit).reshape(nc, nc).T)
    got = el._stencil_matrix(coeff)
    assert got.flags.c_contiguous
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_hermitian_test_is_allclose():
    # _is_hermitian is np.allclose(M, M^H, atol=1e-12 max |M_ij|) with the
    # default rtol, row block by row block: entries moved just inside and
    # just outside that bound, in the first and the last (partial) block
    rng = np.random.default_rng(11)
    n = 2 * el._BLOCK + 22
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = X + X.conj().T
    atol = 1e-12 * np.abs(H).max()
    verdicts = set()
    for i, j in ((0, 1), (3, n - 1), (n - 1, n - 5), (n - 2, n - 2)):
        for factor in (0.5, 0.999, 1.001, 2.0):
            M = H.copy()
            bound = atol + 1e-5 * abs(M[j, i])
            M[i, j] += factor * bound
            want = np.allclose(M, M.conj().T, atol=1e-12 * np.abs(M).max())
            assert el._is_hermitian(M) == want, (i, j, factor)
            verdicts.add(want)
    assert verdicts == {True, False}
    assert el._is_hermitian(H)


def test_non_hermitian_build_skips_eigendecomposition(monkeypatch):
    # a non-Hermitian operator keeps no basis, so assembling one must not
    # factor, invert or solve anything, nor call a dense kernel
    def refuse(*args, **kwargs):
        raise AssertionError("factorization of a non-Hermitian operator")

    for name in ("eig", "inv", "solve"):
        monkeypatch.setattr(el.np.linalg, name, refuse)
    for name in ("expm", "sqrtm"):
        monkeypatch.setattr(el.sla, name, refuse)
    for coeff, tier in ((CoefficientField.preset(Grid(1, 16), "perturbed"), "dense-fallback"),
                        (CoefficientField.constant(Grid(2, 8), CROSS_A), "fft")):
        op = assemble(coeff.grid, coeff)
        assert op.report.tier == tier
        assert math.isnan(op.report.cond) == (tier == "dense-fallback")


def test_fft_tier_factors_nothing(monkeypatch):
    # equal coefficients in every cell give a circulant, which the DFT
    # diagonalizes; no eigensolver runs and the matrix is built only on read
    def refuse(*args, **kwargs):
        raise AssertionError("factorization of a circulant operator")

    monkeypatch.setattr(el.np.linalg, "eigh", refuse)
    monkeypatch.setattr(el.np.linalg, "eig", refuse)
    for coeff in (CoefficientField.preset(Grid(2, 32), "laplace"),
                  CoefficientField.constant(Grid(1, 32), np.array([[1.0 + 0.8j]]))):
        op = assemble(coeff.grid, coeff)
        assert op.report.tier == "fft" and op.report.cond == 1.0
        assert "matrix" not in op._cache
    for coeff in (CoefficientField.preset(Grid(2, 8), "laplace"),
                  CoefficientField.constant(Grid(2, 8), CROSS_A)):
        assert np.array_equal(assemble(coeff.grid, coeff).matrix, ref_matrix(coeff))


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


def _count_dense_builds(monkeypatch, op):
    """Instrument a fresh operator: every expm argument cG, the sqrtm calls
    and every cache key built."""
    calls = {"expm": [], "sqrtm": 0, "builds": []}
    real_expm, real_sqrtm, real_cached = el.sla.expm, el.sla.sqrtm, op._cached

    def expm(G, c):
        calls["expm"].append((c * G).tobytes())
        return real_expm(G, c)

    def sqrtm(A):
        calls["sqrtm"] += 1
        return real_sqrtm(A)

    def cached(key, build):
        def counted():
            calls["builds"].append(key)
            return build()
        return real_cached(key, counted)

    monkeypatch.setattr(el.sla, "expm", expm)
    monkeypatch.setattr(el.sla, "sqrtm", sqrtm)
    monkeypatch.setattr(op, "_cached", cached)
    return calls


def test_dense_caches_built_once(monkeypatch):
    # a one-time request is a root: each is built once, cached, and reused by
    # every later request for it with the same bytes. A request an octave or
    # more above a cached root is squared up from it, as a walk over both
    # times squares, and caches nothing: squared levels live only in a walk
    g = Grid(1, 16)
    coeff = CoefficientField.preset(g, "perturbed")
    op = assemble(g, coeff)
    assert op.report.tier == "dense-fallback"
    calls = _count_dense_builds(monkeypatch, op)
    times = (0.05, 0.13, 0.3)
    f = np.cos(2 * np.pi * g.cell_centers()[..., 0])

    def walk():
        return [op.heat(t, 0, f) for t in times] + [op.poisson(t, 0, f) for t in times]

    first = walk()
    # one key per heat level, Poisson level and the square root, none twice
    assert len(calls["builds"]) == len(set(calls["builds"]))
    assert set(calls["builds"]) == ({("h", t * t) for t in times}
                                    | {("p", t) for t in times} | {"sqrt"})
    assert len(calls["expm"]) == 2 * len(times)
    assert len(set(calls["expm"])) == len(calls["expm"])
    assert calls["sqrtm"] == 1
    built, expms = list(calls["builds"]), len(calls["expm"])
    for a, b in zip(first, walk()):
        assert np.array_equal(a, b)
    # two octaves above the root at 0.05
    up = [op.heat(0.2, 0, f), op.poisson(0.2, 0, f)]
    assert calls["builds"] == built
    assert len(calls["expm"]) == expms
    assert set(op._cache) == {"matrix"} | set(built)
    fresh = assemble(g, coeff)
    for got, family in zip(up, ("heat", "poisson")):
        assert np.array_equal(got, fresh.ladder(family, 0, "none", (0.05, 0.1, 0.2), f)[2, 0])


def test_dense_squaring_needs_an_octave(monkeypatch):
    # a level is squared up only from a key one octave below to 1e-13
    # relative: 0.2 comes from 0.1, 0.2 (1 + 1e-6) calls expm again
    g = Grid(1, 16)
    op = assemble(g, CoefficientField.preset(g, "perturbed"))
    calls = _count_dense_builds(monkeypatch, op)
    f = np.cos(2 * np.pi * g.cell_centers()[..., 0])
    for family in ("heat", "poisson"):
        op.ladder(family, 0, "none", (0.1, 0.2, 0.2 * (1 + 1e-6)), f)
    assert len(calls["expm"]) == 4


def test_dense_ladder_squared_the_same_either_order(monkeypatch):
    # walking the whole spanning ladder (ratio 2^{1/3}) calls expm at the
    # three lowest levels of each family only, and the cache keeps just
    # those roots: every level above is squared up inside the walk and
    # dropped with it. The dense route walks times in ascending order
    # whatever order they come in, so a fresh operator taking the ladder top
    # down gives the same bytes
    g = Grid(1, 16)
    coeff = CoefficientField.preset(g, "perturbed")
    levels = TimeGrid.spanning(g).levels
    f = np.cos(2 * np.pi * g.cell_centers()[..., 0]) + 0.3j * g.cell_centers()[..., 0]

    def walk(op, times=levels):
        return [op.ladder(family, 2, "full", times, f) for family in ("heat", "poisson")]

    top_down = [out[::-1] for out in walk(assemble(g, coeff), levels[::-1])]
    op = assemble(g, coeff)
    calls = _count_dense_builds(monkeypatch, op)
    bottom_up = walk(op)
    roots = {("h", t * t) for t in levels[:3]} | {("p", t) for t in levels[:3]}
    assert len(calls["builds"]) == len(set(calls["builds"])) == len(roots) + 1
    assert set(op._cache) == {"matrix", "sqrt"} | roots
    assert len(calls["expm"]) == 2 * 3
    assert len(set(calls["expm"])) == len(calls["expm"])
    assert calls["sqrtm"] == 1
    for a, b in zip(bottom_up, top_down):
        assert np.array_equal(a, b)
    # a second walk squares the same levels from the same roots
    for a, b in zip(bottom_up, walk(op)):
        assert np.array_equal(a, b)
    assert len(calls["expm"]) == 2 * 3


def _flush_reference(E):
    """E with every real and imaginary part in (0, sqrt(tiny)) in magnitude
    set to 0, written out part by part."""
    floor = math.sqrt(np.finfo(float).tiny)
    out = E.copy()
    for part in (out.real, out.imag):
        flat = part.reshape(-1)
        for i, v in enumerate(flat):
            if 0 < abs(v) < floor:
                flat[i] = 0.0
    return out


def test_squared_flushes_exactly_below_sqrt_tiny():
    floor = math.sqrt(np.finfo(float).tiny)
    assert el._FLUSH == floor
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-200, -1e-160,
                       np.nextafter(floor, 0), floor, -floor, np.nextafter(floor, 1),
                       1e-100, -0.5, 1.0, np.inf, -np.inf])
    rng = np.random.default_rng(5)
    re = rng.permutation(np.resize(values, 36)).reshape(6, 6)
    im = rng.permutation(np.resize(values, 36)).reshape(6, 6)
    Z = np.empty((6, 6), dtype=complex)
    Z.real, Z.imag = re, im
    want = _flush_reference(Z)
    assert np.count_nonzero(want.view(np.uint64) != Z.view(np.uint64)) > 0
    out = el._squared(Z, 0)
    assert out is Z
    # the flushed parts are +0.0, every other part keeps its bits
    assert np.array_equal(Z.view(np.uint64), want.view(np.uint64))
    # the same across _flush's row blocks, on 2.5 blocks of rows
    n = 5 * el._BLOCK // 2
    Z = np.empty((n, n), dtype=complex)
    Z.real, Z.imag = rng.choice(values, (n, n)), rng.choice(values, (n, n))
    want = _flush_reference(Z)
    el._flush(Z)
    assert np.array_equal(Z.view(np.uint64), want.view(np.uint64))

    # each product is flushed too, and the input is flushed in place
    g = Grid(1, 64)
    op = assemble(g, CoefficientField.preset(g, "perturbed"))
    root = sla.expm(-1e-8 * op.matrix)
    assert np.count_nonzero(_flush_reference(root) != root) > 0
    E = root.copy()
    out = el._squared(E, 3)
    want = _flush_reference(root)
    assert np.array_equal(E.view(np.uint64), want.view(np.uint64))
    for _ in range(3):
        want = _flush_reference(want @ want)
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))


def _squarings(tau, G):
    """Least s >= 0 with tau ||G||_1 / 2^s <= theta_13."""
    return max(0, math.ceil(math.log2(tau * np.linalg.norm(G, 1) / el._THETA13)))


def test_dense_root_matches_expm(monkeypatch):
    # the root is the Pade step on the scaled argument cG with c = -tau / 2^s,
    # squared s times; on 1-D N=128 perturbed at t = 0.1 that is 8 squarings
    # for heat and 3 for Poisson. The step gets the cached generator itself,
    # cG equals -tau G / 2^s entry for entry, the step is within 1e-14 of
    # SciPy's expm of cG, and the squarings are _squared's
    g = Grid(1, 128)
    op = assemble(g, CoefficientField.preset(g, "perturbed"))
    t = 0.1
    M, S = op.matrix, op._sqrt_matrix()
    seen = []
    real_expm = el.sla.expm

    def expm(G, c):
        seen.append((G, c, real_expm(G, c)))
        return seen[-1][2].copy()

    monkeypatch.setattr(el.sla, "expm", expm)
    for got, tau, G in ((el._root(M, t * t), t * t, M), (el._root(S, t), t, S)):
        gen, c, root = seen.pop(0)
        s = _squarings(tau, G)
        assert gen is G
        A = c * G
        assert s >= 1 and np.array_equal(A, -tau * G * 0.5**s)
        want = sla.expm(A)
        assert np.linalg.norm(root - want, 2) <= 1e-14 * np.linalg.norm(want, 2)
        assert np.array_equal(got, el._squared(root, s))
    assert _squarings(t * t, M) >= 6


def test_pade13_matches_scipy_expm():
    # the Pade step alone, at and below theta_13 in 1-norm, on the dense
    # route's heat and Poisson generators and on a random complex matrix.
    # The step forms cG itself and its combinations in row blocks, and still
    # gives the bits of the plain evaluation on cG; it is within 1e-14 of
    # SciPy's expm in every entry (entries are at most 1.4)
    rng = np.random.default_rng(7)
    g = Grid(1, 64)
    op = assemble(g, CoefficientField.preset(g, "perturbed"))
    Z = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    for G in (op.matrix, op._sqrt_matrix(), Z):
        for norm in (el._THETA13, 1.0, 1e-3):
            c = -norm / np.linalg.norm(G, 1)
            got = el._pade13(G, c)
            want = pade13_plain(c * G)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), norm
            assert np.abs(got - sla.expm(c * G)).max() <= 1e-14, norm


def test_pade13_holds_at_most_six_matrices():
    # traced peak of the step on the 2-D N=16 perturbed generator, which the
    # caller holds: five work matrices and the row-block temporaries (a
    # quarter of a matrix each at 256 cells). The plain evaluation holds seven
    g = Grid(2, 16)
    op = assemble(g, CoefficientField.preset(g, "perturbed"))
    G = op.matrix
    c = -el._THETA13 / np.linalg.norm(G, 1)
    tracemalloc.start()
    try:
        el._pade13(G, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * G.nbytes, peak / G.nbytes


def _two_sided(grid):
    """A diagonal field with modes on both sides of the DFT diagonal, so its
    stencil is not triangular in the DFT basis and its spectrum leaves the
    real axis: a_j = 1 + 0.4 e^{2 pi i x_j} + 0.3 e^{-4 pi i x_j} at the
    faces, and in 2-D A_12 = 0.3i cos(2 pi x_2), A_21 = 0.3i sin(2 pi x_1)."""
    centers = grid.cell_centers() + grid.h / 2
    vals = np.zeros(grid.shape + (grid.n, grid.n), dtype=complex)
    for j in range(grid.n):
        x = centers[..., j]
        vals[..., j, j] = 1 + 0.4 * np.exp(2j * np.pi * x) + 0.3 * np.exp(-4j * np.pi * x)
    if grid.n == 2:
        vals[..., 0, 1] = 0.3j * np.cos(2 * np.pi * centers[..., 1])
        vals[..., 1, 0] = 0.3j * np.sin(2 * np.pi * centers[..., 0])
    return CoefficientField(grid, vals)


@pytest.mark.parametrize("coeff, off_axis", [
    (CoefficientField.preset(Grid(1, 16), "perturbed"), 0.0),
    (CoefficientField.preset(Grid(2, 8), "perturbed"), 0.0),
    (_two_sided(Grid(1, 32)), 30.0),
    (_two_sided(Grid(2, 8)), 20.0),
], ids=["perturbed-1d-16", "perturbed-2d-8", "two-sided-1d-32", "two-sided-2d-8"])
def test_sqrtm_matches_scipy_within_eight_steps(monkeypatch, coeff, off_axis):
    # the shifted stencil of _build_sqrt: Denman-Beavers agrees with SciPy's
    # Schur-based sqrtm to 1e-12 relative, one inverse per step, in at most
    # eight steps, on real spectra and on spectra far off the real axis
    op = assemble(coeff.grid, coeff)
    assert op.report.tier == "dense-fallback"
    A = op.matrix + 1.0 / coeff.grid.ncells
    angles = np.degrees(np.abs(np.angle(np.linalg.eigvals(A))))
    assert angles.max() >= off_axis
    steps = []
    real_inv = el.np.linalg.inv

    def inv(X):
        steps.append(1)
        return real_inv(X)

    monkeypatch.setattr(el.np.linalg, "inv", inv)
    got = el._sqrtm(A)
    want = sla.sqrtm(A)
    assert len(steps) <= 8
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("eigs", [(-1.0, 2.0, 3.0), (-4.0, 0.5, 1.0, 9.0), (-1e-3, 1.0, 2.0)])
def test_sqrtm_raises_on_negative_eigenvalue(eigs):
    # an eigenvalue on the negative real axis has no principal root: the
    # iteration raises instead of returning a wrong one, diagonal or not
    rng = np.random.default_rng(3)
    n = len(eigs)
    Q = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 3 * np.eye(n)
    for A in (np.diag(eigs).astype(complex), Q @ np.diag(eigs) @ np.linalg.inv(Q)):
        with pytest.raises(RuntimeError, match="did not converge"):
            el._sqrtm(A)


def test_dense_expm_arguments_within_theta13(monkeypatch):
    # a spy on expm sees only arguments cG whose 1-norm is at most theta_13,
    # so the Pade 13 approximant never scales; no time is an octave above
    # another, so each is a root, and heat at t = 0.3 takes 9 squarings
    g = Grid(1, 64)
    op = assemble(g, CoefficientField.preset(g, "perturbed"))
    norms = []
    real_expm = el.sla.expm

    def expm(G, c):
        norms.append(np.linalg.norm(c * G, 1))
        return real_expm(G, c)

    monkeypatch.setattr(el.sla, "expm", expm)
    times = (0.02, 0.1, 0.3)
    f = np.cos(2 * np.pi * g.cell_centers()[..., 0])
    for family in ("heat", "poisson"):
        op.ladder(family, 0, "none", times, f)
    assert len(norms) == 2 * len(times)
    assert max(norms) <= el._THETA13
    assert _squarings(0.3 ** 2, op.matrix) >= 6


def test_dense_entries_hold_no_underflow():
    # the 1-D N=512 perturbed operator of the offdiag workload, at its time
    # t = 0.1 and at t = 0.01, where the heat kernel's far entries fall to
    # 1e-180 and below without the flush: no cached dense entry keeps a
    # nonzero part under sqrt(tiny)
    g = Grid(1, 512)
    op = assemble(g, CoefficientField.preset(g, "perturbed"))
    pts = g.cell_centers().reshape(-1, 1)
    E = np.flatnonzero(torus_distance(pts, [0.25]) < 0.04)
    F = np.flatnonzero(torus_distance(pts, [0.55]) < 0.04)
    for family, t in (("heat", 0.01), ("heat", 0.1), ("poisson", 0.1)):
        offdiagonal_opnorm(op, family, 0, "none", t, E, [F])
    assert set(op._cache) == {"matrix", "sqrt", ("h", 0.01 ** 2), ("h", 0.1 ** 2), ("p", 0.1)}
    for key, D in op._cache.items():
        parts = np.abs(np.stack([D.real, D.imag]))
        assert not np.any((parts > 0) & (parts < el._FLUSH)), key


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


def test_heat_rejects_bad_arguments(lap1, cross2):
    f = np.ones(lap1.grid.shape)
    with pytest.raises(ValueError):
        lap1.heat(0.0, 0, f)
    with pytest.raises(ValueError):
        lap1.heat(0.1, -1, f)
    with pytest.raises(ValueError):
        lap1.heat(0.1, 0, np.ones(7))
    # a flat (ncells,) vector is a field only where it is grid-shaped, in 1-D
    assert cross2.grid.shape == (8, 8)
    with pytest.raises(ValueError, match="grid-shaped"):
        cross2.heat(0.1, 0, np.ones(cross2.ncells))


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
    a0 = op.poisson(t, 0, f)
    b0 = poisson_ladder(op, 0, "none", (t,), f)[0, 0]
    assert rel(b0, a0) < 1e-6
    a1 = op.poisson(t, 1, f)
    b1 = poisson_ladder(op, 1, "none", (t,), f)[0, 0]
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


def _check_fourier_oracle(op, dense):
    # op is circulant but not Hermitian. The fft tier multiplies by the
    # stencil's DFT, so it meets a plain relative budget. The dense
    # expm/sqrtm route carries roundoff of size eps ||f|| in the cached
    # matrix, amplified by the m products with tau M, hence the budget
    # C ||f|| (1 + tau ||M||_2)^m with tau = t^2
    g = op.grid
    sym = symbol_constant(g, op.coeff.values.reshape(-1, g.n, g.n)[0])
    rng = np.random.default_rng(29)
    f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    fhat = np.fft.fftn(f)
    # the symbol is the stencil's, independently of any calculus
    assert rel(op.matrix @ f.ravel(), np.fft.ifftn(sym * fhat).ravel()) < 1e-13
    norm_M = np.linalg.norm(op.matrix, 2)
    C = 1e-12
    for t in TimeGrid.spanning(g).levels:
        tau = t * t
        for m in (0, 1, 2):
            heat = (tau * sym) ** m * np.exp(-tau * sym)
            poisson = (tau * sym) ** m * np.exp(-t * np.sqrt(sym))
            for got, s in ((op.heat(t, m, f), heat), (op.poisson(t, m, f), poisson)):
                want = np.fft.ifftn(s * fhat)
                if dense:
                    budget = C * np.linalg.norm(f) * (1 + tau * norm_M) ** m
                else:
                    budget = C * np.linalg.norm(want)
                err = np.linalg.norm(got - want)
                assert err <= budget, (t, m, err / budget)


@pytest.mark.parametrize("fix", ["scalar_complex", "cross2"])
def test_fft_tier_fourier_oracle(fix, request):
    op = request.getfixturevalue(fix)
    assert op.report.tier == "fft"
    _check_fourier_oracle(op, dense=False)


@pytest.mark.parametrize("fix", ["scalar_complex", "cross2"])
def test_dense_route_fourier_oracle(fix, request):
    # the same circulant matrix forced onto the dense expm/sqrtm route
    op = request.getfixturevalue(fix)
    assert op.report.tier == "fft"
    op = el.EllipticOperator(op.grid, op.coeff, op.matrix,
                             el.BuildReport("dense-fallback", math.nan))
    _check_fourier_oracle(op, dense=True)


def _cosine_diagonal(grid):
    # real diagonal a(x) = 1 + 0.4 cos(2 pi x) in the face coordinate of
    # each axis: variable and Hermitian
    vals = np.zeros(grid.shape + (grid.n, grid.n), dtype=complex)
    centers = grid.cell_centers()
    for j in range(grid.n):
        vals[..., j, j] = 1 + 0.4 * np.cos(2 * np.pi * (centers[..., j] + grid.h / 2))
    return CoefficientField(grid, vals)


@pytest.mark.parametrize("grid", [Grid(1, 16), Grid(2, 8)], ids=["1d-16", "2d-8"])
def test_hermitian_tier_dense_oracle(grid):
    # the Hermitian eigen tier against dense expm and a sqrtm-based root of
    # the stencil matrix, built here from the reference stencil
    coeff = _cosine_diagonal(grid)
    op = assemble(grid, coeff)
    assert op.report.tier == "hermitian-eig" and op.report.cond == 1.0
    M = ref_matrix(coeff)
    # shift the zero mode to 1 so sqrtm meets no singular eigenvalue
    J = np.full(M.shape, 1.0 / grid.ncells)
    root = sla.sqrtm(M + J) - J
    rng = np.random.default_rng(31)
    f = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    for t in TimeGrid.spanning(grid).levels:
        tau = t * t
        want = sla.expm(-tau * M) @ f.ravel()
        for m in (0, 1, 2):
            assert rel(op.heat(t, m, f).ravel(), want) < 1e-10, (t, m)
            want = tau * (M @ want)
        poisson = sla.expm(-t * root) @ f.ravel()
        assert rel(op.poisson(t, 0, f).ravel(), poisson) < 1e-10, t


def test_dense_route_exact_oracle():
    # the non-normal dense route against 30-digit arithmetic on the same
    # matrix, taken exactly: e^{-tau M} from mpmath.expm and the Poisson
    # root as sqrtm(M + J) - J, J the constant-mode projector. The route
    # walks the whole spanning ladder; levels 0, 3, 6, 9 and 11 are expm
    # roots and levels squared up from them once, twice and three times.
    # Budget as in _check_fourier_oracle: C ||f|| (1 + tau ||M||_2)^m for
    # the member, one power more for its time component 2m (member) - R,
    # R = 2 (t^2 M)^{m+1} e^{-t^2 M} f for heat and t root (t^2 M)^m
    # e^{-t root} f for Poisson
    g = Grid(1, 16)
    op = assemble(g, CoefficientField.preset(g, "perturbed"))
    assert op.report.tier == "dense-fallback"
    levels = TimeGrid.spanning(g).levels
    rng = np.random.default_rng(37)
    f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    got = {family: [op.ladder(family, m, "none", levels, f)[:, 0] for m in (0, 1, 2)]
           for family in ("heat", "poisson")}
    got_dt = {family: [op.ladder(family, m, "full", levels, f)[:, -1] for m in (0, 1, 2)]
              for family in ("heat", "poisson")}
    norm_M = np.linalg.norm(op.matrix, 2)
    C = 1e-12
    with mpmath.workdps(30):
        M = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in op.matrix])
        J = mpmath.matrix([[mpmath.mpf(1) / g.ncells] * g.ncells] * g.ncells)
        root = mpmath.sqrtm(M + J) - J
        x = mpmath.matrix([mpmath.mpc(complex(z)) for z in f.ravel()])
        for k in (0, 3, 6, 9, 11):
            t = mpmath.mpf(levels[k])
            grow = 1 + levels[k] ** 2 * norm_M
            for family, E, G in (("heat", mpmath.expm(-t * t * M), 2 * t * t * M),
                                 ("poisson", mpmath.expm(-t * root), t * root)):
                want = E * x
                for m in (0, 1, 2):
                    budget = C * np.linalg.norm(f) * grow ** m
                    for part, value, ref, bound in (
                            ("member", got[family][m][k], want, budget),
                            ("time", got_dt[family][m][k], 2 * m * want - G * want,
                             budget * grow)):
                        ref = np.array([complex(z) for z in ref]).reshape(g.shape)
                        err = np.linalg.norm(value - ref)
                        assert err <= bound, (family, part, k, m, err / bound)
                    want = t * t * (M * want)


def test_subordination_tail_guard(lap1):
    f = np.ones(lap1.grid.shape)
    with pytest.raises(QuadratureError, match="96 nodes"):
        poisson_ladder(lap1, 24, "none", (0.5,), f)


def test_unknown_poisson_method(lap1):
    # the operator has one Poisson route and takes no route keyword
    f = np.ones(lap1.grid.shape)
    with pytest.raises(TypeError):
        lap1.poisson(0.5, 0, f, method="direct")
    with pytest.raises(TypeError):
        lap1.poisson_gradient(0.5, 0, f, method="direct")
    with pytest.raises(TypeError):
        lap1.ladder("poisson", 0, "none", (0.5,), f, method="direct")


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
def test_time_derivative_fd_order(lap1, pert1_16, herm1_16, family):
    # analytic time component vs centered differences of the plain family,
    # in the fft tier (lap1), on the dense route (pert1_16) and in the
    # Hermitian tier (herm1_16); the measured convergence order is 2, well
    # above the 1.8 floor
    rng = np.random.default_rng(14)
    t = 0.3
    for op in (lap1, pert1_16, herm1_16):
        g = op.grid
        f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        for m in (0, 1, 2):
            if family == "heat":
                analytic = op.heat_gradient(t, m, f, mode="full")[-1]
                fam = lambda s: op.heat(s, m, f)
            else:
                analytic = op.poisson_gradient(t, m, f, mode="full")[-1]
                fam = lambda s: op.poisson(s, m, f)

            errs = []
            for delta in (0.02, 0.01, 0.005):
                fd = t * (fam(t + delta) - fam(t - delta)) / (2 * delta)
                errs.append(np.linalg.norm(fd - analytic))
            order1 = math.log2(errs[0] / errs[1])
            order2 = math.log2(errs[1] / errs[2])
            assert order1 > 1.8 and order2 > 1.8, (g.N, m, order1, order2)


def test_gradient_modes_and_validation(lap1):
    f = np.ones(lap1.grid.shape)
    spatial = lap1.heat_gradient(0.2, 0, f, mode="spatial")
    assert spatial.shape == (1,) + lap1.grid.shape
    with pytest.raises(ValueError, match="mode"):
        lap1.heat_gradient(0.2, 0, f, mode="radial")
    with pytest.raises(ValueError, match="mode"):
        lap1.poisson_gradient(0.2, 0, f, mode="radial")


@pytest.mark.parametrize("member", ["heat", "poisson", "heat_gradient", "poisson_gradient"])
def test_members_reject_bad_time_and_order(lap1, member):
    f = np.ones(lap1.grid.shape)
    evaluate = getattr(lap1, member)
    with pytest.raises(ValueError, match="time must be positive"):
        evaluate(-0.5, 0, f)
    with pytest.raises(ValueError, match="order must be a nonnegative integer"):
        evaluate(0.5, 1.5, f)


# -------------------------------------------------------------- time ladder


def _per_level(op, family, order, derivative, t, f):
    if derivative == "none":
        if family == "heat":
            return op.heat(t, order, f)[None]
        return op.poisson(t, order, f)[None]
    if family == "heat":
        return op.heat_gradient(t, order, f, mode=derivative)
    return op.poisson_gradient(t, order, f, mode=derivative)


@pytest.mark.parametrize("fix", ["lap1", "pert1_8", "cross2", "pert1_16"])
def test_ladder_matches_per_level(fix, request):
    op = request.getfixturevalue(fix)
    g = op.grid
    rng = np.random.default_rng(23)
    f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    levels = TimeGrid.spanning(g).levels
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
                    assert err < 1e-12, (family, derivative, order, t)


def test_ladder_subordination_route(lap1, pert1_16):
    # the direct Poisson ladder against the subordination rule over the heat
    # ladder, component by component, on the fft tier and the dense route;
    # the 48-node rule lands at 1.8e-4 of the level's norm at worst here
    levels = (0.5, 1.0)
    for op in (lap1, pert1_16):
        g = op.grid
        rng = np.random.default_rng(53)
        f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        for order in (0, 1):
            got = op.ladder("poisson", order, "full", levels, f)
            want = poisson_ladder(op, order, "full", levels, f)
            assert want.shape == got.shape
            for k in range(len(levels)):
                scale = np.linalg.norm(got[k])
                for c in range(g.n + 1):
                    err = np.linalg.norm(want[k, c] - got[k, c]) / scale
                    assert err < 1e-3, (g.N, order, k, c, err)


def _random_batch(grid, size, seed):
    rng = np.random.default_rng(seed)
    shape = (size, *grid.shape)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


MEMBERS = [(family, derivative, order) for family in ("heat", "poisson")
           for derivative in ("none", "spatial", "full") for order in (0, 1, 2)]


@pytest.mark.parametrize("fix", ["lap1", "cross2"])
def test_fft_ladder_batch_is_per_field(fix, request):
    # the fft tier transforms each field of a batch on its own, so the batch
    # reproduces every per-field bit
    op = request.getfixturevalue(fix)
    assert op.report.tier == "fft"
    g = op.grid
    batch = _random_batch(g, 3, 41)
    levels = TimeGrid.spanning(g).levels
    for family, derivative, order in MEMBERS:
        got = op.ladder(family, order, derivative, levels, batch)
        ncomp = {"none": 1, "spatial": g.n, "full": g.n + 1}[derivative]
        assert got.shape == (len(levels), ncomp, len(batch), *g.shape)
        for b, f in enumerate(batch):
            want = op.ladder(family, order, derivative, levels, f)
            assert np.array_equal(got[:, :, b], want), (family, derivative, order, b)


@pytest.mark.parametrize("fix", ["pert1_8", "pert1_16", "herm1_16", "herm2_8"])
def test_matrix_ladder_batch_is_per_field(fix, request):
    # a batch multiplies matrices where one field multiplies a vector, so the
    # two differ by roundoff. Budget of test_dense_route_exact_oracle:
    # C ||f|| (1 + tau ||M||_2)^m for the member, one power more for the time
    # component, and a factor 2 t / h more for t times a forward difference
    op = request.getfixturevalue(fix)
    assert op.report.tier == ("dense-fallback" if fix.startswith("pert") else "hermitian-eig")
    g = op.grid
    batch = _random_batch(g, 3, 43)
    levels = TimeGrid.spanning(g).levels
    norm_M = np.linalg.norm(op.matrix, 2)
    C = 1e-12
    for family, derivative, order in MEMBERS:
        got = op.ladder(family, order, derivative, levels, batch)
        for b, f in enumerate(batch):
            want = op.ladder(family, order, derivative, levels, f)
            for k, t in enumerate(levels):
                member = C * np.linalg.norm(f) * (1 + t * t * norm_M) ** order
                budgets = {"none": [member], "spatial": [member * 2 * t / g.h] * g.n,
                           "full": [member * 2 * t / g.h] * g.n
                           + [member * (1 + t * t * norm_M)]}[derivative]
                for c, budget in enumerate(budgets):
                    err = np.linalg.norm(got[k, c, b] - want[k, c])
                    assert err <= budget, (family, derivative, order, k, c, err / budget)


@pytest.mark.parametrize("fix", ["lap1", "cross2", "herm1_16", "herm2_8", "pert1_8", "pert1_16"])
def test_ladders_is_ladder_per_member(fix, request):
    # one walk serves every member of a family: on the spectral tiers each
    # member comes from its own stacked symbols, so every bit matches the
    # one-member call; the dense walk is held to the budget of
    # test_matrix_ladder_batch_is_per_field
    op = request.getfixturevalue(fix)
    g = op.grid
    batch = _random_batch(g, 3, 59)
    levels = TimeGrid.spanning(g).levels
    norm_M = np.linalg.norm(op.matrix, 2)
    C = 1e-12
    for family in ("heat", "poisson"):
        members = [(order, derivative) for fam, derivative, order in MEMBERS if fam == family]
        for f in (batch, batch[0]):
            got = op.ladders(family, members, levels, f)
            assert len(got) == len(members)
            for (order, derivative), out in zip(members, got):
                want = op.ladder(family, order, derivative, levels, f)
                assert out.shape == want.shape
                if op.has_eigenbasis:
                    assert np.array_equal(out, want), (family, order, derivative)
                    continue
                for k, t in enumerate(levels):
                    member = C * np.linalg.norm(f) * (1 + t * t * norm_M) ** order
                    budgets = [member * 2 * t / g.h] * g.n
                    budgets = {"none": [member], "spatial": budgets,
                               "full": budgets + [member * (1 + t * t * norm_M)]}[derivative]
                    for c, budget in enumerate(budgets):
                        err = np.linalg.norm(out[k, c] - want[k, c])
                        assert err <= budget, (family, order, derivative, k, c, err / budget)
    with pytest.raises(ValueError, match="at least one member"):
        op.ladders("heat", [], levels, batch)
    with pytest.raises(ValueError, match="derivative"):
        op.ladders("heat", [(0, "none"), (1, "radial")], levels, batch)


@pytest.mark.parametrize("fix", ["lap1", "pert1_8", "herm2_8"])
def test_one_time_entries_are_ladder(fix, request):
    op = request.getfixturevalue(fix)
    g = op.grid
    batch = _random_batch(g, 2, 47)
    t = 0.3
    for f in (GridFunction(g, batch[0]), batch[0], batch):
        values = f.values if isinstance(f, GridFunction) else f
        for order in (0, 2):
            heat = op.heat(t, order, f)
            poisson = op.poisson(t, order, f)
            for got, family in ((heat, "heat"), (poisson, "poisson")):
                assert isinstance(got, GridFunction) == isinstance(f, GridFunction)
                got = got.values if isinstance(got, GridFunction) else got
                assert got.shape == values.shape
                assert np.array_equal(got, op.ladder(family, order, "none", (t,), f)[0, 0])
            for mode in ("spatial", "full"):
                for got, family in ((op.heat_gradient(t, order, f, mode=mode), "heat"),
                                    (op.poisson_gradient(t, order, f, mode=mode), "poisson")):
                    assert np.array_equal(got, op.ladder(family, order, mode, (t,), f)[0])


@pytest.mark.parametrize("build", [
    lambda g: CoefficientField.preset(g, "laplace"),
    _cosine_diagonal,
], ids=["fft", "hermitian-eig"])
def test_spectral_symbols_built_once_per_ladder(monkeypatch, build):
    g = Grid(2, 8)
    coeff = build(g)
    op = assemble(g, coeff)
    assert op.has_eigenbasis
    builds = []
    real_symbol = el.EllipticOperator._symbol

    def symbol(self, family, t, m, time=False):
        if self is op:
            builds.append((family, np.asarray(t).tobytes(), m, time))
        return real_symbol(self, family, t, m, time)

    monkeypatch.setattr(el.EllipticOperator, "_symbol", symbol)
    levels = TimeGrid.spanning(g).levels
    members = [
        # family, order, derivative, levels
        ("heat", 1, "none", levels),
        ("heat", 0, "spatial", levels),
        ("heat", 0, "full", levels),
        ("heat", 1, "none", levels[1:]),
        ("poisson", 1, "none", levels),
        ("poisson", 0, "full", levels),
    ]
    distinct = 6
    rng = np.random.default_rng(37)
    for i in range(4):
        f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        for family, order, derivative, ladder in members:
            got = op.ladder(family, order, derivative, ladder, f)
            fresh = assemble(g, coeff).ladder(family, order, derivative, ladder, f)
            assert got.tobytes() == fresh.tobytes(), (i, family, order, derivative)
        assert len(builds) == distinct, i
    assert len(set(builds)) == distinct


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
    with pytest.raises(ValueError, match="grid-shaped array, or batch"):
        lap1.ladder("heat", 0, "none", (0.1,), np.ones((2, 3)))


# ---------------------------------------------------------- exact norms


# (family, t, order, derivative)
REQUESTS = [
    ("heat", 0.2, 0, "none"),
    ("heat", 0.2, 2, "none"),
    ("heat", 0.3, 0, "spatial"),
    ("heat", 0.3, 1, "full"),
    ("poisson", 0.4, 0, "none"),
    ("poisson", 0.4, 1, "none"),
    ("poisson", 0.4, 0, "spatial"),
    ("poisson", 0.4, 1, "full"),
]


def _reference_member(op, req):
    """Dense matrix of the member req = (family, t, order, derivative)
    names, components stacked as row blocks, from expm/sqrtm of op.matrix:
    the family Q, then t times the forward difference along each axis, then
    t d/dt Q = 2m Q - R with
    R = 2 (t^2 M)^{m+1} e^{-t^2 M} (heat) or (t S)^{2m+1} e^{-t S} (Poisson)."""
    g = op.grid
    M = op.matrix
    family, t, m, derivative = req
    power = np.linalg.matrix_power(t * t * M, m)
    if family == "heat":
        semi = sla.expm(-t * t * M)
        R = 2 * (t * t * M) @ power @ semi
    else:
        # shift the zero mode to 1 so sqrtm meets no singular eigenvalue;
        # M annihilates constants on both sides, so the shift commutes
        J = np.full(M.shape, 1.0 / g.ncells)
        S = sla.sqrtm(M + J) - J
        semi = sla.expm(-t * S)
        R = (t * S) @ power @ semi
    Q = power @ semi
    if derivative == "none":
        return Q
    unit = np.eye(g.ncells).reshape(g.ncells, *g.shape)
    comps = []
    for j in range(g.n):
        D = (np.roll(unit, -1, axis=j + 1) - unit).reshape(g.ncells, -1).T / g.h
        comps.append(t * D @ Q)
    if derivative == "full":
        comps.append(2 * m * Q - R)
    return np.concatenate(comps, axis=0)


@pytest.mark.parametrize("fix", ["lap1", "pert1_16", "cross2"])
def test_offdiagonal_opnorm_exact_oracle(fix, request):
    # the restricted norm against the top singular value of chi_F T chi_E
    # cut from the reference member
    op = request.getfixturevalue(fix)
    g = op.grid
    pts = g.cell_centers().reshape(-1, g.n)
    anchor = np.full(g.n, 0.25)
    shifted = anchor.copy()
    shifted[0] += 0.4
    E = np.flatnonzero(torus_distance(pts, anchor) < 0.15)
    F = np.flatnonzero(torus_distance(pts, shifted) < 0.15)
    assert E.size and F.size and not np.intersect1d(E, F).size
    for req in REQUESTS:
        T = _reference_member(op, req)
        comps = T.shape[0] // g.ncells
        rows = np.concatenate([F + c * g.ncells for c in range(comps)])
        block = T[np.ix_(rows, E)]
        want = np.linalg.svd(block, compute_uv=False)[0]
        family, t, order, derivative = req
        got = offdiagonal_opnorm(op, family, order, derivative, t, E, [F])
        assert got == [pytest.approx(want, rel=1e-10)], req


@pytest.mark.parametrize("fix", ["lap1", "pert1_16", "cross2"])
def test_offdiagonal_opnorm_many_targets_is_one_target_each(fix, request):
    # one ladder call serves every target set: each norm has the bits of the
    # call on that set alone
    op = request.getfixturevalue(fix)
    g = op.grid
    pts = g.cell_centers().reshape(-1, g.n)
    anchor = np.full(g.n, 0.25)
    E = np.flatnonzero(torus_distance(pts, anchor) < 0.1)
    Fs = []
    for d in (0.25, 0.35, 0.5):
        shifted = anchor.copy()
        shifted[0] += d
        Fs.append(np.flatnonzero(torus_distance(pts, shifted) < 0.1))
    for family, t, order, derivative in REQUESTS:
        got = offdiagonal_opnorm(op, family, order, derivative, t, E, Fs)
        want = [offdiagonal_opnorm(op, family, order, derivative, t, E, [F])[0] for F in Fs]
        assert got == want, (family, t, order, derivative)


def test_request_validation(lap1):
    f = np.ones(lap1.grid.shape)
    with pytest.raises(ValueError, match="family must be heat or poisson"):
        lap1.ladder("wave", 0, "none", (0.1,), f)
    with pytest.raises(ValueError, match="derivative must be none, spatial or full"):
        lap1.ladder("heat", 0, "angular", (0.1,), f)
    with pytest.raises(ValueError, match="order must be a nonnegative integer"):
        lap1.ladder("heat", -1, "none", (0.1,), f)
    with pytest.raises(ValueError, match="time must be positive"):
        lap1.ladder("heat", 0, "none", (0.0,), f)
    with pytest.raises(ValueError, match="time must be positive"):
        lap1.ladder("heat", 0, "none", (0.1, math.nan), f)


# ------------------------------------------------------- off-diagonal decay


def _interval_sets(grid, cE, cF, r):
    pts = grid.cell_centers().reshape(-1, 1)
    E = np.where(torus_distance(pts, [cE]) <= r)[0]
    F = np.where(torus_distance(pts, [cF]) <= r)[0]
    return E, F


def _unit_fields(grid, cells):
    """Batch of the unit fields of cells, shape (len(cells), *grid.shape)."""
    return np.eye(grid.ncells)[cells].reshape(len(cells), *grid.shape)


def test_restricted_opnorm_validation(lap1_128):
    g = lap1_128.grid
    E, F = _interval_sets(g, 0.2, 0.5, 0.05)
    with pytest.raises(ValueError, match="disjoint"):
        offdiagonal_opnorm(lap1_128, "heat", 0, "none", 0.1, E, [E])
    with pytest.raises(ValueError, match="disjoint"):
        offdiagonal_opnorm(lap1_128, "heat", 0, "none", 0.1, E, [F, E])
    with pytest.raises(ValueError, match="nonempty"):
        offdiagonal_opnorm(lap1_128, "heat", 0, "none", 0.1, E[:0], [F])
    with pytest.raises(ValueError, match="nonempty"):
        offdiagonal_opnorm(lap1_128, "heat", 0, "none", 0.1, E, [F, F[:0]])
    # a negative index would wrap to the last cell: on N = 16, E = [-1] and
    # F = [15] name one cell twice, and the norm would be a diagonal one
    g = Grid(1, 16)
    op = assemble(g, CoefficientField.preset(g, "laplace"))
    for E, F in (([-1], [15]), ([0], [g.ncells]), ([g.ncells + 3], [4]), ([0], [4, -2])):
        with pytest.raises(ValueError, match=r"cell indices must lie in \[0, 16\)"):
            offdiagonal_opnorm(op, "heat", 0, "none", 0.1, E, [F])
    # the cells at either end of the range are accepted
    assert offdiagonal_opnorm(op, "heat", 0, "none", 0.1, [0], [[g.ncells - 1]])[0] > 0


def test_offdiagonal_gaussian_decay(lap1_128):
    # log of the restricted norm against (d/t)^2 should fall at least as
    # fast as a fixed-rate Gaussian; the measured slope is about -1/4
    g = lap1_128.grid
    t, r = 0.02, 0.04
    xs, ys = [], []
    for d in (0.06, 0.08, 0.10, 0.12):
        E, F = _interval_sets(g, 0.2, 0.2 + 2 * r + d, r)
        v, = offdiagonal_opnorm(lap1_128, "heat", 0, "none", t, E, [F])
        xs.append((d / t) ** 2)
        ys.append(math.log(v))
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope <= -1 / 8


def test_offdiagonal_large_time_projection(lap1_128):
    # at t = 1 every nonzero mode is dead and the semigroup is the mean
    # projection, whose restricted norm is h sqrt(|E| |F|)
    g = lap1_128.grid
    E, F = _interval_sets(g, 0.2, 0.62, 0.04)
    v, = offdiagonal_opnorm(lap1_128, "heat", 0, "none", 1.0, E, [F])
    want = g.h * math.sqrt(E.size * F.size)
    assert v == pytest.approx(want, rel=1e-6)
    assert v <= 1 + 1e-9


def test_gaffney_difference_decay(lap1_128):
    # (s^2/t^2)(e^{-s^2 L} - e^{-(s^2+t^2) L}) between separated sets decays
    # as separation grows at fixed times
    op = lap1_128
    g = op.grid
    s, t, r = 0.05, 0.05, 0.04
    scale = s * s / (t * t)
    st = math.sqrt(s * s + t * t)
    vals = []
    for d in (0.08, 0.16, 0.32):
        E, F = _interval_sets(g, 0.2, 0.2 + 2 * r + d, r)
        B = _unit_fields(g, E)
        out = scale * (op.heat(s, 0, B) - op.heat(st, 0, B))
        vals.append(np.linalg.norm(out.reshape(E.size, -1).T[F], 2))
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

        out = op.heat(t, 0, op.heat(s, 0, _unit_fields(g, E)))
        comp = np.linalg.norm(out.reshape(E.size, -1).T[F], 2)
        term_p, = offdiagonal_opnorm(op, "heat", 0, "none", t, G, [F])
        term_q, = offdiagonal_opnorm(op, "heat", 0, "none", s, E, [Gc])
        rhs = term_p + term_q
        assert comp <= 1.1 * rhs, (t, s, d)
        assert rhs < 0.5  # separation keeps the bound informative

