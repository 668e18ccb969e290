"""Divergence-form elliptic operators L = -div(A grad) on the torus grid.

Coefficients are complex n x n matrices sampled at staggered face points:
row j of A(x) is evaluated at the face x + (h/2) e_j, so the conservative
stencil

    (L f)(x) = - sum_j D-_j [ sum_k A_jk(face_j) (D f)_k ](x)

keeps exact divergence form and annihilates constants to machine precision.
Diagonal entries differentiate with the forward difference at their own
face; cross terms use the centered difference averaged between the two
cells sharing the face.

Functional calculus is built once per operator, in tiers. A Hermitian
matrix gets a unitary diagonalization, and every scalar function of L is
available. A non-Hermitian matrix gets a general eigendecomposition,
accepted while the eigenbasis condition number stays below a configured
bound (default 1e8); above the bound a random diagonal perturbation of
size 1e-10 is applied once and the decomposition recomputed, with both
steps recorded in the build report. If the basis is still ill conditioned
the operator keeps no eigenbasis: arbitrary scalar functions raise
ConditioningError, while the semigroup families remain available through
dense expm/sqrtm evaluations. That is the honest route for defective
spectra, where a diagonal calculus has no accuracy to offer. The dense
matrices are cached per operator and built once, also when sample threads
ask for the same one at the same time.

EllipticOperator.ladder evaluates one family member at every level of a
time ladder. In the eigen tiers (direct route) f is projected onto the
eigenbasis once, and all levels, time components included, come from one
matrix product of the basis with the stacked symbols; the dense fallback and
the subordination route evaluate level by level.

The Poisson semigroup comes in two routes: the direct principal-branch
calculus phi(z) = (t^2 z)^K e^{-t sqrt(z)} and the subordination rule

    e^{-t sqrt(L)} f = C sum_i w_i (4 u_i)^K e^{-(t^2/(4 u_i)) L} f

with generalized Gauss-Laguerre nodes for the weight u^{-1/2} e^{-u} and
C = 1/sum_i w_i, which makes the rule exact on constants (so L1 = 0 holds
exactly along this route too). The rule's relative error decays like
exp(-c sqrt(b)) in b = t^2 mu / 4 over spectral content mu; agreement with
the direct route to 1e-6 needs b of order 10 or more, below which the
direct route is the accurate one.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from dataclasses import dataclass, field as dfield
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
from scipy.special import gammaincc, roots_genlaguerre

from .grid import MAGIC, GridFunction, _parse_header


class EllipticityError(ValueError):
    """Coefficient field fails the lower ellipticity bound."""

    def __init__(self, msg, cell=None):
        super().__init__(msg)
        self.cell = cell


class ConditioningError(RuntimeError):
    """No usable eigenbasis; arbitrary scalar calculus refused."""


class QuadratureError(RuntimeError):
    """Subordination tail bound above tolerance."""


# ------------------------------------------------------------ coefficients


def _grid_axis(arr, n, j):
    """Index of grid axis j when leading axes are batch."""
    return arr.ndim - n + j


def _fwd(arr, n, j, h):
    ax = _grid_axis(arr, n, j)
    return (np.roll(arr, -1, axis=ax) - arr) / h


def _bwd(arr, n, j, h):
    ax = _grid_axis(arr, n, j)
    return (arr - np.roll(arr, 1, axis=ax)) / h


def _adjoint_product(A, cols):
    """A^H cols as conj(A^T conj(cols)): A^T is a view, so no conjugate
    transpose of A is materialized."""
    return (A.T @ cols.conj()).conj()


def _ctr(arr, n, j, h):
    ax = _grid_axis(arr, n, j)
    return (np.roll(arr, -1, axis=ax) - np.roll(arr, 1, axis=ax)) / (2 * h)


@dataclass
class CoefficientField:
    """Complex n x n coefficient matrix per cell, rows sampled at faces.

    values[..., j, k] holds A_jk evaluated at the face center x + (h/2) e_j
    of the cell at x. Ellipticity is measured on these samples: lam is the
    smallest eigenvalue of the symmetric part of Re A over all cells, Lam
    the largest operator norm of A.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        n = self.grid.n
        if self.values.shape != self.grid.shape + (n, n):
            raise ValueError("coefficient shape must be (*grid.shape, n, n)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("coefficients must be finite")
        re = self.values.real
        sym = 0.5 * (re + np.swapaxes(re, -1, -2))
        eigs = np.linalg.eigvalsh(sym)
        mins = eigs[..., 0]
        flat_argmin = int(np.argmin(mins))
        self.lam = float(mins.ravel()[flat_argmin])
        self.lam_cell = tuple(int(i) for i in np.unravel_index(flat_argmin, self.grid.shape))
        self.Lam = float(np.linalg.svd(self.values, compute_uv=False).max())

    @classmethod
    def constant(cls, grid, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (grid.n, grid.n):
            raise ValueError("matrix must be n x n")
        return cls(grid, np.broadcast_to(m, grid.shape + m.shape).copy())

    @classmethod
    def preset(cls, grid, name):
        """"laplace": A = I. "perturbed": diagonal, a(x) = 1 + 0.4 e^{2 pi i x}
        in the face coordinate of each axis; lam = 0.6 independent of n."""
        if name == "laplace":
            return cls.constant(grid, np.eye(grid.n))
        if name == "perturbed":
            vals = np.zeros(grid.shape + (grid.n, grid.n), dtype=complex)
            centers = grid.cell_centers()
            for j in range(grid.n):
                xj = centers[..., j] + grid.h / 2
                vals[..., j, j] = (1 + 0.4 * np.cos(2 * np.pi * xj)
                                   + 0.4j * np.sin(2 * np.pi * xj))
            return cls(grid, vals)
        raise ValueError(f"unknown preset {name!r}")

    @classmethod
    def from_file(cls, path):
        """Binary layout: GridFunction header, then n*n full fields (channel
        A_jk at block index j*n + k, each row-major)."""
        with open(path, "rb") as fh:
            raw = fh.read()
        grid, payload = _parse_header(raw, path)
        n = grid.n
        expect = grid.ncells * n * n * 16
        if len(payload) != expect:
            raise ValueError(f"{path}: expected {n * n} channels, "
                             f"payload holds {len(payload) / (grid.ncells * 16):g}")
        chans = np.frombuffer(payload, dtype="<c16").reshape(n * n, *grid.shape)
        vals = np.moveaxis(chans.reshape(n, n, *grid.shape), (0, 1), (-2, -1))
        return cls(grid, vals.copy())

    def to_file(self, path):
        n = self.grid.n
        chans = np.moveaxis(self.values, (-2, -1), (0, 1)).reshape(n * n, *self.grid.shape)
        with open(path, "wb") as fh:
            fh.write(MAGIC + struct.pack("<IIxxxx", self.grid.n, self.grid.N))
            fh.write(np.ascontiguousarray(chans).astype("<c16").tobytes())


def apply_divform(coeff, f):
    """-div(A grad f) on fields shaped (*grid.shape) or (batch, *grid.shape)."""
    grid = coeff.grid
    n, h = grid.n, grid.h
    arr = np.asarray(f, dtype=complex)
    out = np.zeros_like(arr)
    for j in range(n):
        flux = coeff.values[..., j, j] * _fwd(arr, n, j, h)
        for k in range(n):
            if k == j:
                continue
            ck = _ctr(arr, n, k, h)
            ax = _grid_axis(arr, n, j)
            face = 0.5 * (ck + np.roll(ck, -1, axis=ax))
            flux = flux + coeff.values[..., j, k] * face
        out -= _bwd(flux, n, j, h)
    return out


# ------------------------------------------------------------- the operator


@dataclass
class BuildReport:
    tier: str
    hermitian: bool
    cond: float
    perturbed: bool
    threads: int
    notes: list = dfield(default_factory=list)


def _cond_of(V):
    if V.shape[0] <= 1536:
        return float(np.linalg.cond(V))
    lu = sla.lu_factor(V)
    inv_norm1 = 0.0
    eye = np.eye(V.shape[0], dtype=complex)
    step = 512
    for lo in range(0, V.shape[0], step):
        cols = sla.lu_solve(lu, eye[:, lo:lo + step])
        inv_norm1 = max(inv_norm1, float(np.abs(cols).sum(axis=0).max()))
    return float(np.abs(V).sum(axis=0).max()) * inv_norm1


class EllipticOperator:
    """Assembled dense operator with a tiered functional calculus.

    Use assemble() to construct. All apply methods accept a GridFunction,
    an array shaped like the grid, or a batch (B, *grid.shape), and return
    the same container. The operator is immutable after construction apart
    from internal dense caches keyed by time, which do not change results.
    """

    def __init__(self, grid, coeff, matrix, report, V=None, eigs=None, lu=None):
        self.grid = grid
        self.coeff = coeff
        self.matrix = matrix
        self.report = report
        self.lam = coeff.lam
        self.Lam = coeff.Lam
        self._V = V
        self._eigs = eigs
        self._lu = lu
        self._cache = {}
        self._cache_lock = threading.Lock()
        self._key_locks = {}

    # ---------------------------------------------------------- plumbing

    @property
    def ncells(self):
        return self.grid.ncells

    def _as_columns(self, f):
        if isinstance(f, GridFunction):
            return f.values.reshape(-1, 1), ("gf",)
        arr = np.asarray(f, dtype=complex)
        if arr.shape == self.grid.shape:
            return arr.reshape(-1, 1), ("field",)
        if arr.ndim == self.grid.n + 1 and arr.shape[1:] == self.grid.shape:
            return arr.reshape(arr.shape[0], -1).T, ("batch", arr.shape[0])
        if arr.ndim == 1 and arr.size == self.ncells:
            return arr.reshape(-1, 1), ("flat",)
        raise ValueError("expected GridFunction, grid-shaped array, or batch")

    def _wrap(self, cols, tag):
        if tag[0] == "gf":
            return GridFunction(self.grid, cols[:, 0].reshape(self.grid.shape))
        if tag[0] == "field":
            return cols[:, 0].reshape(self.grid.shape)
        if tag[0] == "flat":
            return cols[:, 0]
        return cols.T.reshape(tag[1], *self.grid.shape)

    def matvec(self, cols, adjoint=False):
        M = self.matrix
        return (M.conj().T @ cols) if adjoint else (M @ cols)

    @property
    def has_eigenbasis(self):
        return self._eigs is not None

    def _project(self, cols):
        """Eigenbasis coordinates V^-1 cols; in the unitary case V^H cols,
        formed as conj(V^T conj(cols)) so that V^H is never copied out."""
        if self.report.hermitian:
            return _adjoint_product(self._V, cols)
        return sla.lu_solve(self._lu, cols)

    def _diag_apply(self, phi_vals, cols, adjoint=False):
        V = self._V
        if self.report.hermitian:
            pv = np.conj(phi_vals) if adjoint else phi_vals
            return V @ (pv[:, None] * self._project(cols))
        if adjoint:
            # (V D V^-1)^H = V^-H conj(D) V^H
            z = np.conj(phi_vals)[:, None] * _adjoint_product(V, cols)
            return sla.lu_solve(self._lu, z, trans=2)
        return V @ (phi_vals[:, None] * self._project(cols))

    def _cached(self, key, build):
        """Dense cache entry built once per key, also when several threads
        ask for it at the same time; distinct keys build in parallel."""
        with self._cache_lock:
            lock = self._key_locks.setdefault(key, threading.Lock())
        with lock:
            hit = self._cache.get(key)
            if hit is None:
                hit = self._cache[key] = build()
        return hit

    def _expm(self, key, tau, gen=None):
        """Dense e^{-tau G} cached by key; G defaults to the operator matrix."""
        G = self.matrix if gen is None else gen
        return self._cached((key, tau), lambda: sla.expm(-tau * G))

    def _sqrt_matrix(self):
        return self._cached("sqrt", self._build_sqrt)

    def _build_sqrt(self):
        # sqrt is not Lipschitz at the zero eigenvalue and dense sqrtm
        # loses ~1e-7 on the constant mode; L1 = 0 holds exactly, so
        # shift that mode to 1, take the root, and shift back
        nc = self.ncells
        J = np.full((nc, nc), 1.0 / nc, dtype=complex)
        A = self.matrix + J
        S = sla.sqrtm(A)
        resid = float(np.linalg.norm(S @ S - A) / np.linalg.norm(A))
        if not resid <= 1e-10:
            raise RuntimeError(f"sqrtm residual {resid:.1e} above 1e-10")
        self.report.notes.append(f"sqrtm residual {resid:.1e}")
        return np.ascontiguousarray((S - J).astype(complex))

    # ----------------------------------------------------- scalar calculus

    def apply_matrix_function(self, phi, f, adjoint=False):
        """phi(L) f through the cached eigenbasis.

        Refused when no acceptably conditioned eigenbasis exists; the
        semigroup families below stay available in that case.
        """
        cols, tag = self._as_columns(f)
        if not self.has_eigenbasis:
            raise ConditioningError(
                f"eigenbasis condition {self.report.cond:.2e} exceeds the bound even "
                "after the recorded diagonal perturbation; arbitrary scalar functions "
                "are unavailable, but heat/poisson families and their gradients run "
                "through dense routes")
        vals = np.asarray(phi(self._eigs), dtype=complex)
        if vals.shape != self._eigs.shape:
            raise ValueError("phi must map the spectrum array elementwise")
        if np.all(vals == 1.0):
            return self._wrap(cols.copy(), tag)
        return self._wrap(self._diag_apply(vals, cols, adjoint), tag)

    # ---------------------------------------------------------- semigroups

    def _heat_cols(self, t, m, cols, adjoint=False):
        tau = t * t
        if self.has_eigenbasis:
            phi = (tau * self._eigs) ** m * np.exp(-tau * self._eigs)
            return self._diag_apply(phi, cols, adjoint)
        E = self._expm("h", tau)
        out = (E.conj().T @ cols) if adjoint else (E @ cols)
        for _ in range(m):
            out = tau * self.matvec(out, adjoint)
        return out

    def heat(self, t, m, f, adjoint=False):
        """(t^2 L)^m e^{-t^2 L} f."""
        if t <= 0:
            raise ValueError("t must be positive")
        if m < 0 or int(m) != m:
            raise ValueError("m must be a nonnegative integer")
        cols, tag = self._as_columns(f)
        return self._wrap(self._heat_cols(t, int(m), cols, adjoint), tag)

    def _poisson_cols(self, t, K, cols, adjoint=False, method="direct"):
        if method == "subordination":
            return self._subordinate_cols(t, K, cols, adjoint)
        if method != "direct":
            raise ValueError(f"unknown method {method!r}")
        if self.has_eigenbasis:
            root = np.sqrt(self._eigs)  # principal branch, Re >= 0
            phi = (t * t * self._eigs) ** K * np.exp(-t * root)
            return self._diag_apply(phi, cols, adjoint)
        S = self._sqrt_matrix()
        E = self._expm("p", t, gen=S)
        out = (E.conj().T @ cols) if adjoint else (E @ cols)
        for _ in range(K):
            out = (t * t) * self.matvec(out, adjoint)
        return out

    def _subordinate_cols(self, t, K, cols, adjoint=False, nodes=48, tol=1e-8):
        u, w, norm = _genlaguerre_rule(nodes)
        _subordination_tail_check(K, u[-1], tol, nodes)
        out = np.zeros_like(cols)
        for ui, wi in zip(u, w):
            s = t / (2 * math.sqrt(ui))
            out += (wi * (4 * ui) ** K) * self._heat_cols(s, K, cols, adjoint)
        return out / norm

    def poisson(self, t, K, f, method="direct", adjoint=False):
        """(t sqrt(L))^{2K} e^{-t sqrt(L)} f."""
        if t <= 0:
            raise ValueError("t must be positive")
        if K < 0 or int(K) != K:
            raise ValueError("K must be a nonnegative integer")
        cols, tag = self._as_columns(f)
        return self._wrap(self._poisson_cols(t, int(K), cols, adjoint, method), tag)

    # ------------------------------------------------------------ gradients

    def _spatial_stack(self, t, field_batch):
        # field_batch: (B, *shape) -> (n, B, *shape), t * forward difference
        n, h = self.grid.n, self.grid.h
        return np.stack([t * _fwd(field_batch, n, j, h) for j in range(n)])

    def heat_gradient(self, t, m, f, mode="spatial"):
        """t grad (t^2 L)^m e^{-t^2 L} f; components axes 0..n-1, then time.

        The time component is evaluated analytically: t d/dt of the family
        equals 2m Q_m - 2 Q_{m+1} with Q_j = (t^2 L)^j e^{-t^2 L}.
        """
        return self._gradient("heat", t, m, f, mode, "direct")

    def poisson_gradient(self, t, K, f, mode="spatial", method="direct"):
        """t grad (t sqrt(L))^{2K} e^{-t sqrt(L)} f; time component analytic:
        2K P_K - phi_{K+1/2}(L) with phi_{K+1/2}(z) = (t sqrt(z))^{2K+1} e^{-t sqrt(z)}."""
        return self._gradient("poisson", t, K, f, mode, method)

    def _gradient(self, family, t, m, f, mode, method):
        if mode not in ("spatial", "full"):
            raise ValueError("mode must be spatial or full")
        cols, tag = self._as_columns(f)
        out = self._member(family, t, int(m), mode, cols, method)
        if tag[0] == "batch":
            return out
        out = out[:, 0]
        if tag[0] == "flat":
            return out.reshape(out.shape[0], -1)
        return out

    def _member(self, family, t, m, derivative, cols, method):
        """One family member at one time on columns: (comps, B, *grid.shape)."""
        if family == "heat":
            base = self._heat_cols(t, m, cols)
        else:
            base = self._poisson_cols(t, m, cols, method=method)
        B = cols.shape[1]
        fields = base.T.reshape(B, *self.grid.shape)
        if derivative == "none":
            return fields[None]
        comps = list(self._spatial_stack(t, fields))
        if derivative == "full":
            if family == "heat":
                tcol = 2 * m * base - 2 * self._heat_cols(t, m + 1, cols)
            else:
                tcol = 2 * m * base - self._half_order_cols(t, m, cols, method)
            comps.append(tcol.T.reshape(B, *self.grid.shape))
        return np.stack(comps)

    # --------------------------------------------------------- time ladder

    def ladder(self, family, order, derivative, levels, f, method="direct"):
        """One family member at every time of levels, for one field f.

        family, order and derivative name the member as SemigroupRequest
        does: "none" is the family itself, "spatial" and "full" are the
        components of heat_gradient / poisson_gradient. Returns an array of
        shape (len(levels), comps, *grid.shape). method selects the Poisson
        route and is ignored by the heat family.

        In the eigen tiers on the direct route f is projected once and every
        level comes from one product V (Phi o c)^T, Phi holding the symbols
        of all levels (and their time components) as rows. The dense
        fallback and the subordination route go level by level.
        """
        times = np.asarray(levels, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("levels must be a nonempty sequence of times")
        SemigroupRequest(family, float(times.min()), order, derivative)
        if method not in ("direct", "subordination"):
            raise ValueError(f"unknown method {method!r}")
        cols, _ = self._as_columns(f)
        if cols.shape[1] != 1:
            raise ValueError("ladder takes a single field, not a batch")
        m = int(order)
        if not self.has_eigenbasis or (family == "poisson" and method != "direct"):
            return np.stack([self._member(family, t, m, derivative, cols, method)[:, 0]
                             for t in times])

        t = times[:, None]
        lam = self._eigs
        if family == "heat":
            tau = t * t
            decay = np.exp(-tau * lam)
            rows = [(tau * lam) ** m * decay]
            if derivative == "full":
                rows.append(2 * m * rows[0] - 2 * ((tau * lam) ** (m + 1) * decay))
        else:
            root = np.sqrt(lam)  # principal branch, Re >= 0
            decay = np.exp(-t * root)
            rows = [(t * t * lam) ** m * decay]
            if derivative == "full":
                rows.append(2 * m * rows[0] - (t * root) ** (2 * m + 1) * decay)
        phi = np.concatenate(rows)
        c = self._project(cols)[:, 0]
        vals = ((phi * c) @ self._V.T).reshape(len(rows), times.size, *self.grid.shape)
        base = vals[0]
        if derivative == "none":
            return base[:, None]
        n, h = self.grid.n, self.grid.h
        tb = times.reshape(-1, *([1] * n))
        comps = [tb * _fwd(base, n, j, h) for j in range(n)]
        if derivative == "full":
            comps.append(vals[1])
        return np.stack(comps, axis=1)

    def _half_order_cols(self, t, K, cols, method="direct", adjoint=False):
        # (t sqrt(L))^{2K+1} e^{-t sqrt(L)}
        if self.has_eigenbasis and method == "direct":
            root = np.sqrt(self._eigs)
            phi = (t * root) ** (2 * K + 1) * np.exp(-t * root)
            return self._diag_apply(phi, cols, adjoint)
        if method == "direct":
            S = self._sqrt_matrix()
            E = self._expm("p", t, gen=S)
            out = (E.conj().T @ cols) if adjoint else (E @ cols)
            out = t * ((S.conj().T @ out) if adjoint else (S @ out))
            for _ in range(K):
                out = (t * t) * self.matvec(out, adjoint)
            return out
        # differentiating the subordination rule in t turns the half order
        # into heat terms of order K+1: since t^2 L = (4u) s^2 L at
        # s = t/(2 sqrt(u)), the node weight picks up a plain factor 2
        u, w, norm = _genlaguerre_rule(48)
        out = np.zeros_like(cols)
        for ui, wi in zip(u, w):
            s = t / (2 * math.sqrt(ui))
            out += (2 * wi * (4 * ui) ** K) * self._heat_cols(s, K + 1, cols, adjoint)
        return out / norm


@lru_cache(maxsize=8)
def _genlaguerre_rule(nodes):
    u, w = roots_genlaguerre(nodes, -0.5)
    return u, w, float(w.sum())


def _subordination_tail_check(K, u_max, tol, nodes):
    # integrand beyond the last node bounded by (4K/e)^K u^{K-1/2} e^{-u}
    amp = 1.0 if K == 0 else (4 * K / math.e) ** K
    tail = amp * math.gamma(K + 0.5) * float(gammaincc(K + 0.5, u_max)) / math.sqrt(math.pi)
    if tail > tol:
        need = nodes
        while need <= 512:
            need *= 2
            u2, _, _ = _genlaguerre_rule(need)
            t2 = amp * math.gamma(K + 0.5) * float(gammaincc(K + 0.5, u2[-1])) / math.sqrt(math.pi)
            if t2 <= tol:
                raise QuadratureError(
                    f"subordination tail {tail:.2e} above {tol:.0e} at {nodes} nodes "
                    f"for K={K}; use at least {need} nodes")
        raise QuadratureError(
            f"subordination tail {tail:.2e} above {tol:.0e} at {nodes} nodes for K={K}; "
            "no node count up to 512 suffices")


def _clean_spectrum(eigs):
    # constants are annihilated exactly, but eig returns the zero mode with
    # O(eps ||M||) noise; its square root is O(sqrt(eps ||M||)) and would
    # leak into e^{-t sqrt(L)}, so snap roundoff-scale eigenvalues to zero
    tiny = 1e-12 * float(np.abs(eigs).max())
    out = eigs.copy()
    out[np.abs(out) <= tiny] = 0.0
    return out


def assemble(grid, coeff, cond_bound=1e8, perturb_size=1e-10, perturb_seed=20240917):
    """Build the dense operator and its functional-calculus cache."""
    if coeff.grid != grid:
        raise ValueError("coefficient grid does not match")
    if coeff.lam <= 0:
        raise EllipticityError(
            f"ellipticity fails: min eigenvalue of sym Re A is {coeff.lam:.3e} "
            f"at cell {coeff.lam_cell}", cell=coeff.lam_cell)
    basis = np.eye(grid.ncells, dtype=complex).reshape(grid.ncells, *grid.shape)
    M = apply_divform(coeff, basis).reshape(grid.ncells, grid.ncells).T
    M = np.ascontiguousarray(M)

    threads = int(os.environ.get("CONICAL_LAB_THREADS", "1") or "1")
    scale = float(np.abs(M).max())
    hermitian = bool(np.allclose(M, M.conj().T, atol=1e-12 * scale))

    if hermitian:
        eigs, V = np.linalg.eigh((M + M.conj().T) / 2)
        eigs = _clean_spectrum(eigs.astype(complex))
        report = BuildReport("hermitian-eig", True, 1.0, False, threads)
        return EllipticOperator(grid, coeff, M, report, V=V, eigs=eigs)

    eigs, V = np.linalg.eig(M)
    eigs = _clean_spectrum(eigs)
    cond = _cond_of(V)
    if cond <= cond_bound:
        report = BuildReport("eig", False, cond, False, threads)
        return EllipticOperator(grid, coeff, M, report, V=V, eigs=eigs,
                                lu=sla.lu_factor(V))

    rng = np.random.default_rng(perturb_seed)
    bump = perturb_size * (rng.standard_normal(grid.ncells)
                           + 1j * rng.standard_normal(grid.ncells))
    Mp = M + np.diag(bump)
    eigs2, V2 = np.linalg.eig(Mp)
    eigs2 = _clean_spectrum(eigs2)
    cond2 = _cond_of(V2)
    if cond2 <= cond_bound:
        report = BuildReport("eig-perturbed", False, cond2, True, threads,
                             notes=[f"diagonal perturbation {perturb_size:.0e}, "
                                    f"seed {perturb_seed}, pre-perturbation cond {cond:.2e}"])
        return EllipticOperator(grid, coeff, Mp, report, V=V2, eigs=eigs2,
                                lu=sla.lu_factor(V2))

    report = BuildReport("dense-fallback", False, min(cond, cond2), False, threads,
                         notes=[f"cond {cond:.2e} raw, {cond2:.2e} after perturbation; "
                                "no eigenbasis kept, semigroups run via expm/sqrtm"])
    return EllipticOperator(grid, coeff, M, report)


# --------------------------------------------------------- restricted norms


@dataclass(frozen=True)
class SemigroupRequest:
    """One member of the operator families under study."""

    family: str
    time: float
    order: int = 0
    derivative: str = "none"

    def __post_init__(self):
        if self.family not in ("heat", "poisson"):
            raise ValueError("family must be heat or poisson")
        if self.derivative not in ("none", "spatial", "full"):
            raise ValueError("derivative must be none, spatial or full")
        if self.order < 0 or int(self.order) != self.order:
            raise ValueError("order must be a nonnegative integer")
        if self.time <= 0:
            raise ValueError("time must be positive")


def _request_apply(op, req, cols):
    """Evaluate the requested family on columns; returns (ncomp, ncells, B)."""
    B = cols.shape[1]
    batch = cols.T.reshape(B, *op.grid.shape)
    if req.derivative == "none":
        if req.family == "heat":
            out = op.heat(req.time, req.order, batch)
        else:
            out = op.poisson(req.time, req.order, batch)
        return out.reshape(1, B, -1).transpose(0, 2, 1)
    mode = "spatial" if req.derivative == "spatial" else "full"
    if req.family == "heat":
        out = op.heat_gradient(req.time, req.order, batch, mode)
    else:
        out = op.poisson_gradient(req.time, req.order, batch, mode)
    ncomp = out.shape[0]
    return out.reshape(ncomp, B, -1).transpose(0, 2, 1)


def _request_apply_adjoint(op, req, comps):
    """Adjoint of _request_apply on (ncomp, ncells, B); returns (ncells, B)."""
    t, m = req.time, req.order
    grid = op.grid
    n, h = grid.n, grid.h

    def fam_adj(cols, order):
        if req.family == "heat":
            return op._heat_cols(t, order, cols, adjoint=True)
        return op._poisson_cols(t, order, cols, adjoint=True)

    if req.derivative == "none":
        return fam_adj(comps[0], m)
    B = comps.shape[2]
    acc = np.zeros((grid.ncells, B), dtype=complex)
    for j in range(n):
        vj = comps[j].T.reshape(B, *grid.shape)
        # adjoint of forward difference is minus the backward difference
        acc += (-t) * _bwd(vj, n, j, h).reshape(B, -1).T
    acc = fam_adj(acc, m)
    if req.derivative == "full":
        w = comps[n]
        if req.family == "heat":
            acc += 2 * m * fam_adj(w, m) - 2 * fam_adj(w, m + 1)
        else:
            acc += 2 * m * fam_adj(w, m) - op._half_order_cols(t, m, w, adjoint=True)
    return acc


def _mixed_norm(comps, q, h_n):
    # comps: (ncomp, ncells, B); pointwise l2 over components, then weighted l^q
    mag = np.sqrt((np.abs(comps) ** 2).sum(axis=0))
    if math.isinf(q):
        return mag.max(axis=0)
    return ((mag ** q).sum(axis=0) * h_n) ** (1.0 / q)


def restricted_opnorm(apply_fn, grid, E, F, p=2.0, q=2.0, adjoint_fn=None,
                      samples=64, iters=40, seed=0, tol=1e-10):
    """sup ||chi_F T g||_q / ||g||_p over g supported in E.

    Random probes give the baseline; when p = q = 2 and an adjoint is
    supplied, power iteration on (chi_E T* chi_F)(chi_F T chi_E) refines the
    estimate to the restricted spectral norm.
    """
    E = np.asarray(E, dtype=int).ravel()
    F = np.asarray(F, dtype=int).ravel()
    if E.size == 0 or F.size == 0:
        raise ValueError("E and F must be nonempty")
    if np.intersect1d(E, F).size:
        raise ValueError("E and F must be disjoint")
    h_n = grid.h ** grid.n
    rng = np.random.default_rng(seed)
    g = np.zeros((grid.ncells, samples), dtype=complex)
    g[E] = rng.standard_normal((E.size, samples)) + 1j * rng.standard_normal((E.size, samples))
    out = apply_fn(g)
    mask = np.zeros((1, grid.ncells, 1))
    mask[0, F, 0] = 1.0
    num = _mixed_norm(out * mask, q, h_n)
    if math.isinf(p):
        den = np.abs(g[E]).max(axis=0)
    else:
        den = ((np.abs(g[E]) ** p).sum(axis=0) * h_n) ** (1.0 / p)
    best = float((num / den).max())

    if p == 2 and q == 2 and adjoint_fn is not None:
        x = np.zeros((grid.ncells, 1), dtype=complex)
        x[E, 0] = rng.standard_normal(E.size) + 1j * rng.standard_normal(E.size)
        x /= np.linalg.norm(x)
        prev = 0.0
        for _ in range(iters):
            y = apply_fn(x) * mask
            z = adjoint_fn(y)
            znew = np.zeros_like(x)
            znew[E] = z[E]
            nrm = np.linalg.norm(znew)
            if nrm == 0:
                break
            x = znew / nrm
            val = math.sqrt(nrm)
            if abs(val - prev) <= tol * max(val, 1e-300):
                prev = val
                break
            prev = val
        best = max(best, prev)
    return best


def offdiagonal_opnorm(op, request, E, F, p=2.0, q=2.0, samples=64, iters=40, seed=0):
    """Restricted norm of one semigroup family member between cell sets."""

    def fwd(cols):
        return _request_apply(op, request, cols)

    def adj(comps):
        return _request_apply_adjoint(op, request, comps)

    return restricted_opnorm(fwd, op.grid, E, F, p=p, q=q, adjoint_fn=adj,
                             samples=samples, iters=iters, seed=seed)


# ------------------------------------------------------- boundedness scans


def _dense_family(op, family, t):
    """Dense matrix of the family member at time t (m = K = 0)."""
    if op.has_eigenbasis:
        if family == "heat":
            phi = np.exp(-t * t * op._eigs)
        else:
            phi = np.exp(-t * np.sqrt(op._eigs))
        W = op._V * phi[None, :]
        if op.report.hermitian:
            # W V^H as conj(conj(W) V^T), in place, with V^T a view
            P = np.conj(W, out=W) @ op._V.T
            return np.conj(P, out=P)
        return W @ op._cached("inv", lambda: sla.lu_solve(
            op._lu, np.eye(op.ncells, dtype=complex)))
    if family == "heat":
        return op._expm("h", t * t)
    return op._expm("p", t, gen=op._sqrt_matrix())


def _dense_gradient(op, family, t):
    T = _dense_family(op, family, t)
    grid = op.grid
    rows = T.reshape(*grid.shape, grid.ncells)
    blocks = []
    for j in range(grid.n):
        # passing ndim as the axis count makes _fwd hit leading axis j
        blocks.append(t * _fwd(rows, rows.ndim, j, grid.h).reshape(grid.ncells, grid.ncells))
    return np.concatenate(blocks, axis=0)


def _matrix_pnorm(B, p, ncomp=1, starts=4, iters=30, seed=1):
    """Operator norm from l^p to the mixed (l2 over ncomp blocks, l^p over
    cells) norm; exact at the endpoints for scalar output, power method of
    Boyd type otherwise. Uniform cell weights cancel, so plain vector norms
    suffice."""
    ncells = B.shape[1]
    if ncomp == 1:
        if p == 1:
            return float(np.abs(B).sum(axis=0).max())
        if math.isinf(p):
            return float(np.abs(B).sum(axis=1).max())
    if p == 2:
        return float(np.linalg.norm(B, 2))
    if p <= 1 or math.isinf(p):
        raise ValueError("vector-valued scan needs finite p > 1")
    pp = p / (p - 1)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(starts):
        x = rng.standard_normal(ncells) + 1j * rng.standard_normal(ncells)
        x /= np.linalg.norm(x, p)
        for _ in range(iters):
            y = (B @ x).reshape(ncomp, -1)
            rho = np.sqrt((np.abs(y) ** 2).sum(axis=0))
            val = float(np.linalg.norm(rho, p))
            best = max(best, val)
            if val == 0:
                break
            z = (y * (rho ** (p - 2))[None, :]).ravel()
            wvec = B.conj().T @ z
            aw = np.abs(wvec)
            x = np.where(aw > 0, wvec / aw, 0) * aw ** (pp - 1)
            nx = np.linalg.norm(x, p)
            if nx == 0:
                break
            x /= nx
    return best


@dataclass
class ScanRow:
    p: float
    sup_norm: float
    sup_norm_coarse: float | None
    grows: bool | None


def uniform_boundedness_scan(op, family, p_list, t_list, coarse_op=None,
                             growth_ratio=1.5):
    """sup_t of the estimated p -> p norm for the heat family or its spatial
    gradient; with a coarse companion operator, flags exponents whose sup
    grows under refinement by more than growth_ratio."""
    if family not in ("heat", "heat-gradient"):
        raise ValueError("family must be heat or heat-gradient")
    if not p_list or not t_list:
        raise ValueError("empty scan lists")

    def sup_for(o):
        mats = []
        for t in t_list:
            if family == "heat":
                mats.append((_dense_family(o, "heat", t), 1))
            else:
                mats.append((_dense_gradient(o, "heat", t), o.grid.n))
        sups = []
        for p in p_list:
            sups.append(max(_matrix_pnorm(B, p, ncomp=c) for B, c in mats))
        return sups

    fine = sup_for(op)
    coarse = sup_for(coarse_op) if coarse_op is not None else [None] * len(p_list)
    rows = []
    for p, sf, sc in zip(p_list, fine, coarse):
        grows = None if sc is None else bool(sf > growth_ratio * sc)
        rows.append(ScanRow(float(p), float(sf), sc if sc is None else float(sc), grows))
    return rows
