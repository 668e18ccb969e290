"""Divergence-form elliptic operators L = -div(A grad) on the torus grid.

Coefficients are complex n x n matrices sampled at staggered face points:
row j of A(x) is evaluated at the face x + (h/2) e_j, so the conservative
stencil

    (L f)(x) = - sum_j D-_j [ sum_k A_jk(face_j) (D f)_k ](x)

keeps exact divergence form and annihilates constants to machine precision.
Diagonal entries differentiate with the forward difference at their own
face; cross terms use the centered difference averaged between the two
cells sharing the face.

Functional calculus is built once per operator, in three tiers chosen by
assemble. Coefficients that are equal in every cell give a circulant
operator, which the DFT diagonalizes exactly ("fft"): its spectrum is the
DFT of the stencil's column 0, and no matrix is formed or factored.
Otherwise a Hermitian matrix gets a unitary diagonalization
("hermitian-eig"), and any other matrix keeps no eigenbasis
("dense-fallback"): for bounded complex coefficients L is in general not
normal, and a diagonal calculus is only as accurate as the condition number
of its basis allows. The semigroup families then run through dense
expm/sqrtm evaluations of the assembled matrix itself, so L1 = 0 stays
exact. The dense matrices, the stencil matrix op.matrix included, are built
lazily, cached per operator and built once; the fft tier builds op.matrix
only when it is read.

Every family member goes through one seam: _symbol writes the spectral
symbols and their time components, _apply evaluates a member at every time of
a ladder on columns, in whichever tier the operator has, and _member adds
the scaled gradients. The Poisson family has one route, the principal-branch
calculus of L: its symbol on the spectral tiers, sqrtm then expm on the
dense one. The two spectral tiers project onto their unitary basis once
(fftn over the grid axes, or V^H) and take all levels, time components
included, from the stacked symbols and one map back (ifftn, or one matrix
product with V); a ladder's stacked symbols are built once per operator, in
the cache that holds the dense entries, so every later field on the same
ladder reuses them. The dense fallback goes level by level in ascending
order with a cached exponential per level and family, squared up from the one an octave below
where the cache holds it (see EllipticOperator._expm), so on
TimeGrid.spanning only the lowest three levels of each family call expm.
A level with no octave below is a root: expm of -tau G / 2^s, with s the
least integer >= 0 that brings its 1-norm to theta_13 = 5.37 (Al-Mohy and
Higham, 2009) or below, squared s times. Every squaring, of a root or up an
octave, runs in _squared, which flushes each real and imaginary part below
sqrt(tiny) ~ 1.5e-154 in magnitude to zero. The heat kernel's far entries
would otherwise pass through the subnormal range, where gradual underflow
makes a 512^2 product take 0.17-0.35 s in place of 0.02 s; the flush moves
each entry, of size at most about 1, by less than 1.5e-154.
EllipticOperator.ladder is the one entry to that evaluator: it takes a
field or a batch of fields, and heat, poisson and their gradients are ladder
at the one time (t,).

scipy.linalg, which only the dense fallback calls, is not imported with
this module: linalg() imports it on first use and binds it to the module
name sla, which the dense route reads at every call. The command line loads
it while it parses a configuration with other than identity coefficients
(a preset other than laplace, or a coefficient file), before the experiment
starts; an identity run never imports it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field as dfield

import numpy as np

from .grid import Grid, GridFunction


def linalg():
    """The module bound to the name sla: scipy.linalg, imported on the
    first call. The dense route calls this for every expm and sqrtm, so an
    object put in place of sla (perfbench's tracing proxy) sees them all."""
    mod = globals().get("sla")
    if mod is None:
        import scipy.linalg as mod

        globals()["sla"] = mod
    return mod


def __getattr__(name):
    # elliptic.sla resolves from outside before the first dense evaluation
    if name == "sla":
        return linalg()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class EllipticityError(ValueError):
    """Coefficient field fails the lower ellipticity bound."""


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


# coefficient files: a 16-byte header (magic, u32 n, u32 N, 4 reserved
# bytes), then row-major float64 little-endian (re, im) pairs
MAGIC = b"CLGF"
HEADER_BYTES = 16


def _parse_header(raw, path):
    if len(raw) < HEADER_BYTES or raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a coefficient file (bad magic)")
    n, N = struct.unpack("<II", raw[4:12])
    return Grid(int(n), int(N)), raw[HEADER_BYTES:]


@dataclass
class CoefficientField:
    """Complex n x n coefficient matrix per cell, rows sampled at faces.

    values[..., j, k] holds A_jk evaluated at the face center x + (h/2) e_j
    of the cell at x. Ellipticity is measured on these samples: lam is the
    smallest eigenvalue of the symmetric part of Re A over all cells, taken
    at the cell lam_cell.
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
        """Binary layout: the coefficient-file header, then n*n full fields
        (channel A_jk at block index j*n + k, each row-major)."""
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
    """Calculus tier of one operator; cond is the eigenbasis condition
    number, 1 for the unitary basis and nan where no basis is computed."""

    tier: str
    cond: float
    notes: list = dfield(default_factory=list)


class EllipticOperator:
    """Divergence-form operator with a tiered functional calculus.

    Use assemble() to construct. ladder and its one-time entries (heat,
    poisson and their gradients) accept a GridFunction, an array shaped like
    the grid, or a batch (B, *grid.shape); heat and poisson return the same
    container, the gradients their components (comps, ...).

    The operator is immutable after construction apart from internal caches
    (dense matrices, a ladder's stacked symbols), which do not change
    results; they are filled lazily and unguarded, so an operator is not
    safe to share across threads. matrix may be None: the dense stencil
    matrix is then built when first read. eigs without V is the spectrum in
    the flattened fftn order.
    """

    def __init__(self, grid, coeff, matrix, report, V=None, eigs=None):
        self.grid = grid
        self.coeff = coeff
        self.report = report
        self._V = V
        self._eigs = eigs
        self._cache = {} if matrix is None else {"matrix": matrix}

    # ---------------------------------------------------------- plumbing

    @property
    def ncells(self):
        return self.grid.ncells

    def _as_columns(self, f):
        """Columns (ncells, B) of f, and whether f is a batch."""
        if isinstance(f, GridFunction):
            return f.values.reshape(-1, 1), False
        arr = np.asarray(f, dtype=complex)
        if arr.shape == self.grid.shape:
            return arr.reshape(-1, 1), False
        if arr.ndim == self.grid.n + 1 and arr.shape[1:] == self.grid.shape:
            return arr.reshape(arr.shape[0], -1).T, True
        raise ValueError("expected GridFunction, grid-shaped array, or batch")

    @property
    def matrix(self):
        """Dense stencil matrix (ncells, ncells), built on first read."""
        return self._cached("matrix", lambda: _stencil_matrix(self.coeff))

    @property
    def has_eigenbasis(self):
        return self._eigs is not None

    @property
    def _grid_axes(self):
        return tuple(range(-self.grid.n, 0))

    def _to_spectrum(self, cols):
        """Coefficients of columns (ncells, B) in the unitary eigenbasis, as
        rows (B, ncells): fftn over the grid axes, or V^H cols."""
        if self._V is None:
            fields = cols.T.reshape(-1, *self.grid.shape)
            return np.fft.fftn(fields, axes=self._grid_axes).reshape(cols.shape[1], -1)
        return _adjoint_product(self._V, cols).T

    def _from_spectrum(self, rows):
        """Inverse of _to_spectrum on rows (..., ncells): ifftn, or V rows."""
        if self._V is None:
            fields = rows.reshape(*rows.shape[:-1], *self.grid.shape)
            return np.fft.ifftn(fields, axes=self._grid_axes).reshape(rows.shape)
        return (rows.reshape(-1, self.ncells) @ self._V.T).reshape(rows.shape)

    def _cached(self, key, build):
        """Cache entry, built on the first request for its key: a dense
        matrix, or the stacked symbols of one ladder and member."""
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = build()
        return hit

    def _expm(self, key, tau, gen=None):
        """Dense e^{-tau G} cached by (key, tau); G defaults to the operator
        matrix. key "h" is heat with tau = t^2, "p" is Poisson with tau = t.

        A level one octave above a cached one (t to 2t, within 1e-13
        relative) is built from it: heat squares e^{-(tau/4) G} twice,
        Poisson squares e^{-(tau/2) G} once. Every factor is a contraction
        (the stencil is accretive), so a squaring is as stable as the
        scaling-and-squaring step of expm itself. The squared entry is
        e^{-tau' G} with |tau' - tau| <= 1e-13 tau, so it differs from
        e^{-tau G} by at most about tau ||G||_2 times that key mismatch.
        _apply walks its times in ascending order, so on a ladder the lower
        octave is cached before the level built from it.

        Otherwise the root is expm of -tau G / 2^s, with s >= 0 the least
        integer that brings the 1-norm to _THETA13 or below, so the Pade 13
        approximant needs no squaring of its own; it is then squared s
        times. Both chains square in _squared, which keeps every stored
        part out of gradual underflow.
        """
        G = self.matrix if gen is None else gen
        squarings = 2 if key == "h" else 1

        def build():
            for other in list(self._cache):
                if (isinstance(other, tuple) and other[0] == key
                        and abs(other[1] * 2**squarings - tau) <= 1e-13 * tau):
                    return _squared(self._expm(key, other[1], gen), squarings)
            A = -tau * G
            norm = float(np.linalg.norm(A, 1))
            s = 0
            while norm > _THETA13 * 2.0**s:
                s += 1
            A *= 0.5**s
            return _squared(linalg().expm(A), s)

        return self._cached((key, tau), build)

    def _sqrt_matrix(self):
        return self._cached("sqrt", self._build_sqrt)

    def _build_sqrt(self):
        # sqrt is not Lipschitz at the zero eigenvalue and dense sqrtm
        # loses ~1e-7 on the constant mode; L1 = 0 holds exactly, so
        # shift that mode to 1, take the root, and shift back
        nc = self.ncells
        J = np.full((nc, nc), 1.0 / nc, dtype=complex)
        A = self.matrix + J
        S = linalg().sqrtm(A)
        resid = float(np.linalg.norm(S @ S - A) / np.linalg.norm(A))
        if not resid <= 1e-10:
            raise RuntimeError(f"sqrtm residual {resid:.1e} above 1e-10")
        self.report.notes.append(f"sqrtm residual {resid:.1e}")
        return np.ascontiguousarray((S - J).astype(complex))

    # ---------------------------------------------------------- semigroups

    def _symbol(self, family, t, m, time=False):
        """Symbol of one member on the spectrum; t is a time or a column of
        times. The only place the symbols are written:

            heat      (t^2 z)^m e^{-t^2 z}
            poisson   (t^2 z)^m e^{-t sqrt(z)}

        time=True stacks the time component t d/dt (member) = 2m (member) - R
        after the member, with R = 2 (t^2 z)^{m+1} e^{-t^2 z} for heat and the
        half order (t sqrt(z))^{2m+1} e^{-t sqrt(z)} for Poisson.
        """
        lam = self._eigs
        tau = t * t
        if family == "heat":
            decay = np.exp(-tau * lam)
            rest = 2 * ((tau * lam) ** (m + 1) * decay) if time else None
        else:
            root = np.sqrt(lam)  # principal branch, Re >= 0
            decay = np.exp(-t * root)
            rest = (t * root) ** (2 * m + 1) * decay if time else None
        phi = (tau * lam) ** m * decay
        return np.stack([phi, 2 * m * phi - rest]) if time else phi

    def _apply(self, family, times, m, cols, time=False):
        """The member at every time of times, on columns (ncells, B); returns
        (len(times), ncells, B). time=True adds a leading axis of two that
        holds the member and its time component (see _symbol).

        The spectral tiers project cols onto their unitary basis once and
        take every level, time components included, from the stacked symbols
        (built once per ladder and member, then cached) and one map back.
        The dense fallback goes time by time in ascending
        order: the cached exponential (see _expm), then m products with
        t^2 M; R for the time component starts from 2 t^2 M (heat) or
        t S (Poisson) on the same product and takes the same m products.
        """
        times = np.asarray(times, dtype=float)
        if self.has_eigenbasis:
            phi = self._cached(("symbol", family, times.tobytes(), m, time),
                               lambda: self._symbol(family, times[:, None], m, time))
            rows = self._from_spectrum(phi[..., None, :] * self._to_spectrum(cols))
            return rows.swapaxes(-1, -2)

        members, comps = [None] * times.size, [None] * times.size
        # ascending, so a lower octave is cached before the level squared from it
        for i in np.argsort(times, kind="stable"):
            t = times[i]
            tau = t * t
            if family == "heat":
                base = self._expm("h", tau) @ cols
                R = 2 * tau * (self.matrix @ base) if time else None
            else:
                S = self._sqrt_matrix()
                base = self._expm("p", t, gen=S) @ cols
                R = t * (S @ base) if time else None
            for _ in range(m):
                base = tau * (self.matrix @ base)
                if time:
                    R = tau * (self.matrix @ R)
            members[i] = base
            if time:
                comps[i] = 2 * m * base - R
        return np.stack([members, comps]) if time else np.stack(members)

    def heat(self, t, m, f):
        """(t^2 L)^m e^{-t^2 L} f."""
        out = self.ladder("heat", m, "none", (t,), f)[0, 0]
        return GridFunction(self.grid, out) if isinstance(f, GridFunction) else out

    def poisson(self, t, K, f):
        """(t sqrt(L))^{2K} e^{-t sqrt(L)} f."""
        out = self.ladder("poisson", K, "none", (t,), f)[0, 0]
        return GridFunction(self.grid, out) if isinstance(f, GridFunction) else out

    # ------------------------------------------------------------ gradients

    def heat_gradient(self, t, m, f, mode="spatial"):
        """t grad (t^2 L)^m e^{-t^2 L} f; components axes 0..n-1, then time.

        The time component is evaluated analytically: t d/dt of the family
        equals 2m Q_m - 2 Q_{m+1} with Q_j = (t^2 L)^j e^{-t^2 L}.
        """
        return self.ladder("heat", m, _gradient_mode(mode), (t,), f)[0]

    def poisson_gradient(self, t, K, f, mode="spatial"):
        """t grad (t sqrt(L))^{2K} e^{-t sqrt(L)} f; time component analytic:
        2K P_K - phi_{K+1/2}(L) with phi_{K+1/2}(z) = (t sqrt(z))^{2K+1} e^{-t sqrt(z)}."""
        return self.ladder("poisson", K, _gradient_mode(mode), (t,), f)[0]

    def _member(self, family, times, m, derivative, cols):
        """One member, as SemigroupRequest names it, at every time of times,
        from columns (ncells, B) to components (len(times), comps, ncells, B).

        "spatial" is t times the forward difference along each axis, "full"
        appends the time component t d/dt (member).
        """
        n, h, shape = self.grid.n, self.grid.h, self.grid.shape
        times = np.asarray(times, dtype=float)
        if derivative == "full":
            base, dt = self._apply(family, times, m, cols, time=True)
        else:
            base = self._apply(family, times, m, cols)
        if derivative == "none":
            return base[:, None]
        L, B = times.size, cols.shape[-1]
        fields = base.transpose(0, 2, 1).reshape(L, B, *shape)
        tb = times.reshape(L, *([1] * (n + 1)))
        comps = [(tb * _fwd(fields, n, j, h)).reshape(L, B, -1).transpose(0, 2, 1)
                 for j in range(n)]
        if derivative == "full":
            comps.append(dt)
        return np.stack(comps, axis=1)

    # --------------------------------------------------------- time ladder

    def ladder(self, family, order, derivative, levels, f):
        """One family member at every time of levels, for a field or a batch.

        family, order and derivative name the member as SemigroupRequest
        does: "none" is the family itself, "spatial" and "full" are the
        components of heat_gradient / poisson_gradient. Returns an array of
        shape (len(levels), comps, *grid.shape) for one field f, and
        (len(levels), comps, B, *grid.shape) for a batch (B, *grid.shape).
        """
        times = np.asarray(levels, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("levels must be a nonempty sequence of times")
        SemigroupRequest(family, float(times.min()), order, derivative)
        cols, batch = self._as_columns(f)
        out = self._member(family, times, int(order), derivative, cols)
        fields = out.swapaxes(-1, -2).reshape(*out.shape[:2], -1, *self.grid.shape)
        return fields if batch else fields[:, :, 0]


def _gradient_mode(mode):
    if mode not in ("spatial", "full"):
        raise ValueError("mode must be spatial or full")
    return mode


# Al-Mohy & Higham (2009): the largest 1-norm at which the Pade 13
# approximant needs no scaling
_THETA13 = 5.371920351148152
# below sqrt(tiny) in magnitude, a product of two parts can underflow
_FLUSH = math.sqrt(np.finfo(float).tiny)


def _squared(E, count):
    """E squared count times. E and every product are flushed in place: a
    real or imaginary part below _FLUSH (about 1.5e-154) in magnitude is set
    to 0, so no product of two stored parts is subnormal and the matrix
    products never run in gradual underflow, which stalls BLAS. The entries
    are contractions, of size at most about 1, so each flushed part moves by
    less than 1.5e-154, far below one ulp of them."""
    _flush(E)
    for _ in range(count):
        E = E @ E
        _flush(E)
    return E


def _flush(E):
    parts = E.view(np.float64)  # real and imaginary parts, interleaved
    mag = np.abs(parts)
    parts[(mag < _FLUSH) & (mag > 0)] = 0.0


def _clean_spectrum(eigs):
    # constants are annihilated exactly, but eigh and the DFT return the zero
    # mode with O(eps ||M||) noise; its square root is O(sqrt(eps ||M||)) and
    # would leak into e^{-t sqrt(L)}, so snap roundoff-scale eigenvalues to zero
    tiny = 1e-12 * float(np.abs(eigs).max())
    out = eigs.copy()
    out[np.abs(out) <= tiny] = 0.0
    return out


def _stencil_matrix(coeff):
    """Dense matrix of the stencil: column j is the image of unit field j."""
    nc = coeff.grid.ncells
    unit = np.eye(nc, dtype=complex).reshape(nc, *coeff.grid.shape)
    return np.ascontiguousarray(apply_divform(coeff, unit).reshape(nc, nc).T)


def assemble(grid, coeff):
    """Build the operator and its functional calculus; the coefficients pick
    the tier before any matrix is built."""
    if coeff.grid != grid:
        raise ValueError("coefficient grid does not match")
    if coeff.lam <= 0:
        raise EllipticityError(
            f"ellipticity fails: min eigenvalue of sym Re A is {coeff.lam:.3e} "
            f"at cell {coeff.lam_cell}")
    cells = coeff.values.reshape(-1, grid.n, grid.n)
    if np.all(cells == cells[0]):
        # circulant: the DFT of the image of the unit field at cell 0
        delta = np.zeros(grid.shape, dtype=complex)
        delta[(0,) * grid.n] = 1.0
        eigs = _clean_spectrum(np.fft.fftn(apply_divform(coeff, delta)).ravel())
        return EllipticOperator(grid, coeff, None, BuildReport("fft", 1.0), eigs=eigs)

    M = _stencil_matrix(coeff)
    scale = float(np.abs(M).max())
    if np.allclose(M, M.conj().T, atol=1e-12 * scale):
        eigs, V = np.linalg.eigh((M + M.conj().T) / 2)
        eigs = _clean_spectrum(eigs.astype(complex))
        report = BuildReport("hermitian-eig", 1.0)
        return EllipticOperator(grid, coeff, M, report, V=V, eigs=eigs)

    report = BuildReport("dense-fallback", math.nan,
                         notes=["non-Hermitian: no eigendecomposition, "
                                "semigroups run via expm/sqrtm"])
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


def offdiagonal_opnorm(op, request, E, F):
    """||chi_F T chi_E|| from l2 on E to l2 on F (l2 over components too),
    for the member T that request names.

    The restricted block takes one ladder call on the batch of |E| unit
    fields of E; the norm of its rows on F is its largest singular value,
    exact up to the SVD's roundoff.
    """
    E = np.unique(np.asarray(E, dtype=int))
    F = np.unique(np.asarray(F, dtype=int))
    if E.size == 0 or F.size == 0:
        raise ValueError("E and F must be nonempty")
    if np.intersect1d(E, F).size:
        raise ValueError("E and F must be disjoint")
    unit = np.zeros((E.size, op.ncells), dtype=complex)
    unit[np.arange(E.size), E] = 1.0
    fields = op.ladder(request.family, request.order, request.derivative,
                       (request.time,), unit.reshape(E.size, *op.grid.shape))[0]
    comps = fields.shape[0]
    # rows: component-major blocks of the cells of F; columns: the cells of E
    block = fields.reshape(comps, E.size, -1)[:, :, F].transpose(0, 2, 1)
    return float(np.linalg.norm(block.reshape(comps * F.size, E.size), 2))
