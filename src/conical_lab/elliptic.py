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
exact. The dense cache holds the stencil matrix op.matrix, the square root
and the roots (below), each built lazily and once per operator; the fft
tier builds op.matrix only when it is read.

Every family member goes through one seam: _symbol writes the spectral
symbols and their time components, _apply evaluates every member asked of
one family at every time of a ladder on columns, in whichever tier the
operator has, and ladders adds the scaled gradients. The Poisson family
has one route, the principal-branch calculus of L: its symbol on the
spectral tiers, sqrtm then expm on the dense one. The two spectral tiers
project onto their unitary basis once (fftn over the grid axes, or V^H) and
take each member at all levels, time components included, from its stacked
symbols and one map back (ifftn, or one matrix product with V); a ladder's
stacked symbols are built once per operator, in the operator's cache, so
every later field on the same ladder reuses them. The dense fallback walks
the ladder once in ascending order for every member and every column: at
each level one product of the level's exponential with the columns, then
the chain of products with t^2 M up to the highest order asked for. A level
one octave above a level of the walk is squared up from it in the walk's
own window, which drops it once the level above it is built (see
EllipticOperator._level), so on TimeGrid.spanning only the lowest three
levels of each family call expm, and those roots are all the cache keeps:
a one-time request (heat(t), an off-diagonal norm) is a root, or is
squared up from a cached root an octave or more below it. A root is the
Pade 13 step at cG, c = -tau / 2^s, with s the least integer >= 0 that
brings ||-tau G||_1 / 2^s to theta_13 = 5.37 (Al-Mohy and Higham, 2009) or
below, squared s times. Every squaring, of a root or up an octave, runs in
_squared, which flushes each real and imaginary part below
sqrt(tiny) ~ 1.5e-154 in magnitude to zero, one block of rows at a time.
The heat kernel's far entries would otherwise pass through the subnormal
range, where gradual underflow makes a 512^2 product take 0.17-0.35 s in
place of 0.02 s; the flush moves each entry, of size at most about 1, by
less than 1.5e-154. EllipticOperator.ladders is the one entry to that
evaluator: it takes several members of one family and a field or a batch
of fields; ladder is its one-member case, and heat, poisson and their
gradients are ladder at the one time (t,).

The dense route runs on numpy alone, through two kernels: _pade13, the
degree-13 Pade step of a root (Higham, 2005), which takes the generator and
the scale and holds at most five n x n work matrices, and _sqrtm, the
principal square root by the scaled product-form Denman-Beavers iteration
(Higham, Functions of Matrices, 2008, 6.3). The route reads both through
the module name sla (sla.expm and sla.sqrtm) at every call, so an object
put in its place, such as perfbench's tracing proxy, sees every call of
each.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field as dfield
from types import SimpleNamespace

import numpy as np

from .grid import Grid, GridFunction


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

    def _level(self, key, tau, window, G):
        """Dense e^{-tau G} for a walk in ascending order, whose levels so
        far, and the cached roots, are window {tau: matrix}: heat (key "h",
        tau = t^2, G the operator matrix) or Poisson ("p", tau = t, G its root).

        A level j >= 1 octaves above a window entry (t to 2^j t, within
        1e-13 relative) is built from the nearest such entry: heat squares
        e^{-(tau/4^j) G} 2j times, Poisson squares e^{-(tau/2^j) G} j times.
        On a ladder that is the level one octave below; a one-time request
        squares up from a cached root, as the walk that cached it did. Every
        factor is a contraction (the stencil is accretive), so a squaring is
        as stable as the scaling-and-squaring step of expm itself. The
        squared level is e^{-tau' G} with |tau' - tau| <= 1e-13 tau, so it
        differs from e^{-tau G} by at most about tau ||G||_2 times that
        mismatch. Any other level is a root (_root), cached by (key, tau).
        The level joins the window, and every entry whose octave is at or
        below it leaves: on a ladder the level it was squared from, which no
        later level needs, so the window spans one octave.
        """
        squarings = 2 if key == "h" else 1  # per octave
        base = 2.0**squarings
        E = window.get(tau)
        if E is None:
            below = [(s, j) for s, j in ((s, round(math.log(tau / s, base))) for s in window)
                     if j >= 1 and abs(s * base**j - tau) <= 1e-13 * tau]
            if below:
                # the entry leaves the window first: once squared it is
                # below the new level's octave, and its memory frees at the
                # first product unless the cache holds it as a root
                s, j = max(below)
                E = _squared(window.pop(s), squarings * j)
            else:
                E = self._cached((key, tau), lambda: _root(G, tau))
        for s in [s for s in window if s * base < tau * (1 + 1e-13)]:
            del window[s]
        window[tau] = E
        return E

    def _sqrt_matrix(self):
        return self._cached("sqrt", self._build_sqrt)

    def _build_sqrt(self):
        # sqrt is not Lipschitz at the zero eigenvalue, and the iteration
        # inverts its argument; L1 = 0 holds exactly, so shift that mode to
        # 1 (add 1/nc to every entry), take the root, and shift back
        shift = 1.0 / self.ncells
        A = self.matrix + shift
        S = sla.sqrtm(A)
        R = S @ S
        R -= A
        resid = float(np.linalg.norm(R) / np.linalg.norm(A))
        if not resid <= 1e-10:
            raise RuntimeError(f"sqrtm residual {resid:.1e} above 1e-10")
        self.report.notes.append(f"sqrtm residual {resid:.1e}")
        S -= shift
        return np.ascontiguousarray(S)

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

    def _apply(self, family, times, members, cols):
        """Every member of one family at every time of times, on columns
        (ncells, B). members holds (m, time) pairs; each gives rows
        (len(times), B, ncells), and time=True a leading axis of two more
        that holds the member and its time component (see _symbol).

        The spectral tiers project cols onto their unitary basis once and
        take each member at every level, time components included, from its
        stacked symbols (built once per ladder and member, then cached) and
        one map back. The dense fallback walks the times once, in ascending
        order: the level's exponential (see _level) times cols, then the
        chain of products with t^2 M up to the highest order asked for, so
        member m is link m. The time component's R is twice link m + 1 for
        heat and t S times link m for Poisson.
        """
        if self.has_eigenbasis:
            spectrum = self._to_spectrum(cols)
            out = []
            for m, time in members:
                phi = self._cached(("symbol", family, times.tobytes(), m, time),
                                   lambda: self._symbol(family, times[:, None], m, time))
                out.append(self._from_spectrum(phi[..., None, :] * spectrum))
            return out

        heat = family == "heat"
        S = None if heat else self._sqrt_matrix()
        top = max(m + (time and heat) for m, time in members)
        rows = (times.size, cols.shape[1], cols.shape[0])
        out = [np.empty((2, *rows) if time else rows, dtype=complex) for _, time in members]
        # the walk starts from the family's cached roots
        key = "h" if heat else "p"
        window = {k[1]: E for k, E in self._cache.items() if isinstance(k, tuple) and k[0] == key}
        for i in np.argsort(times, kind="stable"):
            t = times[i]
            tau = t * t
            E = self._level(key, tau if heat else t, window, self.matrix if heat else S)
            links = [E @ cols]
            for _ in range(top):
                links.append(tau * (self.matrix @ links[-1]))
            for (m, time), arr in zip(members, out):
                if not time:
                    arr[i] = links[m].T
                    continue
                R = 2 * links[m + 1] if heat else t * (S @ links[m])
                arr[0, i] = links[m].T
                arr[1, i] = (2 * m * links[m] - R).T
        return out

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

    # --------------------------------------------------------- time ladder

    def ladders(self, family, members, levels, f):
        """Several members of one family at every time of levels, for a field
        or a batch, from one walk of the family's ladder (_apply).

        family is "heat" or "poisson"; members is a nonempty sequence of
        (order, derivative) pairs, order a nonnegative integer: derivative
        "none" is the member (t^2 L)^m e^{-t^2 L} or
        (t sqrt(L))^{2m} e^{-t sqrt(L)} itself, "spatial" is t times its
        forward difference along each axis, and "full" appends the time
        component t d/dt (member), as in heat_gradient / poisson_gradient.
        Every time must be positive. Returns a list with one array per
        member, of shape (len(levels), comps, *grid.shape) for one field f
        and (len(levels), comps, B, *grid.shape) for a batch
        (B, *grid.shape). Each member's rows are released as soon as its
        components are built.
        """
        times = np.asarray(levels, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("levels must be a nonempty sequence of times")
        if not members:
            raise ValueError("members must name at least one member")
        if family not in ("heat", "poisson"):
            raise ValueError("family must be heat or poisson")
        for order, derivative in members:
            if derivative not in ("none", "spatial", "full"):
                raise ValueError("derivative must be none, spatial or full")
            if order < 0 or int(order) != order:
                raise ValueError("order must be a nonnegative integer")
        if not (times > 0).all():  # a NaN time fails too
            raise ValueError("time must be positive")
        cols, batch = self._as_columns(f)
        n, h, shape = self.grid.n, self.grid.h, self.grid.shape
        L, B = times.size, cols.shape[1]
        tb = times.reshape(L, *([1] * (n + 1)))
        applied = self._apply(family, times, [(int(m), d == "full") for m, d in members], cols)
        out = []
        for k, (m, derivative) in enumerate(members):
            base, applied[k] = applied[k], None
            if derivative == "full":
                base, dt = base
            fields = base.reshape(L, B, *shape)
            if derivative == "none":
                out.append(fields[:, None])
                continue
            comps = [tb * _fwd(fields, n, j, h) for j in range(n)]
            if derivative == "full":
                comps.append(dt.reshape(L, B, *shape))
            out.append(np.stack(comps, axis=1))
        return out if batch else [x[:, :, 0] for x in out]

    def ladder(self, family, order, derivative, levels, f):
        """One family member at every time of levels: ladders with the one
        member (order, derivative)."""
        return self.ladders(family, [(order, derivative)], levels, f)[0]


def _gradient_mode(mode):
    if mode not in ("spatial", "full"):
        raise ValueError("mode must be spatial or full")
    return mode


# Al-Mohy & Higham (2009): the largest 1-norm at which the Pade 13
# approximant needs no scaling
_THETA13 = 5.371920351148152
# rows or columns per block of every dense pass that works block by block
# (_flush, _combine, _stencil_matrix, _is_hermitian), so its temporaries are
# _BLOCK / ncells of a dense matrix each
_BLOCK = 64
# below sqrt(tiny) in magnitude, a product of two parts can underflow
_FLUSH = math.sqrt(np.finfo(float).tiny)


def _root(G, tau):
    """Dense root e^{-tau G}: sla.expm(G, c), the Pade 13 step at cG with
    c = -tau / 2^s, and s >= 0 the least integer that brings ||-tau G||_1 / 2^s
    to _THETA13 or below, so the approximant needs no squaring of its own;
    it is then squared s times in _squared, which keeps every stored part
    out of gradual underflow. The step forms the scaled argument itself, so
    no copy of it outlives the norm."""
    norm = float(np.linalg.norm(-tau * G, 1))
    s = 0
    while norm > _THETA13 * 2.0**s:
        s += 1
    return _squared(sla.expm(G, -tau * 0.5**s), s)


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
    for lo in range(0, len(parts), _BLOCK):
        rows = parts[lo:lo + _BLOCK]
        mag = np.abs(rows)
        rows[(mag < _FLUSH) & (mag > 0)] = 0.0


# ------------------------------------------------------------ dense kernels

# b_0 .. b_13 of the degree-13 Pade approximant of e^x, p(x) / p(-x) with
# p(x) = sum_k b_k x^k (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)


def _pade13(G, c):
    """r_13(A) = (V - U)^{-1} (V + U) at A = cG, U and V the odd and even
    parts of p(A): six products and one solve. Backward stable as an
    approximation of e^A for ||A||_1 <= _THETA13, which _root's scaling
    guarantees, so there is no degree selection, norm estimate or squaring
    here.

    The step holds at most five n x n work matrices. It forms A for A^2 and
    again for the last product U = A U', writes each combination
    b_i A^6 + b_j A^4 + b_k A^2 one block of rows at a time (_combine), the
    last one into A^4's own rows so that A^2 is gone before the product
    with A^6, and overwrites V with V + U once V - U is formed. Every entry
    is rounded as in the plain evaluation on cG (tests/oracles.py)."""
    b = _PADE13
    A = c * G
    A2 = A @ A
    del A
    A4 = A2 @ A2
    A6 = A4 @ A2
    W = _combine(np.empty_like(A2), A6, A4, A2, b[13], b[11], b[9])
    Ui = A6 @ W
    Ui += _combine(W, A6, A4, A2, b[7], b[5], b[3])
    _add_identity(Ui, b[1])
    _combine(W, A6, A4, A2, b[12], b[10], b[8])
    low = _combine(A4, A6, A4, A2, b[6], b[4], b[2])
    del A2, A4
    V = A6 @ W
    del A6, W
    V += low
    del low
    _add_identity(V, b[0])
    U = (c * G) @ Ui
    del Ui
    D = V - U
    V += U
    del U
    return np.linalg.solve(D, V)


def _combine(out, X, Y, Z, bx, by, bz):
    """out = bx X + by Y + bz Z, one block of _BLOCK rows at a time; out may
    be one of the terms, since each block reads its rows before writing."""
    for lo in range(0, len(out), _BLOCK):
        r = slice(lo, lo + _BLOCK)
        out[r] = bx * X[r] + by * Y[r] + bz * Z[r]
    return out


def _add_identity(X, c):
    """X += c I, in place."""
    X.flat[::X.shape[0] + 1] += c


# Denman-Beavers stops once ||M_k - I||_1 is at most _DB_TOL; on every
# operator of the lab that takes 6-7 iterations
_DB_TOL = 1e-14
_DB_CAP = 20


def _sqrtm(A):
    """Principal square root of A, by the product form of the Denman-Beavers
    iteration with scalar scaling (Higham, Functions of Matrices, 2008,
    6.3):

        M_{k+1} = (I + (mu_k^2 M_k + mu_k^-2 M_k^{-1}) / 2) / 2,    M_0 = A,
        Y_{k+1} = mu_k Y_k (I + mu_k^-2 M_k^{-1}) / 2,              Y_0 = A,

    with Y_k -> A^{1/2} and M_k -> I. It is Newton's sign iteration on the
    square roots of the spectrum, which lie in [lo, hi] in modulus:
    mu = 1 / sqrt(lo hi) maps that range onto one symmetric about 1, after
    which it lies in [1, (mu hi + 1 / (mu hi)) / 2]. The first range is
    lo = ||A^{-1}||_1^{-1/2}, hi = ||A||_1^{1/2}, from the first step's own
    inverse. An eigenvalue on the closed negative real axis has no
    principal root; the iteration then does not converge, and after _DB_CAP
    steps this raises.
    """
    M = np.array(A, dtype=complex)
    Y = M.copy()
    T = np.linalg.inv(M)
    lo, hi = np.linalg.norm(T, 1) ** -0.5, np.linalg.norm(M, 1) ** 0.5
    for _ in range(_DB_CAP):
        mu = 1.0 / math.sqrt(lo * hi)
        lo, hi = 1.0, (mu * hi + 1.0 / (mu * hi)) / 2
        T *= mu**-2
        _add_identity(T, 1.0)  # I + mu^-2 M^{-1}
        Y = Y @ T
        Y *= mu / 2
        M *= mu * mu / 4
        M += T / 4
        _add_identity(M, -0.75)  # M_{k+1} - I
        if np.linalg.norm(M, 1) <= _DB_TOL:
            return Y
        _add_identity(M, 1.0)
        T = np.linalg.inv(M)
    raise RuntimeError(f"sqrtm: Denman-Beavers did not converge in {_DB_CAP} steps; "
                       "an eigenvalue on the closed negative real axis has no "
                       "principal square root")


# the dense route's two kernels, read through this name at every call: an
# object put in its place (perfbench's tracing proxy) sees each of them
sla = SimpleNamespace(expm=_pade13, sqrtm=_sqrtm)


def _clean_spectrum(eigs):
    # constants are annihilated exactly, but eigh and the DFT return the zero
    # mode with O(eps ||M||) noise; its square root is O(sqrt(eps ||M||)) and
    # would leak into e^{-t sqrt(L)}, so snap roundoff-scale eigenvalues to zero
    tiny = 1e-12 * float(np.abs(eigs).max())
    out = eigs.copy()
    out[np.abs(out) <= tiny] = 0.0
    return out


def _stencil_matrix(coeff):
    """Dense matrix of the stencil: column j is the image of unit field j,
    built one block of columns at a time. The stencil acts on each field on
    its own, so every column has the bits of a one-batch build."""
    nc = coeff.grid.ncells
    M = np.empty((nc, nc), dtype=complex)
    for lo in range(0, nc, _BLOCK):
        width = min(_BLOCK, nc - lo)
        unit = np.eye(width, nc, lo, dtype=complex).reshape(width, *coeff.grid.shape)
        M[:, lo:lo + width] = apply_divform(coeff, unit).reshape(width, nc).T
    return M


def _is_hermitian(M):
    """np.allclose(M, M^H, atol=1e-12 max |M_ij|) with its default rtol
    1e-5: the same predicate, taken one block of rows at a time so that no
    temporary is the size of M, and stopped at the first block that fails."""
    blocks = [slice(lo, lo + _BLOCK) for lo in range(0, len(M), _BLOCK)]
    atol = 1e-12 * max(float(np.abs(M[b]).max()) for b in blocks)
    for b in blocks:
        x, y = M[b], M[:, b].T.conj()
        if not ((np.abs(x - y) <= atol + 1e-5 * np.abs(y)) & np.isfinite(y) | (x == y)).all():
            return False
    return True


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
    if _is_hermitian(M):
        eigs, V = np.linalg.eigh((M + M.conj().T) / 2)
        eigs = _clean_spectrum(eigs.astype(complex))
        report = BuildReport("hermitian-eig", 1.0)
        return EllipticOperator(grid, coeff, M, report, V=V, eigs=eigs)

    report = BuildReport("dense-fallback", math.nan,
                         notes=["non-Hermitian: no eigendecomposition, "
                                "semigroups run via expm/sqrtm"])
    return EllipticOperator(grid, coeff, M, report)


# --------------------------------------------------------- restricted norms


def offdiagonal_opnorm(op, family, order, derivative, t, E, Fs):
    """||chi_F T chi_E|| from l2 on E to l2 on F (l2 over components too),
    for each set F of Fs, with T the member (order, derivative) of family at
    time t, as EllipticOperator.ladders names it.

    Every norm comes from one ladder call on the batch of |E| unit fields of
    E; the norm of that block's rows on F is its largest singular value,
    exact up to the SVD's roundoff. E and each F are cell indices in
    [0, ncells), nonempty, and each F is disjoint from E.
    """
    E, *Fs = (np.unique(np.asarray(cells, dtype=int)) for cells in (E, *Fs))
    for cells in (E, *Fs):
        if cells.size == 0:
            raise ValueError("E and every F must be nonempty")
        if cells[0] < 0 or cells[-1] >= op.ncells:
            raise ValueError(f"cell indices must lie in [0, {op.ncells})")
        if cells is not E and np.intersect1d(E, cells).size:
            raise ValueError("E and F must be disjoint")
    unit = np.zeros((E.size, op.ncells), dtype=complex)
    unit[np.arange(E.size), E] = 1.0
    fields = op.ladder(family, order, derivative, (t,), unit.reshape(E.size, *op.grid.shape))[0]
    comps = fields.shape[0]
    images = fields.reshape(comps, E.size, -1).transpose(0, 2, 1)
    # rows: component-major blocks of the cells of F; columns: the cells of E
    return [float(np.linalg.norm(images[:, F].reshape(comps * F.size, E.size), 2)) for F in Fs]
