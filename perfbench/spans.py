"""In-memory span recorder and the timing wrappers of the traced run.

A span is (id, name, start, end, parent, thread). Each thread keeps its own
stack of open spans; a span opened on a thread whose stack is empty (a
sample worker of the experiment's thread pool) takes the root span as its
parent, because the pool is only ever started from inside the root.

Self time of a span is its duration minus the part of its interval that
the union of its children's intervals covers. Children on two threads may
overlap each other; the union counts that stretch once.

Stdlib only, so importing it adds nothing to the measured set-up.
"""

import functools
import threading
import time
from collections import namedtuple

Span = namedtuple("Span", "id name start end parent thread")


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.operators = []
        self.expm_bytes = 0
        self.root = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        if parent is None and self.root is None:
            self.root = sid
        stack.append(sid)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident()))

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """{span id: self time} for a list of Span."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def aggregate(spans):
    """{name: {"s": inclusive total, "self_s": self total, "calls": count}}."""
    own = self_times(spans)
    out = {}
    for s in spans:
        row = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["s"] += s.end - s.start
        row["self_s"] += own[s.id]
        row["calls"] += 1
    return out


# ------------------------------------------------------------ installation


class _LinalgProxy:
    """Stands in for scipy.linalg inside elliptic: expm and sqrtm are traced,
    every other attribute is the real one."""

    def __init__(self, real, rec):
        self._real = real
        self.expm = rec.wrap("elliptic.expm", self._expm(real.expm, rec))
        self.sqrtm = rec.wrap("elliptic.sqrtm", real.sqrtm)

    @staticmethod
    def _expm(expm, rec):
        def counted(A, *args, **kwargs):
            with rec._lock:
                rec.expm_bytes += A.shape[0] * A.shape[1] * 16
            return expm(A, *args, **kwargs)

        return counted

    def __getattr__(self, name):
        return getattr(self._real, name)


def _rebind(modules, original, traced):
    """Point every module-level name bound to original at traced."""
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, traced)


def install(rec):
    """Replace the traced functions of conical_lab with timing wrappers, at
    every module-level name they are looked up by."""
    from conical_lab import elliptic, grid, squarefn, tent, vericli, weights

    modules = (grid, weights, tent, elliptic, squarefn, vericli)

    functions = [
        (grid, "ball_max", "grid.ball_max"),
        (grid, "ball_sum", "grid.ball_sum"),
        (tent, "carleson_functional", "tent.carleson_functional"),
        (tent, "carleson_p0", "tent.carleson_p0"),
        (tent, "cone_functional", "tent.cone_functional"),
        (elliptic, "offdiagonal_opnorm", "elliptic.offdiagonal_opnorm"),
        (squarefn, "integrand_field", "squarefn.integrand_field"),
    ]
    for name, val in vars(weights).items():
        if (callable(val) and not isinstance(val, type) and not name.startswith("_")
                and getattr(val, "__module__", None) == weights.__name__):
            functions.append((weights, name, f"weights.{name}"))
    for mod, attr, label in functions:
        original = getattr(mod, attr)
        _rebind(modules, original, rec.wrap(label, original))

    real_assemble = elliptic.assemble

    def assemble(*args, **kwargs):
        op = real_assemble(*args, **kwargs)
        with rec._lock:
            rec.operators.append({
                "n": op.grid.n, "N": op.grid.N,
                "tier": op.report.tier, "cond": float(op.report.cond),
            })
        return op

    _rebind(modules, real_assemble,
            rec.wrap("elliptic.assemble", functools.wraps(real_assemble)(assemble)))

    for cls in (weights.Weight, weights.BallFamily):
        for name, val in list(vars(cls).items()):
            if isinstance(val, classmethod) and not name.startswith("_"):
                traced = rec.wrap(f"weights.{cls.__name__}.{name}", val.__func__)
                setattr(cls, name, classmethod(traced))
    op_cls = elliptic.EllipticOperator
    for name in ("heat", "poisson", "heat_gradient", "poisson_gradient"):
        setattr(op_cls, name, rec.wrap(f"elliptic.{name}", getattr(op_cls, name)))
    elliptic.sla = _LinalgProxy(elliptic.sla, rec)
