"""Per-layer spans around arithcoh's public functions, installed from outside.

``install`` replaces each function listed in ``LAYERS`` with a wrapper
wherever an ``arithcoh`` module (or, for a method, its class) holds it.  A
wrapper records a span: its layer, its duration, and the time covered by
the spans it caused.  Self time is duration minus child time, so the layer
self times plus the time outside every span add up to the traced wall time.
Nothing under ``src/`` changes; ``restore`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

# (module, public function, layer); nested calls inside one layer are spans
# of that layer too, so each layer's self time is the time spent in it
LAYERS = (
    ("intmat", "hnf_rows", "intmat"),
    ("intmat", "fraction_rows_to_lattice", "intmat"),
    ("intmat", "inv_fraction", "intmat"),
    ("intmat", "lattice_intersection", "intmat"),
    ("intmat", "det_int", "intmat"),
    ("numfield", "ideal_mul", "numfield.ideal"),
    ("numfield", "ideal_inv", "numfield.ideal"),
    ("numfield", "ideal_pow", "numfield.ideal"),
    ("arakelov", "ArakelovDivisor.ideal", "numfield.ideal"),
    ("arakelov", "canonical_divisor", "numfield.ideal"),
    ("arakelov", "sub", "numfield.ideal"),
    ("numfield", "embed_ideal", "numfield.embed"),
    ("lattice", "lll_reduce_rows", "lattice.lll"),
    ("lattice", "cholesky", "lattice.cholesky"),
    ("lattice", "theta_sum", "lattice.theta"),
    ("arakelov", "h0", "arakelov.h0"),
    ("ghost", "check_associativity", "ghost.assoc"),
    ("ghost", "check_first_kind", "ghost.check"),
    ("ghost", "quotient_by_ghost", "ghost.check"),
    ("ghost", "dual_ghost", "ghost.check"),
    ("ghost", "dft", "ghost.dft"),
    ("cli", "main", "cli"),
)
# counted without a span: their own time stays outside every layer
COUNTED = (
    ("arakelov", "verify_riemann_roch", "arakelov.verify.calls"),
    ("arakelov", "verify_serre_duality", "arakelov.verify.calls"),
)
SPAN_LAYERS = tuple(dict.fromkeys(layer for _, _, layer in LAYERS))
# unit by the last part of a metric name; every other metric is a count
UNITS = {"self_s": "s", "wall_s": "s", "outside_s": "s", "ops_per_s": "1/s",
         "peak_mb": "MB", "ns_per_point": "ns", "repeat_frac": "frac", "radius_p50": "1"}
_MB = 2.0 ** 20


class Tracer:
    """Span stack and counters of one traced run."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        # the largest calls of a layer as (size, fn, args, kwargs); peak_mb
        # re-runs them under tracemalloc once the timed passes are over
        self.largest: dict[tuple[str, str], tuple] = {}
        self.peak_mb: defaultdict = defaultdict(float)
        self.covered_s = 0.0  # total duration of root spans
        self.theta_points: list[int] = []
        self.theta_radius: list[float] = []
        self.theta_shifted = 0
        self.theta_repeats = 0
        self.triples = 0
        self._stack: list[list[float]] = []  # [start, child time]
        self._op_theta_keys: set = set()

    def begin_op(self) -> None:
        """Theta repeats are counted within one op."""
        self._op_theta_keys = set()

    def span(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append([time.perf_counter(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                start, child = self._stack.pop()
                duration = time.perf_counter() - start
                self.calls[layer] += 1
                self.self_s[layer] += duration - child
                if self._stack:
                    self._stack[-1][1] += duration
                else:
                    self.covered_s += duration

        return wrapper

    def counted(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def theta(self, fn):
        """Span of theta_sum plus the ThetaResult fields and the repeat key."""
        signature = inspect.signature(fn)
        inner = self.span("lattice.theta", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            bound = signature.bind(*args, **kwargs).arguments
            gram = bound["gram"]
            gram = np.asarray(getattr(gram, "entries", gram), dtype=float)
            center = bound["center"]
            if center is not None:
                center = np.asarray(center, dtype=float)
                self.theta_shifted += bool(np.any(center != 0.0))
                center = center.tobytes()
            key = (gram.tobytes(), center, float(bound["tol"]))
            self.theta_repeats += key in self._op_theta_keys
            self._op_theta_keys.add(key)
            self.theta_points.append(result.points_enumerated)
            self.theta_radius.append(result.radius)
            self._keep_largest("lattice.theta", result.points_enumerated, fn, args, kwargs)
            return result

        return wrapper

    def assoc(self, fn):
        inner = self.span("ghost.assoc", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.triples += result.triples_checked
            self._keep_largest("ghost.assoc", result.triples_checked, fn, args, kwargs)
            return result

        return wrapper

    def _keep_largest(self, layer, size, fn, args, kwargs) -> None:
        # one candidate per type of first argument: a first-kind ghost space
        # allocates |G|^3 where second-kind and mixed ones of the same order,
        # with the same triple count, allocate |G|^4
        key = (layer, type(args[0]).__name__ if args else "")
        if size > self.largest.get(key, (-1,))[0]:
            self.largest[key] = (size, fn, args, kwargs)

    def measure_peaks(self) -> None:
        """tracemalloc peak of each layer's largest calls, run again alone.

        Tracing every allocation slows the theta sum several times over, so
        the timed spans run without it; the peak depends only on the inputs.
        """
        for (layer, _), (_, fn, args, kwargs) in self.largest.items():
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1] / _MB
            finally:
                tracemalloc.stop()
            self.peak_mb[layer] = max(self.peak_mb[layer], peak)

    def wrap(self, layer: str, qualname: str, fn):
        if layer == "lattice.theta":
            return self.theta(fn)
        if layer == "ghost.assoc":
            return self.assoc(fn)
        wrapped = self.span(layer, fn)
        if qualname == "ArakelovDivisor.ideal":
            return self.counted("arakelov.divisor_ideal.calls", wrapped)
        return wrapped

    def metrics(self, wall_s: float, ops_per_s: float, passes: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric of the traced run as name -> (value, unit).

        Counts and times are per pass over the inputs: every pass does the
        same work, so they do not depend on how many passes fit in the run.
        """
        total: dict[str, float] = {}
        for layer in SPAN_LAYERS:
            total[f"{layer}.calls"] = self.calls[layer]
            total[f"{layer}.self_s"] = self.self_s[layer]
        total["arakelov.divisor_ideal.calls"] = self.counts["arakelov.divisor_ideal.calls"]
        total["arakelov.verify.calls"] = self.counts["arakelov.verify.calls"]
        total["lattice.theta.shifted_calls"] = self.theta_shifted
        total["lattice.theta.points_total"] = sum(self.theta_points)
        total["ghost.assoc.triples"] = self.triples
        total["trace.wall_s"] = wall_s
        total["trace.outside_s"] = wall_s - self.covered_s
        out = {k: v / passes for k, v in total.items()}

        points = self.theta_points
        theta_calls = self.calls["lattice.theta"]
        out["lattice.theta.points_p50"] = statistics.median(points) if points else 0
        out["lattice.theta.points_max"] = max(points, default=0)
        out["lattice.theta.radius_p50"] = (statistics.median(self.theta_radius)
                                           if points else 0.0)
        out["lattice.theta.ns_per_point"] = (1e9 * self.self_s["lattice.theta"] / sum(points)
                                             if points else 0.0)
        out["lattice.theta.repeat_frac"] = (self.theta_repeats / theta_calls
                                            if theta_calls else 0.0)
        out["lattice.theta.peak_mb"] = self.peak_mb["lattice.theta"]
        out["ghost.assoc.peak_mb"] = self.peak_mb["ghost.assoc"]
        out["trace.ops_per_s"] = ops_per_s
        return {k: (v, UNITS.get(k.rsplit(".", 1)[1], "count")) for k, v in out.items()}


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every listed function wherever arithcoh refers to it.

    Returns the (holder, name, original) triples that ``restore`` undoes.
    """
    patches: list[tuple[object, str, object]] = []
    for modname, qualname, layer in LAYERS:
        _patch(patches, modname, qualname, lambda fn: tracer.wrap(layer, qualname, fn))
    for modname, qualname, key in COUNTED:
        _patch(patches, modname, qualname, lambda fn: tracer.counted(key, fn))
    return patches


def _patch(patches, modname: str, qualname: str, make) -> None:
    module = importlib.import_module(f"arithcoh.{modname}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        holders = [(getattr(module, cls_name), attr)]
        original = getattr(holders[0][0], attr)
    else:
        original = getattr(module, qualname)
        holders = [(mod, name)
                   for mod in _arithcoh_modules()
                   for name, value in vars(mod).items() if value is original]
    wrapped = make(original)
    for holder, name in holders:
        patches.append((holder, name, original))
        setattr(holder, name, wrapped)


def _arithcoh_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "arithcoh" or name.startswith("arithcoh.")]


def restore(patches) -> None:
    for holder, name, original in reversed(patches):
        setattr(holder, name, original)
