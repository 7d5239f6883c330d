"""Layer tracer: wraps the entry points of each ``starkit`` layer module.

``install()`` replaces module attributes and class methods of an imported
``starkit`` with wrappers that record spans and counts; nothing under
``src/`` changes.  A span's self time is its duration minus the time of
the spans nested inside it, so each second of the traced run is charged
to exactly one layer metric (or to none, for code outside every span).
Spans are aggregated in memory; ``Tracer.figures()`` returns the totals.

``cli.<subcommand>_s`` are the one exception: they are inclusive command
times, kept outside the span stack, so a regression in a short command
stays visible when a long command dominates its workload.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

SUBCOMMANDS = ("density", "tail", "coverage", "ubiquity", "search",
               "transfer", "prop5")

# name -> unit, in report order
METRICS = {
    "starbody.eval_calls": "count",
    "starbody.eval_points": "count",
    "starbody.eval_s": "s",
    "starbody.form_floats": "count",
    "starbody.crossing_points": "count",
    "starbody.crossing_s": "s",
    "starbody.geometry_s": "s",
    "measure.kernels": "count",
    "measure.hits_calls": "count",
    "measure.hits_points": "count",
    "measure.hits_s": "s",
    "measure.hit_ratio": "ratio",
    "measure.minimize_calls": "count",
    "measure.minimize_s": "s",
    "measure.sections": "count",
    "measure.quadrature_s": "s",
    "sampling.chunks": "count",
    "sampling.estimate_s": "s",
    "khintchine.tail_s": "s",
    "khintchine.search_s": "s",
    "circle.intervals": "count",
    "circle.interval_system_s": "s",
    "circle.coverage_s": "s",
    "circle.gap_profile_s": "s",
    "transference.enumerated": "count",
    "transference.enumerate_s": "s",
    "transference.mp_rechecks": "count",
    "transference.recheck_s": "s",
    "transference.system_ii_calls": "count",
    "transference.gm_grid_points": "count",
    "transference.prop5_s": "s",
    "cli.write_bytes": "B",
    "cli.write_s": "s",
    **{f"cli.{c}_s": "s" for c in SUBCOMMANDS},
    "dsl.parse_s": "s",
}

# counted here but reported only through the ratio
_HIT_POINTS = "measure.hit_points"


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)
        self.seconds = defaultdict(float)
        self._stack = []    # child time accumulated by each open span

    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, metric, t0):
        dt = time.perf_counter() - t0
        nested = self._stack.pop()
        self.seconds[metric] += dt - nested
        if self._stack:
            self._stack[-1] += dt

    def span(self, fn, metric, before=None, after=None):
        """Wrap fn in a span charged to `metric`.

        before(args, kwargs) and after(args, kwargs, result) update counts.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            t0 = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(metric, t0)
            if after is not None:
                after(args, kwargs, out)
            return out
        return wrapper

    def counter(self, fn, metric, amount=None):
        """Wrap fn to count calls (or amount(args, kwargs, result)); no span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[metric] += 1 if amount is None else amount(args, kwargs, out)
            return out
        return wrapper

    def inclusive(self, fn, metric):
        """Wrap fn to add its whole duration to `metric`, outside the stack."""
        seconds = self.seconds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[metric] += time.perf_counter() - t0
        return wrapper

    def figures(self) -> dict:
        out = {}
        for name, unit in METRICS.items():
            if name == "measure.hit_ratio":
                tried = self.counts["measure.hits_points"]
                out[name] = self.counts[_HIT_POINTS] / tried if tried else 0.0
            elif unit == "s":
                out[name] = self.seconds[name]
            else:
                out[name] = self.counts[name]
        return out


class _WorkprecProxy:
    """Stands in for the ``mpmath`` module inside ``transference``: every
    ``workprec`` block is one high-precision recheck span."""

    def __init__(self, mpmath, tracer):
        self._mpmath = mpmath
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._mpmath, name)

    def workprec(self, prec):
        return _RecheckSpan(self._tracer, self._mpmath.workprec(prec))


class _RecheckSpan:
    def __init__(self, tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def __enter__(self):
        self._tracer.counts["transference.mp_rechecks"] += 1
        self._t0 = self._tracer._enter()
        return self._inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._tracer._exit("transference.recheck_s", self._t0)


def _size(out) -> int:
    return int(np.size(out))


def install() -> Tracer:
    """Wrap the layer entry points of the imported ``starkit``."""
    from starkit import (circle, cli, dsl, khintchine, measure, sampling,
                         starbody, transference)

    t = Tracer()
    c = t.counts

    def add(metric, amount):
        def hook(args, kwargs, out=None):
            c[metric] += amount(args, kwargs, out)
        return hook

    # starbody: expression evaluation, coefficient conversions, crossings,
    # geometry builds
    def eval_done(args, kwargs, out):
        c["starbody.eval_calls"] += 1
        c["starbody.eval_points"] += _size(out)
    starbody.Expr.eval_xy = t.span(starbody.Expr.eval_xy, "starbody.eval_s",
                                   after=eval_done)
    starbody.LinearForm.floats = t.counter(starbody.LinearForm.floats,
                                           "starbody.form_floats")
    starbody._bisect_crossing = t.span(
        starbody._bisect_crossing, "starbody.crossing_s",
        before=add("starbody.crossing_points",
                   lambda a, k, o: _size(a[1]) // 2))
    starbody.BodyGeometry.__init__ = t.span(starbody.BodyGeometry.__init__,
                                            "starbody.geometry_s")

    # measure: the membership kernel and the quadrature
    K = measure._Kernel
    K.__init__ = t.counter(K.__init__, "measure.kernels")

    def hits_done(args, kwargs, out):
        c["measure.hits_calls"] += 1
        c["measure.hits_points"] += len(out)
        c[_HIT_POINTS] += int(np.count_nonzero(out))
    K.hits = t.span(K.hits, "measure.hits_s", after=hits_done)
    for meth in ("minimize", "minimize_exhaustive"):
        setattr(K, meth, t.span(getattr(K, meth), "measure.minimize_s",
                                after=add("measure.minimize_calls",
                                          lambda a, k, o: 1)))
    measure._section_length = t.span(
        measure._section_length, "measure.quadrature_s",
        after=add("measure.sections", lambda a, k, o: 1))
    measure._periodized_quadrature = t.span(measure._periodized_quadrature,
                                            "measure.quadrature_s")

    # sampling: chunk generation and the estimator loop
    est = t.span(sampling.indicator_estimate, "sampling.estimate_s")
    sampling.indicator_estimate = measure.indicator_estimate = est
    uni = t.counter(sampling.uniform_chunk, "sampling.chunks")
    sampling.uniform_chunk = khintchine.uniform_chunk = uni
    circle.uniform_chunk = uni
    sampling.stratified_chunk = t.counter(sampling.stratified_chunk,
                                          "sampling.chunks")

    # khintchine
    khintchine.tail_measure = t.span(khintchine.tail_measure,
                                     "khintchine.tail_s")
    khintchine.best_approximations = t.span(khintchine.best_approximations,
                                            "khintchine.search_s")

    # circle
    def n_max(args, kwargs, out=None):
        return int(kwargs["n_max"] if "n_max" in kwargs else args[4])
    circle.interval_system = t.span(circle.interval_system,
                                    "circle.interval_system_s",
                                    before=add("circle.intervals", n_max))
    circle.coverage_experiment = t.span(circle.coverage_experiment,
                                        "circle.coverage_s")
    circle._max_gap_profile = t.span(circle._max_gap_profile,
                                     "circle.gap_profile_s")

    # transference
    transference._enumerate_product_box = t.span(
        transference._enumerate_product_box, "transference.enumerate_s",
        after=add("transference.enumerated", lambda a, k, o: len(o)))
    transference.mpmath = _WorkprecProxy(transference.mpmath, t)
    transference.solve_system_ii = t.counter(transference.solve_system_ii,
                                             "transference.system_ii_calls")
    transference._gm_grid = t.counter(transference._gm_grid,
                                      "transference.gm_grid_points",
                                      amount=lambda a, k, o: len(o))
    transference.verify_prop5 = t.span(transference.verify_prop5,
                                       "transference.prop5_s")

    # cli and dsl
    cli._atomic_write = t.span(
        cli._atomic_write, "cli.write_s",
        before=add("cli.write_bytes",
                   lambda a, k, o: len(a[1].encode("utf-8"))))
    for sub in SUBCOMMANDS:
        name = f"cmd_{sub}"
        setattr(cli, name, t.inclusive(getattr(cli, name), f"cli.{sub}_s"))
    dsl.load_distance_function = t.span(dsl.load_distance_function,
                                        "dsl.parse_s")
    return t
