"""Spans and counters recorded around brakeopt's layers from outside the package.

The tracer wraps public functions on the brakeopt module attributes for the
duration of one run and puts every original back afterwards, so the
package source is never touched.  Two kinds of wrapper exist:

* span wrappers record a ``Span`` per call (name, start, end, parent), so
  self time can be derived from the call tree afterwards;
* element wrappers sit on per-element functions called hundreds of
  thousands of times per run (``maxent.sample_inverse_cdf``,
  ``mechmodel.braking_force``).  They only add to a call count and a total
  time, and charge that time to the innermost open span so it does not
  show up as that span's self time.  Their residual call overhead shows up
  in ``trace.overhead_s``.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

import numpy as np

from brakeopt import config, maxent, mc_uq, mechmodel, optimizer

# metric name -> unit, in the order the benchmark reports them
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "config.load_s": "s",
    "config.sha256_calls": "count",
    "maxent.fit_calls": "count",
    "maxent.fit_s": "s",
    "maxent.inverse_cdf_calls": "count",
    "maxent.inverse_cdf_s": "s",
    "mc_uq.draw_s": "s",
    "mc_uq.propagate_self_s": "s",
    "mc_uq.summarize_self_s": "s",
    "mc_uq.kde_s": "s",
    "mc_uq.convergence_trace_s": "s",
    "mechmodel.trig_calls": "count",
    "mechmodel.trig_s": "s",
    "mechmodel.ensemble_calls": "count",
    "mechmodel.ensemble_samples": "count",
    "mechmodel.ensemble_s": "s",
    "mechmodel.scalar_calls": "count",
    "mechmodel.scalar_s": "s",
    "mechmodel.valid_frac": "1",
    "optimizer.self_s": "s",
    "optimizer.grid_scan_calls": "count",
    "optimizer.grid_scan_s": "s",
    "optimizer.grid_scan_ensemble_calls": "count",
    "optimizer.reported_evaluations": "count",
    "trace.overhead_s": "s",
}


class Span:
    """One call of a wrapped function.

    ``parent`` is the index of the enclosing span in ``Tracer.spans``;
    ``inner`` is the time of element calls made directly inside this span.
    """

    __slots__ = ("name", "start", "end", "parent", "inner")

    def __init__(self, name, start, end=float("nan"), parent=None, inner=0.0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.inner = inner


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.calls = Counter()          # element wrapper name -> calls
        self.totals = defaultdict(float)  # element wrapper name -> seconds
        self.counters = Counter()       # values reported by the after-hooks
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def span_wrapper(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(self.counters, result)
            return result
        return wrapper

    def element_wrapper(self, name, fn, after=None):
        clock, calls, totals, spans, stack = (
            self.clock, self.calls, self.totals, self.spans, self._stack)

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls[name] += 1
                totals[name] += dt
                if stack:
                    spans[stack[-1]].inner += dt
            if after is not None:
                after(self.counters, result)
            return result
        return wrapper


def _covered(start, end, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict:
    """Per span name: duration minus the time covered by child spans and
    by element calls made directly inside the span."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = defaultdict(float)
    for i, span in enumerate(spans):
        out[span.name] += (span.end - span.start) - _covered(span.start, span.end, children[i]) - span.inner
    return out


def durations(spans) -> dict:
    out = defaultdict(float)
    for span in spans:
        out[span.name] += span.end - span.start
    return out


def count_within(spans, name, ancestor) -> int:
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    count = 0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name != ancestor:
            parent = spans[parent].parent
        count += parent is not None
    return count


def _after_ensemble(counters, result):
    fh, valid, _ = result
    counters["ensemble_samples"] += fh.shape[0]
    counters["valid_samples"] += int(np.count_nonzero(valid))


def _after_scalar(counters, result):
    counters["scalar_evaluated"] += 1
    counters["valid_samples"] += result.valid


def _after_optimize(counters, result):
    counters["reported_evaluations"] += result.evaluations


# (module, attribute, span name, after-hook)
SPAN_TARGETS = (
    (config, "load_config", "config.load", None),
    (config, "config_sha256", "config.sha256", None),
    (maxent, "fit_truncexp", "maxent.fit", None),
    (mc_uq, "draw_uniform_matrix", "mc_uq.draw", None),
    (mc_uq, "propagate", "mc_uq.propagate", None),
    (mc_uq, "summarize", "mc_uq.summarize", None),
    (mc_uq, "kde", "mc_uq.kde", None),
    (mc_uq, "convergence_trace", "mc_uq.convergence_trace", None),
    (mechmodel, "trig_arrays", "mechmodel.trig", None),
    (mechmodel, "braking_force_ensemble", "mechmodel.ensemble", _after_ensemble),
    (optimizer, "optimize_robust", "optimizer.optimize", _after_optimize),
    (optimizer, "optimize_classical", "optimizer.optimize", _after_optimize),
    (optimizer, "grid_scan", "optimizer.grid_scan", None),
)
ELEMENT_TARGETS = (
    (maxent, "sample_inverse_cdf", "maxent.inverse_cdf", None),
    (mechmodel, "braking_force", "mechmodel.scalar", _after_scalar),
)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every target attribute for the duration of the block, then put
    each original object back, also when the block raises."""
    saved = []
    try:
        for targets, make in ((SPAN_TARGETS, tracer.span_wrapper),
                              (ELEMENT_TARGETS, tracer.element_wrapper)):
            for module, attr, name, after in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make(name, original, after))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run, except the two that need
    information from outside the trace (``cli.bytes_written`` and
    ``trace.overhead_s``)."""
    spans = tracer.spans
    own = self_times(spans)
    total = durations(spans)
    n = Counter(span.name for span in spans)
    c = tracer.counters
    evaluated = c["ensemble_samples"] + c["scalar_evaluated"]
    return {
        "cli.self_s": own["cli"],
        "config.load_s": total["config.load"],
        "config.sha256_calls": n["config.sha256"],
        "maxent.fit_calls": n["maxent.fit"],
        "maxent.fit_s": total["maxent.fit"],
        "maxent.inverse_cdf_calls": tracer.calls["maxent.inverse_cdf"],
        "maxent.inverse_cdf_s": tracer.totals["maxent.inverse_cdf"],
        "mc_uq.draw_s": total["mc_uq.draw"],
        "mc_uq.propagate_self_s": own["mc_uq.propagate"],
        "mc_uq.summarize_self_s": own["mc_uq.summarize"],
        "mc_uq.kde_s": total["mc_uq.kde"],
        "mc_uq.convergence_trace_s": total["mc_uq.convergence_trace"],
        "mechmodel.trig_calls": n["mechmodel.trig"],
        "mechmodel.trig_s": total["mechmodel.trig"],
        "mechmodel.ensemble_calls": n["mechmodel.ensemble"],
        "mechmodel.ensemble_samples": c["ensemble_samples"],
        "mechmodel.ensemble_s": total["mechmodel.ensemble"],
        "mechmodel.scalar_calls": tracer.calls["mechmodel.scalar"],
        "mechmodel.scalar_s": tracer.totals["mechmodel.scalar"],
        "mechmodel.valid_frac": c["valid_samples"] / evaluated if evaluated else 0.0,
        "optimizer.self_s": own["optimizer.optimize"] + own["optimizer.grid_scan"],
        "optimizer.grid_scan_calls": n["optimizer.grid_scan"],
        "optimizer.grid_scan_s": total["optimizer.grid_scan"],
        "optimizer.grid_scan_ensemble_calls": count_within(
            spans, "mechmodel.ensemble", "optimizer.grid_scan"),
        "optimizer.reported_evaluations": c["reported_evaluations"],
    }
