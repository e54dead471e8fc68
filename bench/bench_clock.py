"""Timing that discounts the host's contention for the core.

On a shared virtual machine the core the benchmark runs on is intermittently
shared with other tenants: for seconds at a time the same Python or NumPy
work takes up to 1.7x longer, and that state comes and goes over tens of
seconds, so the wall time of one command, and the median of a run of them,
moves by more than any bound a regression check could use.

``SpeedClock`` measures the core's speed while the timed code runs: a timer
signal interrupts it every ``PROBE_PERIOD_S`` and the handler times a fixed
pure-Python loop (``probe_loop``) in the main thread, outside the code being
timed.  An untimed shorter pass of the loop goes first, so the timed pass
finds its code and data in cache whatever the timed code did before.  The
run is then cut into slices at the probes, and each slice is scaled by the
speed its neighbouring probes measured (``reference_seconds``).  The result
is in reference seconds: the time the code would take on a core that runs
one probe iteration in ``REFERENCE_ITERATION_S``, close to the speed of an
uncontended core of the 2-vCPU Xeon host the benchmark was set up on.  The
time spent in probes is excluded from both the plain and the scaled time.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_WARMUP_ITERATIONS = 500
PROBE_ITERATIONS = 2000  # with the warm-up about 0.25 ms: 2.5% of each period
PROBE_PERIOD_S = 0.01
REFERENCE_ITERATION_S = 1e-7
SMOOTH_PROBES = 5  # running median over this many probes damps single-probe noise


def probe_loop(iterations: int = PROBE_ITERATIONS) -> float:
    """Fixed interpreter work whose duration tracks the core's speed."""
    total, slots = 0.0, {}
    for i in range(iterations):
        total += (i % 7) * 0.5
        slots[i & 63] = total
    return total


def reference_seconds(start: float, end: float, probes, iterations: int = PROBE_ITERATIONS) -> float:
    """Time from ``start`` to ``end`` outside the ``probes``, with each slice
    scaled to the reference speed.  ``probes`` are (start, end, timed
    duration) triples in order, the last one starting at or after ``end``;
    the slice before a probe takes that probe's running-median duration as
    its speed."""
    durations = [d for _, _, d in probes]
    half = SMOOTH_PROBES // 2
    speeds = [statistics.median(durations[max(0, i - half):i + half + 1]) for i in range(len(durations))]
    nominal = iterations * REFERENCE_ITERATION_S
    total, slice_start = 0.0, start
    for (probe_start, probe_end, _), speed in zip(probes, speeds):
        total += max(0.0, min(probe_start, end) - slice_start) * nominal / speed
        slice_start = probe_end
    return total


class SpeedClock:
    """Context manager: times its body with speed probes running.

    ``wall`` is the elapsed time outside the probes, ``seconds`` the same
    time in reference seconds.  One probe runs after the body so that every
    slice has a probe at its end.  Not reentrant; installs a SIGALRM handler
    for the duration of the body, so only the main thread may use it."""

    def __init__(self):
        self.probes = []
        self.wall = self.seconds = None

    def _probe(self, *_):
        start = time.perf_counter()
        probe_loop(PROBE_WARMUP_ITERATIONS)
        timed = time.perf_counter()
        probe_loop()
        end = time.perf_counter()
        self.probes.append((start, end, end - timed))

    def __enter__(self):
        for _ in range(3):  # lets the interpreter specialise the loop before it is timed
            probe_loop()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        inside = [p for p in self.probes if p[0] < end]
        self._probe()
        self.wall = end - self.start - sum(b - a for a, b, _ in inside)
        self.seconds = reference_seconds(self.start, end, [*inside, self.probes[-1]])
        return False
