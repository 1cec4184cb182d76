"""The closed loop that times operations, scaled to a reference machine speed.

The host the benchmark was defined on is shared with other tenants and runs
the same instructions up to 2x slower for seconds at a time, although the
process is never descheduled.  Raw times of identical runs spread by up to
28% (interquartile range over median), which swamps any bound a regression
check could use.  So while operations run, a timer samples the machine's speed
every 50 ms with a probe of fixed work of the kinds caolf does:
interpreter-bound arithmetic, small numpy calls and a memory-bound outer
product.  Each operation's time, less the probes that ran inside it, is
scaled by PROBE_REF_S over the mean probe time during the operation, which
puts every time metric in seconds at the reference speed.  Over ten runs per
workload, the spread of wall times fell from 12-28% raw to 3-6% scaled.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# the probe's time on the 2-core x86-64 sandbox the benchmark was defined on:
# 0.46 ms in a tight loop, 0.6-0.8 ms between caolf's own work
PROBE_REF_S = 0.0006
INTERVAL_S = 0.05
MIN_SAMPLES = 5  # an op shorter than this many intervals uses the nearest samples

_SMALL = np.linspace(-1.0, 1.0, 30)
_ROWS = np.linspace(0.0, 1.0, 200)
_COLS = np.linspace(1.0, 2.0, 300)


def probe() -> float:
    """Seconds taken by a fixed piece of work."""
    started = time.perf_counter()
    acc = 0
    for i in range(4000):
        acc += i * i % 7
    v = _SMALL
    for _ in range(60):
        v = np.maximum(np.abs(v) - 1e-3, 0.0) + 1e-3 * v
    np.outer(_ROWS, _COLS)
    return time.perf_counter() - started


class SpeedMeter:
    """Runs ``probe`` from a SIGALRM handler every INTERVAL_S of wall time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append((time.perf_counter(), probe()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append((time.perf_counter(), probe()))

    def raw_seconds(self, start: float, end: float) -> float:
        """Wall time between ``start`` and ``end``, less the probes run inside."""
        return end - start - sum(s for t, s in self.samples if start <= t <= end)

    def seconds(self, start: float, end: float) -> float:
        """``raw_seconds`` scaled to the reference speed by the probes around it."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            middle = 0.5 * (start + end)
            nearest = sorted(self.samples, key=lambda ts: abs(ts[0] - middle))
            inside = [s for _, s in nearest[:MIN_SAMPLES]]
        return self.raw_seconds(start, end) * PROBE_REF_S / statistics.mean(inside)


def closed_loop(ops):
    """Run zero-argument callables one at a time while the machine's speed is sampled.

    Returns (outputs, (start, end) of each op, the meter); an op that raises
    yields its exception as its output.
    """
    outputs, spans = [], []
    with SpeedMeter() as meter:
        for op in ops:
            start = time.perf_counter()
            try:
                outputs.append(op())
            except Exception as exc:  # the workload's check counts it as a failed op
                outputs.append(exc)
            spans.append((start, time.perf_counter()))
    return outputs, spans, meter
