"""Host-speed calibration for the benchmark's timings.

A shared virtual machine runs the same code at different speeds over
time. On a 2-vCPU Intel Xeon (2.0 GHz) VM, in one process, on identical
inputs, the per-second median of a revolving-door tick moved between 131
and 207 us within one minute. Slow stretches last from 0.1 s to several
minutes, so neither a median nor a best-of over one run removes them.
Probes of a fixed reference loop tracked that speed: over the same minute,
the tick divided by the nearest probes stayed within 32.0-36.9 (in probe
units).

So every timed unit is rescaled to a host on which one probe takes REF_NS:

    normalised = raw * REF_NS / mean(probes around and during the unit)

Short units (blocks of ticks) are bracketed by a probe before and after.
Long units (a rollout, a `verify` call) are also probed every
SAMPLE_PERIOD_S from a SIGALRM handler while they run; the handler's own
time is subtracted from the unit's.

The reference loop uses only numpy and Python, never polycbf, so a change
to the library cannot move it. Raw times are kept in the report.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

REF_NS = 400_000  # probe time of the reference host (that VM, when quiet)
SAMPLE_PERIOD_S = 0.02
_SMALL = np.arange(8.0)


def probe_ns(loops: int = 3) -> float:
    """Median over `loops` of one fixed loop of 100 small-array numpy
    operations, the kind of work polycbf does on each call."""
    times = []
    for _ in range(loops):
        t0 = time.perf_counter_ns()
        for _ in range(100):
            float((_SMALL * 1.5 + 2.0).sum())
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times)


class Timing:
    seconds: float  # the unit's own time, probes excluded
    factor: float   # rescales it to the reference host


class Calibrator:
    """Probes the host around timed units.  Consecutive units share the
    probe between them: call begin() before the first unit, then end() after
    each short unit or wrap each long unit in timed()."""

    def __init__(self):
        self.probes: list[float] = []
        self.last = None

    def _probe(self) -> float:
        self.probes.append(probe_ns())
        return self.probes[-1]

    def begin(self) -> None:
        self.last = self._probe()

    def end(self) -> float:
        """Factor that rescales the time since the previous probe."""
        now = self._probe()
        factor = 2.0 * REF_NS / (self.last + now)
        self.last = now
        return factor

    @contextmanager
    def timed(self):
        """Time the body, probing every SAMPLE_PERIOD_S while it runs."""
        samples = [self.last]
        spent = 0

        def sample(signum, frame):
            nonlocal spent
            t0 = time.perf_counter_ns()
            samples.append(probe_ns(1))
            spent += time.perf_counter_ns() - t0

        timing = Timing()
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = time.perf_counter_ns()
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter_ns()
            signal.signal(signal.SIGALRM, previous)
            self.probes.extend(samples[1:])
            samples.append(self._probe())
            self.last = samples[-1]
            timing.seconds = (t1 - t0 - spent) / 1e9
            timing.factor = REF_NS / statistics.fmean(samples)

    def run_scale(self) -> float:
        """One factor for a whole run: from the median of all its probes."""
        return REF_NS / statistics.median(self.probes)
