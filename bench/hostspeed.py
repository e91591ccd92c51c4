"""Host-speed sampling, so that timings can be stated at a reference speed.

The speed of a shared host drifts: on a 2-vCPU VM the same fuzz pass took
from 3.7 to 6.6 s in runs a few minutes apart, and a fixed piece of
pure-Python work ran either at about 190 us or at about 350 us, switching
between the two within seconds.  Neither the fastest nor the median pass of
a run undoes that, because a run can spend all of its time in the slow
state.

While a `Sampler` is active, a timer signal interrupts the program every
INTERVAL_S and runs `calibration_chunk`, a fixed piece of work that never
calls quatstar, and records when it started and how long it took.  A
sample costs more when the host is slow, at the moment the program is slow.
`Sampler.scaled` converts an interval of the program's time to reference
speed: it removes the sampling time inside the interval and multiplies by
REF_SAMPLE_S / the mean cost of the samples taken during it.  Over two sets
of ten 40-second runs per workload on the VM above, the run-to-run spread
(interquartile range / median) of the benchmark's times was up to 0.74
unscaled and at most 0.063 scaled.
"""

from __future__ import annotations

import bisect
import gc
import signal
from array import array
from fractions import Fraction
from statistics import fmean
from time import perf_counter

INTERVAL_S = 0.005
MIN_SAMPLES = 3
# The cost of one sample on a 2-vCPU VM (Python 3.11.7) in its fast state:
# scaled times read as if the host always ran at that speed.
REF_SAMPLE_S = 190e-6


def calibration_chunk() -> None:
    """A fixed piece of pure-Python work shaped like the engine's inner loop:
    products of small fractions summed into a dict keyed by exponent tuples."""
    acc = {}
    for i in range(40):
        product = Fraction(i % 17 - 8, i % 5 + 1) * Fraction(i % 11 - 5, i % 3 + 1)
        key = (i % 13, i % 7, i % 3)
        acc[key] = acc.get(key, 0) + product


class Sampler:
    """Samples the host's speed while active (use as a context manager).

    One sampler may be entered several times; its samples accumulate.
    Times are `time.perf_counter` values.
    """

    def __init__(self):
        self.starts = array("d")
        self.costs = array("d")
        self._previous = None

    def _sample(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()  # the program's garbage must not be collected on a sample's time
        start = perf_counter()
        calibration_chunk()
        self.costs.append(perf_counter() - start)
        self.starts.append(start)
        if enabled:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, start: float, end: float) -> float:
        """Seconds from `start` to `end`, less the samples taken in between,
        at reference speed.  The speed is the mean cost of the samples taken
        in the interval, or of the MIN_SAMPLES nearest it if fewer were."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        sampling = sum(self.costs[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.costs)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.costs))
        if hi == lo:
            raise ValueError("no host-speed samples were taken")
        return (end - start - sampling) * REF_SAMPLE_S / fmean(self.costs[lo:hi])
