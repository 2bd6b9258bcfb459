"""Machine-speed sampler for benchmark passes.

On the shared 2-core machine the benchmark was written on, the speed of a
core changed by up to 2x from one second to the next and from one minute
to the next, as other tenants came and went: the same pass took 10.7 s
at one time and 18 s twenty minutes later.  A calibration loop run before
and after a pass did not track this, because the speed changes inside
the pass.  So the sampler measures the speed inside the pass: every
``INTERVAL_S`` of wall time a SIGALRM handler times one fixed unit of
interpreter work (``_unit``).  ``REFERENCE_UNIT_S / duration`` is the
speed of the machine at that moment relative to the reference, and a raw
time multiplied by the mean speed over its interval is the time the same
work takes at the reference speed.  The handler's own time is measured
and left out of every time it interrupts.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.01
# the median duration of _unit when it interrupts a pass on the machine
# the benchmark was written on, so that scaled times read close to raw
# ones there
REFERENCE_UNIT_S = 100e-6


def _unit():
    table = {}
    x = 1
    for i in range(200):
        x = (x * 1103515245 + 12345) % 2147483648
        table[x & 63] = i
    return x


class SpeedSampler:
    def __init__(self):
        self.samples = []       # durations of _unit, in order

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, signum, frame):
        t0 = perf_counter()
        _unit()
        self.samples.append(perf_counter() - t0)

    def mark(self):
        return len(self.samples)

    def spent(self, since):
        """Seconds the handler took since ``mark()`` returned ``since``."""
        return sum(self.samples[since:])

    def speed(self, since=0):
        """Mean speed relative to the reference since ``since``; 1.0 if
        no sample was taken."""
        xs = self.samples[since:]
        if not xs:
            return 1.0
        return sum(REFERENCE_UNIT_S / x for x in xs) / len(xs)
