"""Machine-speed probes interleaved with the measured work.

The benchmark shares its machine with other tenants, whose load changes the
speed of the same code by tens of percent over minutes.  A worker therefore
runs a fixed probe loop about every ``PROBE_EVERY_S`` seconds of measured
work (the probe's own time is excluded from the measurement) and reports
each stretch of work scaled by ``PROBE_REFERENCE_S`` over the probe times
around it: seconds on a machine where the probe takes
``PROBE_REFERENCE_S``.  The probe allocates no
container objects, so a change in the library's heap cannot move it through
the garbage collector.  Raw times are reported beside the scaled ones.
"""

import statistics
from time import perf_counter

PROBE_REFERENCE_S = 0.01
PROBE_EVERY_S = 0.2
_INITIAL_PROBES = 3
_PROBE_STEPS = 55_000
_TABLE = {i: (i * 7919) % 1009 for i in range(64)}


def probe():
    """Seconds taken by a fixed loop of int arithmetic and dict lookups."""
    table = _TABLE
    acc = 0
    start = perf_counter()
    for i in range(_PROBE_STEPS):
        acc = (acc + table[i & 63] * i) % 1_000_003
    return perf_counter() - start


class Clock:
    """Runs a probe whenever ``PROBE_EVERY_S`` of work has passed.

    Work done between two probes is a segment; ``scale`` gives each
    segment's slowdown as the mean of the probes on either side of it over
    the reference.  Under a tracer each probe is a ``probe`` span, which the
    layer accounting leaves out.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = [probe() for _ in range(_INITIAL_PROBES)]
        self.segment = 0
        self.probe_s = 0.0
        self.next_at = perf_counter() + PROBE_EVERY_S

    def tick(self):
        """Call between units of work."""
        now = perf_counter()
        if now < self.next_at:
            return
        if self.tracer is None:
            self.samples.append(probe())
        else:
            self.tracer.enter("probe")
            self.samples.append(probe())
            self.tracer.exit()
        self.segment += 1
        done = perf_counter()
        self.next_at = done + PROBE_EVERY_S
        self.probe_s += done - now

    def close(self):
        """Probe once more, so the last segment has a probe after it."""
        self.samples.append(probe())

    def speed(self):
        """Median probe time over the reference: > 1 means a slow machine."""
        return statistics.median(self.samples) / PROBE_REFERENCE_S

    def scale(self, timed):
        """Reference-machine seconds for (seconds, segment) pairs."""
        first = len(self.samples) - self.segment - 2
        ref = PROBE_REFERENCE_S * 2
        return [t * ref / (self.samples[first + k] + self.samples[first + k + 1])
                for t, k in timed]
