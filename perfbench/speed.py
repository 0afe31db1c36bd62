"""Host speed reference: a fixed numpy computation timed next to each measurement.

The benchmark host is shared.  Its speed changes by up to a half for
seconds at a time as other tenants come and go, and every wall time moves
with it: six back-to-back 6-second runs of optimize-durr-hoyer on one seed
gave median request latencies from 21.5 to 28.6 ms, while the ratio of
that latency to this reference stayed between 43 and 47.  So timings
are reported at nominal host speed: raw * nominal_s / (the reference's
time measured next to them).

The reference uses numpy alone, never qamp, so no change to the program
can move it.  It is one amplification step (sign flip on 1% of the
entries, reflection about the mean) plus the cumulative sum that sampling
uses: the same kind of passes the program makes.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Roughly the reference's time for 2**16 amplitudes on the stamped host
# (Intel Xeon, 2 vCPUs) when other tenants leave it alone: timed alone it
# reads 0.37-0.57 ms, between requests somewhat more.  Only ratios matter:
# nominal times are comparable with each other, not with a wall clock.
NOMINAL_S_PER_2_16 = 5.0e-4
WARM_UP_CALLS = 5


class HostSpeed:
    """Times the reference computation on a workload's state size.

    The reference works on 2**n amplitudes, the workload's own size, so its
    arrays sit in the same cache level as the program's; below n = 16 it
    repeats until it has covered 2**16 amplitudes, so that it still takes
    about half a millisecond.  ``nominal_s`` is its time at nominal speed.
    """

    def __init__(self, n: int):
        size = 1 << n
        self.repeats = max(1, (1 << 16) // size)
        self.nominal_s = NOMINAL_S_PER_2_16 * self.repeats * size / (1 << 16)
        self.amps = np.full(size, size**-0.5)
        self.selected = np.random.default_rng(0).random(size) < 0.01
        # Preallocated, so that the time does not depend on the state of
        # the allocator's heap (page faults for fresh temporaries).
        self.squares = np.empty(size)
        self.cumulative = np.empty(size)
        for _ in range(WARM_UP_CALLS):
            self.seconds()

    def seconds(self) -> float:
        start = perf_counter()
        for _ in range(self.repeats):
            np.negative(self.amps, out=self.amps, where=self.selected)
            mean = self.amps.mean()
            np.subtract(2.0 * mean, self.amps, out=self.amps)
            np.multiply(self.amps, self.amps, out=self.squares)
            np.cumsum(self.squares, out=self.cumulative)
        return perf_counter() - start

    def scale(self, samples: int = 11) -> float:
        """nominal_s over the median of ``samples`` reference timings taken now."""
        return self.nominal_s / float(np.median([self.seconds() for _ in range(samples)]))
