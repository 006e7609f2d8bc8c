"""Host-speed calibration of the timed metrics.

The benchmark runs on shared virtual machines whose speed drifts by up to a
factor of two over tens of seconds, as other tenants contend for the same
physical cores.  That drift is longer than a run, so no amount of averaging
inside one run removes it.  Instead a fixed reference kernel -- exact
elimination on a constant rational matrix, pure Python and big-integer
arithmetic like the library -- is timed right before and right after every
timed operation.  The operation's wall time is scaled by

    REFERENCE_S / mean(reference time before, reference time after)

which is the time it would have taken on a host where the kernel takes
``REFERENCE_S``.  The kernel belongs to the benchmark, so a change to the
library never changes it, and a faster library shows as a smaller ratio.
Raw wall-clock figures are printed beside the calibrated ones.
"""

from __future__ import annotations

import random
import statistics
from collections.abc import Iterator
from fractions import Fraction
from time import perf_counter

# The reference kernel's median time on the host the baseline was measured on
# (a 2-vCPU Linux VM, Python 3.11), in a quiet period.
REFERENCE_S = 0.002

_rng = random.Random(7)
_MATRIX = [[Fraction(_rng.randint(-50, 50), _rng.randint(1, 9)) for _ in range(10)] for _ in range(10)]


def reference_kernel() -> Fraction:
    """Determinant of the constant matrix by Gaussian elimination over Fractions."""
    a = [row[:] for row in _MATRIX]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = a[k][k]
        det *= pivot
        for i in range(k + 1, len(a)):
            f = a[i][k] / pivot
            for j in range(k, len(a)):
                a[i][j] -= f * a[k][j]
    return det


class Calibrator:
    """Times the reference kernel and keeps every sample, for the notes."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        for _ in range(3):  # warm the kernel up before its times are used
            self.sample()
        self.samples.clear()

    def sample(self) -> float:
        t0 = perf_counter()
        reference_kernel()
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def time_each(self, calls) -> Iterator[tuple[object, float, float]]:
        """Run the calls back to back, sampling the kernel before, between and after them.

        Yields (result, wall time, calibrated time) for each call.  The
        sample between two calls serves as the first's "after" and the
        second's "before", so the consumer must do no heavy work between
        items; it may stop early.
        """
        before = self.sample()
        for call in calls:
            t0 = perf_counter()
            result = call()
            wall = perf_counter() - t0
            after = self.sample()
            yield result, wall, wall * REFERENCE_S * 2 / (before + after)
            before = after

    def speed_factor(self) -> float:
        """Median reference time over ``REFERENCE_S``: 1.0 on the baseline host, 2.0 at half speed."""
        return statistics.median(self.samples) / REFERENCE_S
