"""A fixed reference workload that tracks the machine's current speed.

On a shared machine the CPU speed seen by one process drifts by tens of
percent over tens of seconds as other tenants come and go, and every
operation slows alike.  Timing this fixed workload between operations
measures that drift, and the gated times are scaled to the reference speed:

    scaled seconds = wall seconds * REFERENCE_S / reference time around them

so they read as wall times on a machine that runs the reference in
REFERENCE_S.  The workload imitates the package's mix (Python loops,
Fraction and mpmath arithmetic, small LAPACK calls) and never imports the
package, so a change to the package cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

import mpmath
import numpy as np

# The reference's wall time on the machine the bounds were set on, a
# 2-vCPU 2.1 GHz Xeon guest; any constant gives the same ratios.
REFERENCE_S = 0.025
# Operation time between two reference samples.
INTERVAL_S = 1.0

_MATRICES = [(lambda a: a + a.T)(np.random.default_rng(i).standard_normal((20, 20)))
             for i in range(40)]


def reference_work():
    with mpmath.workdps(120):
        x = mpmath.mpf(1)
        for i in range(1, 1500):
            x = x * mpmath.mpf("1.0001") + mpmath.mpf(1) / i
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(1, i)
    for mat in _MATRICES:
        np.linalg.eigvalsh(mat)
        np.roots(mat[0])
    total = 0.0
    for i in range(30000):
        total += i * 0.5
    return x, acc, total


def time_reference(repeats: int = 3) -> float:
    """Fastest of a few runs, so one preempted run does not count."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return min(times)


class SpeedProbe:
    """Reference samples between operations, at least `INTERVAL_S` of
    operation time apart, and the segment each operation fell in."""

    def __init__(self):
        self.samples = []
        self._segment = {}     # id(outcome) -> index of the sample before it
        self._since = math.inf

    def timed(self, run):
        """`run` with a reference sample before it when one is due."""
        def wrapped(*args):
            if self._since >= INTERVAL_S:
                self.samples.append(time_reference())
                self._since = 0.0
            outcome = run(*args)
            self._segment[id(outcome)] = len(self.samples) - 1
            self._since += outcome.seconds
            return outcome
        return wrapped

    def finish(self):
        self.samples.append(time_reference())

    def scaled(self, outcome) -> float:
        """Seconds of an operation run through `timed`, after `finish`, times
        REFERENCE_S over the geometric mean of the samples around it."""
        k = self._segment[id(outcome)]
        return outcome.seconds * REFERENCE_S / math.sqrt(self.samples[k] * self.samples[k + 1])

    def speed(self) -> float:
        """Median speed of the run relative to the reference machine."""
        return statistics.median(REFERENCE_S / s for s in self.samples)
