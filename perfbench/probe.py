"""Speed probe: rescales measured times to a fixed machine speed.

On a shared host the same instructions can take twice as long from one
second to the next, and the slow and fast stretches last from a second to a
minute, so a 30 s run cannot average them out. Work timed next to a fixed
kernel slows by about the same factor as the kernel does. The probe runs
that kernel from an interval timer (SIGALRM) every PERIOD_S while the
program works. The program's work between two samples, at the reference
speed, is its wall time times the kernel's reference duration over the
sample's duration; summed over a stretch of equal intervals, that is the
stretch's wall time times the reference duration over the harmonic mean of
the samples inside it.

The kernel uses numpy only, never the program or scipy, so no change to the
program can change it, nor warm its code for it. It mixes the program's three
kinds of work: Runge-Kutta steps of a small linear system (the five-level
master equation), small least-squares solves (the fits) and 2001 x 64
cosine blocks (the ensemble). Each workload sets the number of cosine
blocks, so that the kernel's mix is close to its own. The probe starts before
the program is imported, so the program's cold start is sampled too; it
needs only numpy, which the program imports first anyway.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# The reference speed is that of the 2-CPU VM the benchmark was written on,
# in its fastest state. There the kernel's fixed part took REF_BASE_S and
# each cosine block REF_COS_S. Times reported at the reference speed are in
# seconds of that machine.
REF_BASE_S = 0.0012
REF_COS_S = 0.0008
PERIOD_S = 0.05
# A stretch with fewer samples inside is rescaled by its nearest samples.
MIN_SAMPLES = 3

_rng = np.random.default_rng(20180302)
_A = _rng.standard_normal((25, 25))
_A = 0.1 * (_A - _A.T)
_Y0 = np.ones(25, dtype=complex)
_B = _rng.standard_normal((126, 4))
_b = _rng.standard_normal(126)
_X = np.outer(np.linspace(-1.0, 1.0, 2001), np.linspace(0.0, 1.0, 64))


def kernel(cos_blocks):
    y, h = _Y0, 0.05
    for _ in range(60):
        k1 = _A @ y
        k2 = _A @ (y + 0.5 * h * k1)
        k3 = _A @ (y + 0.5 * h * k2)
        k4 = _A @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    for _ in range(3):
        np.linalg.lstsq(_B, _b, rcond=None)
    for _ in range(cos_blocks):
        np.cos(_X).sum()


class Probe:
    """Samples the kernel every PERIOD_S of wall time between start and stop.

    samples holds (end clock, duration) pairs. While sampling, the kernel
    interrupts the program between bytecodes; a long C call delays it.
    """

    def __init__(self, cos_blocks):
        self.cos_blocks = cos_blocks
        self.ref_s = REF_BASE_S + cos_blocks * REF_COS_S
        self.samples = []
        self._busy = False
        self._previous = None

    def _handler(self, _signum, _frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel(self.cos_blocks)
            t1 = time.perf_counter()
            self.samples.append((t1, t1 - t0))
        finally:
            self._busy = False

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def rescale(self, t0, t1):
        """Seconds at the reference speed of the program's work in [t0, t1]:
        the wall time minus the kernel runs inside it, times ref_s over
        the harmonic mean of their durations."""
        inside = [d for end, d in self.samples if t0 < end <= t1]
        net = (t1 - t0) - sum(inside)
        if len(inside) < MIN_SAMPLES:
            mid = 0.5 * (t0 + t1)
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            inside = [d for _, d in nearest[:MIN_SAMPLES]]
        return net * self.ref_s / statistics.harmonic_mean(inside)
