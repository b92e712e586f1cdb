"""Machine-speed sampling during a timed pass.

The benchmark's reference machine is a shared 2-vCPU virtual machine whose
speed swings by a quarter or more within minutes: the same pass of
``sym-coulomb`` took 10.5 s to 17.1 s in fresh processes started one after
another, and a fixed pure-Python loop slowed down with it.  Medians over
longer runs do not remove a drift that slow, so every untraced pass samples
the machine while it runs: a timer signal interrupts the pass every
``INTERVAL_S`` and times ``reference()``, a fixed loop that uses nothing from
blocksep, so no change to the program moves it.  The pass's wall time
scaled by ``NOMINAL_S`` over the median sample is its wall time at the
reference speed (``wall_norm_s``); over 14 passes of ``sym-coulomb`` its
interquartile range was 7% of the median where the raw wall time's was 33%.

The sampler's own time is counted and taken out of every time the pass
reports.  Signals are handled between bytecodes, so a long call into
LAPACK delays a sample until it returns; that only makes samples sparser.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
NOMINAL_S = 8.0e-4  # reference() time meaning machine_speed 1; 0.62-0.95 ms on the reference machine


def reference() -> int:
    """Fixed interpreter work, about 0.8 ms on the reference machine."""
    s = 0
    for i in range(10000):
        s += i * i % 7
    return s


class SpeedSampler:
    """Times ``reference()`` on a timer signal while started."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0  # seconds inside the handler, to be taken out of the pass

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_s(self) -> float:
        """Median reference time while started; NOMINAL_S without samples."""
        return statistics.median(self.samples) if self.samples else NOMINAL_S
