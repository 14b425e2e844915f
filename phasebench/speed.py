"""CPU-speed probe that rescales a timing to the host's reference speed.

On the shared two-vCPU host where this benchmark was built, co-tenants slow
whole stretches of a run by 1.3-2x, often for longer than a run lasts.  The
same ``default`` iteration took 2.6 s in one minute and 5.4 s in another.
No statistic over the iterations of one run removes that.  So while the
timed work runs, a SIGALRM timer runs a fixed pure-Python loop every
``PERIOD_S`` and records how long the loop took.  The work's time, minus
the probe's own, is then scaled by ``REFERENCE_S`` / (median probe time).  On
the uncontended host this is the wall time itself.  Over 33 back-to-back
``default`` iterations the quartile distance over the median fell from 0.18
for raw wall time to 0.076 for the scaled time.

The probe shares no code with phasestab, so a change to the program does not
move it.  Signals are handled between bytecodes, so a long call into LAPACK
delays the next sample; it does not lose the time.
"""

import signal
import statistics
import time

PERIOD_S = 0.02
PROBE_STEPS = 3000
REFERENCE_S = 1.7e-4  # probe time on the uncontended build host


class SpeedProbe:
    """Context manager timing its block; ``scaled`` is the time at reference speed."""

    def __init__(self):
        self.samples: list[float] = []
        self.elapsed = 0.0

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_STEPS):
            acc += i * i
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def probe_time(self) -> float:
        """Median probe duration; one probe caught by a long stall does not skew it."""
        return statistics.median(self.samples) if self.samples else REFERENCE_S

    @property
    def busy(self) -> float:
        """Seconds the block itself took, without the probe's own time."""
        return self.elapsed - sum(self.samples)

    @property
    def scaled(self) -> float:
        return self.busy * REFERENCE_S / self.probe_time
