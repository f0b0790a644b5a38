"""Machine-speed gauge: converts measured times to times at a reference speed.

On a shared machine the speed of one core drifts by a factor of two over
minutes, while the program stays the same.  The gauge times a fixed piece of
pure-Python work (Fraction, float and dict operations, the mix the program
runs on) before and after every case and, through a 10 ms interval timer,
during long ones.  A measured interval then becomes

    nominal time = measured time * mean(CAL_REF_S / calibration time)

over the calibrations taken in it and within WINDOW_S of it: the time the interval would
have taken at the speed where one calibration takes CAL_REF_S.  The time the
timer's calibrations take is excluded from the measured interval.  Whole
processes are scaled by a reference process instead (nominal_process_times).
"""

from __future__ import annotations

import bisect
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# one calibration on an idle core of the 2-vCPU Intel Xeon VM (Python 3.11)
# the benchmark was defined on
CAL_REF_S = 0.35e-3
TIMER_INTERVAL_S = 0.01
# calibrations this close to an interval count for it: one calibration is
# noisy by a few percent, and the machine's speed changes within a second
WINDOW_S = 0.05

# a Python start that imports standard-library modules, independent of the
# program, and its duration on an idle core of the same VM
REF_PROCESS = ("-c", "import argparse, asyncio, decimal, email.parser, fractions, "
               "http.client, json, logging, statistics, unittest, xml.dom.minidom")
REF_PROCESS_S = 0.15


def calibrate() -> float:
    """Run the fixed calibration work once; returns its duration in seconds."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    third = Fraction(1, 3)
    for k in range(1, 40):
        acc += third ** (k % 7) / k
    f = 0.0
    for i in range(1500):
        f += math.sin(i * 0.001) * i
    table = {}
    for i in range(300):
        table[i] = [i, f, acc]
    return time.perf_counter() - t0


class Gauge:
    """Samples the machine's speed while cases run; use as a context manager.

    ``timer=False`` leaves out the interval timer, for runs whose own
    measurements (the traced run's per-layer times) must not contain
    calibrations.
    """

    def __init__(self, timer: bool = True):
        self.timer = timer
        self.times: list[float] = []  # when each calibration ended
        self.samples: list[float] = []  # calibration durations
        self.stolen = 0.0  # seconds the timer's calibrations took
        self._busy = False
        self._previous = None

    def __enter__(self) -> "Gauge":
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, TIMER_INTERVAL_S, TIMER_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

    def _on_timer(self, signum, frame) -> None:
        if self._busy:  # an explicit sample is running; it stands for this one
            return
        t0 = time.perf_counter()
        self._record()
        self.stolen += time.perf_counter() - t0

    def _record(self) -> None:
        self.samples.append(calibrate())
        self.times.append(time.perf_counter())

    def sample(self) -> None:
        """Take one calibration now."""
        self._busy = True
        try:
            self._record()
        finally:
            self._busy = False

    def clock(self) -> float:
        """perf_counter without the time the timer's calibrations took."""
        return time.perf_counter() - self.stolen

    def factor(self, start: float, end: float) -> float:
        """Mean speed, relative to the reference, around perf_counter
        interval [start, end]; call it once calibrations after ``end`` exist."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return statistics.fmean(CAL_REF_S / d for d in self.samples[lo:hi])


def timed_run(cmd: list[str], cwd, env=None) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=cwd, env=env)
    return time.perf_counter() - t0


def nominal_process_times(cmd: list[str], runs: int, cwd) -> list[float]:
    """Durations of ``runs`` runs of ``cmd``, each at reference speed.

    Process start and imports slow down differently from the in-process
    calibration, so each run is scaled by a fixed reference process (a
    Python start importing standard-library modules) run just before and
    just after it: nominal = measured * REF_PROCESS_S / mean(reference runs).
    """
    ref = [sys.executable, *REF_PROCESS]
    # the reference process must write nothing outside the checkout
    ref_env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    previous = timed_run(ref, cwd, ref_env)
    out = []
    for _ in range(runs):
        measured = timed_run(cmd, cwd)
        following = timed_run(ref, cwd, ref_env)
        out.append(measured * REF_PROCESS_S / ((previous + following) / 2))
        previous = following
    return out
