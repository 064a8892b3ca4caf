"""Host-speed readings: what makes a timing repeat on a shared host.

The reference host is a 2-vCPU virtual machine whose neighbours slow it
by up to 1.8x for seconds to minutes at a time (README.md, "Host
noise"): the same query reads 1.0 ms in one run and 1.7 ms in the next.
A fixed pure-Python kernel slows by the same factor as the program
under test (within about 5 %), so the benchmark runs that kernel every
``PERIOD_S`` - from a timer signal, between two bytecodes of whatever
the main thread is doing - and divides every timing by the kernel's
slowdown at that moment.  A corrected timing is wall-clock time as the
reference host would have read it with its core to itself; the
uncorrected wall-clock values are printed beside it.

The same timer is the watchdog: a run that is still going at its
deadline is aborted with a non-zero exit.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from time import perf_counter

#: What one run of the kernel takes on the reference host when nothing
#: else shares its core.
NOMINAL_S = 270e-6
PERIOD_S = 0.025
#: Runs of the kernel per reading.
RUNS = 2
#: Readings are smoothed by a running median this wide (an interrupt
#: inside one run of the kernel must not read as a slow host).
SMOOTH = 5

_TABLE = {i: (i % 7, str(i)) for i in range(256)}


def kernel() -> int:
    """Dictionary probes, tuple indexing, a filter and a list append
    per step: the instruction mix of the tuple-at-a-time executor."""
    rows = []
    lookup = _TABLE.get
    for i in range(3000):
        value = lookup(i & 255)
        if value is not None and value[0] > 3:
            rows.append((i, value[1]))
    return len(rows)


class HostSpeed:
    """Timer-driven kernel readings and the corrections made with them."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.readings: list[float] = []
        self._deadline = float("inf")
        self._on_expiry = None
        self._previous = None
        self._tables = None
        self._reading = False

    # -- sampling --------------------------------------------------------
    def start(self) -> None:
        """Begin sampling.  Signals reach the main thread only; started
        from any other thread this does nothing and every slowdown
        reads 1."""
        if threading.current_thread() is not threading.main_thread():
            return
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None

    def watchdog(self, seconds: float, on_expiry) -> None:
        """Abort the process (after ``on_expiry()``) if it still runs
        ``seconds`` from now."""
        self._deadline = perf_counter() + seconds
        self._on_expiry = on_expiry

    def read(self) -> None:
        """Take one reading now.  The timer does; a workload may too,
        around a timed stretch too short for the timer to land in."""
        if self._reading:       # a timer tick inside a reading: skip it
            return
        self._reading = True
        # Two runs back to back.  The first starts with whatever was
        # interrupted in the caches, like an operation that begins
        # after a wait or a switch; the second runs warm, like the
        # middle of a long one.  Programs slow down like the first
        # (large heaps) or like the second (short operations between
        # waits for the disk); the reading is their mean.
        start = perf_counter()
        kernel()
        kernel()
        end = perf_counter()
        self.times.append(start)
        self.readings.append((end - start) / RUNS)
        self._tables = None
        self._reading = False

    def _tick(self, signum, frame) -> None:
        self.read()
        if perf_counter() > self._deadline:
            sys.stderr.write(
                "benchmarks/e2e: the run exceeded its watchdog; aborting\n"
            )
            if self._on_expiry is not None:
                self._on_expiry()
            os._exit(3)

    # -- corrections -----------------------------------------------------
    def _prepare(self):
        """Arrays over the readings: times, smoothed slowdown, and the
        running sums of kernel time and of 1/slowdown."""
        if self._tables is None:
            import numpy as np

            # A tick may land between these two lines: ``readings``
            # grows last, so its length is the number of whole ticks.
            count = len(self.readings)
            times = np.asarray(self.times[:count])
            raw = np.asarray(self.readings[:count])
            padded = np.pad(raw, SMOOTH // 2, mode="edge")
            windows = np.lib.stride_tricks.sliding_window_view(
                padded, SMOOTH
            )
            slowdown = np.median(windows, axis=1) / NOMINAL_S
            zero = np.zeros(1)
            self._tables = (
                times, slowdown,
                np.concatenate((zero, np.cumsum(raw * RUNS))),
                np.concatenate((zero, np.cumsum(1.0 / slowdown))),
            )
        return self._tables

    def correct(self, starts, ends, durations=None):
        """Corrected length of each interval ``[start, end)``.

        The kernel runs that fell inside an interval are taken out of
        it, and what remains is divided by the host's slowdown over the
        interval: the harmonic mean of the readings inside it or, for
        an interval shorter than the sampling period, the reading
        interpolated at its middle.  ``durations`` replaces ``ends -
        starts`` where the interval was timed on another clock (the
        thread's CPU clock)."""
        import numpy as np

        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        if durations is None:
            durations = ends - starts
        durations = np.asarray(durations, dtype=float)
        if len(self.times) < SMOOTH or not len(starts):
            return durations
        times, slowdown, spent, inverse = self._prepare()
        first = np.searchsorted(times, starts)
        last = np.searchsorted(times, ends)
        inside = last - first
        net = durations - (spent[last] - spent[first])
        speed = np.where(
            inside > 0,
            (inverse[last] - inverse[first]) / np.maximum(inside, 1),
            1.0 / np.interp((starts + ends) / 2, times, slowdown),
        )
        return net * speed

    def slowdown(self, start: float, end: float) -> float:
        """Median slowdown read between two instants (1 = nominal)."""
        import numpy as np

        if len(self.times) < SMOOTH:
            return 1.0
        times, slowdown, _, _ = self._prepare()
        inside = slowdown[
            np.searchsorted(times, start):np.searchsorted(times, end)
        ]
        return float(np.median(inside)) if len(inside) else 1.0
