"""Machine-speed reference for the layered wall-clock benchmark.

On a shared virtual machine the CPU speed drifts: the same operation
takes 1.3-2x longer in some stretches of a fraction of a second to
minutes than in others, with CPU time equal to wall time (no steal).
Percentiles and rates of raw wall times then move with the neighbours'
load, not with the program.

:class:`SpeedProbe` samples the machine's speed *while* the operations
run: an interval timer (``SIGALRM``, no thread or process) interrupts
the program every :data:`INTERVAL_S` and the handler times a fixed
reference kernel. An operation's time in *reference seconds* is its
wall time minus the probe time spent inside it, times the mean speed
the probes measured during it (``REF_NOMINAL_S`` / kernel time): what
it would have taken on a machine running the kernel in exactly
``REF_NOMINAL_S``. The kernel is this file's own code, never the
program's, so a change to the program moves the operation times and
leaves the reference alone.

The kernel is a small left-looking elimination sweep over a fixed
dict-of-columns sparse matrix: interpreted loops, dict lookups and
small allocations, like the program's own hot paths.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time
from typing import List

REF_NOMINAL_S = 0.0005  # about the kernel's time in a calm stretch of a 2.1 GHz Xeon
INTERVAL_S = 0.02       # wall time between probes
MIN_SAMPLES = 8         # probes behind a factor; short operations borrow neighbours'

_N = 60
_SWEEPS = 9


def _reference_columns() -> List[dict]:
    rng = random.Random(7)
    return [{j: 4.0 + rng.random(), rng.randrange(_N): rng.random() - 0.5}
            for j in range(_N)]


_COLS = _reference_columns()


def reference_kernel() -> int:
    """A fixed amount of interpreter work."""
    total = 0
    for _ in range(_SWEEPS):
        lower: List[dict] = []
        for j in range(_N):
            x = dict(_COLS[j])
            for k in [i for i in x if i < j]:
                xk = x[k]
                for i, v in lower[k].items():
                    x[i] = x.get(i, 0.0) - v * xk
            lower.append({i: v for i, v in x.items() if i > j})
        total += sum(len(col) for col in lower)
    return total


class SpeedProbe:
    """Reference-kernel timings taken every INTERVAL_S while active.

    Use as a context manager around everything that is timed; the
    timer is stopped and the previous ``SIGALRM`` handler restored on
    every way out.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        # no collection inside the kernel: it would time the program's heap
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start: float, seconds: float) -> float:
        """Wall ``seconds`` from ``start``, in reference seconds.

        Probes that started inside the interval ran wholly inside it
        (a handler runs between two bytecodes of the program), so their
        time is taken out. The speed is the mean over those probes, or
        over the MIN_SAMPLES probes nearest the interval's middle when
        it holds fewer.
        """
        end = start + seconds
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        busy = sum(self.durations[lo:hi])
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, start + seconds / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.starts) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        speeds = [REF_NOMINAL_S / d for d in self.durations[lo:hi]]
        return (seconds - busy) * statistics.fmean(speeds)

    def slowness(self) -> List[float]:
        """Each probe's kernel time over REF_NOMINAL_S (1 = reference speed)."""
        return [d / REF_NOMINAL_S for d in self.durations]
