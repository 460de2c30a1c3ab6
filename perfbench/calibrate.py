"""Machine-speed calibration for the end-to-end times.

On a shared host the speed of a CPU drifts: the same certifier invocation
takes 4.5 s in one minute and 7 s in the next, in phases of a few seconds
to minutes.  A fixed pure-Python loop slows down with it.

While a run measures, a ``Sampler`` interrupts it every ``INTERVAL``
seconds (an interval timer and ``SIGALRM``; no thread, no other process)
and times one pass of that loop.  An untimed half pass goes first and
refills the caches the program has taken over, so the timed pass is as
warm as those of ``speed_factor`` and does not depend on what the program
left in the caches.  Each operation's wall time, minus the time spent in
the sampler, is scaled by ``REFERENCE_S`` over the mean loop time around
it (the slowest and fastest tenth of the passes left out): the time the
operation would have taken on a machine that runs the loop in
``REFERENCE_S``.  A change to the program moves that time by the same
share as its wall time; a change in the machine's speed cancels.

The loop does what the certifier does most: tuple-keyed dict updates,
set inserts, small strings, hashing and a sort, on a working set of a few
hundred kilobytes.  The garbage collector is off during a pass, so its
time does not depend on how big the program's heap is.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

# Seconds one pass of the loop takes at the reference speed (about the
# fast phase of a 2.1 GHz Xeon core; any fixed value would do).
REFERENCE_S = 0.004
LOOP_STEPS = 6000
INTERVAL = 0.1
# Samples taken up to this many seconds before an operation starts or
# after it ends still describe its speed; the speed changes over seconds.
HALO = 1.0


def _loop(steps: int) -> int:
    table = {}
    seen = set()
    acc = 0
    for i in range(steps):
        k = (i * 2654435761) & 0xFFFFF
        key = (k, i & 7, str(k & 255))
        table[key] = table.get(key, 0) + 1
        seen.add(k >> 3)
        acc ^= hash(key[2]) & 0xFFFF
    rows = sorted(table.items(), key=lambda kv: kv[0][0])
    return acc + len(rows) + len(seen)


def loop(steps: int = LOOP_STEPS) -> int:
    """One pass of the fixed calibration work, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _loop(steps)
    finally:
        if enabled:
            gc.enable()


def timed_loop() -> float:
    start = perf_counter()
    loop()
    return perf_counter() - start


def trimmed_mean(values) -> float:
    """Mean of ``values`` without their lowest and highest tenth."""
    values = sorted(values)
    cut = len(values) // 10
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


def speed_factor(count: int = 20) -> float:
    """REFERENCE_S over the loop time of ``count`` passes made now."""
    return REFERENCE_S / trimmed_mean([timed_loop() for _ in range(count)])


class Sampler:
    """Times one pass of the loop every INTERVAL seconds while started.

    ``samples`` holds (time taken, seconds); ``busy`` is the total time the
    sampler has taken from the process, to subtract from operation times.
    """

    def __init__(self):
        self.samples = []
        self.busy = 0.0

    def _tick(self, signum, frame) -> None:
        first = perf_counter()
        loop(LOOP_STEPS // 2)
        start = perf_counter()
        loop()
        end = perf_counter()
        self.samples.append((start, end - start))
        self.busy += end - first

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a run shorter than one interval
            self._tick(None, None)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the loop time in [start - HALO, end + HALO]."""
        near = [s for t, s in self.samples if start - HALO <= t <= end + HALO]
        return REFERENCE_S / trimmed_mean(near or [s for _, s in self.samples])
