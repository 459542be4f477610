"""Host-speed sampling: a small fixed computation timed at intervals, during the jobs.

The benchmark runs on shared hosts whose speed keeps changing: a job can run
1.5x slower for a few seconds and then fast again, and for tens of seconds at
a time.  Fastest-of-N timings do not remove that, and neither does a probe
timed between jobs: it sees the host at other moments than the job does.
Eight repetitions of a 2.5 s count in one process, scaled by probes taken
just before and after each, varied by 12-14% (coefficient of variation);
scaled by probes sampled during each, by 3-4%.  So a probe runs *during*
the measured work, from an interval timer (SIGALRM), and its time is
subtracted from the work's time.  Each job's run time is divided by the mean probe time sampled while it
ran (and up to WINDOW sample intervals either side), then multiplied by the probe's
reference time.  The reported seconds are thus the time the work would take
on a host where the probe takes its reference time.  A change to sftent
moves these figures exactly as it moves wall time, since the probe does not
use sftent; a change of host speed moves the probe too and cancels out.

Host slow spells do not slow every kind of work alike, so there are two
probes, written independently of sftent, and each workload is scaled by the
one that does its kind of work (``workloads.PROBE``):

* ``interpreter``, every 50 ms: a broken-profile count of independent sets
  on a 7 x 7 grid with a dict of frontier states -- dict and int operations
  in the interpreter, as in sftent's counting and search layers;
* ``arrays``, every 0.5 s: a sort, a bincount and a unique over numpy arrays
  of 360,000 int64 elements, allocated afresh -- as in sftent's lattice
  layer.  A version over 22,500 elements, sampled every 50 ms, stays in the
  caches and scaled geometry's times worse: it slows with the interpreter,
  not with memory-bound array passes.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

WINDOW = 5   # samples up to this many probe intervals before or after a timed span count for it


def _independent_sets(n: int = 7) -> int:
    states = {0: 1}
    for _ in range(n):
        for c in range(n):
            nxt: dict[int, int] = {}
            for prof, cnt in states.items():
                k = prof & ~(1 << c)
                nxt[k] = nxt.get(k, 0) + cnt
                if not (prof >> c) & 1 and not (c and (prof >> (c - 1)) & 1):
                    k |= 1 << c
                    nxt[k] = nxt.get(k, 0) + cnt
            states = nxt
    return sum(states.values())


def _array_passes(n: int = 600) -> int:
    xs = np.repeat(np.arange(n, dtype=np.int64), n)
    ys = np.tile(np.arange(n, dtype=np.int64), n)
    order = np.lexsort((ys, xs))
    keys = (xs // 3) * n + ys // 3
    full_blocks = int((np.bincount(keys) == 9).sum())
    return full_blocks + int(order[-1]) + len(np.unique(keys[order] // 7))


@dataclass(frozen=True)
class Probe:
    compute: Callable[[], int]
    value: int            # what `compute` must return
    reference_s: float    # figures are scaled to a host where the probe takes this long
    interval_s: float     # wall time between two samples, some 50 probe times

    def verify(self) -> None:
        value = self.compute()
        if value != self.value:
            raise RuntimeError(f"host-speed probe computed {value}, expected {self.value}")


PROBES = {
    # independent sets of the 7 x 7 grid: OEIS A006506
    "interpreter": Probe(_independent_sets, 1280128950, 0.0005, 0.05),
    # 200^2 full 3x3 blocks + last index 600^2 - 1 + 5885 distinct keys // 7
    "arrays": Probe(_array_passes, 405884, 0.020, 0.5),
}


class Sampler:
    """Times `probe` on entry and then every `probe.interval_s` seconds from SIGALRM.

    Use as a context manager around the timed work.  `handler_s` is the total
    time spent in the signal handler, which the caller subtracts from what it
    times; `probe_s(start, end)` is the mean probe time near an interval.
    """

    def __init__(self, probe: Probe):
        probe.verify()
        self.probe = probe
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.handler_s = 0.0
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.probe.compute()
            self.starts.append(t0)
            self.seconds.append(time.perf_counter() - t0)
        except RecursionError:
            pass    # the interrupted job is at the recursion limit; skip this sample
        finally:
            self.handler_s += time.perf_counter() - t0
            self._busy = False

    def __enter__(self) -> Sampler:
        self._sample(None, None)    # so that even work shorter than an interval has a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.probe.interval_s, self.probe.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe_s(self, start: float, end: float) -> float:
        """Mean probe time of the samples taken within WINDOW intervals of
        [start, end], or of the nearest sample if there is none."""
        margin = WINDOW * self.probe.interval_s
        lo = bisect.bisect_left(self.starts, start - margin)
        hi = bisect.bisect_right(self.starts, end + margin)
        if lo < hi:
            return statistics.fmean(self.seconds[lo:hi])
        near = min(range(len(self.starts)), key=lambda i: abs(self.starts[i] - start))
        return self.seconds[near]
