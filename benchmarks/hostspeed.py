"""Host speed, for timings that do not move with the load on a shared host.

The benchmark host is a shared machine whose speed changes by up to a factor
of two over seconds to minutes, with no steal time reported: the same body
takes 1.6 s in one minute and 2.9 s in the next, and its CPU time follows.
So every timing the benchmark reports is scaled to a fixed reference speed:

    scaled = measured * REF_S / loop

where `loop` is the median time of a fixed pure-Python loop, timed every
INTERVAL_S by a thread while the measured interval runs, and once just before
and once just after it.  REF_S is that loop's time at the reference speed.
The loop is fixed here and calls nothing in the package, so a change to the
package cannot move it: a body twice as slow reads twice as long.  The thread
takes about 4% of one CPU away from what it measures, the same on every
commit.  The unscaled times are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import threading
import time

LOOP_ITERATIONS = 40_000
INTERVAL_S = 0.05
# The loop's CPU time on a 2.1 GHz Xeon at its fast phase, Python 3.11.
REF_S = 0.0015


def _loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i
    return total


def loop_seconds() -> float:
    """CPU time of the calling thread running the fixed loop once."""
    start = time.thread_time()
    _loop(LOOP_ITERATIONS)
    return time.thread_time() - start


class Sampler:
    """Times the loop around and during a `with` block.

    `scale()` is the factor from host seconds to reference seconds for the
    block; `cpu_s` is the CPU time the sampling thread used, to be taken out
    of the process's CPU time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.cpu_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.samples.append(loop_seconds())
        self.cpu_s = time.thread_time()

    def __enter__(self) -> Sampler:
        self.samples.append(loop_seconds())
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append(loop_seconds())

    def scale(self) -> float:
        return REF_S / statistics.median(self.samples)
