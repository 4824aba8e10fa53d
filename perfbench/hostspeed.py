"""Host speed, sampled while the timed items run.

The benchmark was written in a 2-core virtual machine whose host runs other
tenants' work on the same cores.  There, one cycle of the same items took
from 11.6 s to 19.7 s within four minutes, with CPU time close to wall time:
the host slows the core down rather than taking it away.  While items run, a
SIGALRM timer runs a fixed pure-Python kernel every 0.1 s.  The run's
slowdown is the median kernel time over the kernel time on a quiet host, and
the timing metrics are divided by it.  Over twelve runs of one cycle of
``tables_budgeted`` this cut the spread of items per second from 25% to 11%.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.1
QUIET_KERNEL_S = 0.0006   # kernel time on a quiet host, on the machine the benchmark was written on


def _kernel() -> int:
    """Dict stores and loads, integer arithmetic and a loop: the interpreter
    work the items themselves are made of."""
    total = 0
    table = {}
    for i in range(4000):
        table[i & 63] = (i * i) % 7
        total += table[i & 31]
    return total


class HostSpeed:
    """Context manager that samples the kernel while its block runs."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Median kernel time over its quiet-host time; 1.0 with no sample."""
        if not self.samples:
            return 1.0
        return statistics.median(self.samples) / QUIET_KERNEL_S
