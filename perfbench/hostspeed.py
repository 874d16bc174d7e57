"""Host speed, measured with a fixed pure-Python reference loop.

The benchmark's host is shared: the speed of one core drifts by 20-30 %
over tens of seconds, and the same drift moves a fixed loop run in the
same process alongside the workload (correlation 0.95 over half-second
windows, against 0.05-0.3 for a loop on the other core).  Timing the
reference loop while the workload runs, and around set-up, gives
the host's speed at the time, and the bounded time metrics are reported
at the nominal speed ``REF_CHUNK_S`` below.  A change to the program does
not touch this loop, so it still moves the metrics in full.

This module imports only small standard-library modules, so
``setup_probe.py`` can sample the host before it times the package's
imports.
"""

import contextlib
import math
import signal
import time

REF_ITERATIONS = 5000
# median seconds of one reference_chunk() on the host the benchmark was
# written on (2 vCPUs, Intel Xeon, Python 3.11)
REF_CHUNK_S = 1.0e-3
SAMPLE_INTERVAL_S = 0.05           # one chunk per interval: 2 % of the run


def reference_chunk() -> float:
    """Fixed work like the package's kernels: float arithmetic, math calls, tuples."""
    x, y = 0.1, 0.2
    for _ in range(REF_ITERATIONS):
        c, s = math.cos(x), math.sin(y)
        x, y = (x * c + 0.3) % 1.7, (y * s + 0.1) % 1.3
    return x + y


class HostSpeed:
    """Accumulated reference-loop timings; ``speed`` is 1.0 at the nominal host."""

    def __init__(self):
        self.chunks = 0
        self.seconds = 0.0

    def sample(self, budget_s: float) -> None:
        """Run reference chunks for about ``budget_s`` seconds, at least one."""
        t0 = time.perf_counter()
        while True:
            reference_chunk()
            self.chunks += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= budget_s:
                break
        self.seconds += elapsed

    @contextlib.contextmanager
    def sampling(self):
        """Run one reference chunk every ``SAMPLE_INTERVAL_S`` of wall time.

        The chunks run from a ``SIGALRM`` handler, in the main thread between
        the program's own bytecodes, so they see the core the program runs on
        throughout its operations; callers subtract ``seconds`` spent here
        from what they time.
        """
        def handler(_signum, _frame):
            self.sample(0.0)

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def speed(self) -> float:
        return REF_CHUNK_S * self.chunks / self.seconds
