"""How fast the host runs Python right now, from a fixed reference kernel.

The benchmark runs on shared hosts whose speed drifts: a fixed pure-Python
loop can take 60% longer for seconds at a time, and the drift outlasts a
run.  So the loop times a fixed kernel between queries, and every timed
figure is scaled to a host on which that kernel takes ``NOMINAL_S``::

    scaled = measured * NOMINAL_S / (median kernel time around the measurement)

The kernel does the same kind of work as the program (recursion over terms,
tuple keys, interning in dicts, string building, signature refinement) with
the benchmark's own copy of the calculus in ``inputs.py``, so no change to
``revexp`` can move it.  Cyclic garbage collection is off while it runs, so
the program's heap does not leak into its time.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import inputs as gen

# kernel time on the quiet host the figures are scaled to (2-vCPU VM,
# Python 3.11.7); changing it rescales every timed metric
NOMINAL_S = 0.0025
EVERY_S = 0.05  # time a kernel when this much time has passed since the last
MAX_BURST = 5  # samples in one tick at most
NEAREST = 15  # kernel samples whose median gives the speed at one moment

_ROOT = gen.reference_product(3)


def kernel() -> int:
    """Explore, render and partition the states of ``(a.b.0 + c.0)`` x 3."""
    index: dict = {}
    succ: dict = {}
    todo = [_ROOT]
    while todo:
        t = todo.pop()
        if t in index:
            continue
        index[t] = len(index)
        succ[t] = moves = gen.steps(t)
        todo.extend(u for _, u in moves)
    names = sorted(gen.render(t) for t in index)
    block = dict.fromkeys(index, 0)
    count = 1
    while True:
        keys: dict = {}
        block = {t: keys.setdefault((block[t], frozenset((a, block[u]) for a, u in succ[t])),
                                    len(keys))
                 for t in index}
        if len(keys) == count:
            return len(names) + count
        count = len(keys)


class Speed:
    """Kernel timings along a run, and the scale factor at any moment."""

    def __init__(self) -> None:
        self.at: list = []  # perf_counter when each sample ended
        self.took: list = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.at.append(end)
        self.took.append(end - start)

    def tick(self) -> None:
        """Sample when ``EVERY_S`` has passed since the last sample; after a
        long call, a few times, so that the samples stay dense in time."""
        gap = time.perf_counter() - self.at[-1] if self.at else EVERY_S
        for _ in range(min(int(gap / EVERY_S), MAX_BURST)):
            self.sample()

    def factor(self, moment: float) -> float:
        """``NOMINAL_S`` over the median of the samples nearest ``moment``."""
        i = bisect.bisect_left(self.at, moment)
        lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
        return NOMINAL_S / statistics.median(self.took[lo:lo + NEAREST])

    def recent_factor(self) -> float:
        """``NOMINAL_S`` over the median of the latest samples (1 before any)."""
        if not self.took:
            return 1.0
        return NOMINAL_S / statistics.median(self.took[-NEAREST:])

    def median_s(self) -> float:
        return statistics.median(self.took)
