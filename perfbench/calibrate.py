"""Machine-speed reference for the benchmark's timings.

The benchmark shares its cores with other work, and the speed one thread
gets can drift by 1.5x or more within a minute (an SMT sibling or a
neighbour getting busy).  Raw times taken a minute apart are then not
comparable.  So the run times a fixed reference kernel every
`SpeedTrack.every_ns` and reports each timing at the reference speed:
its on-CPU part is multiplied by ``REFERENCE_NS / kernel time measured
next to it``.  Time spent off the CPU (preempted) is wall-clock time lost
to other processes, not slower work, and stays as measured.  The kernel
mixes interpreter work, small-array numpy calls and one vector pass, like
the program's hot paths, but runs none of the program's code, so a change
to the program moves the scaled times as much as the raw ones.  Raw times
stay in each run's metadata.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Roughly the time of one `kernel()` call on a shared 2-core Intel Xeon VM
# (Python 3.11, numpy 2.4); it only sets the scale of the reported numbers.
REFERENCE_NS = 2_000_000

_TABLE = np.array([[0.1, 0.2, 0.2], [0.2, 0.1, 0.2]])
_UNIFORMS = np.random.default_rng(0).random((1 << 17, 2))


@dataclass(frozen=True)
class _Point:
    x: float

    def __post_init__(self):
        if not math.isfinite(self.x):
            raise ValueError("x must be finite")


def kernel() -> float:
    acc = 0.0
    for i in range(1, 750):
        p = _Point(i * 1e-3)
        acc += math.log2(1.0 + p.x) * math.sin(p.x)
    for _ in range(60):
        p = _TABLE[_TABLE > 0.0]
        acc += float(-(p * np.log2(p)).sum()) + float(_TABLE.sum(axis=0).max())
    cases = (_UNIFORMS[:, 0] >= 0.5).astype(np.int64) * 2 + (_UNIFORMS[:, 1] < 0.3)
    return acc + float(np.bincount(cases, minlength=4)[0])


def scaled(wall: float, cpu: float, factor: float) -> float:
    """`wall` with its on-CPU part (at most `cpu`) multiplied by `factor`."""
    busy = min(cpu, wall)
    return busy * factor + (wall - busy)


class SpeedTrack:
    """Kernel times through a run, and the scale factor for any interval."""

    def __init__(self, every_s: float = 0.2):
        self.every_ns = int(every_s * 1e9)
        self.at: list[int] = []
        self.kernel_ns: list[int] = []

    def sample(self) -> None:
        """Median of three kernel runs, stamped with the time it ended."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter_ns()
            kernel()
            times.append(time.perf_counter_ns() - t0)
        self.at.append(time.perf_counter_ns())
        self.kernel_ns.append(int(statistics.median(times)))

    def due(self) -> bool:
        return not self.at or time.perf_counter_ns() - self.at[-1] >= self.every_ns

    def factor(self, t0: int, t1: int) -> float:
        """REFERENCE_NS over the mean kernel time of the samples just before t0 and just after t1."""
        before = bisect.bisect_right(self.at, t0) - 1
        after = bisect.bisect_left(self.at, t1)
        near = [self.kernel_ns[i] for i in (before, after) if 0 <= i < len(self.at)]
        return REFERENCE_NS / statistics.fmean(near)
