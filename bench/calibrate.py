"""Machine-speed calibration between passes.

On a shared host the same pass runs up to 1.7x slower in some minutes
than in others, and CPU time slows with wall time, so the cause is
contention for the core and its caches, not preemption.  A fixed loop
of the same kind of work as the workload (interpreted Python, or numpy
over megabyte arrays) is timed between passes; each pass time is scaled
by the loop's nominal time over the mean of its two neighbouring
readings, so figures read as if the host ran at its quiet speed.
"""

from __future__ import annotations

import time

import numpy as np

# Loop time in a quiet minute on the 2-core reference box (see README).
NOMINAL_S = {"python": 0.029, "numpy": 0.065}


def python_loop(n: int = 100_000) -> float:
    """Dict lookups and float arithmetic, as in the mode algebra."""
    d: dict[int, float] = {}
    s = 0.0
    for i in range(n):
        k = i & 1023
        d[k] = d.get(k, 0.0) + i * 0.5
        s += d[i & 511]
    return s


def numpy_loop(n: int = 3) -> float:
    """Normal draws and a dot product over 10^6-element arrays, as in the oracle."""
    rng = np.random.default_rng(0)
    s = 0.0
    for _ in range(n):
        x = rng.normal(0.0, 1.0, 1_000_000)
        s += float(x @ (2.0 * x + 1.0))
    return s


LOOPS = {"python": python_loop, "numpy": numpy_loop}


class Calibration:
    """Readings of one loop; :meth:`sample` returns the speed factor for
    the interval since the previous reading."""

    def __init__(self, kind: str):
        self.loop = LOOPS[kind]
        self.nominal = NOMINAL_S[kind]
        self.last: float | None = None
        self.speeds: list[float] = []

    def sample(self) -> float:
        """Time the loop once; return nominal / mean(previous, this)
        (1.0 for the first reading)."""
        t0 = time.perf_counter()
        self.loop()
        t = time.perf_counter() - t0
        speed = 1.0 if self.last is None else self.nominal / ((self.last + t) / 2.0)
        self.last = t
        self.speeds.append(speed)
        return speed
