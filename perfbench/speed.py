"""Machine-speed calibration.

On a shared 2-core VM the CPU speed one process sees drifts by up to a
factor of two within seconds: over ten runs of the ``asym-ternary``
workload the pass time spread by 0.46 (IQR/median), but by 0.084 once
rescaled by the kernel below, timed right before and after each
operation.  So every timing the benchmark reports is rescaled to
``REFERENCE_S``, the kernel's time at the fast end of that drift:

    rescaled = measured * REFERENCE_S / mean(kernel before, kernel after)

The kernel mixes what srleak spends its time on: small numpy operations
driven from Python loops, dict updates, gathers from small distortion
tables into large arrays, and single-threaded BLAS.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.010


class Calibrator:
    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._vec = np.arange(64, dtype=np.float64)
        self._mat = rng.random((120, 120))
        self._table = rng.random((3, 3))
        self._rows = rng.integers(0, 3, size=100_000)
        self._cols = rng.integers(0, 3, size=100_000)
        self._acc = np.zeros(100_000)

    def _kernel(self) -> float:
        s = 0.0
        for i in range(1500):
            s += float((self._vec * 0.5 + i).sum())
        d: dict[int, int] = {}
        for i in range(20000):
            d[i % 97] = d.get(i % 97, 0) + i
        for _ in range(10):
            self._mat @ self._mat
        self._acc[:] = 0.0
        for _ in range(8):
            self._acc += self._table[self._rows, self._cols]
        return s

    def sample(self) -> float:
        """Kernel time in seconds, the best of three back-to-back runs."""
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        return best


def rescale(seconds: float, before: float, after: float) -> float:
    return seconds * REFERENCE_S * 2.0 / (before + after)
