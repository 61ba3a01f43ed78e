"""A fixed probe of the host's speed, sampled between the timed pieces.

The shared host this benchmark was built on runs the same code 10-50 % slower
for minutes at a time (neighbouring load, not time spent descheduled: process
CPU time slows the same way).  A run of 30 s cannot average that out, so the
end-to-end times are scaled to a reference host speed: each run samples a
fixed piece of work (a pure-Python integer loop and in-place numpy passes
over a 256 KiB complex array, the two kinds of work qorch does) several hundred
times between its timed pieces, and multiplies its host seconds by
``REFERENCE_PROBE_S / median probe time``.  The probe does not touch qorch, so
a change to qorch moves the scaled times exactly as it moves host time at a
fixed host speed; the probe's own time is never counted in a piece.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# A typical median probe time on the reference machine (2-vCPU KVM guest,
# Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4, one BLAS thread), whose runs
# measured medians from 1.1 to 2.0 ms; a scaled second is a host second at
# that speed.
REFERENCE_PROBE_S = 0.00175


def _work(vec: np.ndarray, out: np.ndarray) -> int:
    # No allocation that outlives the call: a probe whose objects land in the
    # program's heap times the heap's state as well as the host.
    total = 0
    for i in range(10_000):
        total += (i * i) % 7
    for _ in range(24):
        np.multiply(vec, 0.5, out=out)
        np.add(out, vec[::-1], out=out)
    return total


class SpeedProbe:
    """Callable: ``probe(n)`` runs the fixed work n times and records each
    time; ``spent`` is the probe's total time, so a caller timing a piece
    around probes subtracts it."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._vec = np.ones(1 << 14, dtype=np.complex128)
        self._out = np.empty_like(self._vec)

    def __call__(self, times: int = 1) -> None:
        for _ in range(times):
            start = perf_counter()
            _work(self._vec, self._out)
            elapsed = perf_counter() - start
            self.samples.append(elapsed)
            self.spent += elapsed

    def scale(self) -> float:
        """Factor from this run's host seconds to reference seconds."""
        return REFERENCE_PROBE_S / statistics.median(self.samples)
