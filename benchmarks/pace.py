"""The machine's speed, measured with a fixed kernel beside the timed work.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pass can take 50% longer in one half-minute than in the next, with CPU
time tracking wall time. A drift that slow moves whole runs, so no estimator
over one run's passes removes it. It does move a fixed kernel that runs in the
same stretch just as much, so the benchmark runs one around every timed
command, outside the timed region: half before it and half after, for a tenth
of the command's time. A timing divided by the kernel's slowdown in the same
stretch is what it would read on a machine where one kernel step takes STEP_S.

The kernel does what the program does at its core: small complex numpy
matrices (a four-qubit Kraus product applied to a density matrix and traced)
driven from Python. It calls nothing in decoynoise, so no change to the
package can move it.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# One kernel step's time on the reference machine, about that of a 2-core
# x86 VM with Python 3.11 and numpy 2.4; a scale for the timings, nothing more.
STEP_S = 1e-4
# Kernel time run around each timed command, as a share of that command's time.
SHARE = 0.1

_E0 = np.array([[1.0, 0.0], [0.0, 0.8]], dtype=complex)
_E1 = np.array([[0.0, 0.6], [0.0, 0.0]], dtype=complex)
_RHO = np.eye(16, dtype=complex) / 16.0


def kernel(steps: int) -> float:
    """steps applications of one four-qubit Kraus product; returns the summed traces."""
    total = 0.0
    for _ in range(steps):
        k = np.kron(np.kron(_E0, _E1), np.kron(_E1, _E0))
        total += float(np.real(np.trace(k @ _RHO @ k.conj().T)))
    return total


def steps_for(seconds: float) -> int:
    """Kernel steps to run around a command that takes seconds: two at least, one each side."""
    return max(2, round(SHARE * seconds / STEP_S))


class Pace:
    """Kernel time accumulated beside timed work, read as a slowdown factor."""

    def __init__(self):
        self.seconds = 0.0
        self.steps = 0

    def run(self, steps: int) -> None:
        start = perf_counter()
        total = kernel(steps)
        self.seconds += perf_counter() - start
        self.steps += steps
        if not math.isfinite(total):
            raise RuntimeError("calibration kernel gave a non-finite result")

    def take(self) -> float:
        """How many times slower than the reference the kernel ran since the last take."""
        factor = self.seconds / (self.steps * STEP_S)
        self.seconds, self.steps = 0.0, 0
        return factor
