"""Machine-speed probe for the nfcrb benchmark.

On a small shared machine the speed of the CPU drifts by tens of percent
over minutes, and every workload slows or speeds up with it, so wall times
taken at different times do not compare.  The probe runs a fixed kernel for
a fixed share of the time, interleaved with the operations: a little Python
arithmetic and small complex matrix products and inverses, the same mix the
program runs, and no code of the program.  Its rate over a run measures the
machine's speed during that run.  ``factor`` is that rate over
``REFERENCE_RATE``.  A time multiplied by ``factor`` is the time the run
would have taken on a machine that runs the kernel at the reference rate,
which is about the rate of the 2-vCPU VM the benchmark was tuned on.

    python3 perfbench/speed.py    # prints this machine's kernel rate
"""

from __future__ import annotations

import time

import numpy as np

SHARE = 0.03  # share of the measured time spent in the kernel
REFERENCE_RATE = 6000.0  # kernel loops per second on the reference machine


class SpeedProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
        self.loops = 0
        self.seconds = 0.0
        self.owed = 0.0
        self.last = time.perf_counter()

    def kernel(self) -> float:
        """One loop: interpreted arithmetic and eight small complex solves."""
        s = 0.0
        for i in range(150):
            s += (i * 0.5) % 7.0
        a = self.matrix
        for _ in range(8):
            a = np.linalg.inv(a @ self.matrix) * 8.0
        return s + float(np.abs(np.trace(a)))

    def run(self, seconds: float) -> None:
        """Run the kernel for about this long."""
        self.owed += seconds
        while self.owed > 0.0:
            t0 = time.perf_counter()
            self.kernel()
            dt = time.perf_counter() - t0
            self.loops += 1
            self.seconds += dt
            self.owed -= dt
        self.last = time.perf_counter()

    def sample(self) -> None:
        """Run the kernel for SHARE of the time since the last call."""
        self.run(SHARE * (time.perf_counter() - self.last))

    def rate(self) -> float:
        return self.loops / self.seconds

    def factor(self) -> float:
        """This machine's speed over the reference speed, during the probed time."""
        return self.rate() / REFERENCE_RATE


if __name__ == "__main__":
    probe = SpeedProbe()
    probe.run(5.0)
    print(f"{probe.rate():.1f} kernel loops per second (reference {REFERENCE_RATE:g})")
