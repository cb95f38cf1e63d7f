"""Machine-speed reference for the benchmark's timings.

On the shared 2-vCPU Intel Xeon host the benchmark's bounds were set on,
speed drifted by up to 1.8x over seconds to minutes, in CPU time as much as
in wall time and even in the fastest operations, so wall times alone did not
repeat from run to run.  Each timing is therefore paired
with the time of a fixed computation taken next to it, in the same process.

The host's slow phases do not slow all code alike, so the reference is
built from the kernels that track a workload's own work.  Each kernel was
tried alone and in combination against per-kernel timings recorded next to
every operation block, over 8 to 18 runs per workload: ``dispatch`` alone
held many_small's run-to-run spread (IQR/median) to 0.039 where all kernels
together gave 0.115 and wall time 0.441; ``interpreter`` + ``stream`` held
tall_stack, wide_coil and cli_files to 0.026-0.031, against 0.092-0.150 for
wall time, while ``dispatch`` there made it worse.  A BLAS matrix-product
kernel tracked no workload better than these and was dropped.
"""

import statistics
import time

import numpy as np

# Nominal time of one default ``Reference.call``: about its median on the
# 2-vCPU Intel Xeon host the benchmark's bounds were set on.  ``setup_s`` is
# the import time rescaled to a machine on which a call takes this long.
REF_S = 2.0e-3
# How long the reference runs right after a timed import, to rescale it.
AFTER_IMPORT_S = 0.05

DEFAULT_KERNELS = ("interpreter", "stream")


class Reference:
    """A fixed computation: a clock that slows with the machine.

    Kernels: ``interpreter`` (a pure-Python loop), ``dispatch`` (numpy calls
    on 10 x 6 arrays, where call overhead dominates) and ``stream`` (sums
    over a 4 MB array).  One call runs the chosen kernels and returns the
    geometric mean of their times.  Inputs are fixed, independent of the
    workload seed and of gsvkit.
    """

    def __init__(self, kernels=DEFAULT_KERNELS):
        rng = np.random.default_rng(0)
        self.small = [rng.standard_normal((10, 6)) for _ in range(50)]
        self.stream = rng.standard_normal(1 << 19)  # 4 MB: small next to any workload's RSS
        self.kernels = [getattr(self, "_" + name) for name in kernels]
        for _ in range(3):
            self.call()

    def _interpreter(self):
        total = 0
        for j in range(30000):
            total += j * j % 7
        return total

    def _dispatch(self):
        for a in self.small:
            np.linalg.eigh(a.T @ a)

    def _stream(self):
        for _ in range(8):
            self.stream.sum()

    def call(self):
        log_sum = 0.0
        for kernel in self.kernels:
            t0 = time.perf_counter()
            kernel()
            log_sum += np.log(time.perf_counter() - t0)
        return float(np.exp(log_sum / len(self.kernels)))

    def unit(self, at_least_s):
        """Median reference time over calls lasting at least ``at_least_s`` in total."""
        times, start = [], time.perf_counter()
        while not times or time.perf_counter() - start < at_least_s:
            times.append(self.call())
        return statistics.median(times)
