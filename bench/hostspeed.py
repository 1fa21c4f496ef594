"""Host speed reference: fixed kernels timed between points.

The benchmark runs on shared virtual machines whose speed drifts: the same
work can take twice as long a few minutes later, and swings of up to
40% last from one to twenty seconds. Raw wall times taken at different
times therefore cannot be compared.

This module times fixed kernels, owned by the benchmark and independent of
pimac, every ``INTERVAL_S`` seconds between point evaluations. A point's
time is then scaled by the kernels' nominal time over their time around it,
so it reads as milliseconds on the reference host (a 2-vCPU Intel Xeon VM,
Python 3.11, numpy 2.4) in a fast phase.

Interference reaches the guest through two channels that move
independently: the speed of the core (interpreted code, small arrays) and
the bandwidth of the caches shared between cores (arrays of several MB).
Each workload names the kernels that share its bottleneck, because scaling
by a kernel that does not removes no noise and adds the kernel's own: over
five seeds, figure_sweep's point times spread by 8.5% scaled by the core
kernel alone and by 2.2% with both; tin_draws' by 2.7% with the core kernel
alone and by 4.2% with both.

The reference must not depend on the program under test. Each sample runs
every kernel twice and times the second run, whose data is then in the
caches whatever the program left there. The kernels write into
preallocated buffers and allocate only blocks too small for the allocator
to map from the system, so the program's allocation pattern does not reach
them either.
"""

import math
import time

import numpy as np

INTERVAL_S = 0.2

_RNG = np.random.default_rng(20110525)
_A = _RNG.standard_normal((3000, 4, 4))
# 250 matrices per call: slogdet's working copy stays at 32 KB.
_MATS = np.split(_A @ _A.transpose(0, 2, 1) + 4.0 * np.eye(4), 12)
_VEC = _RNG.random(80000)
_VEC_OUT = np.empty_like(_VEC)
_BIG = _RNG.random(500_000)
_BIG_OUT = np.empty_like(_BIG)


def cpu_kernel():
    """Interpreted float code, batched 4x4 log-determinants and a vectorised log."""
    acc = 0.0
    for i in range(3000):
        acc += 0.5 * math.log2(1.0 + i / (1.0 + 0.25 * i))
    for mats in _MATS:
        acc += float(np.linalg.slogdet(mats)[1].sum())
    np.add(_VEC, 1.0, out=_VEC_OUT)
    np.log2(_VEC_OUT, out=_VEC_OUT)
    return acc + float(_VEC_OUT.sum())


def memory_kernel():
    """A log over arrays of 4 MB, larger than the core's own caches."""
    np.multiply(_BIG, 0.5, out=_BIG_OUT)
    np.log1p(_BIG_OUT, out=_BIG_OUT)
    return float(_BIG_OUT.sum())


KERNELS = {"cpu": cpu_kernel, "memory": memory_kernel}
# Kernel times on the reference host in a fast phase (10th percentile), s.
NOMINAL_S = {"cpu": 1.5e-3, "memory": 1.8e-3}


class HostSpeed:
    """Samples of the named kernels taken during a run."""

    def __init__(self, kinds):
        self.kernels = [KERNELS[k] for k in kinds]
        self.nominal = sum(NOMINAL_S[k] for k in kinds)
        self.stamps = []
        self.durations = []

    def sample(self):
        """Time the kernels once, warm; returns the time the sample ended."""
        duration = 0.0
        for kernel in self.kernels:
            kernel()
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            duration += t1 - t0
        self.stamps.append(t1 - 0.5 * duration)
        self.durations.append(duration)
        return t1

    def scale(self, stamps):
        """Factors that bring times taken at ``stamps`` to the reference host."""
        return self.nominal / np.interp(stamps, self.stamps, self.durations)

    def relative(self):
        """Each sample's time over the nominal time."""
        return np.asarray(self.durations) / self.nominal
