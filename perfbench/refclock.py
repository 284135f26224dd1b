"""Timings in reference seconds, steady against the host's speed drift.

The benchmark shares a virtual machine whose effective CPU speed moves by
up to 1.5x in spells of a few seconds, with no steal time reported, so
CPU time drifts as much as wall time does.  A fixed reference kernel,
built from the benchmark's own code only, is timed after every op.  Each
op latency is then scaled by REFERENCE_KERNEL_S over the median kernel
time around that op: a reference second is the time the op would take on
a host where the kernel takes REFERENCE_KERNEL_S.  The program under test
never runs the kernel, so a change to the program moves the scaled
figures exactly as it moves the wall times at a fixed host speed.
"""

import statistics
import time

import numpy as np

from workloads import from_log_derivative

REFERENCE_KERNEL_S = 6e-4  # about the kernel's median time on the machine described in README.md
WINDOW = 3  # kernel samples taken on each side of an op
WARM_UP = 20  # kernel calls before the first one that counts

_Q = np.linspace(0.1, 1.0, 65).astype(np.complex128)


def kernel_seconds() -> float:
    """Wall seconds of one reference kernel: a short series recurrence of
    small numpy calls, then a plain Python loop, the two kinds of work the
    program's ops are made of."""
    start = time.perf_counter()
    from_log_derivative(_Q, 64)
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    return time.perf_counter() - start


def warm_up() -> float:
    for _ in range(WARM_UP):
        kernel_seconds()
    return kernel_seconds()


def scale(latencies, kernels) -> list:
    """Latencies in reference seconds.

    kernels[j] was timed just before op j and kernels[j + 1] just after
    it, so there is one more kernel sample than latencies.
    """
    if len(kernels) != len(latencies) + 1:
        raise ValueError("need one kernel sample before each op and one after the last")
    out = []
    for j, seconds in enumerate(latencies):
        around = kernels[max(0, j + 1 - WINDOW): j + 1 + WINDOW]
        out.append(seconds * REFERENCE_KERNEL_S / statistics.median(around))
    return out
