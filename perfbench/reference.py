"""A fixed reference kernel, timed beside every op to factor out machine speed.

On a shared host the machine's speed changes by up to half within a
minute, as other tenants come and go, and a run's median latency jumps
with it.  The kernel below is work that no change to the program can
touch, in three parts of about equal time: an arithmetic loop, which
follows how fast the core executes; random lookups into a table of a
few megabytes, which follow how much cache the neighbours leave; and a
stack walk of tiny NumPy calls, which follows the call overhead the
per-query tree traversal pays.  Each part alone tracks one workload's
slowdown well and another's badly; the sum tracks all four best.

The kernel is timed before a unit's set-up and after the set-up and
every op; each of these is then scaled by ``NOMINAL_S`` over the median
of the kernel times nearest to it.  A slow spell slows the op and the kernel alike,
so the scaled latency stays put, while a change to the program moves it
as before.  Scaled figures read as milliseconds on a machine where the
kernel takes ``NOMINAL_S``.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

# The kernel's nominal duration; scaled times are relative to it.
NOMINAL_S = 0.005

_LOOP = 17_000
_rng = random.Random(0)
_TABLE = list(range(300_000))
_TABLE_PROBES = [_rng.randrange(len(_TABLE)) for _ in range(2_800)]
_MAP = {key: key for key in range(100_000)}
_MAP_PROBES = [_rng.randrange(len(_MAP)) for _ in range(1_800)]
_WALK = 260
_AXES = np.array([0, 1, 2] * 100)
_SPLITS = np.linspace(-1.0, 1.0, 300)
_QUERY = np.array([0.1, 0.2, 0.3])
_BOUNDS = np.arange(16.0)


def kernel() -> float:
    acc = 0.0
    for i in range(_LOOP):
        acc += i * i % 7
    table, mapping = _TABLE, _MAP
    for i in _TABLE_PROBES:
        acc += table[i]
    for key in _MAP_PROBES:
        acc += mapping[key]
    stack = []
    for i in range(_WALK):
        axis = _AXES[i % 300]
        delta = _QUERY[axis] - _SPLITS[i % 300]
        bounds = _BOUNDS.copy()
        bounds[axis] = delta * delta
        stack.append((float(delta), bounds))
        if len(stack) > 8:
            offset, bounds = stack.pop()
            acc += float(np.min(bounds)) + offset
    return acc


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


# Kernel times taken on each side of an op to judge its speed.
WINDOW = 2


def scale_ops(durations: list[float], kernels: list[float]) -> list[float]:
    """Consecutive op durations at the nominal speed.

    ``kernels[i]`` was timed just before op ``i`` and ``kernels[i + 1]``
    just after it.  Each op is judged by the median of the ``WINDOW``
    kernel times on either side, so one kernel run hit by a momentary
    stall does not skew the op next to it.
    """
    if len(kernels) != len(durations) + 1:
        raise ValueError("need one kernel time before each op and one after the last")
    return [
        duration * NOMINAL_S
        / statistics.median(kernels[max(0, i + 1 - WINDOW) : i + 1 + WINDOW])
        for i, duration in enumerate(durations)
    ]
