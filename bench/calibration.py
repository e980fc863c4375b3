"""Host-speed calibration: a fixed kernel timed around and during each operation.

The benchmark's host is a 2-core virtual machine whose speed drifts: a fixed
kernel run alone takes up to 1.5-1.8x as long in stretches lasting from
seconds to minutes, with process time equal to wall time, so neither medians
nor longer runs remove it.  The kernel here is a fixed mix of interpreted
Python and small NumPy calls, the mix the program's batch loops are made of.
``timed_call`` runs it right before and right after an operation, and a
tenth-size copy of it every ``SAMPLE_INTERVAL_S`` during the operation from
a SIGALRM handler.  The operation's time, less the time spent in the handler,
is divided by the mean slowdown of those kernel runs against
``REFERENCE_KERNEL_S``: the result is the time the operation would take on a
host where the kernel takes ``REFERENCE_KERNEL_S``.  The kernel uses nothing
of the program, so a change to the program moves the scaled time exactly as
it moves the measured one.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Kernel time, in s, of the reference host the scaled times are quoted at.
REFERENCE_KERNEL_S = 0.04
# Size of the kernel sampled during an operation, as a share of the full one.
SAMPLE_SCALE = 0.1
SAMPLE_INTERVAL_S = 0.1
# Total time spent in the sampling handler so far, for spans that must exclude it.
_paused_total = 0.0
_VECTOR = np.linspace(1.0, 2.0, 200)
_MATRIX = np.add.outer(_VECTOR[:16], _VECTOR[:16]) + 16.0 * np.eye(16)


def _kernel(scale: float) -> float:
    total = 0.0
    for i in range(int(60000 * scale)):
        total += (i % 7) * 0.5
    x = _VECTOR
    for _ in range(int(1400 * scale)):
        y = np.exp(-x) * np.log1p(x) / (x + 1.0)
        x = np.where(y > 0.1, x, x + 1e-9)
        total += float(np.linalg.solve(_MATRIX, x[:16])[0])
    return total


def slowdown(scale: float = 1.0) -> float:
    """Time of one kernel run of the given size over its reference time."""
    started = time.perf_counter()
    _kernel(scale)
    return (time.perf_counter() - started) / (REFERENCE_KERNEL_S * scale)


def paused_s() -> float:
    """Total time spent so far in speed samples taken during operations."""
    return _paused_total


def timed_call(fn, *args):
    """Run ``fn(*args)``; return its result, its wall time and that time at reference speed."""
    slowdowns = [slowdown()]
    paused = 0.0

    def probe(signum, frame):
        global _paused_total
        nonlocal paused
        started = time.perf_counter()
        slowdowns.append(slowdown(SAMPLE_SCALE))
        spent = time.perf_counter() - started
        paused += spent
        _paused_total += spent

    previous = signal.signal(signal.SIGALRM, probe)
    started = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - started - paused
    slowdowns.append(slowdown())
    return result, elapsed, elapsed / statistics.fmean(slowdowns)
