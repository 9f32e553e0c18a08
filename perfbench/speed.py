"""The machine's speed, measured with a fixed reference kernel.

The benchmark shares a few cores with other tenants, whose load slows the
same code by up to 2x for seconds to minutes at a time.  After each
operation the run times ``count`` short chunks of a fixed pure-Python
kernel (rational elimination, integer list arithmetic, dict updates: the
kinds of work the pure kernels of ``singlab`` do).  ``scale`` turns the
chunks' fastest passes into a factor that converts the run's times to
seconds at the reference speed, the speed at which one chunk takes
``NOMINAL_S``.  The kernel is part of the benchmark, not of the program,
so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.0005  # one chunk at the reference speed (about a quiet 2-CPU host)
SHARE = 0.05  # reference time spent after each operation, as a share of its time


def chunk():
    """Run one reference chunk; return its wall time in seconds."""
    start = time.perf_counter()
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(6)]
         for i in range(6)]
    for k in range(6):
        p = next((r for r in range(k, 6) if m[r][k]), None)
        if p is None:
            continue
        m[k], m[p] = m[p], m[k]
        for r in range(k + 1, 6):
            f = m[r][k] / m[k][k]
            m[r] = [a - f * b for a, b in zip(m[r], m[k])]
    v = list(range(40))
    for _ in range(40):
        v = [(x * 3 + y) % 1009 for x, y in zip(v, v[1:] + v[:1])]
    d = {}
    for i in range(600):
        d[i % 97] = d.get(i % 97, 0) + i
    return time.perf_counter() - start


def count(busy):
    """Chunks to run after an operation of ``busy`` seconds: ``SHARE`` of
    its time at the reference speed, at least one."""
    return max(1, round(SHARE * busy / NOMINAL_S))


def scale(passes):
    """Factor from this run's seconds to seconds at the reference speed.

    ``passes`` holds each pass's chunk times, in the same slots on every
    pass.  Each slot is credited with its fastest pass, as each segment of
    the program is, so both are picked from the same number of tries."""
    fastest = [min(slot) for slot in zip(*passes)]
    return NOMINAL_S / statistics.fmean(fastest)
