#!/usr/bin/env python3
"""Benchmark the compiled enumeration kernels against the pure fallback.

Runs the two box-scan kernels on corpus-sized problems with both
implementations, checks they return identical results, and prints a
timing table.  Usage: python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import time

from singlab import _kernels_py
from singlab.corpus import fig244, fig2312
from singlab.cycles import adjunction_vector, fundamental_cycle
from singlab.elliptic import elliptic_sequence

try:
    from singlab import _kernels as compiled
except ImportError:
    compiled = None


def box_size(bounds):
    out = 1
    for b in bounds:
        out *= b + 1
    return out


def cases():
    g = fig244(4)
    seq = elliptic_sequence(g)
    cm = seq.partial_sum(seq.m)
    yield ("antinef_in_box", "fig244(4), box [0, C_m]",
           (g.matrix, cm.coeffs))

    g = fig2312(5)
    ze = fundamental_cycle(g)
    bounds = tuple(2 * c for c in ze.coeffs)
    yield ("min_twochi_in_box", "fig2312(5), box [0, 2 Z_E]",
           (g.matrix, adjunction_vector(g), bounds))


def timed(fn, args, repeat=3):
    best = None
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def main():
    if compiled is None:
        print("compiled kernels are not built; showing pure-Python timings only")
    header = f"{'kernel':<20} {'case':<28} {'box':>10} {'pure':>10} {'compiled':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, label, args in cases():
        bounds = args[-1]
        pure_fn = getattr(_kernels_py, name)
        t_pure, r_pure = timed(pure_fn, args)
        if compiled is not None:
            t_fast, r_fast = timed(getattr(compiled, name), args)
            if r_fast != r_pure:
                raise SystemExit(f"MISMATCH in {name} on {label}")
            speed = f"{t_pure / t_fast:7.1f}x"
            fast_col = f"{t_fast * 1000:8.1f}ms"
        else:
            speed = "-"
            fast_col = "-"
        print(f"{name:<20} {label:<28} {box_size(bounds):>10} "
              f"{t_pure * 1000:8.1f}ms {fast_col:>10} {speed:>8}")


if __name__ == "__main__":
    main()
