"""Kernel timings on fixed operands, independent of the workload and seed.

Each kernel runs in batches of at least ``BATCH_SECONDS``; the reported
value is the median over ``BATCHES`` batches of the time per call, in
microseconds.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

BATCHES = 5
BATCH_SECONDS = 0.02
SERIES_LENGTHS = (8, 32, 128)


def _per_call_us(call) -> float:
    repeat = 1
    while True:
        start = time.perf_counter()
        for _ in range(repeat):
            call()
        if time.perf_counter() - start >= BATCH_SECONDS:
            break
        repeat *= 2
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(repeat):
            call()
        samples.append((time.perf_counter() - start) / repeat)
    return statistics.median(samples) * 1e6


def _series_pair(field, n):
    from arcmult.series import TruncatedSeries

    if field.characteristic == 0:
        left = [Fraction(i % 7 + 1, i % 5 + 1) for i in range(n)]
        right = [Fraction(-(i % 4) - 1, i % 3 + 2) for i in range(n)]
    else:
        left = [i % 2 + 1 for i in range(n)]
        right = [(i * i) % 3 or 1 for i in range(n)]
    return (
        TruncatedSeries.exact_series(field, left),
        TruncatedSeries.exact_series(field, right),
    )


def kernel_timings() -> dict:
    """Metric name -> microseconds per call."""
    from arcmult.elimination import MonicPresentation, visible_elimination
    from arcmult.fields import RATIONALS, prime_field
    from arcmult.poly import parse_poly
    from arcmult.rees import ReesAlgebra
    from arcmult.series import Arc, arc_substitute, parse_series

    timings = {}
    for label, field in (("q", RATIONALS), ("f3", prime_field(3))):
        for n in SERIES_LENGTHS:
            left, right = _series_pair(field, n)
            timings[f"series.mul.{label}.n{n}_us"] = _per_call_us(lambda: left * right)

    xyz = ("x", "y", "z")
    surface = parse_poly("z^3 - x^4 - y^5 + x^2*y*z", xyz, RATIONALS)
    arc = Arc(
        xyz,
        tuple(parse_series(s, RATIONALS) for s in ("t^2 + t^3", "2*t^3 - t^5", "t^4 - 3*t^7")),
        RATIONALS,
    )
    timings["series.arc_substitute.kernel_us"] = _per_call_us(lambda: arc_substitute(surface, arc))

    algebra = ReesAlgebra.of(xyz, [(surface, 3)], RATIONALS)
    timings["rees.diff_closure.kernel_us"] = _per_call_us(algebra.diff_closure)

    f2 = prime_field(2)
    presented = MonicPresentation(("x", "y"), "z", parse_poly("z^2 - x^3 - y^5", xyz, f2))
    closure = presented.presenting_algebra()
    timings["elimination.visible_elimination.kernel_us"] = _per_call_us(
        lambda: visible_elimination(closure, {"z"})
    )
    return timings
