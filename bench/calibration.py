"""The machine's current speed, from a fixed pure-Python calibration loop.

The benchmark's machine is shared: the speed of a pure-Python loop drifts
by 10 to 50% over minutes there, and every timing of a run moves with it.
The loop below does the kind of work the engine does (``Fraction``
products and sums, small integers reduced mod p, dictionaries keyed by
exponent tuples) and imports nothing from ``arcmult``, so a change to the
engine cannot change its time.  The benchmark times it next to each
measurement and scales the measurement by ``REFERENCE_SECONDS`` over the
loop's time: the result is the time the measurement would have taken at
the reference machine's quiet speed.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: Seconds one calibration takes on the reference machine when it is quiet
#: (see bench/README.md).  Fixed, so that scaled times of different
#: commits compare.
REFERENCE_SECONDS = 0.005
REPEATS = 4

_LEFT = tuple(Fraction(i % 7 + 1, i % 5 + 1) for i in range(20))
_RIGHT = tuple(Fraction(-(i % 4) - 1, i % 3 + 2) for i in range(20))


def _loop():
    product = [0] * (len(_LEFT) + len(_RIGHT))
    for i, x in enumerate(_LEFT):
        for j, y in enumerate(_RIGHT):
            product[i + j] += x * y
    terms = {}
    for i in range(12):
        for j in range(12):
            key = ((i + j) % 5, (i * j) % 7)
            terms[key] = (terms.get(key, 0) + (i * 31 + j * 17) * (i + 1)) % 3
    return product, terms


def warm_up() -> None:
    """Run the loop until the interpreter has specialised its code."""
    for _ in range(5):
        calibration_seconds()


def calibration_seconds() -> float:
    """Seconds the calibration loop takes now."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        _loop()
    return time.perf_counter() - start


def scale(seconds: float, calibrations) -> float:
    """``seconds`` at the reference speed, given calibrations made around it."""
    return seconds * REFERENCE_SECONDS * len(calibrations) / sum(calibrations)
