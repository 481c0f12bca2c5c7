"""The reference loop that every timing of the benchmark is scaled by.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to ±25% over tens of seconds to minutes (bench/NOTES.md).  The same work then
takes a different time from one run to the next, and medians within one run
cannot remove a drift that lasts longer than the run.  So the benchmark times
a fixed loop of its own next to the program, before the first item of a pass
and after every item, and scales each measured time by REF_S / (the loop's
median time over the samples taken around it).  A scaled time reads as
seconds on a host that runs the loop in REF_S; it moves with the program's
work and not with the host's speed.

The loop is the benchmark's own code, not circledyn's: exact Fraction
arithmetic, big-integer Horner steps and small dict and set updates, the kind
of work the program does.  It never changes between the commits compared.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Median time of reference_loop() on the reference machine (2-vCPU Linux
# container, Python 3.11.7).  Only the scale of the reported times depends on it.
REF_S = 0.006
# An item is scaled by the median of the WINDOW samples before it and the
# WINDOW samples after it: a 30 s scan pass sees the host's speed change.
WINDOW = 3

_REPS = 500
_POLY = (3, -5, 7, 11, -13, 17, 1)


def reference_loop() -> int:
    x = Fraction(1, 3)
    acc = 0
    table = {}
    seen = set()
    for i in range(_REPS):
        x = (x * 7 + 1) / 3 if i % 2 else x / 5 + Fraction(1, 7)
        x = Fraction(x.numerator % 10**12, x.denominator % 10**12 + 1)
        table[i % 97] = (x, i)
        seen.add(x.numerator & 255)
        acc ^= hash(x)
    for k in range(_REPS // 20):
        v = 0
        for c in _POLY:
            v = v * (k + 10**9) + c
        acc ^= v & 0xFFFF
    return acc ^ len(table) ^ len(seen)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class Speed:
    """Reference-loop samples taken over one interval, and the scales they give."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(time_reference())

    def scale(self) -> float:
        """Multiply a time measured over the interval by this to get seconds
        at the reference speed."""
        return REF_S / statistics.median(self.samples)

    def scale_items(self, times: list[float]) -> list[float]:
        """Item times at the reference speed, where samples[0] was taken
        before the first item and samples[i + 1] right after item i."""
        assert len(self.samples) == len(times) + 1
        out = []
        for i, dt in enumerate(times):
            around = self.samples[max(0, i + 1 - WINDOW): i + 1 + WINDOW]
            out.append(dt * REF_S / statistics.median(around))
        return out
