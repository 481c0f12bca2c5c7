"""Class lookup on a family instance's Markov partition, for the tests."""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from circledyn.arith import rat_str


def class_index(inst, a: Fraction, b: Fraction) -> int:
    """The index of the class [a, b] of `inst.markov`; KeyError if there is none."""
    M = inst.markov
    i = bisect_left(M.partition, a)
    if i < M.size and M.classes[i] == (a, b):
        return i
    raise KeyError(f"no class [{rat_str(a)},{rat_str(b)}]")
