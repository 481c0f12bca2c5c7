"""The literal cofiniteness definitions, one L at a time: a test reference for
the one-pass `circledyn.cofiniteness.report`, which the program uses alone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from circledyn.cofiniteness import sbc
from circledyn.periods import PeriodSet


def low_period_count(ps: PeriodSet, L: int) -> int:
    """Card({1..L-2} ∩ ps)."""
    return sum(1 for k in range(1, L - 1) if k in ps)


def density_condition(ps: PeriodSet, L: int) -> bool:
    """count <= 2*log2(L-2), decided exactly as 2^count <= (L-2)^2."""
    if L <= 2:
        return False
    return 2 ** low_period_count(ps, L) <= (L - 2) ** 2


def dens_low_per(ps: PeriodSet, L: int) -> Fraction:
    """Density of the L-low periods: Card({1..L-2} ∩ ps) / (L-2)."""
    sbc(ps)  # NotCofinite without a cofinite tail
    if L <= 2:
        raise ValueError("density needs L > 2")
    return Fraction(low_period_count(ps, L), L - 2)


def sbcset(ps: PeriodSet) -> set[int]:
    """{L in ps : L > 2, L-1 not in ps, low-period density condition holds};
    every L above sbc has L - 1 in ps."""
    return {L for L in range(3, sbc(ps) + 1) if L in ps and L - 1 not in ps and density_condition(ps, L)}


def bc(ps: PeriodSet) -> Optional[int]:
    """max sbcset(ps), or None when the candidate set is empty."""
    return max(sbcset(ps), default=None)
