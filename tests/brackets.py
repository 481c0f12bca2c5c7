"""Numeric cross-checks of certified brackets, for the tests only."""

from __future__ import annotations

from fractions import Fraction

from circledyn.arith import CertifiedRoot


def overlaps(a: CertifiedRoot, b: CertifiedRoot, slack: Fraction = Fraction(0)) -> bool:
    """The brackets a and b meet once each is widened by slack."""
    return a.lower <= b.upper + slack and b.lower <= a.upper + slack
