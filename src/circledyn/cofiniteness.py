"""Boundary-of-cofiniteness statistics on exact period sets.

The low-period density condition count <= 2*log2(L-2) is decided exactly
through the equivalent integer inequality 2^count <= (L-2)^2, so ties at
equality come out right.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import NotCofinite
from .periods import PeriodSet


def sbc(ps: PeriodSet) -> int:
    """Strict boundary of cofiniteness: least n with S(n) contained in ps.

    That is `tail_from`: PeriodSet normalization absorbs finite elements
    adjacent to the tail, so tail_from - 1 is never in ps."""
    if ps.tail_from is None:
        raise NotCofinite("period set has no cofinite tail")
    return ps.tail_from


@dataclass(frozen=True)
class CofinitenessReport:
    sbc: int
    sbcset: frozenset
    bc: Optional[int]
    dens_at: dict

    def to_json(self) -> dict:
        return {
            "sbc": self.sbc,
            "sbcset": sorted(self.sbcset),
            "bc": self.bc,
            "dens_at": {str(L): f"{d.numerator}/{d.denominator}" for L, d in sorted(self.dens_at.items())},
        }


def report(ps: PeriodSet) -> CofinitenessReport:
    """sbc, sbcset, bc and the density at each member of sbcset, in one pass
    over 1..sbc that keeps the low-period count of each L running."""
    s = sbc(ps)
    inside = [k in ps for k in range(s + 1)]
    count = 0  # Card({1..L-2} ∩ ps)
    dens = {}
    for L in range(3, s + 1):
        count += inside[L - 2]
        if inside[L] and not inside[L - 1] and 2**count <= (L - 2) ** 2:
            dens[L] = Fraction(count, L - 2)
    return CofinitenessReport(sbc=s, sbcset=frozenset(dens), bc=max(dens, default=None), dens_at=dens)
