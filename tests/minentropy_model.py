"""The explicit bimodal minimum-entropy model for a rotation interval [c, d]:
a test reference built on `minentropy.beta`, with slope +-beta~ and an offset
summed exactly.  No command or report of the package uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from circledyn.arith import CertifiedRoot, rat_str
from circledyn.errors import BudgetExceeded
from circledyn.lifting import Lifting
from circledyn.minentropy import _floor_numerator, _normalize, beta

_DYADIC_BITS = 64


def _dyadic_down(q: Fraction) -> Fraction:
    return Fraction((q * (1 << _DYADIC_BITS)).__floor__(), 1 << _DYADIC_BITS)


def _dyadic_up(q: Fraction) -> Fraction:
    return Fraction(-((-q * (1 << _DYADIC_BITS)).__floor__()), 1 << _DYADIC_BITS)


@dataclass(frozen=True)
class MinEntropyModel:
    """Bimodal model lifting with slope +-beta~ (a rational approximation of
    beta inside the certified bracket), rising on [0,u], falling on [u,1].

    The rational model is exactly continuous and degree one by construction;
    only its rotation interval is an approximation of [c,d], controlled by the
    beta/offset bracket widths.
    """

    c: Fraction
    d: Fraction
    beta: CertifiedRoot
    offset: CertifiedRoot  # bracket of b = (beta-1)^2 sum floor(nc) beta^-(n+1)
    lifting: Lifting
    turning_point: Fraction

    def value_bracket(self, x: Fraction) -> tuple[Fraction, Fraction]:
        """Certified enclosure of the true model's value at x in [0,1],
        accounting for the beta and offset bracket widths (and for the
        uncertain turning point near u)."""
        blo, bhi = self.beta.lower, self.beta.upper
        olo, ohi = self.offset.lower, self.offset.upper
        u_lo = (bhi + 1) / (2 * bhi)  # u = (beta+1)/(2 beta) decreases in beta
        u_hi = (blo + 1) / (2 * blo)
        cands = []
        if x <= u_hi:  # rising lap possibly active
            cands += [blo * x + olo, bhi * x + ohi]
        if x >= u_lo:  # falling lap possibly active
            cands += [blo * (1 - x) + olo + 1, bhi * (1 - x) + ohi + 1]
        return min(cands), max(cands)

    def sampled_graph(self, samples: int = 32) -> list:
        """Sampled breakpoint list with certified value brackets, rounded
        outward to dyadics so the export stays readable."""
        out = []
        for j in range(samples + 1):
            x = Fraction(j, samples)
            lo, hi = self.value_bracket(x)
            out.append(
                {
                    "x": rat_str(x),
                    "lo": rat_str(_dyadic_down(lo)),
                    "hi": rat_str(_dyadic_up(hi)),
                }
            )
        return out

    def to_json(self) -> dict:
        return {
            "c": rat_str(self.c),
            "d": rat_str(self.d),
            "beta": self.beta.to_json(),
            "offset": self.offset.to_json(),
            "turning_point": rat_str(self.turning_point),
            "lifting": self.lifting.to_json(),
            "samples": self.sampled_graph(),
        }


def offset_sum(c: Fraction, z: Fraction) -> Fraction:
    """sum_{n>=1} floor(nc) z^-(n+1) = S_c(z) / z, exact for z > 1; it
    decreases in z for c >= 0."""
    return _floor_numerator(c).eval(z) / (z * (z - 1) * (z**c.denominator - 1))


def min_entropy_model(c: Fraction, d: Fraction, tol: Fraction = Fraction(1, 10**9)) -> MinEntropyModel:
    c0, d0 = _normalize(c, d)
    res = beta(c0, d0, tol)
    blo, bhi = res.beta.lower, res.beta.upper
    if blo == 1:
        raise BudgetExceeded("beta bracket reaches 1, where the offset sum diverges")
    off_lo = (blo - 1) ** 2 * offset_sum(c0, bhi)
    off_hi = (bhi - 1) ** 2 * offset_sum(c0, blo)
    if off_hi - off_lo > 8 * tol:
        raise BudgetExceeded("offset bracket wider than 8*tol")

    beta_mid = res.beta.midpoint()
    b_mid = (off_lo + off_hi) / 2
    u = (beta_mid + 1) / (2 * beta_mid)
    lift = Lifting((Fraction(0), u), (b_mid, beta_mid * u + b_mid))
    return MinEntropyModel(
        c=c0,
        d=d0,
        beta=res.beta,
        offset=CertifiedRoot(off_lo, off_hi),
        lifting=lift,
        turning_point=u,
    )
