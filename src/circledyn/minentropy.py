"""Minimum entropy over liftings with a prescribed rotation interval.

beta(c,d) is the unique z > 1 where the rotation-forced expansion balances:
largest root of

    Q_{c,d}(z) = z + 1 + 2( z/(z-1) - T_{1-c}(z) - T_d(z) ),
    T_a(z) = sum_{n>=0} z^(-floor(n/a)),   T_0 == 0,

cross-checked against the unique solution of R(z) = 1/2 where R counts, for
each q, every integer k with qc < k < qd (one term z^-q per pair (k, q); the
pair count is what the series identity Q = (z-1)(1 - 2R) matches, and it
refines the plain M(c,d) membership predicate).

Everything runs in exact rational arithmetic: series are evaluated as a
partial sum plus an explicit geometric majorant of the tail, so every sign
decision and every bracket endpoint is certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .arith import CertifiedRoot, bisect_root, floor_frac, rat_str
from .errors import TruncationStall
from .lifting import Lifting
from .periods import interior_integer_count

_STALL_TERMS = 1 << 16


def _geom_tail(w: Fraction, first_exp: int) -> Fraction:
    """sum_{j >= first_exp} w^j for 0 < w < 1."""
    return w**first_exp / (1 - w)


_DYADIC_BITS = 64


def _dyadic_down(q: Fraction) -> Fraction:
    return Fraction((q * (1 << _DYADIC_BITS)).__floor__(), 1 << _DYADIC_BITS)


def _dyadic_up(q: Fraction) -> Fraction:
    return Fraction(-((-q * (1 << _DYADIC_BITS)).__floor__()), 1 << _DYADIC_BITS)


def _t_series_enclosure(alpha: Fraction, z: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """[lo, hi] enclosure of T_alpha(z) = sum_{n>=0} z^(-floor(n/alpha)).

    Needs 0 < alpha <= 1 so the exponents floor(n/alpha) strictly increase,
    giving the tail majorant sum_{j >= floor(terms/alpha)} z^-j.
    """
    if alpha == 0:
        return Fraction(0), Fraction(0)
    if not (0 < alpha <= 1):
        raise ValueError("T series implemented for alpha in (0,1]")
    a, b = alpha.numerator, alpha.denominator
    w = 1 / z
    partial = Fraction(0)
    for n in range(terms):
        partial += w ** ((n * b) // a)
    tail = _geom_tail(w, (terms * b) // a)
    return partial, partial + tail


def q_series_enclosure(c: Fraction, d: Fraction, z: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """[lo, hi] enclosure of Q_{c,d}(z) for z > 1."""
    base = z + 1 + 2 * z / (z - 1)
    t1lo, t1hi = _t_series_enclosure(1 - c, z, terms)
    t2lo, t2hi = _t_series_enclosure(d, z, terms)
    return base - 2 * (t1hi + t2hi), base - 2 * (t1lo + t2lo)


def r_series_enclosure(c: Fraction, d: Fraction, z: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """[lo, hi] enclosure of R(z) = sum_q #{k : qc < k < qd} z^-q.

    Tail majorant: the count for q never exceeds q(d-c) + 1.
    """
    w = 1 / z
    partial = Fraction(0)
    for q in range(1, terms + 1):
        n_q = interior_integer_count(c, d, q)
        if n_q:
            partial += n_q * w**q
    n = terms
    # sum_{q>n} q w^q = w^{n+1}((n+1) - n w)/(1-w)^2
    qs = w ** (n + 1) * ((n + 1) - n * w) / (1 - w) ** 2
    tail = (d - c) * qs + _geom_tail(w, n + 1)
    return partial, partial + tail


def _certified_sign(f: Callable[[int], tuple[Fraction, Fraction]]) -> int:
    """Sign of a function given by shrinking enclosures f(terms) -> [lo, hi]."""
    terms = 32
    while terms <= _STALL_TERMS:
        lo, hi = f(terms)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        terms *= 2
    raise TruncationStall("series enclosure cannot separate from zero")


def _normalize(c: Fraction, d: Fraction) -> tuple[Fraction, Fraction]:
    c, d = Fraction(c), Fraction(d)
    if not c < d:
        raise ValueError("beta needs c < d")
    k = floor_frac(c)
    c, d = c - k, d - k
    if d > 1:
        raise ValueError("beta implemented for intervals with d - floor(c) <= 1")
    return c, d


def _root_of(c: Fraction, d: Fraction, tol: Fraction, encl) -> CertifiedRoot:
    def sign_at(z: Fraction) -> int:
        return _certified_sign(lambda t: encl(c, d, z, t))

    hi = Fraction(4)
    while sign_at(hi) <= 0:
        hi *= 2
    lo = None
    probe = 1 + (hi - 1) / 2
    for _ in range(200):
        try:
            if sign_at(probe) < 0:
                lo = probe
                break
        except TruncationStall:
            pass  # too close to 1: series too slow there, step back up
        probe = 1 + (probe - 1) / 2
    if lo is None:
        raise TruncationStall("no certified negative point above 1")
    return bisect_root(sign_at, lo, hi, tol)


@dataclass(frozen=True)
class BetaResult:
    beta: CertifiedRoot
    beta_counts: CertifiedRoot
    method_agreement: bool
    tol: Fraction

    def to_json(self) -> dict:
        return {
            "beta": self.beta.to_json(),
            "beta_counts": self.beta_counts.to_json(),
            "method_agreement": self.method_agreement,
            "tol": rat_str(self.tol),
        }


def beta(c: Fraction, d: Fraction, tol: Fraction = Fraction(1, 10**9)) -> BetaResult:
    """Certified bracket of beta_{c,d} > 1, by two independent computations.

    Primary: largest (indeed unique) root of Q_{c,d}(z) = 0 via the T-series.
    Cross-check: the unique solution of the integer-pair count series
    R(z) = 1/2.  Both series are monotone in z past 1, so bisection with
    certified enclosures is sound; agreement within 3*tol is reported.
    """
    c, d = _normalize(c, d)
    tol = Fraction(tol)
    root_q = _root_of(c, d, tol, q_series_enclosure)

    def r_shifted(cc, dd, z, t):
        lo, hi = r_series_enclosure(cc, dd, z, t)
        # R decreasing: sign convention positive past the root
        return Fraction(1, 2) - hi, Fraction(1, 2) - lo

    root_r = _root_of(c, d, tol, r_shifted)
    agreement = abs(root_q.midpoint() - root_r.midpoint()) <= 3 * tol
    return BetaResult(beta=root_q, beta_counts=root_r, method_agreement=agreement, tol=tol)


# ---------------------------------------------------------------------------
# The explicit minimum-entropy model
# ---------------------------------------------------------------------------


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


def _offset_series(c: Fraction, z: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """[lo, hi] of sum_{n>=1} floor(nc) z^-(n+1); coefficients below nc."""
    w = 1 / z
    partial = Fraction(0)
    for n in range(1, terms + 1):
        k = floor_frac(n * c)
        if k:
            partial += k * w ** (n + 1)
    n = terms
    qs = w ** (n + 1) * ((n + 1) - n * w) / (1 - w) ** 2  # sum_{q>n} q w^q
    return partial, partial + c * qs * w


def min_entropy_model(c: Fraction, d: Fraction, tol: Fraction = Fraction(1, 10**9)) -> MinEntropyModel:
    c0, d0 = _normalize(c, d)
    res = beta(c0, d0, tol)
    blo, bhi = res.beta.lower, res.beta.upper
    terms = 64
    while True:
        s_lo, _ = _offset_series(c0, bhi, terms)
        _, s_hi = _offset_series(c0, blo, terms)
        off_lo = (blo - 1) ** 2 * s_lo
        off_hi = (bhi - 1) ** 2 * s_hi
        if off_hi - off_lo <= 8 * tol or terms > _STALL_TERMS:
            break
        terms *= 2
    if off_hi - off_lo > 8 * tol:
        raise TruncationStall("offset series did not certify")

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


def envelope_rotation_bounds(G: Lifting, steps: int) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Certified enclosures of rho(G_l) and rho(G_u) by orbit displacement:
    |G^n(x) - x - n*rho| <= 1 for monotone maps gives width-2/n brackets."""
    from .lifting import lower_map, upper_map

    out = []
    for H in (lower_map(G), upper_map(G)):
        x0 = H.breakpoints[0]
        disp = H.iterate(x0, steps) - x0
        out.append(((disp - 1) / steps, (disp + 1) / steps))
    return out[0], out[1]
