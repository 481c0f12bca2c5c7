"""Minimum entropy over liftings with a prescribed rotation interval.

beta(c,d) is the unique z > 1 where the rotation-forced expansion balances:
largest root of

    Q_{c,d}(z) = z + 1 + 2( z/(z-1) - T_{1-c}(z) - T_d(z) ),
    T_a(z) = sum_{n>=0} z^(-floor(n/a)),   T_0 == 0,

cross-checked against the unique solution of R(z) = 1/2 where R counts, for
each q, every integer k with qc < k < qd (one term z^-q per pair (k, q); the
pair count is what the series identity Q = (z-1)(1 - 2R) matches, and it
refines the plain M(c,d) membership predicate).

For rational c, d both series are rational functions: with a = p/s in
lowest terms, floor((n+p)/a) = floor(n/a) + s and floor((q+s)a) = floor(qa) + p.
Clearing denominators positive on z > 1 turns Q and 1 - 2R into two integer
balance polynomials, each built from its own series.  The first is exactly
z - 1 times the second, and the one certified root kernel
`arith.largest_root_above` brackets their largest root above 1 once, in exact
arithmetic with nothing truncated.  The enclosures
`q_series_enclosure` and `r_series_enclosure` (partial sum plus geometric
tail) stay as the independent truncated-series reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import CertifiedRoot, IntPolynomial, floor_frac, largest_root_above, rat_str
from .lifting import Lifting, lower_map, upper_map
from .periods import interior_integer_count


def _geom_tail(w: Fraction, first_exp: int) -> Fraction:
    """sum_{j >= first_exp} w^j for 0 < w < 1."""
    return w**first_exp / (1 - w)


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


def _normalize(c: Fraction, d: Fraction) -> tuple[Fraction, Fraction]:
    c, d = Fraction(c), Fraction(d)
    if not c < d:
        raise ValueError("beta needs c < d")
    k = floor_frac(c)
    c, d = c - k, d - k
    if d > 1:
        raise ValueError("beta implemented for intervals with d - floor(c) <= 1")
    return c, d


_Z_MINUS_1 = IntPolynomial.x_minus(1)


def _cycles(c: Fraction, d: Fraction) -> list[IntPolynomial]:
    """z^s1 - 1 and z^s2 - 1 for s1 = den c, s2 = den d."""
    return [IntPolynomial.monomial(1, x.denominator) - IntPolynomial([1]) for x in (c, d)]


def _t_numerator(alpha: Fraction) -> IntPolynomial:
    """N with T_alpha(z) = N(z) / (z^s - 1) for alpha = p/s in (0, 1]:
    N = sum_{n<p} z^(s - floor(ns/p))."""
    p, s = alpha.numerator, alpha.denominator
    coeffs = [0] * (s + 1)
    for n in range(p):
        coeffs[s - n * s // p] += 1
    return IntPolynomial(coeffs)


def _floor_numerator(x: Fraction) -> IntPolynomial:
    """M with S_x(z) = sum_{q>=1} floor(qx) z^-q = M(z) / ((z-1)(z^s - 1))
    for x = p/s: M = (z-1) sum_{r=1..s} floor(rx) z^(s-r) + p."""
    p, s = x.numerator, x.denominator
    return _Z_MINUS_1 * IntPolynomial([r * p // s for r in range(s, 0, -1)]) + IntPolynomial([p])


def q_balance(c: Fraction, d: Fraction) -> tuple[IntPolynomial, IntPolynomial]:
    """(P, D) with Q_{c,d} = P / D, where D = (z-1)(z^s1 - 1)(z^s2 - 1),
    s1 = den c, s2 = den d, is positive on z > 1; c, d as for `beta`."""
    c, d = _normalize(c, d)
    c1, c2 = _cycles(c, d)
    twice_t = 2 * _Z_MINUS_1 * (_t_numerator(1 - c) * c2 + _t_numerator(d) * c1)
    # (z + 1)(z - 1) + 2z = z^2 + 2z - 1
    return IntPolynomial([-1, 2, 1]) * c1 * c2 - twice_t, _Z_MINUS_1 * c1 * c2


def r_balance(c: Fraction, d: Fraction) -> tuple[IntPolynomial, IntPolynomial]:
    """(P, D) with 1 - 2R = P / D, D as in `q_balance`.  The count
    #{k : qc < k < qd} is ceil(qd) - 1 - floor(qc), so R = -S_{-d} - 1/(z-1) - S_c."""
    c, d = _normalize(c, d)
    c1, c2 = _cycles(c, d)
    twice_s = 2 * (_floor_numerator(-d) * c1 + _floor_numerator(c) * c2)
    return IntPolynomial([1, 1]) * c1 * c2 + twice_s, _Z_MINUS_1 * c1 * c2


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
    """Certified bracket of beta_{c,d} > 1: the largest (indeed unique) root
    above 1 of Q_{c,d}'s balance polynomial.  Cross-check: the balance
    polynomial of 1 - 2R, built from the integer-pair counts alone, times z - 1
    must equal it exactly (the series identity); `method_agreement` reports
    that.  The kernel deflates z = 1 first, so R's bracket is the same one; it
    is isolated separately only if the identity fails."""
    tol = Fraction(tol)
    pq, pr = q_balance(c, d)[0], r_balance(c, d)[0]
    root_q = largest_root_above(pq, Fraction(1), tol)
    agreement = pq == _Z_MINUS_1 * pr
    root_r = root_q if agreement else largest_root_above(pr, Fraction(1), tol)
    return BetaResult(beta=root_q, beta_counts=root_r, method_agreement=agreement, tol=tol)


def envelope_rotation_bounds(G: Lifting, steps: int) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Certified enclosures of rho(G_l) and rho(G_u) by orbit displacement:
    |G^n(x) - x - n*rho| <= 1 for monotone maps gives width-2/n brackets."""
    out = []
    for H in (lower_map(G), upper_map(G)):
        x0 = H.breakpoints[0]
        disp = H.iterate(x0, steps) - x0
        out.append(((disp - 1) / steps, (disp + 1) / steps))
    return out[0], out[1]
