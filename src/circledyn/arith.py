"""Exact scalar arithmetic: rationals, the Sharkovskii ordering, integer
polynomials and certified real root isolation.

The root kernel answers the one question the engine asks of a polynomial:
its largest real root above 1 (`largest_root_above`), the Perron root of a
rome polynomial or `beta`'s balance root.  Brackets are certified by exact
integer signs alone; the fixed-point arithmetic of `_newton_guess` only
chooses which cell they check.  Both run one list of Horner steps over the
nonzero coefficients (`IntPolynomial.horner_steps`), on (x - 1) p when its
steps cost less (dream's Perron polynomial: 6,403 terms at n = 3201, then 6),
so they pay for terms, not degree: the guess truncates its powers from an
exponent of 16 on (`_truncated_power`), and at a dyadic point the sign's
scale b^(d-i) is a shift.

Rationals are `fractions.Fraction` throughout the package (always reduced,
positive denominator). They serialize as "p/q" strings.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, repeat
from typing import Callable, Iterable

from .errors import BudgetExceeded, NoRootAbove


def rat_str(q: Fraction) -> str:
    """Serialize a rational as "p/q" (integers stay "p/1" free: "p")."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def floor_frac(q: Fraction) -> int:
    return q.numerator // q.denominator


def ceil_frac(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


# ---------------------------------------------------------------------------
# Sharkovskii ordering on N
# ---------------------------------------------------------------------------


def _split_pow2(n: int) -> tuple[int, int]:
    """n = 2^a * m with m odd; returns (a, m)."""
    a = 0
    while n % 2 == 0:
        n //= 2
        a += 1
    return a, n


def _sho_key(n: int) -> tuple:
    # Comparable key, *smaller key = greater in the Sharkovskii order*.
    # Bucket 0: numbers with odd part >= 3, ordered by (doubling level, odd part).
    # Bucket 1: powers of two, descending exponent.
    a, m = _split_pow2(n)
    if m >= 3:
        return (0, a, m)
    return (1, -a)


def sharkovskii_geq(a: int, b: int) -> bool:
    """True iff a >= b in the Sharkovskii ordering 3 > 5 > ... > 6 > 10 > ... > 4 > 2 > 1."""
    return _sho_key(a) <= _sho_key(b)


# ---------------------------------------------------------------------------
# Integer polynomials
# ---------------------------------------------------------------------------


class IntPolynomial:
    """Dense integer-coefficient polynomial, constant term first.

    Immutable; the coefficient list is normalized so the leading coefficient
    is nonzero (the zero polynomial is the empty tuple).  `_steps` holds the
    `horner_steps` once they are built.
    """

    __slots__ = ("coeffs", "_steps")

    def __init__(self, coeffs: Iterable[int]):
        cs = list(map(operator.index, coeffs))  # TypeError on a non-integer
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("IntPolynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the coefficients, not through __setattr__
        return IntPolynomial, (self.coeffs,)

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def leading(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "IntPolynomial(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c:+d}")
            elif i == 1:
                terms.append(f"{c:+d}*x")
            else:
                terms.append(f"{c:+d}*x^{i}")
        return "IntPolynomial(" + " ".join(terms) + ")"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = list(self.coeffs)
        out.extend([0] * (len(other.coeffs) - len(out)))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPolynomial(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def eval(self, x):
        """Exact Horner evaluation; accepts int or Fraction."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def horner_steps(self) -> tuple[tuple[int, int], ...]:
        """Horner's steps over the nonzero coefficients, from the top:
        (0, leading), then (g, c) for each lower nonzero coefficient c, g its
        exponent gap from the one before, and (e, 0) last when the lowest
        nonzero exponent e is above 0.  acc = acc * x^g + c over the steps,
        from acc = 0, is p(x).  Built on the first call and kept."""
        try:
            return self._steps
        except AttributeError:
            pass
        es = list(compress(range(self.degree, -1, -1), reversed(self.coeffs)))
        steps = [(a - e, self.coeffs[e]) for a, e in zip([self.degree, *es], es)]
        if es and es[-1]:
            steps.append((es[-1], 0))
        object.__setattr__(self, "_steps", tuple(steps))
        return self._steps

    def sign_at(self, x: Fraction) -> int:
        """Sign of p(x) for x = a/b in lowest terms, from the integer
        b^d p(a/b) = sum c_i a^i b^(d-i) (b > 0, so the signs agree).  With
        b = 2^s m, m odd, b^(d-i) is an odd scale m^(d-i) and a shift by
        s (d-i): a step of gap g multiplies by a^g, the scale by m^g and
        adds s g to the shift.  At a dyadic point m = 1, and the steps only
        shift."""
        a, b = x.numerator, x.denominator
        s = (b & -b).bit_length() - 1
        m = b >> s
        acc, scale, shift = 0, 1, 0
        for g, c in self.horner_steps():
            scale *= m**g
            shift += s * g
            acc = acc * a**g + (c * scale << shift)
        return (acc > 0) - (acc < 0)

    def divmod_exact(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Euclidean division over the integers, (quotient, remainder).

        Each step divides a coefficient by the divisor's leading coefficient
        and raises ValueError when that is not exact.  It always is when the
        divisor's leading coefficient is +-1, and when self is a multiple
        q * divisor with q in Z[x] (the remainder is then zero): the steps
        peel off q's coefficients from the top.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dlead = divisor.leading()
        dd = divisor.degree
        if len(rem) - 1 < dd:
            return IntPolynomial(()), IntPolynomial(rem)
        terms = [(j, dc) for j, dc in enumerate(divisor.coeffs) if dc]
        q = [0] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f, r = divmod(c, dlead)
            if r:
                raise ValueError("non-exact division over Z")
            q[i - dd] = f
            for j, dc in terms:
                rem[i - dd + j] -= f * dc
        return IntPolynomial(q), IntPolynomial(rem[:dd])  # rem[dd:] is now all zero

    def __floordiv__(self, divisor) -> "IntPolynomial":
        """Exact quotient by a polynomial or an integer; ValueError when the
        division leaves a remainder."""
        if isinstance(divisor, int):
            if divisor == 1:
                return self
            divisor = IntPolynomial([divisor])
        q, r = self.divmod_exact(divisor)
        if r:
            raise ValueError("non-exact division over Z")
        return q

    def cauchy_root_bound(self) -> Fraction:
        """1 + max|c_i| / |lead|: every real root lies in (-B, B)."""
        if self.is_zero():
            raise ValueError("zero polynomial")
        lead = abs(self.leading())
        if self.degree == 0:
            return Fraction(1)
        m = max(map(abs, self.coeffs[:-1]))
        return 1 + Fraction(m, lead)


# ---------------------------------------------------------------------------
# Certified root isolation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifiedRoot:
    """A bracket [lower, upper] with a sign change of the tracked function."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("empty bracket")

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2

    def log_float(self) -> float:
        """float(log(midpoint)); presentation only, never used in proofs."""
        return math.log(float(self.midpoint()))

    def to_json(self) -> dict:
        return {"lower": rat_str(self.lower), "upper": rat_str(self.upper)}


def bisect_root(sign_at: Callable[[Fraction], int], lo: Fraction, hi: Fraction, tol: Fraction) -> CertifiedRoot:
    """Bisection with certified signs; sign_at(lo) <= 0 < sign_at(hi).

    The bracket keeps that invariant, so it always holds a sign change (or a
    root at its lower end) and its upper end stays strictly on the positive
    side.  It is `land_root`'s fallback, and the reference whose bracket
    `land_root` must return."""
    while hi - lo > tol:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if sign_at(mid) > 0 else (mid, hi)
    return CertifiedRoot(lo, hi)


# The least exponent the guess builds by `_truncated_power`: below it the
# exact power, truncated once, costs less (measured at 60 to 130 bits).
_TRUNCATED_POWERS_FROM = 16


def _truncated_power(x: int, e: int, P: int) -> int:
    """x^e, e >= 1, for the fixed-point x / 2^P, in the same fixed point:
    square-and-multiply truncating every product, so the work grows with
    the bits of e, not with e, and the result is at most the exact one."""
    r = x
    for bit in bin(e)[3:]:
        r = r * r >> P
        if bit == "1":
            r = r * x >> P
    return r


def _newton_guess(p: IntPolynomial, lo: Fraction, hi: Fraction, k: int) -> Fraction:
    """A guess at the root of p in (lo, hi), p(lo) <= 0 < p(hi), meant to fall
    well within (hi - lo) / 2^k of it; it only picks the cell `land_root` checks.

    Fixed point X / 2^P, truncating Horner for p and p' over `horner_steps`:
    a step of gap g multiplies by a fixed-point x^g, built with x^(g-1) once
    per g and evaluation (by `_truncated_power` from an exponent of
    `_TRUNCATED_POWERS_FROM` on).  Bisection on fixed-point signs until
    width * degree <= right end / 2; then Newton steps from the right end
    (monotone for the largest root of a Perron polynomial), or the midpoint
    when a step leaves the bracket, until a step is under a quarter cell or
    P steps are spent."""
    width = hi - lo
    P = k + width.denominator.bit_length() + lo.denominator.bit_length() + 24
    (_, top), *steps = [(g, c << P) for g, c in p.horner_steps()]
    gaps = {g for g, _ in steps}

    def at(x: int, slope: bool) -> tuple[int, int]:
        below = {  # x^(g-1)
            g: pow(x, g - 1) << P >> P * (g - 1) if g <= _TRUNCATED_POWERS_FROM else _truncated_power(x, g - 1, P)
            for g in gaps
        }
        powers = {g: (u * x >> P, g * u) for g, u in below.items()}  # x^g, g x^(g-1)
        v, dv = top, 0
        for g, c in steps:
            xg, gxg1 = powers[g]
            v, dv = (v * xg >> P) + c, slope and (dv * xg + v * gxg1) >> P
        return v, dv

    a, b = (lo.numerator << P) // lo.denominator, (hi.numerator << P) // hi.denominator
    cell = (width.numerator << P) // (width.denominator << k)
    while b - a > cell and (b - a) * p.degree > abs(b) >> 1:
        mid = (a + b) >> 1
        a, b = (a, mid) if at(mid, False)[0] > 0 else (mid, b)
    x = b
    for _ in range(P):
        v, dv = at(x, True)
        a, b = (a, x) if v > 0 else (x, b)
        step = (v << P) // dv if dv else 0
        nx = x - step if a <= x - step <= b else (a + b) >> 1
        if abs(nx - x) <= cell >> 2:
            break
        x = nx
    return Fraction(nx, 1 << P)


def _horner_cost(p: IntPolynomial) -> int:
    """Work of one Horner pass over `horner_steps`: a step per nonzero term,
    and a power per distinct gap above 1."""
    steps = p.horner_steps()
    return len(steps) + len({g for g, _ in steps if g > 1})


def land_root(p: IntPolynomial, lo: Fraction, hi: Fraction, tol: Fraction) -> CertifiedRoot:
    """The bracket `bisect_root(p.sign_at, lo, hi, tol)` returns, for a piece
    (lo, hi) holding one simple root of p with p(lo) <= 0 < p(hi).

    Bisection halves k times, k the least with (hi - lo) / 2^k <= tol, and ends
    in the one depth-k cell [c_j, c_j+1] with p(c_j) <= 0 < p(c_j+1).  A guess
    picks j; two exact integer signs certify that cell, or else a neighbour
    inside the piece (outside it no cell passes, as p(lo) <= 0 < p(hi)), and
    any other miss bisects.

    When lo >= 1 the signs are taken on (x - 1) p if its Horner steps cost
    less than p's (ties stay on p): it has p's sign above 1, and at lo = 1
    its zero gives p(lo)'s verdict, <= 0.  Every point checked lies in
    [lo, hi] (below lo, (x - 1) p need not share p's sign), so no verdict
    changes."""
    if lo >= 1:
        cs = p.coeffs
        p = min(p, IntPolynomial(map(operator.sub, (0, *cs), (*cs, 0))), key=_horner_cost)
    width = hi - lo
    k = (ceil_frac(width / tol) - 1).bit_length()
    den = lo.denominator * width.denominator << k  # c_i = (base + i step) / den
    base, step = lo.numerator * width.denominator << k, width.numerator * lo.denominator
    g = _newton_guess(p, lo, hi, k)
    j = min(max((g.numerator * den - base * g.denominator) // (step * g.denominator), 0), (1 << k) - 1)
    for i in (j, j - 1, j + 1):
        if 0 <= i < 1 << k:
            left, right = Fraction(base + i * step, den), Fraction(base + (i + 1) * step, den)
            if p.sign_at(left) <= 0 < p.sign_at(right):
                return CertifiedRoot(left, right)
    return bisect_root(p.sign_at, lo, hi, tol)


def _shifted(c: list[int]) -> list[int]:
    """Coefficients of q(x + 1) from those of q(x), constant term first.

    Each pass of synthetic division by (x - 1), a running sum from the top,
    leaves the next coefficient."""
    rest, out = c[::-1], []
    while rest:
        rest = list(accumulate(rest))
        out.append(rest.pop())
    return out


def _sign_variations(cs: Iterable[int]) -> int:
    """Sign changes in a coefficient sequence, zeros skipped: by Descartes'
    rule of signs a bound on the number of positive roots with the same
    parity, so 0 and 1 are exact counts."""
    signs = [c > 0 for c in cs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _descartes_bound(q: list[int]) -> int:
    """Sign variations of (1+x)^d q(1/(1+x)), whose positive roots are the
    roots of q in (0, 1)."""
    return _sign_variations(_shifted(q[::-1]))


def largest_root_above(p: IntPolynomial, tol: Fraction) -> CertifiedRoot:
    """Certified bracket of width <= tol around the largest real root > 1.

    Roots at 1 are deflated first (p(1) is the sum of the coefficients, and
    the quotient by x - 1 their running sum from the top), and p is oriented
    to be positive above its largest root.  When p(1) < 0 and p has exactly
    one sign variation, `land_root` brackets the root in (1, Cauchy bound) at
    once: by Descartes' rule of signs p has exactly one positive root, simple
    and above 1.  The subdivision below would count exactly one root on that
    first piece too: its count there is V(g(x + 1)) with g(y) = y^d r(w/y),
    r(x) = p(x + 1) and w the piece's width, and a Taylor shift by a
    nonnegative amount never adds sign variations (Budan's theorem), so
    V(g(x + 1)) <= V(g) = V(r) <= V(p) = 1; having the parity of the one
    root, it is 1.

    Otherwise (1, Cauchy bound) is subdivided from the right, and the roots
    of p in each piece are counted exactly with Descartes' rule on the
    Moebius transform of p to (0, 1), built by integer Taylor shifts
    (Vincent-Collins-Akritas).  Pieces with no root are dropped; the first
    one with exactly one root holds the largest root, and `land_root` narrows
    it to the bracket that bisection with exact integer signs ends in.  So
    the result certifies both a sign change in the bracket and no root above
    it; a largest root that a cut hits exactly comes back as the exact
    bracket [r, r].  NoRootAbove when the count finds no root above 1;
    BudgetExceeded when the largest root still cannot be told apart from
    another root (or a complex pair) at width tol, as for a repeated root.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    cs = p.coeffs
    while cs and not sum(cs):
        cs = list(accumulate(reversed(cs)))[-2::-1]  # p / (x - 1)
    if not any(cs[:-1]):
        raise NoRootAbove("once its roots at 1 are deflated, p is c x^d")
    if cs is not p.coeffs:
        p = IntPolynomial(cs)
    if p.leading() < 0:
        p = -p  # positive above its largest root, as land_root expects
    one, bound = Fraction(1), p.cauchy_root_bound()
    terms = [c for _, c in p.horner_steps()]  # the nonzero coefficients
    if sum(terms) < 0 and _sign_variations(terms) == 1:
        return land_root(p, one, bound, tol)

    # q(t) = den^d p(1 + t num / den) maps (1, bound) to (0, 1), bound - 1 = num / den
    d, num, den = p.degree, (bound - 1).numerator, (bound - 1).denominator
    q = [c * num**i * den ** (d - i) for i, c in enumerate(_shifted(list(p.coeffs)))]

    # depth-first from the right; (q, lo, hi) with lo == hi is a root at a cut
    pending = [(q, one, bound)]
    while pending:
        q, lo, hi = pending.pop()
        if lo == hi:
            return CertifiedRoot(lo, hi)
        count = _descartes_bound(q)
        if count == 1:
            return land_root(p, lo, hi, tol)
        if count == 0:
            continue
        if hi - lo <= tol:
            raise BudgetExceeded(f"roots closer than tol near {float(hi)}: cannot isolate the largest")
        mid = (lo + hi) / 2
        left = [c << (d - i) for i, c in enumerate(q)]  # 2^d q(t/2)
        right = _shifted(left)  # 2^d q((t+1)/2)
        pending.append((left, lo, mid))
        if right[0] == 0:
            pending.append((None, mid, mid))
        pending.append((right, mid, hi))
    raise NoRootAbove("no root above 1")


# ---------------------------------------------------------------------------
# Determinants over Z and Z[x]
# ---------------------------------------------------------------------------


def bareiss_det(matrix):
    """Exact determinant by fraction-free elimination (Bareiss 1968).

    Entries are all ints or all IntPolynomials.  By Sylvester's identity each
    entry after step k is a (k+1)-minor of the input, so every division by
    the previous pivot is exact in the entries' ring.  A zero pivot is
    swapped with a nonzero one below it; with none the determinant is zero.
    """
    n = len(matrix)
    m = [list(row) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return m[k][k]
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def kronecker_det(matrix, bits: int) -> list[int]:
    """The coefficients of the determinant of a square matrix over Z[y],
    highest power first ([] when it vanishes), from one integer
    `bareiss_det` at y = 2^B, B = `bits`: each entry comes packed as
    sum(c << B*k) over its terms c*y^k.  Every |coefficient| of det must be
    below 2^(B-1), and 8 | B; the caller takes B from a bound H on them (the
    product of the row sums of absolute coefficients: |coefficient| <=
    per(S) <= H).  They are then the balanced base-2^B digits of det(2^B),
    read off the big-endian bytes of det(2^B) + 2^(B-1) (1 + 2^B + ...):
    a digit is its top byte minus 2^7, then its lower bytes in base 2^8,
    byte k of every digit being the slice raw[k::B/8]."""
    if bits % 8:
        raise ValueError("bits must be a multiple of 8")
    size = bits // 8
    v = bareiss_det(matrix)
    digits = v.bit_length() // bits + 1 if v else 0  # degree + 1, as |v| > 2^(B*degree - 1)
    bias = int.from_bytes((1 << (bits - 1)).to_bytes(size, "big") * digits, "big")
    raw = (v + bias).to_bytes(size * digits, "big")
    coeffs = map(operator.sub, raw[0::size], repeat(128))
    for k in range(1, size):
        coeffs = map(operator.add, map(operator.lshift, coeffs, repeat(8)), raw[k::size])
    return list(coeffs)
