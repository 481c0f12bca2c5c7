"""Exact scalar arithmetic: rationals, the Sharkovskii ordering, integer
polynomials and certified real root isolation.  Root brackets are certified
by exact integer signs alone; the fixed-point arithmetic of `_newton_guess`
only chooses which cell they check.

`largest_root_above` isolates its root by counting sign variations.  A
polynomial with one sign variation, negative at a floor >= 0, has exactly one
root above the floor (Descartes' rule of signs), and by Budan's theorem the
Descartes count on any piece above the floor is then exactly one, so no
Taylor shift is needed.  The family polynomials of the desk scans and the
`beta` balance polynomials are of this kind.  Any other polynomial is counted
piece by piece on Taylor-shifted coefficients (Vincent-Collins-Akritas).

Rationals are `fractions.Fraction` throughout the package (always reduced,
positive denominator). They serialize as "p/q" strings.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
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
# Sharkovskii ordering on N ∪ {2^∞}
# ---------------------------------------------------------------------------

TWO_INFINITY = "2^inf"


@dataclass(frozen=True)
class ShoNumber:
    """An element of N ∪ {2^∞}.

    `value` is a positive integer, or the string "2^inf" for the symbol 2^∞
    that sits above all powers of two and below everything with odd part >= 3.
    """

    value: object

    def __post_init__(self):
        if self.value != TWO_INFINITY:
            if not isinstance(self.value, int) or self.value < 1:
                raise ValueError(f"ShoNumber needs a positive integer or 2^inf, got {self.value!r}")

    @property
    def is_two_infinity(self) -> bool:
        return self.value == TWO_INFINITY

    def __repr__(self):
        return f"ShoNumber({self.value})"


def _split_pow2(n: int) -> tuple[int, int]:
    """n = 2^a * m with m odd; returns (a, m)."""
    a = 0
    while n % 2 == 0:
        n //= 2
        a += 1
    return a, n


def _sho_key(s: ShoNumber) -> tuple:
    # Comparable key, *smaller key = greater in the Sharkovskii order*.
    # Bucket 0: numbers with odd part >= 3, ordered by (doubling level, odd part).
    # Bucket 1: 2^∞. Bucket 2: powers of two, descending exponent.
    if s.is_two_infinity:
        return (1,)
    a, m = _split_pow2(s.value)
    if m >= 3:
        return (0, a, m)
    return (2, -a)


def sharkovskii_geq(a: ShoNumber | int, b: ShoNumber | int) -> bool:
    """True iff a >= b in the Sharkovskii ordering 3 > 5 > ... > 2^∞ > ... > 2 > 1."""
    if isinstance(a, int):
        a = ShoNumber(a)
    if isinstance(b, int):
        b = ShoNumber(b)
    return _sho_key(a) <= _sho_key(b)


def sharkovskii_tail(s: ShoNumber | int):
    """The set {k in N : k <=_Sh s} as a PeriodSet.

    For s = 2^a (finite power of two) the tail is the finite set
    {1, 2, ..., 2^a}.  For s = 2^∞ it is all powers of two.  For
    s = 2^a * m with m >= 3 odd it is
        {2^a * m' : m' odd >= m} ∪ {k : v2(k) > a, odd(k) >= 3} ∪ {2^b : b >= 0},
    encoded through the pattern components of PeriodSet.
    """
    from .periods import PeriodSet  # local import: periods builds on arith

    if isinstance(s, int):
        s = ShoNumber(s)
    if s.is_two_infinity:
        return PeriodSet(patterns=(("pow2",),))
    a, m = _split_pow2(s.value)
    if m == 1:
        return PeriodSet(finite=frozenset(2**j for j in range(a + 1)))
    return PeriodSet(
        patterns=(
            ("level_odds", a, m),
            ("deeper_odds", a),
            ("pow2",),
        )
    )


# ---------------------------------------------------------------------------
# Integer polynomials
# ---------------------------------------------------------------------------


class IntPolynomial:
    """Dense integer-coefficient polynomial, constant term first.

    Immutable; the coefficient list is normalized so the leading coefficient
    is nonzero (the zero polynomial is the empty tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = list(map(operator.index, coeffs))  # TypeError on a non-integer
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("IntPolynomial is immutable")

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

    @staticmethod
    def zero() -> "IntPolynomial":
        return IntPolynomial(())

    @staticmethod
    def monomial(coeff: int, power: int) -> "IntPolynomial":
        return IntPolynomial([0] * power + [coeff])

    @staticmethod
    def x_minus(c: int) -> "IntPolynomial":
        return IntPolynomial([-c, 1])

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
            return IntPolynomial.zero()
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

    def sign_at(self, x: Fraction) -> int:
        """Sign of p(x) for x = a/b in lowest terms, from the integer
        b^d p(a/b) = sum c_i a^i b^(d-i) (b > 0, so the signs agree)."""
        a, b = x.numerator, x.denominator
        acc, scale = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * a + c * scale
            scale *= b
        return _sign(acc)

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
            return IntPolynomial.zero(), IntPolynomial(rem)
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
        m = max(abs(c) for c in self.coeffs[:-1])
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

    def overlaps(self, other: "CertifiedRoot", slack: Fraction = Fraction(0)) -> bool:
        return self.lower <= other.upper + slack and other.lower <= self.upper + slack

    def to_json(self) -> dict:
        return {"lower": rat_str(self.lower), "upper": rat_str(self.upper)}


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def bisect_root(sign_at: Callable[[Fraction], int], lo: Fraction, hi: Fraction, tol: Fraction) -> CertifiedRoot:
    """Bisection with certified signs; sign_at(lo) <= 0 < sign_at(hi).

    The bracket keeps that invariant, so it always holds a sign change (or a
    root at its lower end) and its upper end stays strictly on the positive
    side.  It is `land_root`'s fallback, and the reference whose bracket
    `land_root` must return."""
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if sign_at(mid) > 0:
            hi = mid
        else:
            lo = mid
    return CertifiedRoot(lo, hi)


def _newton_guess(p: IntPolynomial, lo: Fraction, hi: Fraction, k: int) -> Fraction:
    """A guess at the root of p in (lo, hi), p(lo) <= 0 < p(hi), meant to fall
    well within (hi - lo) / 2^k of it; it only picks the cell `land_root` checks.

    Fixed point X / 2^P, truncating Horner for p and p'.  Bisection on
    fixed-point signs until width * degree <= right end / 2; then Newton steps
    from the right end (monotone for the largest root of a Perron polynomial),
    or the midpoint when a step leaves the bracket, until a step is under a
    quarter cell or P steps are spent."""
    width = hi - lo
    P = k + width.denominator.bit_length() + lo.denominator.bit_length() + 24
    cs = [c << P for c in reversed(p.coeffs)]

    def at(x: int) -> tuple[int, int]:
        v = dv = 0
        for c in cs:
            v, dv = (v * x >> P) + c, (dv * x >> P) + v
        return v, dv

    a, b = (lo.numerator << P) // lo.denominator, (hi.numerator << P) // hi.denominator
    cell = (width.numerator << P) // (width.denominator << k)
    while b - a > cell and (b - a) * p.degree > abs(b) >> 1:
        mid = (a + b) >> 1
        a, b = (a, mid) if at(mid)[0] > 0 else (mid, b)
    x = b
    for _ in range(P):
        v, dv = at(x)
        a, b = (a, x) if v > 0 else (x, b)
        step = (v << P) // dv if dv else 0
        nx = x - step if a <= x - step <= b else (a + b) >> 1
        if abs(nx - x) <= cell >> 2:
            break
        x = nx
    return Fraction(nx, 1 << P)


def land_root(p: IntPolynomial, lo: Fraction, hi: Fraction, tol: Fraction) -> CertifiedRoot:
    """The bracket `bisect_root(p.sign_at, lo, hi, tol)` returns, for a piece
    (lo, hi) holding one simple root of p with p(lo) <= 0 < p(hi).

    Bisection halves k times, k the least with (hi - lo) / 2^k <= tol, and ends
    in the one depth-k cell [c_j, c_j+1] with p(c_j) <= 0 < p(c_j+1).  A guess
    picks j; two exact integer signs certify that cell, or else a neighbour,
    and any other miss bisects."""
    k = (ceil_frac((hi - lo) / tol) - 1).bit_length()
    w = (hi - lo) / (1 << k)
    # with j in [0, 2^k) the cells -1 and 2^k never pass: p(lo) <= 0 < p(hi)
    j = min(max(floor_frac((_newton_guess(p, lo, hi, k) - lo) / w), 0), (1 << k) - 1)
    for i in (j, j - 1, j + 1):
        if p.sign_at(lo + i * w) <= 0 < p.sign_at(lo + (i + 1) * w):
            return CertifiedRoot(lo + i * w, lo + (i + 1) * w)
    return bisect_root(p.sign_at, lo, hi, tol)


def _shifted(c: list[int], a: int = 1) -> list[int]:
    """Coefficients of q(x + a) from those of q(x), constant term first.

    Each pass of synthetic division by (x - a) leaves the next coefficient;
    for a = 1 a pass is a plain running sum."""
    step = None if a == 1 else (lambda s, x: s * a + x)
    rest, out = c[::-1], []
    while rest:
        rest = list(accumulate(rest, step))
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


def largest_root_above(p: IntPolynomial, floor: Fraction, tol: Fraction) -> CertifiedRoot:
    """Certified bracket of width <= tol around the largest real root > floor.

    Roots exactly at `floor` are deflated first and p is oriented so that it
    is positive above its largest root.  When floor >= 0, p(floor) < 0 and the
    coefficients of p have exactly one sign variation, `land_root` brackets
    the root in (floor, Cauchy bound) at once.  By Descartes' rule of signs p
    has exactly one positive root; it is simple and lies above the floor.
    The subdivision below would count exactly one root on that first piece
    too.  Its count there is V(g(x + 1)) with g(y) = y^d r(w/y),
    r(x) = p(x + floor) and w the piece's width, and a Taylor shift by a
    nonnegative amount never adds sign variations (Budan's theorem), so
    V(g(x + 1)) <= V(g) = V(r) <= V(p) = 1; having the parity of the one
    root, it is 1.

    Otherwise the open interval (floor, Cauchy bound) is subdivided from the
    right, and the roots of p in each piece are counted exactly with
    Descartes' rule on the Moebius transform of p to (0, 1), built by integer
    Taylor shifts (Vincent-Collins-Akritas).  Pieces with no root are
    dropped; the first one with exactly one root holds the largest root, and
    `land_root` narrows it to the bracket that bisection with exact integer
    signs ends in.  So the result certifies both a sign change in the bracket
    and no root above it; a largest root that a cut hits exactly comes back
    as the exact bracket [r, r].  NoRootAbove when the count finds no root
    above the floor; BudgetExceeded when the largest root still cannot be
    told apart from another root (or a complex pair) at width tol, as for a
    repeated root.
    """
    floor = Fraction(floor)
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if p.is_zero() or p.degree == 0:
        raise NoRootAbove("constant polynomial")

    s = p.sign_at(floor)
    while s == 0:
        p, _ = p.divmod_exact(IntPolynomial([-floor.numerator, floor.denominator]))
        if p.degree == 0:
            raise NoRootAbove("all roots at the floor")
        s = p.sign_at(floor)

    bound = p.cauchy_root_bound()
    if bound <= floor:
        raise NoRootAbove("Cauchy bound at or below floor")
    if p.leading() < 0:
        p, s = -p, -s  # positive above its largest root, as land_root expects
    if floor >= 0 and s < 0 and _sign_variations(p.coeffs) == 1:
        return land_root(p, floor, bound, tol)

    # q(t) = gamma^d p((alpha + beta t) / gamma) maps (floor, bound) to (0, 1)
    d = p.degree
    width = bound - floor
    alpha = floor.numerator * width.denominator
    beta = floor.denominator * width.numerator
    gamma = floor.denominator * width.denominator
    q = _shifted([c * gamma ** (d - i) for i, c in enumerate(p.coeffs)], alpha)
    q = [c * beta**i for i, c in enumerate(q)]

    # depth-first from the right; (q, lo, hi) with lo == hi is a root at a cut
    pending = [(q, floor, bound)]
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
    raise NoRootAbove("no root above floor")


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


def char_poly(matrix) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - M) of a square integer matrix,
    by `bareiss_det` over Z[x]."""
    if not matrix:
        return IntPolynomial([1])
    return bareiss_det([[IntPolynomial([-a, i == j]) for j, a in enumerate(row)] for i, row in enumerate(matrix)])
