"""Piecewise-affine degree-one liftings of circle maps.

A Lifting stores one fundamental domain: strictly increasing breakpoints in
[0,1) and the map's values there; between consecutive breakpoints (and across
the wrap to first_breakpoint + 1) the map is affine, and evaluation anywhere
uses F(x+1) = F(x) + 1.  All data are exact rationals, held as one integer
grid (`Lifting.grid`); evaluation, the envelopes and the dual run on it, and
the Fraction breakpoints and values are views built on first use.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import lt
from typing import Sequence

from .arith import ceil_frac, floor_frac, rat_str
from .errors import Degenerate, DepthExceeded, OrderConflict


def _fractions(xs) -> tuple:
    """The values as Fractions, keeping those that already are."""
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in xs)


def _keys(pts: tuple, D: int) -> list:
    """The points p as integers p*D; D a common denominator."""
    return [p.numerator * (D // p.denominator) for p in pts]


def _check_keys(X, D: int, name: str) -> None:
    """ValueError unless the keys X/D are nonempty and strictly increasing in
    [0,1); out of order, a point outside [0,1) is still reported first."""
    increasing = all(map(lt, X, X[1:]))
    if not X or not (0 <= X[0] and X[-1] < D if increasing else all(0 <= x < D for x in X)):
        raise ValueError(f"{name} must lie in [0,1)")
    if not increasing:
        raise ValueError(f"{name} must be strictly increasing")


@dataclass(frozen=True, init=False)
class Lifting:
    """grid = (D, X, V): D the lcm of the reduced denominators of the
    breakpoints and values, X = breakpoints·D and V = values·D as integers,
    with the wrap X[n] = X[0] + D, V[n] = V[0] + D appended.  The grid is the
    lifting's data (==, hash); `_on_grid` builds a lifting from any grid."""

    grid: tuple

    def __init__(self, breakpoints, values):
        bps, vals = _fractions(breakpoints), _fractions(values)
        D = lcm(*(x.denominator for x in bps + vals))
        object.__setattr__(self, "grid", _on_grid(D, _keys(bps, D), _keys(vals, D)).grid)
        vars(self).update(breakpoints=bps, values=vals)  # the views, at hand

    # the Fraction views of the grid, built on first use
    breakpoints = cached_property(lambda self: tuple(Fraction(x, self.grid[0]) for x in self.grid[1][:-1]))
    values = cached_property(lambda self: tuple(Fraction(v, self.grid[0]) for v in self.grid[2][:-1]))

    # -- geometry -------------------------------------------------------------

    def segments(self):
        """Affine pieces covering one period: (xL, xR, vL, vR), wrap included."""
        b, v = self.breakpoints + (self.breakpoints[0] + 1,), self.values + (self.values[0] + 1,)
        return [(b[i], b[i + 1], v[i], v[i + 1]) for i in range(len(b) - 1)]

    def is_nondecreasing(self) -> bool:
        V = self.grid[2]
        return all(a <= b for a, b in zip(V, V[1:]))  # every xR > xL

    def eval(self, x) -> Fraction:
        """Exact F(x) for any rational x = a/b, via F(x+1) = F(x) + 1: the
        piece is found by bisection on floor(aD/b), the value interpolated
        on integers and made one Fraction at the end."""
        x = x if isinstance(x, Fraction) else Fraction(x)
        D, X, V = self.grid
        a, b = x.numerator, x.denominator
        k = (a * D - X[0] * b) // (D * b)  # x - k lies in [b0, b0 + 1)
        i = bisect_right(X, a * D // b - k * D) - 1
        u = a * D - (X[i] + k * D) * b  # b·D·(x - k - breakpoint i)
        dx = X[i + 1] - X[i]
        return Fraction((V[i] + k * D) * b * dx + (V[i + 1] - V[i]) * u, D * b * dx)

    def iterate(self, x, k: int) -> Fraction:
        x = Fraction(x)
        for _ in range(k):
            x = self.eval(x)
        return x

    def translate(self, k: int) -> "Lifting":
        """F + k, another lifting of the same circle map."""
        D, X, V = self.grid
        return _on_grid(D, X[:-1], [v + k * D for v in V[:-1]])

    def dual(self) -> "Lifting":
        """The lifting G(y) = -F(-y); swaps lower and upper constructions."""
        D, X, V = _reflect(*self.grid)
        return _on_grid(D, X[:-1], V[:-1])

    def to_json(self) -> dict:
        return {
            "breakpoints": [rat_str(b) for b in self.breakpoints],
            "values": [rat_str(v) for v in self.values],
        }

    @staticmethod
    def from_json(d: dict) -> "Lifting":
        return Lifting(*(tuple(map(Fraction, d[key])) for key in ("breakpoints", "values")))


def _on_grid(D: int, X, V) -> Lifting:
    """The lifting with breakpoints X/D and values V/D (no wrap entries), on
    its canonical grid: D over gcd(D, X, V).  ValueError as for `Lifting`."""
    if len(X) != len(V) or not X:
        raise ValueError("need matching nonempty breakpoints/values")
    _check_keys(X, D, "breakpoints")
    g = gcd(D, *X, *V)
    if g > 1:
        D, X, V = D // g, [x // g for x in X], [v // g for v in V]
    F = object.__new__(Lifting)
    object.__setattr__(F, "grid", (D, (*X, X[0] + D), (*V, V[0] + D)))
    return F


@dataclass(frozen=True)
class LiftedOrbit:
    """A twist lifted periodic orbit given on one fundamental domain.

    points: the q orbit points in [0,1), strictly increasing; the labelled
    extension is points[j + q*l] = points[j] + l.  The dynamics is the index
    shift j -> j + shift, so the rotation number is shift/q.
    """

    points: tuple
    shift: int

    def __post_init__(self):
        pts = _fractions(self.points)
        D = lcm(*(p.denominator for p in pts))
        _check_keys(_keys(pts, D), D, "orbit points")
        object.__setattr__(self, "points", pts)

    @property
    def period(self) -> int:
        return len(self.points)

    @property
    def rotation(self) -> Fraction:
        return Fraction(self.shift, self.period)


@dataclass(frozen=True)
class RotationInterval:
    c: Fraction
    d: Fraction

    def __post_init__(self):
        c, d = Fraction(self.c), Fraction(self.d)
        if c > d:
            raise ValueError("rotation interval needs c <= d")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def length(self) -> Fraction:
        return self.d - self.c

    def to_json(self) -> dict:
        return {"c": rat_str(self.c), "d": rat_str(self.d)}


def build_from_orbits(orbits: Sequence[LiftedOrbit]) -> Lifting:
    """The unique degree-one piecewise-affine lifting interpolating the
    prescribed orbit dynamics at the union of the orbit points."""
    D = lcm(*(p.denominator for orbit in orbits for p in orbit.points))
    return orbit_lifting(D, [(_keys(orbit.points, D), orbit.shift) for orbit in orbits])


def orbit_lifting(D: int, orbits) -> Lifting:
    """`build_from_orbits` on integer keys: each orbit is (keys, shift), the
    keys x_j = points[j]*D strictly increasing in [0, D), and the extension
    x_(j + q*l) = x_j + l*D moves by the index shift j -> j + shift: the
    images are keys[r:] + k*D, then keys[:r] + (k+1)*D, for k, r =
    divmod(shift, q).  A key listed twice: OrderConflict or Degenerate at
    the least one, as its first two (key, image) pairs in order differ."""
    pairs = []  # (keys, their images) per orbit
    for keys, shift in orbits:
        k, r = divmod(shift, len(keys))
        pairs.append((keys, [x + k * D for x in keys[r:]] + [x + (k + 1) * D for x in keys[:r]]))
    images = {x: v for keys, vs in pairs for x, v in zip(keys, vs)}
    if len(images) < sum(len(keys) for keys, _ in pairs):
        pts = sorted(p for keys, vs in pairs for p in zip(keys, vs))
        for (x1, v1), (x2, v2) in zip(pts, pts[1:]):
            if x1 == x2:
                p = rat_str(Fraction(x1, D))
                if v1 != v2:
                    raise OrderConflict(f"point {p} prescribed two images")
                raise Degenerate(f"orbit point {p} duplicated")
    X = sorted(images)
    return _on_grid(D, X, list(map(images.__getitem__, X)))


# ---------------------------------------------------------------------------
# Upper and lower maps
# ---------------------------------------------------------------------------


def _reflect(D: int, X, V) -> tuple[int, list, list]:
    """G(y) = -F(-y) on F's grid, wrap entries included: the points
    (D - x, D - v) read right to left.  The first of them, -X[0], lies
    below 0 unless X[0] = 0, and then it moves to the end as the wrap."""
    xs, vs = [D - x for x in reversed(X)], [D - v for v in reversed(V)]
    if xs[0]:
        xs, vs = xs[1:] + [xs[1] + D], vs[1:] + [vs[1] + D]
    return D, xs, vs


def _corners(X, V) -> list:
    """The indices of the breakpoints where the slope changes, slopes
    compared by cross-multiplying (X and V with their wrap entries): every
    index of at most two breakpoints, and the first alone for an affine map."""
    n = len(X) - 1
    dx, dv = [b - a for a, b in zip(X, X[1:])], [b - a for a, b in zip(V, V[1:])]
    return list(range(n)) if n <= 2 else [i for i in range(n) if dv[i - 1] * dx[i] != dv[i] * dx[i - 1]] or [0]


def _lower(D: int, X, V) -> tuple[int, list, list]:
    """F_l on F's grid, simplified, wrap entries included.

    Right-to-left sweep of the running minimum over one period, starting at
    the infimum of F over [b0+1, +inf), which is min(F) + 1.  Every value is
    a grid integer; a plateau end where a rising piece crosses the running
    level may fall between grid points, and then the grid is refined by the
    lcm of those ends' denominators."""
    m = min(V) + D
    xs, vs = [], []  # starts of the envelope's pieces, right to left
    for i in range(len(X) - 2, -1, -1):
        xL, xR, vL, vR = X[i], X[i + 1], V[i], V[i + 1]
        if vL > vR:
            m = min(vR, m)
        elif m >= vR:
            m = vL
        elif m > vL:  # rising piece crosses the running level m
            xs.append(Fraction(xL * (vR - vL) + (m - vL) * (xR - xL), vR - vL))
            vs.append(m)
            m = vL
        xs.append(xL)
        vs.append(m)
    # starts at or past one period move down; the starts are distinct mod 1
    pts = sorted((x - D, v - D) if x >= D else (x, v) for x, v in zip(xs, vs))
    pts.append((pts[0][0] + D, pts[0][1] + D))
    E = lcm(*(x.denominator for x, _ in pts))
    D, X, V = E * D, [x.numerator * (E // x.denominator) for x, _ in pts], [v * E for _, v in pts]
    keep = _corners(X, V)
    return D, [X[i] for i in keep] + [X[keep[0]] + D], [V[i] for i in keep] + [V[keep[0]] + D]


def lower_map(F: Lifting) -> Lifting:
    """F_l(x) = inf{F(y) : y >= x}, computed exactly on F's grid."""
    D, X, V = _lower(*F.grid)
    return _on_grid(D, X[:-1], V[:-1])


def _simplify(F: Lifting) -> Lifting:
    """Drop breakpoints interior to a single affine piece; F's views carry over."""
    D, X, V = F.grid
    keep = _corners(X, V)
    H = _on_grid(D, [X[i] for i in keep], [V[i] for i in keep])
    vars(H).update(breakpoints=tuple(F.breakpoints[i] for i in keep), values=tuple(F.values[i] for i in keep))
    return H


def upper_map(F: Lifting) -> Lifting:
    """F_u(x) = sup{F(y) : y <= x} via the duality F_u = dual(lower(dual(F)))."""
    D, X, V = _reflect(*_lower(*_reflect(*F.grid)))
    return _on_grid(D, X[:-1], V[:-1])


def upper_lower(F: Lifting) -> tuple[Lifting, Lifting]:
    return lower_map(F), upper_map(F)


# ---------------------------------------------------------------------------
# Rotation numbers of monotone liftings
# ---------------------------------------------------------------------------

DEFAULT_DENOMINATOR_BOUND = 10**6
_COMPOSE_BREAKPOINTS = 20000  # breakpoints of all powers composed in one search
_COMPOSE_BITS = 10**7  # and their total denominator bit length
_PLATEAU_ITER_CAP = 20000


def _displacement_extrema(F: Lifting) -> tuple[Fraction, Fraction]:
    """Exact min/max of F(x) - x over one period (attained at breakpoints of F
    or at the wrap endpoint, since the displacement is affine between them)."""
    D, X, V = F.grid
    disps = [v - x for x, v in zip(X, V)]
    return Fraction(min(disps), D), Fraction(max(disps), D)


def compose(A: Lifting, B: Lifting) -> Lifting:
    """The lifting x -> B(A(x)), exact; both arguments degree one.

    Each affine piece of A adds the preimages of the breakpoints of B inside
    its image, found by bisection turn by turn, so the work follows the
    breakpoints produced rather than the product of the two counts.  A
    preimage x of c + k, c a breakpoint of B, has the image B(c) + k, so B
    is evaluated only at the values of A."""
    images = dict(zip(A.breakpoints, map(B.eval, A.values)))
    cs = B.breakpoints
    for (xL, xR, vL, vR) in A.segments():
        if vL == vR:
            continue
        lo, hi = min(vL, vR), max(vL, vR)
        for k in range(floor_frac(lo), floor_frac(hi) + 1):
            for j in range(bisect_right(cs, lo - k), bisect_left(cs, hi - k)):
                x = xL + (cs[j] + k - vL) * (xR - xL) / (vR - vL)
                f = floor_frac(x)
                images[x - f] = B.values[j] + k - f
    bps = sorted(images)
    return Lifting(tuple(bps), tuple(images[x] for x in bps))


def _rotation_via_plateau_orbit(F: Lifting) -> Fraction | None:
    """Iterate a plateau value exactly; a repeat mod 1 exhibits a periodic
    orbit whose rotation number is the rotation number of the monotone map.
    None once the denominator passes D^2: such an orbit has left the grid
    and may near a periodic orbit forever, gaining bits every turn."""
    D, _, V = F.grid
    plateau = next((i for i in range(len(V) - 1) if V[i] == V[i + 1]), None)
    if plateau is None:
        return None
    z = Fraction(V[plateau], D)
    seen: dict[tuple[int, int], tuple[int, int]] = {}  # z mod 1 -> (turn, numerator)
    for k in range(_PLATEAU_ITER_CAP):
        a, b = z.numerator, z.denominator
        if b > D * D:
            return None
        if (a % b, b) in seen:
            j, aj = seen[a % b, b]
            return Fraction((a - aj) // b, k - j)  # equal fractional parts share b
        seen[a % b, b] = (k, a)
        z = F.eval(z)
    return None


def rotation_number_monotone(F: Lifting) -> Fraction:
    """Exact rotation number of a nondecreasing lifting.

    Fast path: the exactly-periodic orbit of a plateau value.  General path:
    Stern-Brocot bisection where each mediant p/q is tested on the exact
    piecewise-affine composition F^q, composed from the powers the two parent
    bounds already carry (a sign change of F^q(x) - x - p confirms
    equality; otherwise the strict side is certified by the displacement
    extrema of the full composition).  Each power drops the breakpoints
    interior to one affine piece, so the powers of a rigid rotation keep
    one.  DepthExceeded signals denominators past the bound, or powers
    holding more breakpoints, or more denominator bits, in all than an
    internal budget (F^q can have about q breakpoints, with denominators
    growing in q, so the bound alone would let an irrational rotation number
    run for hours): a plausibly irrational rotation number.
    """
    if not F.is_nondecreasing():
        raise ValueError("rotation_number_monotone needs a nondecreasing lifting")

    rho = _rotation_via_plateau_orbit(F)
    if rho is not None:
        return rho

    # rho lies in [min displacement, max displacement]; an integer p in that
    # range certifies a fixed point of F - p, hence rho = p exactly.
    lo_d, hi_d = _displacement_extrema(F)
    p = ceil_frac(lo_d)
    if p <= hi_d:
        return Fraction(p)
    k = floor_frac(lo_d)  # both extrema in (k, k+1), so rho is too

    # each bound p/q carries F^q; the mediant's power is F^(ql) then F^(qr)
    pl, ql, Hl = k, 1, F
    pr, qr, Hr = k + 1, 1, F
    count = bits = 0  # breakpoints of the powers composed, and their bits
    while True:
        p, q = pl + pr, ql + qr
        if q > DEFAULT_DENOMINATOR_BOUND:
            raise DepthExceeded(f"denominator bound {DEFAULT_DENOMINATOR_BOUND} passed")
        if count > _COMPOSE_BREAKPOINTS or bits > _COMPOSE_BITS:
            raise DepthExceeded(
                f"powers of the search passed {_COMPOSE_BREAKPOINTS} breakpoints or {_COMPOSE_BITS} bits"
            )
        H = _simplify(compose(Hl, Hr))
        count += len(H.breakpoints)
        bits += sum(x.denominator.bit_length() for x in H.breakpoints + H.values)
        dlo, dhi = _displacement_extrema(H)
        if dlo <= p <= dhi:
            return Fraction(p, q)
        if dlo > p:
            pl, ql, Hl = p, q, H  # rho > p/q
        else:
            pr, qr, Hr = p, q, H  # rho < p/q


def rotation_interval(F: Lifting) -> RotationInterval:
    """Rot(F) = [rho(F_l), rho(F_u)], both computed exactly from the envelopes.

    The general path, for liftings with no Markov system (NotShort,
    NotInvariant) or an irrational endpoint (DepthExceeded).  The scans use
    `markov.MarkovSystem.rotation` instead; `verify` checks both."""
    Fl, Fu = upper_lower(F)
    return RotationInterval(rotation_number_monotone(Fl), rotation_number_monotone(Fu))
