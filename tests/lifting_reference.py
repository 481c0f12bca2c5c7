"""The general Rot(F) path on Fractions: a test reference for the integer-grid
code in `circledyn.lifting`.

`lower_map`, `upper_map`, `dual`, `eval`, `compose` and the plateau-orbit
rotation number sweep and evaluate on the lifting's Fraction breakpoints and
values (views of its grid), as the program did before it moved to the
integer grid; they read no `Lifting.grid`.  `rotation_interval` runs the
program's Stern-Brocot search with these pieces swapped in, so its budgets
and `DepthExceeded` stay the program's own.  `envelope_rotation_bounds` is
the orbit-displacement enclosure of both envelope rotation numbers, built on
this reference alone.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm

import pytest

from circledyn import lifting
from circledyn.arith import floor_frac
from circledyn.lifting import Lifting, RotationInterval


def eval_(F: Lifting, x) -> Fraction:
    """Exact F(x) for any rational x, via F(x+1) = F(x) + 1."""
    x = Fraction(x)
    b = F.breakpoints
    k = floor_frac(x - b[0])
    t = x - k  # t in [b0, b0 + 1)
    i = bisect_right(b, t) - 1
    if i == len(b) - 1:
        xL, xR, vL, vR = b[-1], b[0] + 1, F.values[-1], F.values[0] + 1
    else:
        xL, xR, vL, vR = b[i], b[i + 1], F.values[i], F.values[i + 1]
    val = vL if t == xL else vL + (vR - vL) * (t - xL) / (xR - xL)
    return val + k


def dual(F: Lifting) -> Lifting:
    """The lifting G(y) = -F(-y)."""
    pts = []
    for b, v in zip(F.breakpoints, F.values):
        if b == 0:
            pts.append((Fraction(0), -v))
        else:
            pts.append((1 - b, 1 - v))
    pts.sort()
    return Lifting(tuple(p for p, _ in pts), tuple(w for _, w in pts))


def simplify(F: Lifting) -> Lifting:
    """Drop breakpoints interior to a single affine piece."""
    if len(F.breakpoints) <= 2:
        return F
    segs = F.segments()
    slopes = [(vR - vL) / (xR - xL) for (xL, xR, vL, vR) in segs]
    keep_b, keep_v = [], []
    n = len(F.breakpoints)
    for i in range(n):
        if slopes[(i - 1) % n] != slopes[i]:
            keep_b.append(F.breakpoints[i])
            keep_v.append(F.values[i])
    if not keep_b:  # globally affine (rigid translation)
        return Lifting((F.breakpoints[0],), (F.values[0],))
    return Lifting(tuple(keep_b), tuple(keep_v))


def lower_map(F: Lifting) -> Lifting:
    """F_l(x) = inf{F(y) : y >= x}: right-to-left sweep of the running
    minimum, plateau ends solved as intersections of affine pieces."""
    m = min(F.values) + 1
    pieces = []  # (xL, xR, vL, vR) of the envelope, right to left
    for (xL, xR, vL, vR) in reversed(F.segments()):
        if vL <= vR:
            if m >= vR:
                pieces.append((xL, xR, vL, vR))
                m = vL
            elif m <= vL:
                pieces.append((xL, xR, m, m))
            else:
                xc = xL + (m - vL) * (xR - xL) / (vR - vL)
                pieces.append((xc, xR, m, m))
                pieces.append((xL, xc, vL, m))
                m = vL
        else:
            c = min(vR, m)
            pieces.append((xL, xR, c, c))
            m = c
    points = sorted((xL - 1, vL - 1) if xL >= 1 else (xL, vL) for (xL, _, vL, _) in pieces)
    return simplify(Lifting(tuple(x for x, _ in points), tuple(v for _, v in points)))


def upper_map(F: Lifting) -> Lifting:
    """F_u = dual(lower(dual(F)))."""
    return dual(lower_map(dual(F)))


def compose(A: Lifting, B: Lifting) -> Lifting:
    """The lifting x -> B(A(x)): the breakpoints of A and the preimages of
    those of B, each evaluated through A and then B."""
    new_bps = set(A.breakpoints)
    cs = B.breakpoints
    for (xL, xR, vL, vR) in A.segments():
        if vL == vR:
            continue
        lo, hi = min(vL, vR), max(vL, vR)
        for k in range(floor_frac(lo), floor_frac(hi) + 1):
            for c in cs[bisect_right(cs, lo - k) : bisect_left(cs, hi - k)]:
                x = xL + (c + k - vL) * (xR - xL) / (vR - vL)
                new_bps.add(x - floor_frac(x))
    bps = sorted(new_bps)
    return Lifting(tuple(bps), tuple(eval_(B, eval_(A, x)) for x in bps))


def rotation_via_plateau_orbit(F: Lifting) -> Fraction | None:
    """Iterate a plateau value exactly; a repeat mod 1 gives the rotation
    number of the monotone map.  An orbit whose denominator passes D^2, D
    the lcm of the denominators of F's breakpoints and values, gives None."""
    plateau_value = None
    for (xL, xR, vL, vR) in F.segments():
        if vL == vR:
            plateau_value = vL
            break
    if plateau_value is None:
        return None
    z = plateau_value
    D = lcm(*(x.denominator for x in F.breakpoints + F.values))
    seen: dict[Fraction, tuple[int, Fraction]] = {}
    for k in range(lifting._PLATEAU_ITER_CAP):
        if z.denominator > D * D:
            return None
        r = z - floor_frac(z)
        if r in seen:
            j, zj = seen[r]
            return Fraction((z - zj).numerator, k - j)
        seen[r] = (k, z)
        z = eval_(F, z)
    return None


def rotation_interval(F: Lifting) -> RotationInterval:
    """Rot(F) from the reference envelopes, with the reference evaluation,
    simplification and plateau orbit inside the program's search."""
    Fl, Fu = lower_map(F), upper_map(F)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Lifting, "eval", eval_)
        mp.setattr(lifting, "_simplify", simplify)
        mp.setattr(lifting, "compose", compose)
        mp.setattr(lifting, "_rotation_via_plateau_orbit", rotation_via_plateau_orbit)
        c = lifting.rotation_number_monotone(Fl)
        return RotationInterval(c, lifting.rotation_number_monotone(Fu))


def envelope_rotation_bounds(G: Lifting, steps: int) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Certified enclosures of rho(G_l) and rho(G_u) by orbit displacement:
    |G^n(x) - x - n*rho| <= 1 for monotone maps gives width-2/n brackets."""
    out = []
    for H in (lower_map(G), upper_map(G)):
        x = x0 = H.breakpoints[0]
        for _ in range(steps):
            x = eval_(H, x)
        out.append(((x - x0 - 1) / steps, (x - x0 + 1) / steps))
    return out[0], out[1]
