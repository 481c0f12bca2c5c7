"""Sets of periods: M(c,d), endpoint contributions, and Misiurewicz assembly.

A PeriodSet is an exact, decidable subset of N written as
    finite_part ∪ S(tail_from),
where S(L) = {k : k >= L}: every Per(F) with nondegenerate Rot(F) has that
form.  The Sharkovskii tails {k : k <=_Sh t} of the endpoint types are read
off the order itself (`arith.sharkovskii_geq`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arith import _sho_key, rat_str, sharkovskii_geq
from .errors import DegenerateRotationInterval
from .markov import critical_successors
from .oracle import periods_up_to


@dataclass(frozen=True)
class PeriodSet:
    """finite_part ∪ S(tail_from), normalized on construction."""

    finite: frozenset = frozenset()
    tail_from: Optional[int] = None

    def __post_init__(self):
        fin = frozenset(map(int, self.finite))
        if any(k < 1 for k in fin):
            raise ValueError("periods are positive integers")
        tail = self.tail_from
        if tail is not None:
            tail = int(tail)
            if tail < 1:
                raise ValueError("tail_from must be >= 1")
            # absorb the run of finite elements just below the tail, then
            # drop it and everything above it in one filter
            while tail - 1 in fin:
                tail -= 1
            fin = frozenset(k for k in fin if k < tail)
        object.__setattr__(self, "finite", fin)
        object.__setattr__(self, "tail_from", tail)

    # -- membership and views -------------------------------------------------

    def __contains__(self, k: int) -> bool:
        return k in self.finite or (self.tail_from is not None and k >= self.tail_from)

    def up_to(self, bound: int) -> set[int]:
        return {k for k in range(1, bound + 1) if k in self}

    def to_json(self) -> dict:
        # "patterns" stays, always empty, so the reports keep their bytes
        return {"finite": sorted(self.finite), "tail_from": self.tail_from, "patterns": []}

    def __repr__(self):
        parts = []
        if self.finite:
            parts.append("{" + ",".join(map(str, sorted(self.finite))) + "}")
        if self.tail_from is not None:
            parts.append(f"S({self.tail_from})")
        return "PeriodSet(" + (" ∪ ".join(parts) if parts else "∅") + ")"


# ---------------------------------------------------------------------------
# M(c,d) and its integer-counting refinement
# ---------------------------------------------------------------------------


def interior_integer_count(c: Fraction, d: Fraction, q: int) -> int:
    """Number of integers k with qc < k < qd (exact, open interval)."""
    above = q * c.numerator // c.denominator  # floor(qc)
    below = -(-q * d.numerator // d.denominator)  # ceil(qd)
    return max(0, below - above - 1)


def m_set(c: Fraction, d: Fraction) -> PeriodSet:
    """M(c,d) = {n : c < k/n < d for some integer k}, exactly.

    On c = a/b and d = e/f, n is in it iff ceil(ne/f) - floor(na/b) >= 2.
    The tail threshold floor(1/(d-c)) + 1 (interval longer than 1 forces an
    interior integer) is lowered past the members just below it by
    PeriodSet's normalization.
    """
    c, d = Fraction(c), Fraction(d)
    if not c < d:
        raise ValueError("m_set needs c < d")
    a, b, e, f = c.numerator, c.denominator, d.numerator, d.denominator
    t = b * f // (e * b - a * f) + 1
    ms = {n for n in range(1, t) if -(-e * n // f) - a * n // b >= 2}
    return PeriodSet(ms, tail_from=t)


# ---------------------------------------------------------------------------
# Endpoint contributions and Misiurewicz's theorem
# ---------------------------------------------------------------------------


def endpoint_periods(M, e: Fraction, bound: int, side: int = 1) -> set[int]:
    """{m <= bound : some periodic point has rotation number exactly e and
    minimal period m}, resolved by the exact oracle on the critical subgraph
    of e (side = +1 for the lower end of Rot(F), -1 for the upper end), the
    only arrows a loop of mean e can use.  RotationMismatch, even for
    bound < 1, when e is not that end of Rot(F).

    Every m returned is a multiple of s for e = r/s reduced: a witness of
    period m has rotation number K/m, and K/m == r/s in lowest terms forces
    s | m.
    """
    e = Fraction(e)
    succ = critical_successors(M, e, side)
    if bound < 1:
        return set()
    return {m for (m, rho) in periods_up_to(M, bound, succ=succ).witnesses if rho == e}


@dataclass(frozen=True)
class ShoInference:
    """Bounded-evidence guess of the endpoint Sharkovskii type s_c.

    `sho` is the <=_Sh-least type whose tail reproduces the observed set of
    k = m/s below the evidence bound; with only bounded evidence a large power
    of two cannot be told apart from 2^∞, hence the flag.
    """

    sho: Optional[int]
    ambiguous_two_infinity: bool = False


def infer_sho_type(ks: set[int], bound: int) -> ShoInference:
    """Least type t in N with tail(t) ∩ [1, bound] equal to the observed ks.

    Only the Sharkovskii-greatest element of ks can be that t: every match
    lies above all of ks, and that element matches whenever any t does.
    An all-powers-of-two observation is flagged ambiguous: the evidence cannot
    separate the reported type from larger powers of two or 2^∞.
    """
    all_pow2 = bool(ks) and all(k & (k - 1) == 0 for k in ks)
    t = min(ks, key=_sho_key, default=None)  # the smallest key is the greatest
    best = t if t is not None and {k for k in range(1, bound + 1) if sharkovskii_geq(t, k)} == ks else None
    ambiguous = best is not None and all_pow2 and max(ks) * 2 > bound
    return ShoInference(sho=best, ambiguous_two_infinity=ambiguous)


def per_from_rotation(F, M) -> PeriodSet:
    """Exact Per(f) = Q_F(c) ∪ M(c,d) ∪ Q_F(d) for the lifting F, with
    Rot(F) = [c, d] read off F's Markov system M (`M.rotation`); every query
    reads only M.

    Only endpoint periods below the M(c,d) tail threshold need resolution:
    Q_F(c) ⊆ sN and everything at or above the threshold is already in the
    tail, so finitely many oracle queries settle the set exactly.  M's
    `partition_cycles` settle some first; each endpoint then queries its
    critical subgraph up to its largest multiple still unresolved.  The
    critical subgraphs certify Rot(F): RotationMismatch if c or d is not the
    extreme loop mean.
    """
    c, d = M.rotation.c, M.rotation.d
    if c == d:
        raise DegenerateRotationInterval(f"Rot(F) = [{rat_str(c)}, {rat_str(c)}]")
    ms = m_set(c, d)
    t = ms.tail_from
    bound = t - 1
    found = {m for _, m, rho, _ in M.partition_cycles if m <= bound and rho in (c, d)}
    extra = set(found)
    for e, side in ((c, 1), (d, -1)):
        unresolved = set(range(e.denominator, bound + 1, e.denominator)) - found
        extra |= endpoint_periods(M, e, max(unresolved, default=0), side)
    return PeriodSet(finite=ms.finite | extra, tail_from=t)
