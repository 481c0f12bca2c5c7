"""Sets of periods: M(c,d), endpoint contributions, and Misiurewicz assembly.

A PeriodSet is an exact, decidable subset of N written as
    finite_part ∪ S(tail_from) ∪ pattern components,
where S(L) = {k : k >= L}.  Pattern components only occur for Sharkovskii
tails; everything produced by the rotation-interval pipeline is finite + tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arith import ShoNumber, floor_frac, rat_str, sharkovskii_geq, sharkovskii_tail
from .errors import DegenerateRotationInterval
from .lifting import RotationInterval
from .markov import critical_successors, partition_rotation_interval
from .oracle import periods_up_to

# pattern component forms:
#   ("pow2",)                 -> {2^b : b >= 0}
#   ("level_odds", a, m)      -> {2^a * m' : m' odd, m' >= m}
#   ("deeper_odds", a)        -> {k : v2(k) > a, oddpart(k) >= 3}
_PATTERN_TAGS = {"pow2", "level_odds", "deeper_odds"}


def _pattern_contains(pat: tuple, k: int) -> bool:
    tag = pat[0]
    v2, odd = 0, k
    while odd % 2 == 0:
        odd //= 2
        v2 += 1
    if tag == "pow2":
        return odd == 1
    if tag == "level_odds":
        _, a, m = pat
        return v2 == a and odd >= m
    if tag == "deeper_odds":
        (_, a) = pat
        return v2 > a and odd >= 3
    raise ValueError(f"unknown pattern {pat!r}")


@dataclass(frozen=True)
class PeriodSet:
    """finite_part ∪ S(tail_from) ∪ patterns, normalized on construction."""

    finite: frozenset = frozenset()
    tail_from: Optional[int] = None
    patterns: tuple = ()

    def __post_init__(self):
        for p in self.patterns:
            if p[0] not in _PATTERN_TAGS:
                raise ValueError(f"unknown pattern {p!r}")
        fin = frozenset(int(k) for k in self.finite)
        if any(k < 1 for k in fin):
            raise ValueError("periods are positive integers")
        tail = self.tail_from
        if tail is not None:
            tail = int(tail)
            if tail < 1:
                raise ValueError("tail_from must be >= 1")
            # absorb finite elements adjacent to the tail, then drop the rest
            fin = frozenset(k for k in fin if k < tail)
            while tail - 1 in fin:
                tail -= 1
                fin = fin - {tail}
        object.__setattr__(self, "finite", fin)
        object.__setattr__(self, "tail_from", tail)
        object.__setattr__(self, "patterns", tuple(self.patterns))

    # -- membership and views -------------------------------------------------

    def __contains__(self, k: int) -> bool:
        if k < 1:
            return False
        if k in self.finite:
            return True
        if self.tail_from is not None and k >= self.tail_from:
            return True
        return any(_pattern_contains(p, k) for p in self.patterns)

    def up_to(self, bound: int) -> set[int]:
        return {k for k in range(1, bound + 1) if k in self}

    def is_cofinite(self) -> bool:
        return self.tail_from is not None

    @staticmethod
    def successors(L: int) -> "PeriodSet":
        """S(L) = {k >= L}."""
        return PeriodSet(tail_from=L)

    @staticmethod
    def from_elements(finite, tail_from=None) -> "PeriodSet":
        return PeriodSet(finite=frozenset(finite), tail_from=tail_from)

    def union(self, other: "PeriodSet") -> "PeriodSet":
        tails = [t for t in (self.tail_from, other.tail_from) if t is not None]
        tail = min(tails) if tails else None
        return PeriodSet(
            finite=self.finite | other.finite,
            tail_from=tail,
            patterns=self.patterns + tuple(p for p in other.patterns if p not in self.patterns),
        )

    def to_json(self) -> dict:
        return {
            "finite": sorted(self.finite),
            "tail_from": self.tail_from,
            "patterns": [list(p) for p in self.patterns],
        }

    def __repr__(self):
        parts = []
        if self.finite:
            parts.append("{" + ",".join(map(str, sorted(self.finite))) + "}")
        if self.tail_from is not None:
            parts.append(f"S({self.tail_from})")
        for p in self.patterns:
            parts.append(str(p))
        return "PeriodSet(" + (" ∪ ".join(parts) if parts else "∅") + ")"


# ---------------------------------------------------------------------------
# M(c,d) and its integer-counting refinement
# ---------------------------------------------------------------------------


def interior_integer_count(c: Fraction, d: Fraction, q: int) -> int:
    """Number of integers k with qc < k < qd (exact, open interval)."""
    above = q * c.numerator // c.denominator  # floor(qc)
    below = -(-q * d.numerator // d.denominator)  # ceil(qd)
    return max(0, below - above - 1)


def in_m_set(c: Fraction, d: Fraction, q: int) -> bool:
    return interior_integer_count(c, d, q) > 0


def m_set(c: Fraction, d: Fraction) -> PeriodSet:
    """M(c,d) = {n : c < k/n < d for some integer k}, exactly.

    The tail threshold starts at floor(1/(d-c)) + 1 (interval longer than 1
    forces an interior integer) and is refined downward by direct membership.
    """
    c, d = Fraction(c), Fraction(d)
    if not c < d:
        raise ValueError("m_set needs c < d")
    t = floor_frac(1 / (d - c)) + 1
    while t > 1 and in_m_set(c, d, t - 1):
        t -= 1
    finite = {q for q in range(1, t) if in_m_set(c, d, q)}
    return PeriodSet(finite=frozenset(finite), tail_from=t)


# ---------------------------------------------------------------------------
# Endpoint contributions and Misiurewicz's theorem
# ---------------------------------------------------------------------------


def endpoint_periods(M, e: Fraction, bound: int, side: int = 1) -> set[int]:
    """{m <= bound : some periodic point has rotation number exactly e and
    minimal period m}, resolved by the exact oracle on the critical subgraph
    of e (side = +1 for the lower end of Rot(F), -1 for the upper end), the
    only arrows a loop of mean e can use.  RotationMismatch, even for
    bound < 1, when e is not that end of Rot(F).

    Verifies the structural containment Q_F(e) ⊆ sN for e = r/s reduced.
    """
    e = Fraction(e)
    s = e.denominator
    succ = critical_successors(M, e, side)
    if bound < 1:
        return set()
    witnesses = periods_up_to(M, bound, succ=succ)
    out = {m for (m, rho) in witnesses.period_rotations() if rho == e and m <= bound}
    bad = [m for m in out if m % s != 0]
    if bad:
        raise AssertionError(f"endpoint periods {bad} not multiples of {s}")
    return out


@dataclass(frozen=True)
class ShoInference:
    """Bounded-evidence guess of the endpoint Sharkovskii type s_c.

    `sho` is the <=_Sh-least type whose tail reproduces the observed set of
    k = m/s below the evidence bound; with only bounded evidence a large power
    of two cannot be told apart from 2^∞, hence the flag.
    """

    sho: Optional[ShoNumber]
    bounded_evidence: bool = True
    ambiguous_two_infinity: bool = False


def infer_sho_type(ks: set[int], bound: int) -> ShoInference:
    """Least ShoNumber t with tail(t) ∩ [1, bound] equal to the observed ks.

    An all-powers-of-two observation is flagged ambiguous: the evidence cannot
    separate the reported type from larger powers of two or 2^∞.
    """
    candidates = [ShoNumber(k) for k in sorted(ks)]
    all_pow2 = bool(ks) and all(k & (k - 1) == 0 for k in ks)
    if all_pow2:
        candidates.append(ShoNumber("2^inf"))
    best = None
    for t in candidates:
        tail = sharkovskii_tail(t)
        if {k for k in range(1, bound + 1) if k in tail} == ks:
            if best is None or not sharkovskii_geq(t, best):
                best = t
    ambiguous = best is not None and all_pow2 and max(ks) * 2 > bound
    return ShoInference(sho=best, bounded_evidence=True, ambiguous_two_infinity=ambiguous)


def per_from_rotation(F, M, rot: Optional[RotationInterval] = None) -> PeriodSet:
    """Exact Per(f) = Q_F(c) ∪ M(c,d) ∪ Q_F(d) for the lifting F; every query
    reads only F's Markov system M.

    Only endpoint periods below the M(c,d) tail threshold need resolution:
    Q_F(c) ⊆ sN and everything at or above the threshold is already in the
    tail, so finitely many oracle queries settle the set exactly.  M's
    `partition_cycles` settle some first; each endpoint then queries its
    critical subgraph up to its largest multiple still unresolved.  `rot` is
    Rot(F) when the caller already has it (`verify` passes the lifting's
    envelopes); otherwise it is read off M by `partition_rotation_interval`.
    Either way the critical subgraphs certify it: RotationMismatch if c or d
    is not the extreme loop mean.
    """
    if rot is None:
        rot = partition_rotation_interval(M)
    c, d = rot.c, rot.d
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
