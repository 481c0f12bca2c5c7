"""Brute-force exact periodic points of a piecewise-affine lifting.

Every loop of the Markov graph modulo 1 carries a composed affine branch whose
fixed point is a candidate periodic point; partition points are classified by
the cycles of the Markov system's index map.  Both read only the integers of
the system (its per-arrow step table on the keys X): a branch is an integer
triple (a, b, c) for x -> (a*x + b)/c on the keys, a point an integer pair
(u, v) for the key u/v.  A loop is solved only while its (period, rotation)
pair has no witness, and a point becomes a Fraction only when reported.
Zero tolerance anywhere: witnesses satisfy their defining equations as
rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import rat_str
from .markov import DEFAULT_LOOP_CAP, MarkovSystem, enumerate_loops


@dataclass(frozen=True)
class PeriodicWitness:
    point: Fraction
    minimal_period: int
    rotation: Fraction
    itinerary: tuple

    def check(self, F) -> bool:
        """Exact defining property: F^m(x) = x + rotation*m, no divisor works."""
        m = self.minimal_period
        gain = self.rotation * m
        if gain.denominator != 1:
            return False
        if F.iterate(self.point, m) != self.point + gain:
            return False
        for div in range(1, m):
            if m % div == 0 and (F.iterate(self.point, div) - self.point).denominator == 1:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "point": rat_str(self.point),
            "minimal_period": self.minimal_period,
            "rotation": rat_str(self.rotation),
            "itinerary": list(self.itinerary),
        }


@dataclass
class OracleResult:
    bound: int
    witnesses: dict = field(default_factory=dict)  # (period, rotation) -> PeriodicWitness
    degenerate_loops: list = field(default_factory=list)  # words of identity branches

    def add(self, w: PeriodicWitness):
        """Keeps the first witness of each (period, rotation) up to the bound."""
        if w.minimal_period <= self.bound:
            self.witnesses.setdefault((w.minimal_period, w.rotation), w)

    def periods(self) -> set[int]:
        return {m for (m, _) in self.witnesses}

    def period_rotations(self) -> set:
        return set(self.witnesses)

    def to_json(self) -> dict:
        items = sorted(self.witnesses.items(), key=lambda kv: (kv[0][0], kv[0][1]))
        return {
            "bound": self.bound,
            "witnesses": [w.to_json() for _, w in items],
            "degenerate_loops": [list(word) for word in self.degenerate_loops],
        }


# ---------------------------------------------------------------------------
# loop branches
# ---------------------------------------------------------------------------


def _steps(M: MarkovSystem, word: tuple) -> list[tuple]:
    """The `arrow_steps` entry of each arrow along the loop word."""
    return list(map(M.arrow_steps.__getitem__, zip(word, word[1:] + word[:1])))


def loop_branch(steps: list) -> tuple[int, int, int]:
    """Composed return map x -> (a*x + b)/c on the keys along a loop's steps.

    Each step is x -> F(x) - shift on the class representative, so a fixed
    point of the composition is a point whose F-orbit realizes the itinerary
    and comes back to itself modulo the accumulated integer translation.
    """
    a, b, c = 1, 0, 1
    for _, _, dx, dy, e, _ in steps:
        a, b, c = dy * a, dy * b + e * c, dx * c
    return a, b, c


def _orbit_data(steps: list, u0: int, v0: int):
    """(minimal period, rotation number) of the key u0/v0 (v0 > 0) if its orbit
    stays strictly inside the representatives of the loop's steps (translated
    back by the arrow shifts) and returns exactly; None otherwise.

    Orbit points strictly inside representatives differ by an integer only
    when equal, so the first return to u0/v0 at a divisor of the loop length
    is the minimal period, and the shifts summed up to it are its integer gain.
    """
    L = len(steps)
    u, v, gain = u0, v0, 0
    period = None
    for t, (lo, hi, dx, dy, e, k) in enumerate(steps):
        if not (lo * v < u < hi * v):
            return None
        u, v = dy * u + e * v, dx * v
        gain += k
        if period is None and u * v0 == u0 * v and L % (t + 1) == 0:
            period = (t + 1, Fraction(gain, t + 1))
    return period if u * v0 == u0 * v else None


def _witness(M: MarkovSystem, word: tuple, steps: list, u: int, v: int, result: OracleResult):
    """Adds the witness at the key u/v (v > 0) when its orbit realizes the
    word."""
    data = _orbit_data(steps, u, v)
    if data is not None:
        m, rho = data
        result.add(PeriodicWitness(Fraction(u, v * M.denominator), m, rho, tuple(word[:m])))


def _sample_degenerate(M: MarkovSystem, word: tuple, steps: list, result: OracleResult):
    """Reports an identity branch and its witnesses at interior samples."""
    result.degenerate_loops.append(word)
    lo, hi = steps[0][:2]
    for num, den in ((1, 2), (1, 3), (2, 5)):
        _witness(M, word, steps, lo * den + (hi - lo) * num, den, result)


def periods_up_to(M: MarkovSystem, P: int, loop_cap: int = DEFAULT_LOOP_CAP, succ=None) -> OracleResult:
    """Exact set of (minimal period, rotation number) pairs with period <= P.

    Loops of length p <= P catch every periodic orbit disjoint from the
    partition (the associated loop has the orbit's length); partition orbits
    are read off `M.partition_cycles`.  Minimal periods need only be checked
    on divisors of the loop length, which F^p(x) = x + m forces.  Non-simple
    loops carry no new orbits except even repetitions of a branch with slope
    -1, whose doubled (identity) branch is sampled explicitly.  `succ`
    (successor lists) restricts the loops to a subgraph, such as the critical
    subgraph of an endpoint; every partition orbit up to P is kept either way.

    Only the first witness of each pair is kept, so a simple loop whose pair
    (L, K/L), K its summed shifts, is already witnessed is neither solved nor
    walked.  This is exact: a simple loop is a Lyndon word, hence primitive,
    and its orbit points lie strictly inside one class each, so a return
    after m < L steps would give the cyclic word the period gcd(m, L) < L.
    Its witness thus has the pair (L, K/L) and cannot displace the one kept.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    result = OracleResult(bound=P)
    for r, m, rho, orbit in M.partition_cycles:
        result.add(PeriodicWitness(Fraction(M.keys[r], M.denominator), m, rho, orbit))
    for loop in enumerate_loops(M, P, cap=loop_cap, succ=succ):
        if not loop.simple:
            continue
        word = loop.vertices
        steps = _steps(M, word)
        a, b, c = loop_branch(steps)
        if a == c:
            if b == 0:
                _sample_degenerate(M, word, steps, result)
            continue
        L = len(word)
        if (L, Fraction(sum(step[5] for step in steps), L)) not in result.witnesses:
            u, v = (b, c - a) if c > a else (-b, a - c)  # the fixed point u/v = b/(c - a)
            _witness(M, word, steps, u, v, result)
        if a == -c and 2 * L <= P:
            # doubled branch is the identity: an interval of period-2L points
            _sample_degenerate(M, word + word, steps + steps, result)
    return result
