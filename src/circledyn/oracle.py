"""Brute-force exact periodic points of a piecewise-affine lifting.

Every loop of the Markov graph modulo 1 carries a composed affine branch whose
fixed point is a candidate periodic point; partition points are classified by
the cycles of the Markov system's index map.  Both read only the integers of
the system (its per-arrow step table on the keys X): a branch is an integer
triple (a, b, c) for x -> (a*x + b)/c on the keys, a point an integer pair
(u, v) for the key u/v.  A loop is solved only while its (period, rotation)
pair, tested as integers, has no witness, and a point and its rotation
become Fractions only when reported.
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


def loop_branches(M: MarkovSystem, loops):
    """(word, steps, (a, b, c, K)) for each loop in turn: its steps, the
    `arrow_steps` entry of each arrow along the word with the closing arrow
    last, and their composed return map x -> (a*x + b)/c on the keys, with K
    the sum of their shifts.

    Each step is x -> F(x) - shift on the class representative, so a fixed
    point of the composition is a point whose F-orbit realizes the itinerary
    and comes back to itself modulo the integer translation K.  A loop that
    shares its first `shared` vertices with the one before shares its first
    `shared - 1` arrows: their composition is kept from that loop, and only
    the other arrows are looked up and composed.  The step list is reused,
    so it is read before the next loop is drawn.
    """
    table = M.arrow_steps
    steps, prefix = [], [(1, 0, 1, 0)]  # prefix[t]: the first t steps composed
    for loop in loops:
        word = loop.vertices
        L, t = len(word), max(loop.shared, 1)
        del steps[t - 1 :], prefix[t:]
        a, b, c, K = prefix[-1]
        for i in range(t - 1, L):
            step = table[word[i], word[i + 1 - L]]  # word[i + 1], word[0] last
            _, _, dx, dy, e, k = step
            a, b, c, K = dy * a, dy * b + e * c, dx * c, K + k
            steps.append(step)
            prefix.append((a, b, c, K))
        yield word, steps, (a, b, c, K)


def _follows(steps: list, u: int, v: int) -> bool:
    """Whether the orbit of the key u/v (v > 0) stays strictly inside the
    representatives of the loop's steps (translated back by the arrow
    shifts).  The walk applies the steps whose composition is the loop's
    branch, so a fixed point of that branch returns to itself exactly."""
    for lo, hi, dx, dy, e, _ in steps:
        if not (lo * v < u < hi * v):
            return False
        u, v = dy * u + e * v, dx * v
    return True


def periods_up_to(M: MarkovSystem, P: int, loop_cap: int = DEFAULT_LOOP_CAP, succ=None) -> OracleResult:
    """Exact set of (minimal period, rotation number) pairs with period <= P.

    Loops of length p <= P catch every periodic orbit disjoint from the
    partition (the associated loop has the orbit's length); partition orbits
    are read off `M.partition_cycles`.  `succ` (successor lists) restricts
    the loops to a subgraph, such as the critical subgraph of an endpoint;
    every partition orbit up to P is kept either way.

    Each witness's pair is stated, not searched for.  Each loop is a Lyndon
    word, hence primitive, and its orbit points lie strictly inside
    one class each, so a return after m < L steps would give the cyclic word
    the period gcd(m, L) < L: a point that follows the loop has the pair
    (L, K/L), K its summed shifts.  So a loop whose pair is already witnessed
    is neither solved nor walked (only the first witness of each pair is
    kept), and the walk only checks that the fixed point stays inside its
    classes.
    A branch of slope +-1 maps its whole first class onto itself, so every
    inner point of the class follows the word.  An identity branch gets its
    witness at the class midpoint.  A reflection fixes the midpoint; every
    other inner point, the one a third of the way in among them, has period
    2L.  These are the only orbits that a repeated word carries, and
    `enumerate_loops` lists no repetitions: the doubled word of a branch
    with slope -1.

    `loop_branches` composes each shared loop prefix once.  A pair is tested
    as the integers (L, K); K/L becomes a Fraction only for a kept witness.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    result = OracleResult(bound=P)
    D = M.denominator
    for r, m, rho, orbit in M.partition_cycles:
        result.add(PeriodicWitness(Fraction(M.keys[r], D), m, rho, orbit))
    witnessed = {(m, int(m * rho)) for m, rho in result.witnesses}  # (period, K)

    def add(u, v, m, K, itinerary):
        """Keeps the witness at the key u/v of the pair (m, K/m) if it is new."""
        if (m, K) not in witnessed:
            witnessed.add((m, K))
            result.add(PeriodicWitness(Fraction(u, v * D), m, Fraction(K, m), itinerary))

    for word, steps, (a, b, c, K) in loop_branches(M, enumerate_loops(M, P, cap=loop_cap, succ=succ)):
        L = len(word)
        lo, hi = steps[0][:2]
        if a == c:
            if b == 0:
                result.degenerate_loops.append(word)
                add(lo + hi, 2, L, K, word)
            continue
        if (L, K) not in witnessed:
            u, v = (b, c - a) if c > a else (-b, a - c)  # the fixed point u/v = b/(c - a)
            if _follows(steps, u, v):
                add(u, v, L, K, word)
        if a == -c and 2 * L <= P:
            result.degenerate_loops.append(word + word)
            add(2 * lo + hi, 3, 2 * L, 2 * K, word + word)
    return result
