"""Brute-force exact periodic points of a piecewise-affine lifting.

Every loop of the Markov graph modulo 1 carries a composed affine branch whose
fixed point (solved exactly over Q) is a candidate periodic point; partition
points are classified by walking the Markov system's index map.  Zero
tolerance anywhere: witnesses satisfy their defining equations as rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from .arith import rat_str
from .lifting import Lifting
from .markov import DEFAULT_LOOP_CAP, MarkovSystem, enumerate_loops


@dataclass(frozen=True)
class PeriodicWitness:
    point: Fraction
    minimal_period: int
    rotation: Fraction
    itinerary: tuple

    def check(self, F: Lifting) -> bool:
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
class DegenerateLoopReport:
    """A loop whose composed branch is a translation by an integer: an
    interval of fixed points of F^L - K.  Reported alongside the witnesses
    sampled from its interior."""

    loop: tuple
    length: int


@dataclass
class OracleResult:
    bound: int
    witnesses: dict = field(default_factory=dict)  # (period, rotation) -> PeriodicWitness
    degenerate_loops: list = field(default_factory=list)

    def add(self, w: PeriodicWitness):
        key = (w.minimal_period, w.rotation)
        self.witnesses.setdefault(key, w)

    def periods(self) -> set[int]:
        return {m for (m, _) in self.witnesses}

    def period_rotations(self) -> set:
        return set(self.witnesses)

    def to_json(self) -> dict:
        items = sorted(self.witnesses.items(), key=lambda kv: (kv[0][0], kv[0][1]))
        return {
            "bound": self.bound,
            "witnesses": [w.to_json() for _, w in items],
            "degenerate_loops": [list(d.loop) for d in self.degenerate_loops],
        }


# ---------------------------------------------------------------------------
# loop branches
# ---------------------------------------------------------------------------


def loop_branch(M: MarkovSystem, word: tuple) -> tuple[Fraction, Fraction]:
    """Composed affine return map y -> A y + B along the loop word.

    Each step is y -> F(y) - shift on the class representative, so a fixed
    point of the composition is a point whose F-orbit realizes the itinerary
    and comes back to itself modulo the accumulated integer translation.
    The steps use the branches M caches for F on its classes.
    """
    shift = M.arrow_shifts
    A, B = Fraction(1), Fraction(0)
    for t in range(len(word)):
        i = word[t]
        alpha, beta = M.branches[i]
        A, B = alpha * A, alpha * B + beta - shift[i, word[(t + 1) % len(word)]]
    return A, B


def _orbit_data(M: MarkovSystem, word: tuple, x0: Fraction):
    """(minimal period, rotation number) of x0 if its orbit stays strictly
    inside the representatives of the word (translated back by the arrow
    shifts) and returns exactly; None otherwise.

    Orbit points strictly inside representatives differ by an integer only
    when equal, so the first return to x0 at a divisor of the word length is
    the minimal period, and the shifts summed up to it are its integer gain.
    """
    L = len(word)
    shift = M.arrow_shifts
    z, gain = x0, 0
    period = None
    for t in range(L):
        i = word[t]
        a, b = M.classes[i]
        if not (a < z < b):
            return None
        s = shift[i, word[(t + 1) % L]]
        alpha, beta = M.branches[i]
        z = alpha * z + beta - s
        gain += s
        if period is None and z == x0 and L % (t + 1) == 0:
            period = (t + 1, Fraction(gain, t + 1))
    return period if z == x0 else None


def solve_loop(F: Lifting, M: MarkovSystem, word: tuple):
    """("point", y*), ("degenerate", None) or ("none", None) for a loop word.

    "point": the unique fixed point of the composed branch, verified strictly
    interior to its itinerary (boundary hits are rejected; partition orbits
    are classified separately).  "degenerate": identity branch, an interval of
    fixed points.
    """
    A, B = loop_branch(M, word)
    if A == 1:
        return ("degenerate", None) if B == 0 else ("none", None)
    y = B / (1 - A)
    if _orbit_data(M, word, y) is not None:
        return "point", y
    return "none", None


def _classify_partition_orbits(M: MarkovSystem, result: OracleResult, bound: int):
    """Periodic partition points, found by walking the lifted index map: a
    partition point is periodic when its index orbit repeats mod n, and its
    itinerary is the sequence of indices (partition point i starts class i)."""
    n = len(M.partition)
    G = M.index_map
    seen: set = set()
    for start in range(n):
        if start in seen:
            continue
        index_of: dict = {}
        lifts: list = []
        L = start
        while True:
            r = L % n
            if r in index_of:
                j = index_of[r]
                m = len(lifts) - j
                if m <= bound:
                    orbit = tuple(idx % n for idx in lifts[j:])
                    rho = Fraction((L - lifts[j]) // n, m)
                    result.add(PeriodicWitness(M.partition[r], m, rho, orbit))
                break
            index_of[r] = len(lifts)
            lifts.append(L)
            seen.add(r)
            L = G[r] + L - r


def _sample_degenerate(M: MarkovSystem, word: tuple, result: OracleResult, bound: int):
    """Witnesses from an identity branch: several interior sample points."""
    a, b = M.classes[word[0]]
    for num, den in ((1, 2), (1, 3), (2, 5)):
        x0 = a + (b - a) * Fraction(num, den)
        data = _orbit_data(M, word, x0)
        if data is not None and data[0] <= bound:
            m, rho = data
            result.add(PeriodicWitness(x0, m, rho, tuple(word[:m])))


def periods_up_to(
    F: Lifting, M: MarkovSystem, P: int, loop_cap: int = DEFAULT_LOOP_CAP, succ=None
) -> OracleResult:
    """Exact set of (minimal period, rotation number) pairs with period <= P.

    Loops of length p <= P catch every periodic orbit disjoint from the
    partition (the associated loop has the orbit's length); partition orbits
    are classified directly.  Minimal periods need only be checked on divisors
    of the loop length, which F^p(x) = x + m forces.  Non-simple loops carry
    no new orbits except even repetitions of a branch with slope -1, whose
    doubled (identity) branch is sampled explicitly.  `succ` (successor
    lists) restricts the loops to a subgraph, such as the critical subgraph
    of an endpoint; partition orbits are classified in full either way.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    result = OracleResult(bound=P)
    _classify_partition_orbits(M, result, P)
    for loop in enumerate_loops(M, P, cap=loop_cap, succ=succ):
        if not loop.simple:
            continue
        word = loop.vertices
        A, B = loop_branch(M, word)
        if A == 1:
            if B == 0:
                result.degenerate_loops.append(DegenerateLoopReport(word, loop.length))
                _sample_degenerate(M, word, result, P)
            continue
        y = B / (1 - A)
        data = _orbit_data(M, word, y)
        if data is not None and data[0] <= P:
            m, rho = data
            result.add(PeriodicWitness(y, m, rho, tuple(word[:m])))
        if A == -1 and 2 * loop.length <= P:
            # doubled branch is the identity: an interval of period-2L points
            doubled = word + word
            result.degenerate_loops.append(DegenerateLoopReport(doubled, 2 * loop.length))
            _sample_degenerate(M, doubled, result, P)
    return result
