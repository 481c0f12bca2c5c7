"""Test reference for `circledyn.oracle.periods_up_to`: the oracle that
searches for each witness instead of stating it.

- `reference_steps`, for `MarkovSystem.arrow_steps`: each loop's steps
  computed for that loop alone from the keys, the index map and the arrow
  shifts.
- `orbit_data`, for the check walk: it finds the minimal period and the
  rotation number of a point by testing every divisor of the loop length
  for an early return, where the program states the pair (L, K/L).
- `sample_degenerate`, for the identity and reflection branches: three
  sample points (1/2, 1/3 and 2/5 of the class) walked by `orbit_data`,
  where the program puts one witness at its exact point.
- `reference_periods_up_to` solves and walks every simple loop, whatever
  pairs are already witnessed, with the two helpers above.
"""

from __future__ import annotations

from fractions import Fraction

from circledyn.markov import enumerate_loops
from circledyn.oracle import OracleResult, PeriodicWitness, loop_branch


def reference_steps(M, word, shift):
    """(lo, hi, dx, dy, e, k) for each arrow along the loop word, computed
    for this loop alone from the keys, the index map and the arrow shifts
    `shift` ({(i, j): k})."""
    X, G, D, n = M.keys, M.index_map, M.denominator, M.size
    steps = []
    for t, i in enumerate(word):
        k = shift[i, word[(t + 1) % len(word)]]
        g0, g1 = G[i], G[i + 1] if i + 1 < n else G[0] + n
        y0, y1 = X[g0 % n] + g0 // n * D, X[g1 % n] + g1 // n * D
        dx, dy = X[i + 1] - X[i], y1 - y0
        steps.append((X[i], X[i + 1], dx, dy, (y0 - k * D) * dx - X[i] * dy, k))
    return steps


def orbit_data(steps, u0, v0):
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


def walk_witness(M, word, steps, u, v, result):
    """Adds the witness at the key u/v (v > 0) when its orbit realizes the
    word, with the pair `orbit_data` finds."""
    data = orbit_data(steps, u, v)
    if data is not None:
        m, rho = data
        result.add(PeriodicWitness(Fraction(u, v * M.denominator), m, rho, tuple(word[:m])))


def sample_degenerate(M, word, steps, result):
    """Reports an identity branch and its witnesses at interior samples."""
    result.degenerate_loops.append(word)
    lo, hi = steps[0][:2]
    for num, den in ((1, 2), (1, 3), (2, 5)):
        walk_witness(M, word, steps, lo * den + (hi - lo) * num, den, result)


def reference_periods_up_to(M, P, succ=None):
    """The oracle that solves and walks every simple loop, whatever pairs are
    already witnessed.  Also returns ((L, K/L), orbit data) for each simple
    loop whose branch has a fixed point, in loop order: L its length, K its
    summed shifts, data None when the check walk rejects the point."""
    shift = {(i, j): k for i, j, k in M.coverings}
    result = OracleResult(bound=P)
    for r, m, rho, orbit in M.partition_cycles:
        result.add(PeriodicWitness(M.partition[r], m, rho, orbit))
    solved = []
    for loop in enumerate_loops(M, P, succ=succ):
        word = loop.vertices
        steps = reference_steps(M, word, shift)
        a, b, c, _ = loop_branch(steps)
        if a == c:
            if b == 0:
                sample_degenerate(M, word, steps, result)
            continue
        u, v = (b, c - a) if c > a else (-b, a - c)
        data = orbit_data(steps, u, v)
        solved.append(((len(word), Fraction(sum(step[5] for step in steps), len(word))), data))
        if data is not None:
            m, rho = data
            result.add(PeriodicWitness(Fraction(u, v * M.denominator), m, rho, word[:m]))
        if a == -c and 2 * len(word) <= P:
            sample_degenerate(M, word + word, steps + steps, result)
    return result, solved
