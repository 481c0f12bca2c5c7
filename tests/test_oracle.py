import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from test_periods import two_orbit_maps

from circledyn import oracle
from circledyn.cofiniteness import sbc
from circledyn.errors import CircledynError
from circledyn.families import dream, make, persistent
from circledyn.lifting import Lifting, rotation_interval
from circledyn.markov import build_markov_system, critical_successors, enumerate_loops
from circledyn.oracle import (
    OracleResult,
    PeriodicWitness,
    _orbit_data,
    _sample_degenerate,
    _steps,
    loop_branch,
    periods_up_to,
)
from circledyn.periods import per_from_rotation

F2 = Fraction


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
        if not loop.simple:
            continue
        word = loop.vertices
        steps = reference_steps(M, word, shift)
        a, b, c = loop_branch(steps)
        if a == c:
            if b == 0:
                _sample_degenerate(M, word, steps, result)
            continue
        u, v = (b, c - a) if c > a else (-b, a - c)
        data = _orbit_data(steps, u, v)
        solved.append(((len(word), F2(sum(step[5] for step in steps), len(word))), data))
        if data is not None:
            m, rho = data
            result.add(PeriodicWitness(F2(u, v * M.denominator), m, rho, word[:m]))
        if a == -c and 2 * loop.length <= P:
            _sample_degenerate(M, word + word, steps + steps, result)
    return result, solved


def rigid_half():
    F = Lifting((F2(0),), (F2(1, 2),))
    return F, build_markov_system(F, extra_points=[F2(0)])


class TestRigidRotation:
    def test_only_period_two(self):
        _, M = rigid_half()
        res = periods_up_to(M, 4)
        assert res.period_rotations() == {(2, F2(1, 2))}

    def test_degenerate_loops_reported(self):
        _, M = rigid_half()
        res = periods_up_to(M, 4)
        assert res.degenerate_loops  # every point is periodic: identity branch


class TestFamilies:
    def test_persistent7(self):
        inst = persistent(7)
        res = periods_up_to(inst.markov, 7)
        assert res.periods() == {2, 5, 7}

    def test_dream4(self):
        inst = dream(4)
        res = periods_up_to(inst.markov, 8)
        assert res.periods() == {4, 5, 6, 7, 8}

    @pytest.mark.parametrize("name,n", [("dream", 3), ("persistent", 5), ("montevideo", 3)])
    def test_matches_closed_form(self, name, n):
        inst = make(name, n)
        per = per_from_rotation(inst.lifting, inst.markov)
        P = sbc(per) + 3
        res = periods_up_to(inst.markov, P)
        assert res.periods() == inst.expected_per.up_to(P)


@pytest.mark.parametrize("name,n", [("dream", 3), ("persistent", 5), ("montevideo", 3)])
def test_partition_point_is_not_a_loop_orbit(name, n):
    # a periodic partition point whose itinerary is a loop of the covering
    # graph sits on the boundary of its first class, not strictly inside:
    # the loop pass must leave it to the partition-orbit pass
    M = make(name, n).markov
    words = [
        orbit
        for _, _, _, orbit in M.partition_cycles
        if all(orbit[(t + 1) % len(orbit)] in M.successors[i] for t, i in enumerate(orbit))
    ]
    assert words
    for word in words:
        assert _orbit_data(_steps(M, word), M.keys[word[0]], 1) is None


@pytest.mark.parametrize("name,n,P", [("dream", 3, 8), ("persistent", 7, 10), ("montevideo", 3, 9)])
def test_witnesses_satisfy_invariants(name, n, P):
    inst = make(name, n)
    res = periods_up_to(inst.markov, P)
    assert res.witnesses
    rot = rotation_interval(inst.lifting)
    for (m, rho), w in res.witnesses.items():
        assert w.check(inst.lifting)
        assert w.minimal_period == m and w.rotation == rho
        assert rot.c <= rho <= rot.d  # witness rotations inside Rot(F)


def test_two_repetition_of_negative_loop_has_half_period():
    # whenever a loop of length 2l is the 2-repetition of a negative simple
    # loop, the solved point of the doubled branch has minimal period l
    inst = dream(3)
    F, M = inst.lifting, inst.markov
    neg_simple = [
        l for l in enumerate_loops(M, 6) if l.simple and math.prod(M.orientation[v] for v in l.vertices) == -1
    ]
    assert neg_simple
    checked = 0
    for l in neg_simple:
        doubled = l.vertices + l.vertices
        steps = _steps(M, l.vertices)
        assert _steps(M, doubled) == steps + steps
        a, b, c = loop_branch(steps + steps)
        a1, b1, c1 = loop_branch(steps)
        assert (a, c) == (a1 * a1, c1 * c1)
        if a == c:
            continue
        # the doubled branch's fixed point is the loop's own
        assert F2(b, c - a) == F2(b1, c1 - a1)
        u, v = (b, c - a) if c > a else (-b, a - c)
        if _orbit_data(steps + steps, u, v) is None:
            continue
        y = F2(u, v * M.denominator)
        z = y
        for m in range(1, 2 * l.length + 1):
            z = F.eval(z)
            if (z - y).denominator == 1:
                break
        assert m == l.length  # not 2l: the doubled loop adds no new orbit
        checked += 1
    assert checked > 0


def test_minus_one_slope_doubling_sampled():
    # a self-covering class with branch slope exactly -1: its square is the
    # identity, so an interval of period-2 points exists and must be found
    F = Lifting(
        (F2(0), F2(1, 4), F2(1, 2), F2(3, 4)),
        (F2(1, 4), F2(1, 2), F2(1, 4), F2(3, 4)),
    )
    M = build_markov_system(F)
    res = periods_up_to(M, 4)
    assert (1, F2(0)) in res.period_rotations()  # center 3/8 and the endpoint orbits
    assert (2, F2(0)) in res.period_rotations()  # sampled from the doubled branch
    assert any(len(d) % 2 == 0 for d in res.degenerate_loops)
    w = res.witnesses[(2, F2(0))]
    assert F.iterate(w.point, 2) == w.point and F.eval(w.point) != w.point


class TestWitnessedPairsSkipped:
    """A simple loop whose (period, rotation) pair is already witnessed is
    neither solved nor walked; the reports equal the every-loop reference."""

    @given(data=two_orbit_maps())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_matches_solving_every_loop(self, data):
        # the full graph and both endpoints' critical subgraphs
        _, M, rot = data
        P = 7
        for succ in (None, critical_successors(M, rot.c, 1), critical_successors(M, rot.d, -1)):
            try:
                expected, solved = reference_periods_up_to(M, P, succ)
            except CircledynError as err:
                with pytest.raises(type(err), match=re.escape(str(err))):
                    periods_up_to(M, P, succ=succ)
                continue
            assert periods_up_to(M, P, succ=succ).to_json() == expected.to_json()
            # a simple loop is primitive: its witness closes only at its length
            for pair, orbit in solved:
                assert orbit in (None, pair)

    def test_montevideo6_walks_each_new_pair_once(self, monkeypatch):
        # one check walk per simple loop whose pair had no witness when met,
        # counted against the reference's own per-loop results
        inst = make("montevideo", 6)
        M = inst.markov
        P = sbc(per_from_rotation(inst.lifting, M)) + 3
        expected, solved = reference_periods_up_to(M, P)
        assert not expected.degenerate_loops  # every walk is a fixed-point walk
        witnessed = {(m, rho) for _, m, rho, _ in M.partition_cycles if m <= P}
        new_pairs = 0
        for pair, orbit in solved:
            if pair not in witnessed:
                new_pairs += 1
                if orbit is not None:
                    witnessed.add(orbit)
        calls = []

        def counted(*args):
            calls.append(args)
            return _orbit_data(*args)

        monkeypatch.setattr(oracle, "_orbit_data", counted)
        assert periods_up_to(M, P).to_json() == expected.to_json()
        assert len(solved) == 575
        assert len(calls) == new_pairs < len(solved) // 10
