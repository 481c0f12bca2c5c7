import math
from fractions import Fraction

import pytest

from circledyn.families import dream, make, persistent
from circledyn.lifting import Lifting, rotation_interval
from circledyn.markov import build_markov_system, enumerate_loops
from circledyn.oracle import _orbit_data, _steps, loop_branch, periods_up_to

F2 = Fraction


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
        from circledyn.cofiniteness import sbc

        from circledyn.periods import per_from_rotation

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
