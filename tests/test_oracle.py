import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracle_reference import loop_branch, orbit_data, reference_periods_up_to, reference_steps, word_steps
from test_periods import two_orbit_maps

from circledyn import oracle
from circledyn.cofiniteness import sbc
from circledyn.errors import CircledynError
from circledyn.families import dream, make, persistent
from circledyn.lifting import Lifting, rotation_interval
from circledyn.markov import MarkovSystem, build_markov_system, critical_successors, enumerate_loops
from circledyn.oracle import PeriodicWitness, _follows, loop_branches, periods_up_to
from circledyn.periods import per_from_rotation

F2 = Fraction


def rigid_half():
    F = Lifting((F2(0),), (F2(1, 2),))
    return F, build_markov_system(F)


class TestRigidRotation:
    def test_only_period_two(self):
        _, M = rigid_half()
        res = periods_up_to(M, 4)
        assert set(res.witnesses) == {(2, F2(1, 2))}

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
        assert not _follows(word_steps(M, word), M.keys[word[0]], 1)


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
    neg_simple = [l for l in enumerate_loops(M, 6) if math.prod(M.orientation[v] for v in l.vertices) == -1]
    assert neg_simple
    checked = 0
    for l in neg_simple:
        doubled = l.vertices + l.vertices
        steps = word_steps(M, l.vertices)
        assert word_steps(M, doubled) == steps + steps
        a, b, c, K = loop_branch(steps + steps)
        a1, b1, c1, K1 = loop_branch(steps)
        assert (a, c, K) == (a1 * a1, c1 * c1, 2 * K1)
        if a == c:
            continue
        # the doubled branch's fixed point is the loop's own
        assert F2(b, c - a) == F2(b1, c1 - a1)
        u, v = (b, c - a) if c > a else (-b, a - c)
        if orbit_data(steps + steps, u, v) is None:
            continue
        y = F2(u, v * M.denominator)
        z = y
        for m in range(1, 2 * len(l.vertices) + 1):
            z = F.eval(z)
            if (z - y).denominator == 1:
                break
        assert m == len(l.vertices)  # not 2l: the doubled loop adds no new orbit
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
    assert (1, F2(0)) in res.witnesses  # center 3/8 and the endpoint orbits
    assert (2, F2(0)) in res.witnesses  # the orbit of 1/4; the third point shares it
    assert any(len(d) % 2 == 0 for d in res.degenerate_loops)
    w = res.witnesses[(2, F2(0))]
    assert F.iterate(w.point, 2) == w.point and F.eval(w.point) != w.point
    assert res.to_json() == reference_periods_up_to(M, 4)[0].to_json()
    for entry in res.degenerate_loops:
        for exact in exact_degenerate_witnesses(M, entry):
            assert exact.check(F)
    # without the partition orbits, the reflection's midpoint and third point
    res = periods_up_to(hiding_partition_orbits(M), 4)
    assert res.witnesses[(1, F2(0))].point == F2(3, 8)
    assert res.witnesses[(2, F2(0))].point == F2(1, 3)


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
            return _follows(*args)

        monkeypatch.setattr(oracle, "_follows", counted)
        assert periods_up_to(M, P).to_json() == expected.to_json()
        assert len(solved) == 575
        assert len(calls) == new_pairs < len(solved) // 10

    def test_montevideo6_composes_each_shared_prefix_once(self, monkeypatch):
        # one `arrow_steps` lookup per arrow the loop does not share with the
        # loop before, the closing arrow included: 7,216 lookups where
        # composing every loop from its first arrow takes one per arrow, 19,014
        inst = make("montevideo", 6)
        M = inst.markov
        P = sbc(per_from_rotation(inst.lifting, M)) + 3
        lookups = []

        class CountedSteps(dict):
            def __getitem__(self, arrow):
                lookups.append(arrow)
                return dict.__getitem__(self, arrow)

        monkeypatch.setitem(vars(M), "arrow_steps", CountedSteps(M.arrow_steps))
        res = periods_up_to(M, P)
        loops = enumerate_loops(M, P)
        assert (P, len(loops), sum(len(l.vertices) for l in loops)) == (37, 575, 19014)
        assert len(lookups) == sum(len(l.vertices) - max(l.shared, 1) + 1 for l in loops) == 7216
        monkeypatch.undo()
        assert res.to_json() == periods_up_to(M, P).to_json()


@st.composite
def grid_liftings(draw, max_N=7):
    """(F, M) for a lifting with its breakpoints and values on the grid j/N,
    N <= max_N, where slopes of +-1 (identity and reflection branches) are
    common."""
    N = draw(st.integers(min_value=1, max_value=max_N))
    js = sorted(draw(st.sets(st.integers(min_value=0, max_value=N - 1), min_size=1)))
    values = [F2(draw(st.integers(min_value=-N, max_value=2 * N)), N) for _ in js]
    F = Lifting(tuple(F2(j, N) for j in js), tuple(values))
    try:
        M = build_markov_system(F)
    except CircledynError:
        assume(False)
    return F, M


def exact_degenerate_witnesses(M, entry):
    """The witnesses the proof states for one entry of `degenerate_loops`:
    an identity word gets its class midpoint with period L; a doubled word
    (a reflection: simple words are primitive, so never squares) gets the
    point a third of the way in with period 2L, and its midpoint, the
    reflection's fixed point, has period L."""
    L = len(entry)
    reflection = L % 2 == 0 and entry[: L // 2] == entry[L // 2 :]
    word = entry[: L // 2] if reflection else entry
    _, _, _, K = loop_branch(word_steps(M, word))
    bounds = M.partition + (M.partition[0] + 1,)
    lo, hi = bounds[word[0]], bounds[word[0] + 1]
    rho = F2(K, len(word))
    yield PeriodicWitness((lo + hi) / 2, len(word), rho, word)
    if reflection:
        yield PeriodicWitness(lo + (hi - lo) / 3, L, rho, entry)


def hiding_partition_orbits(M):
    """M with no partition orbits for the oracle to read.  They witness
    their pairs before any loop does, so reports seldom show a loop's own
    witness; without them every identity and reflection witness shows."""
    hidden = MarkovSystem(M.denominator, M.keys, M.index_map, M.coverings)
    vars(hidden)["partition_cycles"] = ()
    return hidden


class TestDegenerateBranchesByProof:
    """Every identity and reflection branch gets its witness at an exact
    point, stated by the Lyndon argument; the stated points pass the exact
    check and the reports equal the three-sample reference's."""

    @given(data=grid_liftings())
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_exact_points_witness_their_pairs(self, data):
        F, M = data
        P = 6
        try:
            expected, _ = reference_periods_up_to(M, P)
        except CircledynError as err:
            with pytest.raises(type(err), match=re.escape(str(err))):
                periods_up_to(M, P)
            return
        res = periods_up_to(M, P)
        assert res.to_json() == expected.to_json()
        for entry in res.degenerate_loops:
            for w in exact_degenerate_witnesses(M, entry):
                assert w.check(F), (entry, w)
                assert (w.minimal_period, w.rotation) in res.witnesses
        hidden = hiding_partition_orbits(M)
        res = periods_up_to(hidden, P)
        assert res.to_json() == reference_periods_up_to(hidden, P)[0].to_json()
        assert all(w.check(F) for w in res.witnesses.values())

    @pytest.mark.parametrize("rho", [F2(1, 2), F2(2, 5), F2(3, 7), F2(5, 12)])
    def test_rigid_rotation_midpoints(self, rho):
        # a rigid rotation by p/q is one identity branch of period q
        F = Lifting((F2(0),), (rho,))
        M = build_markov_system(F)
        res = periods_up_to(M, rho.denominator + 1)
        assert res.to_json() == reference_periods_up_to(M, rho.denominator + 1)[0].to_json()
        assert set(res.witnesses) == {(rho.denominator, rho)}
        assert res.degenerate_loops
        for entry in res.degenerate_loops:
            (w,) = exact_degenerate_witnesses(M, entry)
            assert w.check(F)
        # the first loop's midpoint, once the orbit of 0 no longer comes first
        res = periods_up_to(hiding_partition_orbits(M), rho.denominator + 1)
        (w,) = res.witnesses.values()
        assert w == next(exact_degenerate_witnesses(M, res.degenerate_loops[0]))


def split_class_system():
    """F(x) = 2x on [0, 2/3], falling to F(1) = 1: the class [1/3, 2/3]
    covers [2/3, 1] with shift 0 and [1, 4/3] with shift 1, so its two
    arrows have different steps."""
    return build_markov_system(Lifting((F2(0), F2(1, 3), F2(2, 3)), (F2(0), F2(2, 3), F2(4, 3))))


def check_loop_branches(M, P, succ=None):
    """Each loop's steps and composed branch from `loop_branches` equal those
    computed for that loop alone; returns the loops."""
    shift = {(i, j): k for i, j, k in M.coverings}
    loops = enumerate_loops(M, P, succ=succ)
    seen = 0
    for loop, (word, steps, branch) in zip(loops, loop_branches(M, loops)):
        want = reference_steps(M, word, shift)
        assert word == loop.vertices
        assert steps == want
        assert branch == loop_branch(want)
        seen += 1
    assert seen == len(loops)
    return loops


class TestLoopBranches:
    """`loop_branches` keeps the composed prefix each loop shares with the
    one before.  Arrows leaving one class have the same step unless their
    shifts differ, so a kept prefix that the search has cut away shows only
    on graphs with such classes."""

    def test_split_class_prefix_is_recomposed(self):
        M = split_class_system()
        shift = {(i, j): k for i, j, k in M.coverings}
        assert {shift[1, 0], shift[1, 2]} == {0, 1}
        loops = check_loop_branches(M, 8)
        # loops cut back right after the split class, to its other arrow
        cut = [
            (before, loop)
            for before, loop in zip(loops, loops[1:])
            if 0 < loop.shared < len(before.vertices)
            and loop.vertices[loop.shared - 1] == 1
            and shift[1, before.vertices[loop.shared]] != shift[1, loop.vertices[loop.shared]]
        ]
        assert cut
        assert periods_up_to(M, 8).to_json() == reference_periods_up_to(M, 8)[0].to_json()

    @given(data=grid_liftings())
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_grid_liftings(self, data):
        _, M = data
        check_loop_branches(M, 6)

    @given(data=two_orbit_maps())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_two_orbit_maps(self, data):
        # the full graph and both endpoints' critical subgraphs
        _, M, rot = data
        for succ in (None, critical_successors(M, rot.c, 1), critical_successors(M, rot.d, -1)):
            check_loop_branches(M, 7, succ)
