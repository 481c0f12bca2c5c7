import dataclasses
import math
import time
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from graph_reference import bellman_ford_critical_successors, tight_loop_arrows
from test_arith import _odd, _v2

import circledyn.markov
from circledyn.arith import ceil_frac, floor_frac, sharkovskii_geq
from circledyn.errors import CircledynError, DegenerateRotationInterval, RotationMismatch
from circledyn.families import dream, make, persistent, persistent_per
from circledyn.lifting import LiftedOrbit, Lifting, RotationInterval, build_from_orbits, rotation_interval
from circledyn.markov import build_markov_system, critical_successors, enumerate_loops
from circledyn.oracle import periods_up_to
from circledyn.periods import (
    PeriodSet,
    endpoint_periods,
    infer_sho_type,
    interior_integer_count,
    m_set,
    per_from_rotation,
)

F2 = Fraction


class TestPeriodSet:
    def test_normalization_absorbs_adjacent(self):
        a = PeriodSet({5, 6, 7, 8, 9}, tail_from=10)
        assert a == PeriodSet(tail_from=5)

    def test_membership(self):
        ps = PeriodSet({2, 5}, tail_from=7)
        assert 2 in ps and 5 in ps and 9 in ps
        assert 3 not in ps and 6 not in ps

    def test_up_to(self):
        ps = PeriodSet({2}, tail_from=5)
        assert ps.up_to(7) == {2, 5, 6, 7}

    def test_json(self):
        ps = PeriodSet({2}, tail_from=5)
        assert ps.to_json() == {"finite": [2], "tail_from": 5, "patterns": []}

    def test_long_run_below_the_tail_absorbed_promptly(self):
        # the run below the tail is counted once and dropped in one filter;
        # absorbing it one element at a time took quadratic time
        start = time.perf_counter()
        assert PeriodSet(range(1, 32000), tail_from=32000) == PeriodSet(tail_from=1)
        assert m_set(F2(-1, 10**6), F2(1, 10**6)) == PeriodSet(tail_from=1)
        assert time.perf_counter() - start < 2

    @given(st.frozensets(st.integers(1, 40)), st.integers(1, 45))
    def test_normalization_keeps_membership(self, fin, tail):
        ps = PeriodSet(fin, tail_from=tail)
        assert all((k in ps) == (k in fin or k >= tail) for k in range(1, 50))
        assert all(k < ps.tail_from - 1 for k in ps.finite)  # the run below the tail is absorbed


class TestMSet:
    def test_spec_examples(self):
        assert m_set(F2(1, 2), F2(7, 10)) == PeriodSet({3}, tail_from=5)
        assert m_set(F2(1, 5), F2(2, 5)) == PeriodSet({3, 4}, tail_from=6)

    def test_full_interval(self):
        # (0, 1): every n >= 2 has an interior fraction, n = 1 does not
        ms = m_set(F2(0), F2(1))
        assert ms == PeriodSet(tail_from=2)

    @given(
        c=st.fractions(min_value=0, max_value=1, max_denominator=30),
        d=st.fractions(min_value=0, max_value=1, max_denominator=30),
    )
    @settings(max_examples=60, derandomize=True)
    def test_membership_matches_predicate(self, c, d):
        if not c < d:
            return
        ms = m_set(c, d)
        for n in range(1, 201):
            direct = any(c < F2(k, n) < d for k in range(-1, n + 2))
            assert (n in ms) == direct

    @given(
        c=st.fractions(min_value=-5, max_value=5, max_denominator=40),
        width=st.fractions(min_value=0, max_value=2, max_denominator=40),
    )
    @settings(max_examples=200, derandomize=True)
    def test_integer_tail_matches_interior_count(self, c, width):
        # m_set runs on the endpoints' numerators and denominators; the
        # Fraction count is the definition it must reproduce, also below 0
        assume(width > 0)
        d = c + width
        ms = m_set(c, d)
        for q in range(1, ms.tail_from + 40):
            assert (q in ms) == (interior_integer_count(c, d, q) > 0), q

    def test_farey_gap_property(self):
        # m_set(1/(2n-1), 2/(2n-1)) ∩ [1, 2n-2] = [n, 2n-2]
        for n in range(3, 12):
            ms = m_set(F2(1, 2 * n - 1), F2(2, 2 * n - 1))
            assert ms.up_to(2 * n - 2) == set(range(n, 2 * n - 1))

    def test_interior_count_multiplicity(self):
        assert interior_integer_count(F2(1, 2), F2(7, 10), 9) == 2
        assert interior_integer_count(F2(1, 2), F2(7, 10), 13) == 3
        assert interior_integer_count(F2(1, 5), F2(2, 5), 5) == 0

    @given(
        c=st.fractions(min_value=-5, max_value=5, max_denominator=12),
        width=st.fractions(min_value=0, max_value=3, max_denominator=12),
        q=st.integers(min_value=1, max_value=60),
    )
    @example(c=F2(-2), width=F2(3), q=1)  # integer endpoints
    @example(c=F2(-7, 3), width=F2(2, 3), q=3)  # qc and qd integers
    @settings(max_examples=300, derandomize=True)
    def test_interior_count_matches_fraction_formula(self, c, width, q):
        assume(width > 0)
        d = c + width
        expected = max(0, (ceil_frac(q * d) - 1) - (floor_frac(q * c) + 1) + 1)
        assert interior_integer_count(c, d, q) == expected
        assert 6 in m_set(F2(1, 5), F2(2, 5))


class TestEndpointPeriods:
    def test_rigid_rotation(self):
        # every point has minimal period exactly 2: Q(1/2) = {2}
        F = Lifting((F2(0),), (F2(1, 2),))
        M = build_markov_system(F)
        assert endpoint_periods(M, F2(1, 2), bound=4) == {2}

    def test_persistent7_half(self):
        inst = persistent(7)
        got = endpoint_periods(inst.markov, F2(1, 2), bound=7)
        assert got == {2}  # and in particular 4 is absent

    def test_dream3_one_fifth(self):
        inst = dream(3)
        got = endpoint_periods(inst.markov, F2(1, 5), bound=5)
        assert got == {5}

    def test_upper_endpoint_needs_its_side(self):
        inst = persistent(7)  # Rot = [1/2, 9/14]
        M = inst.markov
        # periods_up_to(M, 28) on the whole graph finds the same set
        assert endpoint_periods(M, F2(9, 14), bound=28, side=-1) == {14}
        with pytest.raises(RotationMismatch):
            endpoint_periods(M, F2(9, 14), bound=28)


class TestPerFromRotation:
    @pytest.mark.parametrize(
        "name,n,expected",
        [
            ("persistent", 7, PeriodSet({2, 5}, tail_from=7)),
            ("montevideo", 3, PeriodSet({3}, tail_from=6)),
            ("dream", 5, PeriodSet(tail_from=5)),
        ],
    )
    def test_family_formulas(self, name, n, expected):
        inst = make(name, n)
        assert per_from_rotation(inst.lifting, inst.markov) == expected

    def test_persistent_6401_formula(self):
        # the lower endpoint 1/2's critical subgraph closes one loop, the
        # 2-cycle, and its walk reaches length 6,400: the search visits
        # 6,400 paths and builds none of the 3,199 repetitions
        inst = make("persistent", 6401)
        assert per_from_rotation(inst.lifting, inst.markov) == persistent_per(6401)

    def test_degenerate_interval_rejected(self):
        F = Lifting((F2(0),), (F2(1, 2),))
        M = build_markov_system(F)
        with pytest.raises(DegenerateRotationInterval):
            per_from_rotation(F, M)

    def test_contains_m_set_and_endpoint_multiples(self):
        inst = persistent(9)
        per = per_from_rotation(inst.lifting, inst.markov)
        from circledyn.lifting import rotation_interval

        rot = rotation_interval(inst.lifting)
        ms = m_set(rot.c, rot.d)
        assert ms.up_to(40) <= per.up_to(40)
        extras = per.up_to(ms.tail_from - 1) - ms.up_to(ms.tail_from - 1)
        s, sp = rot.c.denominator, rot.d.denominator
        assert all(m % s == 0 or m % sp == 0 for m in extras)

    @pytest.mark.parametrize("name,n", [("dream", 4), ("persistent", 5), ("montevideo", 3)])
    def test_oracle_consistency(self, name, n):
        # per_from_rotation ∩ [1, P] == periods_up_to(M, P), P = tail + 3
        from circledyn.lifting import rotation_interval
        from circledyn.oracle import periods_up_to

        inst = make(name, n)
        per = per_from_rotation(inst.lifting, inst.markov)
        rot = rotation_interval(inst.lifting)
        P = m_set(rot.c, rot.d).tail_from + 3
        got = periods_up_to(inst.markov, P).periods()
        assert got == per.up_to(P)


SCAN_INSTANCES = (
    [("montevideo", n) for n in range(3, 11)]
    + [("persistent", n) for n in range(5, 102, 2)]
    + [("dream", n) for n in range(3, 52)]
)


@st.composite
def two_orbit_maps(draw, max_period=6):
    """(F, M, Rot(F)) for a map through two twist orbits of period at most
    max_period, interleaved at random on the points j/N (the maps of
    bench/generic_liftings.random_orbit_pair, at most 2*max_period classes,
    plus fixed points of rotation 0, whose loops of integer mean are arrows
    from a class to itself)."""
    shapes = []
    for _ in range(2):
        q = draw(st.integers(min_value=1, max_value=max_period))
        p = draw(st.sampled_from([p for p in range(q) if math.gcd(p, q) == 1]))
        shapes.append((q, p))
    (q1, p1), (q2, p2) = shapes
    labels = draw(st.permutations([0] * q1 + [1] * q2))
    N = q1 + q2
    orbits = [
        LiftedOrbit(tuple(F2(j, N) for j, lab in enumerate(labels) if lab == o), shift)
        for o, shift in ((0, p1), (1, p2))
    ]
    try:
        F = build_from_orbits(orbits)
        M = build_markov_system(F)
    except CircledynError:
        assume(False)
    rot = rotation_interval(F)
    assume(rot.c < rot.d)
    return F, M, rot


def reference_per_from_rotation(F, M, rot):
    """Per(F) with every endpoint loop found on the whole covering graph: one
    full oracle query up to the largest unresolved multiple of an endpoint
    denominator (the query before critical subgraphs)."""
    c, d = rot.c, rot.d
    ms = m_set(c, d)
    bound = ms.tail_from - 1
    candidates = {m for e in (c, d) for m in range(e.denominator, bound + 1, e.denominator)}
    extra = {m for _, m, rho, _ in M.partition_cycles if m <= bound and rho in (c, d)}
    unresolved = candidates - extra
    if unresolved:
        full = periods_up_to(M, max(unresolved))
        extra |= {m for (m, rho) in full.witnesses if m <= bound and rho in (c, d)}
    return PeriodSet(finite=ms.finite | extra, tail_from=ms.tail_from)


def karp_extreme_mean(M, sign):
    """min over the loops of M of sign * (total shift / length), by Karp's
    theorem on the arrow list: with D_k(v) the least weight of a walk of
    exactly k arrows ending at v, it is
    min_v max_k (D_n(v) - D_k(v)) / (n - k)."""
    n = M.size
    arcs = [(i, j, sign * k) for i, j, k in M.coverings]
    D = [[0] * n]
    for _ in range(n):
        row = [None] * n
        for i, j, w in arcs:
            if D[-1][i] is not None and (row[j] is None or D[-1][i] + w < row[j]):
                row[j] = D[-1][i] + w
        D.append(row)
    return min(
        max(F2(D[n][v] - D[k][v], n - k) for k in range(n) if D[k][v] is not None)
        for v in range(n)
        if D[n][v] is not None
    )


def loop_mean(M, word):
    shift = {(i, j): k for i, j, k in M.coverings}
    return F2(sum(shift[v, word[(t + 1) % len(word)]] for t, v in enumerate(word)), len(word))


def critical_verdict(query, M, e, side):
    """(tight successor lists, None) of an endpoint query, or (None, the
    RotationMismatch message)."""
    try:
        return query(M, e, side), None
    except RotationMismatch as err:
        return None, str(err)


def endpoint_queries(rot, off, both_sides=True):
    """Both ends of Rot(F) and the means just off each, on both sides or on
    each end's own side."""
    return [
        (e + delta, s)
        for e, side in ((rot.c, 1), (rot.d, -1))
        for delta in (0, -off, off)
        for s in ((1, -1) if both_sides else (side,))
    ]


def check_against_bellman_ford(M, rot, max_len=0, off=F2(1, 97), both_sides=True):
    """The envelope-cycle certificate and the Bellman-Ford reference give the
    same verdict and message, the same tight arrows on tight loops, and tight
    lists with the same loops up to max_len (a tight arrow on no loop may
    differ with the potential)."""
    for e, side in endpoint_queries(rot, off, both_sides):
        got, message = critical_verdict(critical_successors, M, e, side)
        want, want_message = critical_verdict(bellman_ford_critical_successors, M, e, side)
        assert message == want_message, (e, side)
        if got is not None:
            assert tight_loop_arrows(got) == tight_loop_arrows(want), (e, side)
            if max_len:
                loops = [l.vertices for l in enumerate_loops(M, max_len, succ=got)]
                assert loops == [l.vertices for l in enumerate_loops(M, max_len, succ=want)], (e, side)


class TestCriticalSubgraph:
    @given(data=two_orbit_maps())
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_per_from_rotation_matches_full_graph(self, data):
        F, M, rot = data
        assert per_from_rotation(F, M) == reference_per_from_rotation(F, M, rot)

    @pytest.mark.parametrize("name,n", SCAN_INSTANCES[::4])
    def test_scan_instances_match_full_graph(self, name, n):
        inst = make(name, n)
        rot = rotation_interval(inst.lifting)
        got = per_from_rotation(inst.lifting, inst.markov)
        assert got == reference_per_from_rotation(inst.lifting, inst.markov, rot)

    @given(data=two_orbit_maps(), P=st.integers(min_value=1, max_value=12))
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_per_from_rotation_matches_oracle(self, data, P):
        # past the M(c,d) tail every period is in Per(F); capping P there keeps
        # the full oracle, exponential in P on dense graphs, out of the minutes
        F, M, rot = data
        P = min(P, m_set(rot.c, rot.d).tail_from + 2)
        assert per_from_rotation(F, M).up_to(P) == periods_up_to(M, P).periods()

    @given(data=two_orbit_maps())
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_rotation_interval_is_extreme_loop_mean(self, data):
        F, M, rot = data
        assert (rot.c, rot.d) == (karp_extreme_mean(M, 1), -karp_extreme_mean(M, -1))

    @pytest.mark.parametrize("name,n", [("dream", 4), ("persistent", 7), ("montevideo", 3)])
    def test_family_rotation_interval_is_extreme_loop_mean(self, name, n):
        inst = make(name, n)
        M = inst.markov
        rot = rotation_interval(inst.lifting)
        assert (rot.c, rot.d) == (karp_extreme_mean(M, 1), -karp_extreme_mean(M, -1))

    @given(data=two_orbit_maps())
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_critical_loops_are_the_loops_of_endpoint_mean(self, data):
        F, M, rot = data
        full = enumerate_loops(M, 6)
        for e, side in ((rot.c, 1), (rot.d, -1)):
            critical = enumerate_loops(M, 6, succ=critical_successors(M, e, side))
            assert [l.vertices for l in critical] == [l.vertices for l in full if loop_mean(M, l.vertices) == e]

    @given(data=two_orbit_maps())
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_mean_off_the_endpoints_raises(self, data):
        # inside Rot(F) a loop has mean beyond e; outside it no loop has mean e
        F, M, rot = data
        for e, side, message in (
            (rot.c + F2(1, 97), 1, "a loop has mean beyond"),
            (rot.d - F2(1, 97), -1, "a loop has mean beyond"),
            (rot.c - F2(1, 97), 1, "no loop has mean"),
            (rot.d + F2(1, 97), -1, "no loop has mean"),
        ):
            with pytest.raises(RotationMismatch, match=message):
                critical_successors(M, e, side)

    @given(data=two_orbit_maps())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_two_orbit_maps_match_bellman_ford(self, data):
        F, M, rot = data
        check_against_bellman_ford(M, rot, 8)

    @pytest.mark.parametrize("name,n", SCAN_INSTANCES)
    def test_scan_instances_match_bellman_ford(self, name, n):
        M = make(name, n).markov
        check_against_bellman_ford(M, M.rotation, 8)

    @pytest.mark.slow
    @pytest.mark.parametrize("name,n", [("montevideo", 60), ("dream", 3201), ("persistent", 6401)])
    def test_large_systems_match_bellman_ford(self, name, n):
        # critical loops here are longer than a loop enumeration can reach,
        # so the tight arrows on tight loops stand in for them; each end on
        # its own side, as the reference takes about 30 s per query inside
        # Rot(F) at persistent 6401
        inst = make(name, n)
        M = inst.markov
        check_against_bellman_ford(M, M.rotation, off=F2(1, 10**6), both_sides=False)
        with mock.patch("circledyn.periods.critical_successors", bellman_ford_critical_successors):
            want = per_from_rotation(inst.lifting, M)
        assert per_from_rotation(inst.lifting, M) == want

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_loop_through_every_class(self, n):
        # the reference on one loop through all n classes, shift -1 on every
        # arrow but the closing one: shortest paths run to n - 1 arrows, and a
        # loop of mean below 0 shows only in a walk of n arrows
        def system(closing):
            arrows = [(i, i + 1, -1) for i in range(n - 1)] + [(n - 1, 0, closing)]
            return SimpleNamespace(size=n, coverings=sorted(arrows))

        assert bellman_ford_critical_successors(system(n - 1), F2(0), 1) == [[(i + 1) % n] for i in range(n)]
        with pytest.raises(RotationMismatch, match="a loop has mean beyond"):
            bellman_ford_critical_successors(system(n - 2), F2(0), 1)

    @pytest.mark.parametrize("n,k", [(2, 1), (5, 2), (7, 3), (12, 5)])
    def test_rigid_rotation_is_one_loop(self, n, k):
        # x -> x + k/n on the n points j/n: class i covers class i + k only,
        # and the n classes form one loop of mean k/n
        M = build_markov_system(Lifting((F2(0),), (F2(k, n),)))
        assert M.size == n and M.rotation == RotationInterval(F2(k, n), F2(k, n))
        for side in (1, -1):
            succ = critical_successors(M, F2(k, n), side)
            assert succ == [[(i + k) % n] for i in range(n)]
            (loop,) = enumerate_loops(M, n, succ=succ)
            assert sorted(loop.vertices) == list(range(n))
            with pytest.raises(RotationMismatch, match="a loop has mean beyond"):
                critical_successors(M, F2(k, n) + side * F2(1, 97), side)
            with pytest.raises(RotationMismatch, match="no loop has mean"):
                critical_successors(M, F2(k, n) - side * F2(1, 97), side)

    @pytest.mark.parametrize(
        "dc,dd,message",
        [
            (F2(-1, 100), 0, "no loop has mean"),
            (0, F2(1, 100), "no loop has mean"),
            (F2(1, 100), 0, "a loop has mean beyond"),
            (0, F2(-1, 100), "a loop has mean beyond"),
        ],
    )
    @pytest.mark.parametrize("name,n", [("persistent", 7), ("dream", 3), ("montevideo", 4)])
    def test_wrong_rotation_interval_raises(self, name, n, dc, dd, message):
        # the endpoint query certifies its end of Rot(F): the shifted end
        # of the wrong interval is refused before any oracle query
        inst = make(name, n)
        rot = rotation_interval(inst.lifting)
        wrong = RotationInterval(rot.c + dc, rot.d + dd)
        e, side = (wrong.c, 1) if dc else (wrong.d, -1)
        bound = m_set(rot.c, rot.d).tail_from - 1
        start = time.perf_counter()
        with pytest.raises(RotationMismatch, match=message):
            endpoint_periods(inst.markov, e, bound, side)
        assert time.perf_counter() - start < 10


class TestPartitionRotationInterval:
    """`MarkovSystem.rotation`, the index-map path that `per_from_rotation`
    and the scans use, against the lifting's envelopes."""

    @given(data=two_orbit_maps())
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_two_orbit_maps_match_lifting(self, data):
        F, M, rot = data
        assert M.rotation == rot

    @pytest.mark.parametrize("name,n", SCAN_INSTANCES[::4])
    def test_scan_instances_match_lifting(self, name, n):
        inst = make(name, n)
        assert dataclasses.replace(inst.markov).rotation == rotation_interval(inst.lifting)


def one_walk_per_start(M):
    """Partition orbits as classified before `MarkovSystem.partition_cycles`:
    from each point no earlier walk met, walk the index map until a point of
    this walk repeats, and report its cycle as (r, m, rho, itinerary), even
    when an earlier walk reached that cycle too."""
    n, G = M.size, M.index_map
    seen, walks = set(), []
    for start in range(n):
        if start in seen:
            continue
        index_of, lifts, L = {}, [], start
        while L % n not in index_of:
            index_of[L % n] = len(lifts)
            lifts.append(L)
            seen.add(L % n)
            L = G[L % n] + L - L % n
        j = index_of[L % n]
        m = len(lifts) - j
        walks.append((L % n, m, F2((L - lifts[j]) // n, m), tuple(x % n for x in lifts[j:])))
    return walks


def first_per_key(cycles):
    """The cycle an OracleResult keeps for each (period, rotation)."""
    kept = {}
    for r, m, rho, orbit in cycles:
        kept.setdefault((m, rho), (r, orbit))
    return list(kept.items())


class TestPartitionCycles:
    """`MarkovSystem.partition_cycles` lists each periodic partition orbit
    once, as the first walk that closed it."""

    def check(self, M):
        walks = one_walk_per_start(M)
        firsts = [w for i, w in enumerate(walks) if all(set(w[3]) != set(v[3]) for v in walks[:i])]
        assert list(M.partition_cycles) == firsts
        assert first_per_key(M.partition_cycles) == first_per_key(walks)

    @given(data=two_orbit_maps())
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_two_orbit_maps_match_one_walk_per_start(self, data):
        self.check(data[1])

    @pytest.mark.parametrize("name,n", SCAN_INSTANCES[::4])
    def test_scan_instances_match_one_walk_per_start(self, name, n):
        self.check(make(name, n).markov)

    @given(data=two_orbit_maps())
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_one_walk_per_system(self, data):
        # the two envelope cycles (Rot(F) and both certificates) and the
        # partition cycles, each walked once on a fresh system
        F, M, rot = data
        M = dataclasses.replace(M)
        walk = mock.Mock(wraps=circledyn.markov.index_cycles)
        with mock.patch.object(circledyn.markov, "index_cycles", walk):
            assert M.rotation == rot
            per_from_rotation(F, M)
            periods_up_to(M, 4)
        assert walk.call_count == 3


def reference_sho_type(ks: set[int], bound: int):
    """(value, ambiguous) of infer_sho_type, from the definitions alone: the
    Sharkovskii-least t in [1, 2*bound + 1] ∪ {2^∞} whose tail {k : k <=_Sh t}
    meets [1, bound] in exactly ks, with the order spelled out on the 2-adic
    split k = 2^v * odd."""

    def rank(t):
        # larger rank = greater in 3 > 5 > ... > 2·3 > ... > 2^∞ > ... > 2 > 1
        if t == "2^inf":
            return (1,)
        v, m = _v2(t), _odd(t)
        return (2, -v, -m) if m >= 3 else (0, v)

    matches = [
        t
        for t in [*range(1, 2 * bound + 2), "2^inf"]
        if {k for k in range(1, bound + 1) if rank(k) <= rank(t)} == ks
    ]
    if not matches:
        return None, False
    best = min(matches, key=rank)
    all_pow2 = all(_odd(k) == 1 for k in ks)
    return best, all_pow2 and max(ks) * 2 > bound


@st.composite
def sho_observations(draw):
    """(bound, segment, subset), bound up to 120: the Sharkovskii initial
    segment {k <= bound : k <=_Sh t} of some t, and any subset of [1, bound]."""
    bound = draw(st.integers(1, 120))
    t = draw(st.integers(1, 2 * bound + 1))
    segment = {k for k in range(1, bound + 1) if sharkovskii_geq(t, k)}
    return bound, segment, set(draw(st.lists(st.integers(1, bound), max_size=12)))


class TestShoInference:
    @given(sho_observations())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_matches_brute_force_over_every_type(self, case):
        bound, *observations = case
        for ks in observations:
            inf = infer_sho_type(ks, bound)
            assert (inf.sho, inf.ambiguous_two_infinity) == reference_sho_type(ks, bound), ks

    @pytest.mark.parametrize("bound", range(1, 11))
    def test_every_subset_matches_definition(self, bound):
        for mask in range(1 << bound):
            ks = {k for k in range(1, bound + 1) if mask >> (k - 1) & 1}
            inf = infer_sho_type(ks, bound)
            assert (inf.sho, inf.ambiguous_two_infinity) == reference_sho_type(ks, bound), ks

    def test_trivial(self):
        inf = infer_sho_type({1}, bound=6)
        assert inf.sho == 1

    def test_powers_of_two_ambiguous(self):
        # {1,2,4,8} observed up to 8: least matching type is 8, but 16, 32,
        # ... and 2^inf are indistinguishable on this evidence
        inf = infer_sho_type({1, 2, 4, 8}, bound=8)
        assert inf.sho == 8 and inf.ambiguous_two_infinity

    def test_odd_type(self):
        observed = {k for k in range(1, 30) if sharkovskii_geq(5, k)}
        inf = infer_sho_type(observed, bound=29)
        assert inf.sho == 5
