import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circledyn.arith import CertifiedRoot, IntPolynomial, char_poly, floor_frac, rat_str
from circledyn.errors import BudgetExceeded, InvalidRome, NoRootAbove, NotInvariant, NotShort
from circledyn.families import dream, make, montevideo, persistent, persistent_poly
from circledyn.graphext import extend
from circledyn.lifting import LiftedOrbit, Lifting, RotationInterval, build_from_orbits, rotation_interval
from circledyn.markov import (
    Rome,
    build_markov_system,
    entropy,
    enumerate_loops,
    find_rome,
    markov_char_poly,
    partition_rotation_interval,
    perron_bracket,
    rome_char_poly,
    rome_matrix,
    transitivity_certificate,
    validate_rome,
)
from circledyn.minentropy import envelope_rotation_bounds
from circledyn.oracle import periods_up_to
from circledyn.periods import per_from_rotation
from test_graphext import apple_graph, triangle_with_tail
from test_periods import two_orbit_maps

F2 = Fraction


class FakeSystem:
    """Bare adjacency for the matrix-level operations."""

    def __init__(self, matrix, orientation=None):
        self.matrix = tuple(tuple(r) for r in matrix)
        self.orientation = tuple(orientation or [1] * len(matrix))


def reference_build(F: Lifting, extra_points=()):
    """The covering relation by pairwise Fraction comparisons, O(n^2): for
    each class pair, the unique integer k with [c+k, d+k] inside the image of
    class i.  Returns (partition, classes, matrix, shifts, orientation)."""
    pts = {b for b in F.breakpoints}
    for p in extra_points:
        p = Fraction(p)
        pts.add(p - floor_frac(p))
    frontier = list(pts)
    while frontier:
        if len(pts) > 100000:
            raise NotInvariant("forward closure of the partition does not stabilize")
        y = F.eval(frontier.pop())
        y -= floor_frac(y)
        if y not in pts:
            pts.add(y)
            frontier.append(y)
    partition = tuple(sorted(pts))
    n = len(partition)
    if n < 2:
        raise NotInvariant("need at least two partition points mod 1")
    classes = [(partition[i], partition[i + 1]) for i in range(n - 1)]
    classes.append((partition[-1], partition[0] + 1))
    matrix = [[0] * n for _ in range(n)]
    shifts = [[0] * n for _ in range(n)]
    orientation = []
    for i, (a, b) in enumerate(classes):
        fa, fb = F.eval(a), F.eval(b)
        orientation.append((fa < fb) - (fa > fb))
        lo, hi = min(fa, fb), max(fa, fb)
        if hi - lo >= 1:
            raise NotShort(f"class [{rat_str(a)},{rat_str(b)}] has image length {hi - lo} >= 1")
        for j, (c, d) in enumerate(classes):
            kmin, kmax = lo - c, hi - d
            if kmax < kmin:
                continue
            k = floor_frac(kmax)
            if k >= kmin:
                matrix[i][j] = 1
                shifts[i][j] = k
    return (
        partition,
        tuple(classes),
        tuple(tuple(r) for r in matrix),
        tuple(tuple(r) for r in shifts),
        tuple(orientation),
    )


@st.composite
def twist_orbit_maps(draw):
    """(lifting of two interleaved twist orbits on the grid j/N, extra points
    on the finer grid j/(N*m), whose forward orbits stay on that grid)."""
    shapes = []
    for _ in range(2):
        q = draw(st.integers(min_value=1, max_value=7))
        p = draw(st.integers(min_value=-q, max_value=2 * q).filter(lambda p: math.gcd(p, q) == 1))
        shapes.append((q, p))
    (q1, p1), (q2, p2) = shapes
    labels = draw(st.permutations([0] * q1 + [1] * q2))
    N = q1 + q2
    xs = tuple(Fraction(j, N) for j, lab in enumerate(labels) if lab == 0)
    ys = tuple(Fraction(j, N) for j, lab in enumerate(labels) if lab == 1)
    F = build_from_orbits([LiftedOrbit(xs, p1), LiftedOrbit(ys, p2)])
    m = draw(st.integers(min_value=1, max_value=3))
    extra = draw(st.lists(st.integers(min_value=0, max_value=N * m - 1), max_size=2))
    return F, [Fraction(j, N * m) for j in extra]


@st.composite
def grid_maps(draw):
    """Liftings with a breakpoint at every j/N and values on that grid, so
    that slopes are integers and the closure stays on the grid: any lap
    structure; steps between breakpoints stay under a turn, and the wrap
    class covers a turn or more (NotShort) when the values drift down."""
    N = draw(st.integers(min_value=1, max_value=8))
    steps = draw(st.lists(st.integers(min_value=1 - N, max_value=N - 1), min_size=N - 1, max_size=N - 1))
    vals = [draw(st.integers(min_value=0, max_value=N - 1))]
    for d in steps:
        vals.append(vals[-1] + d)
    return Lifting(tuple(Fraction(j, N) for j in range(N)), tuple(Fraction(v, N) for v in vals)), []


def _build_outcome(build, F, extra):
    try:
        return build(F, extra)
    except (NotInvariant, NotShort) as e:
        return (type(e), str(e))


def _check_against_reference(F, extra):
    ref = _build_outcome(reference_build, F, extra)
    got = _build_outcome(build_markov_system, F, extra)
    if isinstance(ref, tuple) and len(ref) == 2:
        assert got == ref
        return
    M = got
    assert (M.partition, M.classes, M.matrix, M.shifts, M.orientation) == ref
    n = M.size
    for i, (a, b) in enumerate(M.classes):
        y = F.eval(M.partition[i])
        assert y == M.partition[M.index_map[i] % n] + M.index_map[i] // n
        slope, offset = M.branches[i]
        assert slope * a + offset == F.eval(a) and slope * b + offset == F.eval(b)
    for w in periods_up_to(F, M, 3).witnesses.values():
        assert w.check(F)


class TestIndexWalkBuild:
    """The index-walk build against the pairwise reference, and the oracle's
    witnesses (built on cached branches) against direct iteration."""

    @given(twist_orbit_maps())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_twist_orbit_pairs(self, case):
        _check_against_reference(*case)

    @given(grid_maps())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_non_monotone_maps(self, case):
        _check_against_reference(*case)

    def test_not_short_matches_reference(self):
        F = Lifting((F2(0), F2(1, 2)), (F2(0), F2(2)))
        with pytest.raises(NotShort) as ref:
            reference_build(F)
        with pytest.raises(NotShort) as got:
            build_markov_system(F)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("name,n", [("persistent", 9), ("montevideo", 4), ("dream", 7)])
    def test_families_match_reference(self, name, n):
        M = make(name, n).markov
        assert (M.partition, M.classes, M.matrix, M.shifts, M.orientation) == reference_build(M.lifting)

    @pytest.mark.parametrize("k", [-1, 0, 2])
    @pytest.mark.parametrize("extra", [[], [F2(1, 12)]])
    @pytest.mark.parametrize(
        "values", [(F2(1, 6), F2(5, 6), F2(1, 2)), (F2(1, 6), F2(-1, 6), F2(1, 2))]
    )
    def test_closure_leaves_breakpoint_grid(self, values, extra, k):
        # breakpoints on the thirds, images on the sixths (slopes 2 and -1):
        # the closure adds 1/6, 1/2 and 5/6, which F.values does not give, so
        # the common denominator of the partition is not the breakpoints' one
        F = Lifting((F2(0), F2(1, 3), F2(2, 3)), values).translate(k)
        M = build_markov_system(F, extra)
        assert {F2(1, 6), F2(1, 2), F2(5, 6)} <= set(M.partition) - set(F.breakpoints)
        _check_against_reference(F, extra)


class TestPartitionRotationInterval:
    """Rot(F) read off the lifted index map against the lifting's envelopes."""

    @given(grid_maps(), st.integers(min_value=-2, max_value=2))
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_grid_maps_match_envelopes(self, case, k):
        # general non-monotone maps, translated so lifted indices go negative
        F = case[0].translate(k)
        try:
            M = build_markov_system(F)
        except (NotInvariant, NotShort):
            assume(False)
        rot = partition_rotation_interval(M)
        assert rot == rotation_interval(F)
        (c_lo, c_hi), (d_lo, d_hi) = envelope_rotation_bounds(F, 16)
        assert c_lo <= rot.c <= c_hi and d_lo <= rot.d <= d_hi

    def test_rigid_rotation_is_degenerate(self):
        assert partition_rotation_interval(rigid_half_system()) == RotationInterval(F2(1, 2), F2(1, 2))


@st.composite
def graphs_with_cycle(draw):
    """0/1 matrices of size <= 10 with at least one cycle (a drawn one plus
    arbitrary further arrows)."""
    n = draw(st.integers(1, 10))
    matrix = [[int(draw(st.integers(0, 3)) == 0) for _ in range(n)] for _ in range(n)]
    cycle = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    for v, w in zip(cycle, cycle[1:] + cycle[:1]):
        matrix[v][w] = 1
    return matrix


def _spectral_radius_above_one(matrix) -> bool:
    """A 0/1 matrix has spectral radius > 1 iff some strongly connected
    component is more than one simple cycle, i.e. some vertex has two arrows
    back into its own component (Warshall closure)."""
    n = len(matrix)
    reach = [[bool(x) for x in row] for row in matrix]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return any(sum(1 for w in range(n) if matrix[v][w] and reach[w][v]) >= 2 for v in range(n))


def rigid_half_system():
    F = Lifting((F2(0),), (F2(1, 2),))
    return build_markov_system(F, extra_points=[F2(0)])


class TestBuild:
    def test_rigid_rotation_permutation(self):
        M = rigid_half_system()
        assert M.size == 2
        cert = transitivity_certificate(M)
        assert cert["irreducible"] and cert["permutation"] and not cert["transitive"]

    @pytest.mark.parametrize(
        "name,n,count",
        [("persistent", 5, 12), ("montevideo", 3, 36), ("dream", 3, 10), ("dream", 6, 22)],
    )
    def test_class_counts(self, name, n, count):
        assert make(name, n).markov.size == count

    def test_not_short(self):
        # F(0)=0, F(1/2)=2: the first basic interval maps over two full turns
        F = Lifting((F2(0), F2(1, 2)), (F2(0), F2(2)))
        with pytest.raises(NotShort):
            build_markov_system(F)

    def test_forward_closure_adds_points(self):
        # breakpoint orbit of the rigid 1/3-rotation closes after 3 points
        F = Lifting((F2(0),), (F2(1, 3),))
        M = build_markov_system(F)
        assert M.partition == (F2(0), F2(1, 3), F2(2, 3))

    def test_extra_points_refine_partition(self):
        F = Lifting((F2(0),), (F2(1, 2),))
        M = build_markov_system(F, extra_points=[F2(1, 4)])
        assert M.partition == (F2(0), F2(1, 4), F2(1, 2), F2(3, 4))
        # the 1/2-rotation swaps [0,1/4] <-> [1/2,3/4] and [1/4,1/2] <-> [3/4,1]:
        # two disjoint 2-cycles, a permutation that is not strongly connected
        assert M.matrix == ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
        cert = transitivity_certificate(M)
        assert cert["permutation"] and not cert["irreducible"] and not cert["transitive"]

    def test_row_sums_positive(self):
        for name, n in (("dream", 4), ("persistent", 7), ("montevideo", 3)):
            M = make(name, n).markov
            assert all(sum(row) >= 1 for row in M.matrix)

    def test_class_count_equals_partition(self):
        M = make("dream", 5).markov
        assert M.size == len(M.partition)


class TestTransitivity:
    def test_families_transitive(self):
        for name, n in (("dream", 3), ("persistent", 5), ("montevideo", 3)):
            assert transitivity_certificate(make(name, n).markov)["transitive"]

    def test_two_disjoint_cycles_reducible(self):
        m = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        cert = transitivity_certificate(FakeSystem(m))
        assert not cert["irreducible"]

    def test_irreducible_reachability(self):
        # irreducible iff the reachability closure is all-positive
        for name, n in (("dream", 3), ("persistent", 5)):
            M = make(name, n).markov
            k = M.size
            reach = [[bool(M.matrix[i][j]) for j in range(k)] for i in range(k)]
            for _ in range(k):
                for i in range(k):
                    for j in range(k):
                        reach[i][j] = reach[i][j] or any(
                            M.matrix[i][t] and reach[t][j] for t in range(k)
                        )
            assert all(all(row) for row in reach) == transitivity_certificate(M)["irreducible"]


def per_member_rome_matrix(system, rome):
    """Reference rome matrix by a per-member dynamic program: for each member
    r_j, one pass over the complement in reverse topological order building
    dense polynomials of the paths to r_j."""
    validate_rome(system, rome)
    succ = [[j for j, a in enumerate(row) if a] for row in system.matrix]
    members = sorted(rome.members)
    comp = [v for v in range(len(succ)) if v not in rome.members]
    compset = set(comp)
    indeg = {v: sum(1 for u in comp for w in succ[u] if w == v) for v in comp}
    topo = [v for v in comp if indeg[v] == 0]
    queue = list(topo)
    while queue:
        v = queue.pop()
        for w in succ[v]:
            if w in compset:
                indeg[w] -= 1
                if indeg[w] == 0:
                    topo.append(w)
                    queue.append(w)
    y = IntPolynomial([0, 1])

    def paths(v, rj, g):
        acc = IntPolynomial.zero()
        for w in succ[v]:
            if w == rj:
                acc = acc + IntPolynomial([1])
            if w in compset and not g[w].is_zero():
                acc = acc + g[w]
        return y * acc if not acc.is_zero() else acc

    entries = []
    for rj in members:
        g = {}
        for v in reversed(topo):
            g[v] = paths(v, rj, g)
        entries.append({ri: paths(ri, rj, g) for ri in members})
    return members, [[entries[jc][ri] for jc in range(len(members))] for ri in members]


def shrunk_rome(system, order) -> Rome:
    """A minimal rome: every vertex, then drop each vertex in `order` whose
    removal leaves no loop outside the rest.  Its complement may hold
    vertices of out-degree >= 2, which `find_rome`'s never does."""
    members = set(range(len(system.matrix)))
    for v in order:
        try:
            validate_rome(system, Rome(members - {v}))
        except InvalidRome:
            continue
        members.discard(v)
    return Rome(members)


def _romes(data, system):
    n = len(system.matrix)
    extra = data.draw(st.sets(st.integers(0, n - 1), max_size=4))
    yield Rome(find_rome(system).members | extra)
    yield shrunk_rome(system, data.draw(st.permutations(range(n))))


class TestOnePassRomeMatrix:
    """The one-pass rome_matrix against the per-member dynamic program, on
    found romes with random extra members and on random minimal romes."""

    @given(two_orbit_maps(), st.data())
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_two_orbit_maps(self, case, data):
        M = case[1]
        for rome in _romes(data, M):
            assert rome_matrix(M, rome) == per_member_rome_matrix(M, rome)

    @given(grid_maps(), st.data())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_grid_maps(self, case, data):
        try:
            M = build_markov_system(*case)
        except (NotInvariant, NotShort):
            assume(False)
        for rome in _romes(data, M):
            assert rome_matrix(M, rome) == per_member_rome_matrix(M, rome)

    @given(
        st.sampled_from([("dream", 5), ("persistent", 7), ("montevideo", 4)]),
        st.sampled_from([triangle_with_tail, apple_graph]),
        st.data(),
    )
    @settings(max_examples=12, derandomize=True, deadline=None)
    def test_extended_systems(self, family, graph, data):
        E = extend(make(*family), graph())  # a matrix-only system
        for rome in _romes(data, E):
            assert rome_matrix(E, rome) == per_member_rome_matrix(E, rome)

    @pytest.mark.parametrize("name,n", [("dream", 5), ("persistent", 7), ("montevideo", 3)])
    def test_branching_complement(self, name, n):
        # a minimal rome with a complement vertex of out-degree >= 2: several
        # path terms meet there, and the polynomial still matches Bareiss
        M = make(name, n).markov
        rome = shrunk_rome(M, range(M.size))
        assert any(M.out_degree(v) >= 2 for v in range(M.size) if v not in rome.members)
        assert rome_matrix(M, rome) == per_member_rome_matrix(M, rome)
        assert rome_char_poly(M, rome) == char_poly(M.matrix)


class TestDenseViews:
    """`matrix` and `shifts` are views of the arrow list, built on demand."""

    @pytest.mark.parametrize("name,n", [("persistent", 9), ("dream", 6), ("montevideo", 3)])
    def test_scan_stages_leave_views_unbuilt(self, name, n):
        inst = make(name, n)
        M = inst.markov
        per_from_rotation(inst.lifting, M)
        entropy(M, F2(1, 10**9))
        assert "matrix" not in vars(M) and "shifts" not in vars(M)
        assert [M.out_degree(i) for i in range(M.size)] == [sum(row) for row in M.matrix]
        assert M.arrows() == [(i, j) for i in range(M.size) for j in range(M.size) if M.matrix[i][j]]
        assert vars(M)["matrix"] is M.matrix  # built once, then cached


class TestRome:
    def test_single_self_loop(self):
        sys = FakeSystem([[1]])
        assert rome_char_poly(sys, Rome({0})) == IntPolynomial([-1, 1])

    def test_pure_cycle_single_vertex_rome(self):
        sys = FakeSystem([[0, 1], [1, 0]])
        r = find_rome(sys)
        assert len(r.members) >= 1
        assert rome_char_poly(sys, r) == IntPolynomial([-1, 0, 1])

    def test_invalid_rome_detected(self):
        sys = FakeSystem([[0, 1], [1, 0]])
        with pytest.raises(InvalidRome):
            validate_rome(sys, Rome(frozenset()))

    def test_persistent_two_element_rome_validates(self):
        inst = persistent(7)
        M = inst.markov
        j0 = inst.class_index(F2(0), inst.y_positions[0])
        j3 = inst.class_index(inst.y_positions[13], F2(0) + 1)
        supplied = Rome({j0, j3})
        validate_rome(M, supplied)
        assert rome_char_poly(M, supplied) == markov_char_poly(M) == persistent_poly(7)

    def test_montevideo_five_element_rome_validates(self):
        inst = montevideo(3)
        M = inst.markov
        n, p, r, q = 3, 5, 7, 18
        x, y = inst.x_positions, inst.y_positions
        members = {
            inst.class_index(x[n - 1], x[n]),
            inst.class_index(x[p + n - 1], y[0]),
            inst.class_index(x[n * p + n - 1], y[(n - 2) * r + n + 1]),
            inst.class_index(y[(n - 1) * r], y[(n - 1) * r + 1]),
            inst.class_index(y[q - 1], x[0] + 1),
        }
        assert len(members) == 5
        supplied = Rome(members)
        validate_rome(M, supplied)
        assert rome_char_poly(M, supplied) == markov_char_poly(M)

    def test_rome_equals_bareiss_char_poly(self):
        for name, n in (("dream", 3), ("dream", 4), ("persistent", 5), ("persistent", 7)):
            M = make(name, n).markov
            assert markov_char_poly(M) == char_poly(M.matrix)

    def test_trivial_rome_all_vertices(self):
        M = make("dream", 3).markov
        all_rome = Rome(set(range(M.size)))
        assert rome_char_poly(M, all_rome) == markov_char_poly(M)

    def test_greedy_rome_small_on_families(self):
        assert len(find_rome(persistent(7).markov).members) <= 3
        assert len(find_rome(montevideo(3).markov).members) == 5
        assert len(find_rome(dream(5).markov).members) <= 5


def _rome_matches_char_poly(case):
    M = case[1]
    assert rome_char_poly(M, find_rome(M)) == char_poly(M.matrix)


class TestLargeRomes:
    """The rome determinant on generic two-orbit maps, whose romes hold nearly
    every class: polynomial time in the rome size, equal to char_poly."""

    def test_generic_map_with_22_member_rome_in_time(self):
        # seed-0 map 111 of bench/generic_liftings.random_orbit_pair
        orbits = [
            LiftedOrbit(tuple(F2(j, 23) for j in (0, 1, 3, 4, 6, 7, 8, 10, 11, 14, 15, 18, 21)), 1),
            LiftedOrbit(tuple(F2(j, 23) for j in (2, 5, 9, 12, 13, 16, 17, 19, 20, 22)), 9),
        ]
        M = build_markov_system(build_from_orbits(orbits))
        assert M.size == 23 and len(find_rome(M).members) == 22
        start = time.perf_counter()
        char = markov_char_poly(M)
        assert time.perf_counter() - start < 2
        assert char == char_poly(M.matrix)

    @given(two_orbit_maps(max_period=14))
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_two_orbit_maps_up_to_28_classes(self, case):
        _rome_matches_char_poly(case)

    @pytest.mark.slow
    @given(two_orbit_maps(max_period=14))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_two_orbit_maps_up_to_28_classes_long_run(self, case):
        _rome_matches_char_poly(case)


class TestEntropy:
    def test_permutation_entropy_zero(self):
        M = rigid_half_system()
        b = entropy(M)
        assert b.lower == b.upper == 1

    def test_dream3_entropy_matches_polynomial(self):
        from circledyn.arith import largest_root_above
        from circledyn.families import dream_poly

        M = dream(3).markov
        b = entropy(M, F2(1, 10**12))
        expected = largest_root_above(dream_poly(3), F2(1), F2(1, 10**12))
        assert b.overlaps(expected, slack=F2(1, 10**12))

    def test_entropy_decreasing_dream(self):
        prev = None
        for n in range(3, 11):
            b = entropy(dream(n).markov, F2(1, 10**10))
            if prev is not None:
                assert b.upper < prev.lower
            prev = b

    def test_perron_bracket_width(self):
        b = perron_bracket(persistent(5).markov, F2(1, 10**9))
        assert b.width <= F2(1, 10**9)

    def test_acyclic_graph_has_no_root_above(self):
        M = FakeSystem([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
        with pytest.raises(NoRootAbove):
            perron_bracket(M)
        assert entropy(M) == CertifiedRoot(F2(1), F2(1))

    def test_repeated_perron_root_raises(self):
        # two disjoint copies of dream(3): the Perron root is a double root,
        # which no bracket can isolate; it must not read as entropy zero
        A = dream(3).markov.matrix
        n = len(A)
        M = FakeSystem([list(r) + [0] * n for r in A] + [[0] * n + list(r) for r in A])
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            entropy(M, F2(1, 10**12))
        assert time.perf_counter() - start < 10

    @given(graphs_with_cycle())
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_rome_equals_bareiss_and_brackets_perron_root(self, matrix):
        M = FakeSystem(matrix)
        char = char_poly(M.matrix)
        assert rome_char_poly(M, find_rome(M)) == char
        tol = F2(1, 10**9)
        if not _spectral_radius_above_one(matrix):
            with pytest.raises(NoRootAbove):
                perron_bracket(M, tol)
            assert entropy(M, tol) == CertifiedRoot(F2(1), F2(1))
            return
        b = perron_bracket(M, tol)
        assert b.lower > 1 and b.width <= tol
        # upper on the side of +infinity, lower not; [r, r] is an exact root
        assert char.sign_at(b.upper) == 1 or (b.width == 0 and char.sign_at(b.upper) == 0)
        assert char.sign_at(b.lower) <= 0


class TestLoops:
    def test_self_loop(self):
        loops = enumerate_loops(FakeSystem([[1]]), 3)
        assert [(l.length, l.simple, l.sign) for l in loops] == [(1, True, 1), (2, False, 1), (3, False, 1)]

    def test_rigid_two_cycle(self):
        M = rigid_half_system()
        loops = enumerate_loops(M, 4)
        simples = [l for l in loops if l.simple]
        assert len(simples) == 1 and simples[0].length == 2 and simples[0].sign == 1

    def test_persistent_j0_j2_loop_positive(self):
        inst = persistent(5)
        M = inst.markov
        j0 = inst.class_index(F2(0), inst.y_positions[0])
        j2 = inst.class_index(inst.x_positions[1], inst.y_positions[3])
        loops = enumerate_loops(M, 2)
        two = [l for l in loops if l.length == 2 and set(l.vertices) == {j0, j2}]
        assert len(two) == 1 and two[0].sign == 1 and two[0].simple

    def test_persistent_no_simple_length4(self):
        M = persistent(5).markov
        loops = enumerate_loops(M, 4)
        assert not any(l.simple and l.length == 4 for l in loops)
        # the only length-4 loop is the 2-repetition of the 2-loop
        reps = [l for l in loops if l.length == 4]
        assert len(reps) == 1 and not reps[0].simple

    def test_sign_of_concatenation(self):
        # loop sign = product of orientations, so concatenation multiplies
        inst = dream(3)
        M = inst.markov
        loops = enumerate_loops(M, 12)
        for l in loops:
            acc = 1
            for v in l.vertices:
                acc *= M.orientation[v]
            assert acc == l.sign

    def test_budget(self):
        from circledyn.errors import BudgetExceeded

        full = FakeSystem([[1] * 6 for _ in range(6)])
        with pytest.raises(BudgetExceeded):
            enumerate_loops(full, 12, cap=50)


class TestExport:
    def test_adjacency_json(self):
        M = rigid_half_system()
        d = M.to_json()
        assert d["classes"] == ["[0,1/2]", "[1/2,1]"]
        assert sorted(d["arrows"]) == [[0, 1], [1, 0]]
        assert d["orientation"] == [1, 1]
