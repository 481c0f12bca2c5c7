import dataclasses
import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circledyn import markov
from circledyn.arith import CertifiedRoot, IntPolynomial, floor_frac, rat_str
from circledyn.errors import BudgetExceeded, InvalidRome, NoRootAbove, NotInvariant, NotShort
from circledyn.families import dream, make, montevideo, persistent, persistent_poly
from circledyn.graphext import extend
from circledyn.lifting import LiftedOrbit, Lifting, RotationInterval, build_from_orbits, rotation_interval
from circledyn.markov import (
    MarkovSystem,
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
from circledyn.oracle import periods_up_to
from circledyn.periods import per_from_rotation
from brackets import overlaps
from family_classes import class_index
from lifting_reference import envelope_rotation_bounds
from poly_reference import char_poly
from test_graphext import apple_graph, triangle_with_tail
from test_periods import two_orbit_maps

F2 = Fraction


class FakeSystem:
    """Bare graph for the graph-level operations: the successor lists of a
    0/1 matrix, which stays at hand for the reference computations."""

    def __init__(self, matrix):
        self.matrix = tuple(tuple(r) for r in matrix)
        self.successors = tuple(tuple(j for j, a in enumerate(row) if a) for row in self.matrix)

    @classmethod
    def from_successors(cls, succ):
        """A large sparse graph, without the dense matrix."""
        system = cls.__new__(cls)
        system.successors = tuple(map(tuple, succ))
        return system


def with_points(F: Lifting, points=()) -> Lifting:
    """The same map with the points (mod 1) among its breakpoints, valued by
    F.eval: its Markov partition then holds their forward orbits as well."""
    bps = sorted(set(F.breakpoints) | {Fraction(p) % 1 for p in points})
    return Lifting(bps, [F.eval(p) for p in bps])


def reference_build(F: Lifting, extra_points=()):
    """The covering relation by pairwise Fraction comparisons, O(n^2): for
    each class pair, the unique integer k with [c+k, d+k] inside the image of
    class i; the closure starts from the breakpoints and the extra points,
    which the program takes as breakpoints (`with_points`).  Returns
    (partition, classes, matrix, shifts, orientation)."""
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


def shift_table(M):
    """The arrow shifts as the reference's dense table, 0 off the arrows."""
    rows = [[0] * M.size for _ in range(M.size)]
    for i, j, k in M.coverings:
        rows[i][j] = k
    return tuple(map(tuple, rows))


def _build_outcome(build, *args):
    try:
        return build(*args)
    except (NotInvariant, NotShort) as e:
        return (type(e), str(e))


def _check_against_reference(F, extra):
    ref = _build_outcome(reference_build, F, extra)
    got = _build_outcome(build_markov_system, with_points(F, extra))
    if isinstance(ref, tuple) and len(ref) == 2:
        assert got == ref
        return
    M = got
    assert (M.partition, M.classes, M.matrix, shift_table(M), M.orientation) == ref
    n, D = M.size, M.denominator
    assert D == math.lcm(*(p.denominator for p in M.partition))
    assert M.keys == tuple(p * D for p in M.partition + (M.partition[0] + 1,))
    for i in range(n):
        y = F.eval(M.partition[i])
        assert y == M.partition[M.index_map[i] % n] + M.index_map[i] // n
    # witnesses solved on the integer keys against direct iteration of F,
    # through loops of length 6 (finer-grid keys give class widths dx > 1,
    # falling branches dy < 0)
    for w in periods_up_to(M, 6).witnesses.values():
        assert w.check(F)


class TestIndexWalkBuild:
    """The index-walk build against the pairwise reference, and the oracle's
    witnesses (solved on the integer keys) against direct iteration."""

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
        inst = make(name, n)
        M = inst.markov
        assert (M.partition, M.classes, M.matrix, shift_table(M), M.orientation) == reference_build(inst.lifting)

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
        M = build_markov_system(with_points(F, extra))
        assert {F2(1, 6), F2(1, 2), F2(5, 6)} <= set(M.partition) - set(F.breakpoints)
        _check_against_reference(F, extra)

    @pytest.mark.parametrize(
        "extra",
        [
            [],
            [F2(-1, 6)],  # negative: the point 5/6
            [F2(7, 3), 2],  # at or above 1: the points 1/3 and 0
            [F2(1, 3), F2(2, 3)],  # breakpoints
            [F2(1, 12), F2(1, 12), F2(13, 12)],  # one point three times
            [F2(2, 7)],  # off the breakpoint grid: F.eval runs, D grows
            [F2(-5, 7), 3, F2(1, 10), "3/8"],
        ],
    )
    @pytest.mark.parametrize(
        "F",
        [
            Lifting((F2(0), F2(1, 3), F2(2, 3)), (F2(1, 6), F2(5, 6), F2(1, 2))),
            Lifting((F2(0), F2(1, 3), F2(2, 3)), (F2(1, 6), F2(-1, 6), F2(1, 2))).translate(-1),
            Lifting((F2(0),), (F2(0),)),  # the identity: one point unless extras
            Lifting((F2(0), F2(1, 2)), (F2(0), F2(2))),  # NotShort
        ],
    )
    def test_extra_points_match_reference(self, F, extra):
        _check_against_reference(F, extra)

    def test_bit_budget_message(self):
        # the test_budgets.py map: the reference has no bit budget and would
        # run into its point budget only after minutes, so the message is
        # compared as the reference words it
        F = Lifting((F2(0), F2(1, 3)), (F2(1, 7), F2(9, 10)))
        with pytest.raises(NotInvariant) as got:
            build_markov_system(F)
        assert str(got.value) == "forward closure of the partition does not stabilize"

    @pytest.mark.parametrize("extra", [[], [F2(1, 40)]])
    def test_budgets_count_exactly(self, monkeypatch, extra):
        # rotation by 1/20 closes on the points j/20 (j/40 with the extra
        # point): each budget holds at the closure's exact size and trips
        # one below it
        F = Lifting((F2(0),), (F2(1, 20),))
        pts = reference_build(F, extra)[0]
        bits = sum(p.denominator.bit_length() for p in pts)
        for name, size in (("_CLOSURE_BUDGET", len(pts)), ("_CLOSURE_BITS", bits)):
            with monkeypatch.context() as m:
                m.setattr(markov, name, size)
                assert build_markov_system(with_points(F, extra)).partition == pts
                m.setattr(markov, name, size - 1)
                with pytest.raises(NotInvariant) as got:
                    build_markov_system(with_points(F, extra))
                assert str(got.value) == "forward closure of the partition does not stabilize"


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


def all_rotations_reference(succ, max_len):
    """Every closed walk of length <= max_len, canonicalized by its least
    rotation among all L, sorted; simple when no shorter word repeats to it."""
    words = set()
    paths = [(v,) for v in range(len(succ))]
    while paths:
        path = paths.pop()
        if path[0] in succ[path[-1]]:
            words.add(min(path[t:] + path[:t] for t in range(len(path))))
        if len(path) < max_len:
            paths.extend(path + (w,) for w in succ[path[-1]])
    return [(w, all(w[p:] + w[:p] != w for p in range(1, len(w)))) for w in sorted(words)]


def reach_closure(succ, allowed):
    """reach[v][w]: a walk of one or more arrows v -> w inside `allowed`."""
    n = len(succ)
    reach = [[v in allowed and w in allowed and w in succ[v] for w in range(n)] for v in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return reach


def _spectral_radius_above_one(matrix) -> bool:
    """A 0/1 matrix has spectral radius > 1 iff some strongly connected
    component is more than one simple cycle, i.e. some vertex has two arrows
    back into its own component."""
    succ = FakeSystem(matrix).successors
    reach = reach_closure(succ, set(range(len(succ))))
    return any(sum(1 for w in out if reach[w][v]) >= 2 for v, out in enumerate(succ))


def rigid_half_system():
    F = Lifting((F2(0),), (F2(1, 2),))
    return build_markov_system(F)


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
        M = build_markov_system(with_points(F, [F2(1, 4)]))
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

    def test_permutation_needs_one_arrow_into_each_class(self):
        cycle = transitivity_certificate(FakeSystem([[0, 1], [1, 0]]))
        assert cycle == {"irreducible": True, "permutation": True, "transitive": False}
        # one arrow out of each class, but two into class 1 and none into 0
        funnel = transitivity_certificate(FakeSystem([[0, 1, 0], [0, 0, 1], [0, 1, 0]]))
        assert funnel == {"irreducible": False, "permutation": False, "transitive": False}

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
    succ = system.successors
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
    members = set(range(len(system.successors)))
    for v in order:
        try:
            validate_rome(system, Rome(members - {v}))
        except InvalidRome:
            continue
        members.discard(v)
    return Rome(members)


def _romes(data, system):
    n = len(system.successors)
    extra = data.draw(st.sets(st.integers(0, n - 1), max_size=4))
    yield Rome(find_rome(system).members | extra)
    yield shrunk_rome(system, data.draw(st.permutations(range(n))))


class TestOnePassRomeMatrix:
    """The one-pass rome_matrix against the per-member dynamic program, and
    the packed rome determinant against Bareiss over Z[x], on found romes
    with random extra members and on random minimal romes."""

    @given(two_orbit_maps(), st.data())
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_two_orbit_maps(self, case, data):
        M = case[1]
        for rome in _romes(data, M):
            assert rome_matrix(M, rome) == per_member_rome_matrix(M, rome)
            assert rome_char_poly(M, rome) == char_poly(M.matrix)

    @given(grid_maps(), st.data())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_grid_maps(self, case, data):
        try:
            M = build_markov_system(with_points(*case))
        except (NotInvariant, NotShort):
            assume(False)
        for rome in _romes(data, M):
            assert rome_matrix(M, rome) == per_member_rome_matrix(M, rome)
            assert rome_char_poly(M, rome) == char_poly(M.matrix)

    @given(
        st.sampled_from([("dream", 5), ("persistent", 7), ("montevideo", 4)]),
        st.sampled_from([triangle_with_tail, apple_graph]),
        st.data(),
    )
    @settings(max_examples=12, derandomize=True, deadline=None)
    def test_extended_systems(self, family, graph, data):
        E = extend(make(*family), graph())  # successor lists only, no arrow list
        for rome in _romes(data, E):
            assert rome_matrix(E, rome) == per_member_rome_matrix(E, rome)

    @pytest.mark.parametrize("name,n", [("dream", 5), ("persistent", 7), ("montevideo", 3)])
    def test_branching_complement(self, name, n):
        # a minimal rome with a complement vertex of out-degree >= 2: several
        # path terms meet there, and the polynomial still matches Bareiss
        M = make(name, n).markov
        rome = shrunk_rome(M, range(M.size))
        assert any(len(M.successors[v]) >= 2 for v in range(M.size) if v not in rome.members)
        assert rome_matrix(M, rome) == per_member_rome_matrix(M, rome)
        assert rome_char_poly(M, rome) == char_poly(M.matrix)


class TestDenseViews:
    """`successors`, `arrow_steps` and `matrix` are views of the arrow list,
    built on demand and then cached."""

    @pytest.mark.parametrize("name,n", [("persistent", 9), ("dream", 6), ("montevideo", 3)])
    def test_graph_views_built_once(self, name, n, monkeypatch):
        # every graph pass and every oracle query share one build of each view
        builds = {}

        def counted(view, build):
            def wrapper(system):
                builds[view] = builds.get(view, 0) + 1
                return build(system)

            return wrapper

        for view in ("successors", "arrow_steps"):
            prop = vars(MarkovSystem)[view]
            monkeypatch.setattr(prop, "func", counted(view, prop.func))
        inst = make(name, n)
        M = inst.markov
        per_from_rotation(inst.lifting, M)
        entropy(M, F2(1, 10**9))
        periods_up_to(M, 6)  # the oracle, in case per_from_rotation needed none
        transitivity_certificate(M)
        entropy(M, F2(1, 10**9))
        assert builds == {"successors": 1, "arrow_steps": 1}
        for view in ("successors", "arrow_steps"):
            assert vars(M)[view] is getattr(M, view)
        assert "matrix" not in vars(M)
        assert M.successors == tuple(tuple(j for j, a in enumerate(row) if a) for row in M.matrix)
        # one step per arrow, in arrow order: class i on its keys, and F - k
        # at both ends of the class as the lifting evaluates it
        assert [(i, j, step[5]) for (i, j), step in M.arrow_steps.items()] == list(M.coverings)
        D = M.denominator
        for (i, j), (lo, hi, dx, dy, e, k) in M.arrow_steps.items():
            assert (lo, hi, dx) == (M.keys[i], M.keys[i + 1], M.keys[i + 1] - M.keys[i])
            for x in (lo, hi):
                assert inst.lifting.eval(F2(x, D)) - k == F2(dy * x + e, dx * D)

    def test_stored_fields_are_the_integer_map(self):
        names = [f.name for f in dataclasses.fields(MarkovSystem)]
        assert names == ["denominator", "keys", "index_map", "coverings"]

    @pytest.mark.parametrize("name,n", [("persistent", 9), ("dream", 6), ("montevideo", 3)])
    def test_scan_stages_leave_views_unbuilt(self, name, n):
        inst = make(name, n)
        M = inst.markov
        per_from_rotation(inst.lifting, M)
        entropy(M, F2(1, 10**9))
        for view in ("matrix", "partition", "classes", "orientation"):
            assert view not in vars(M), view
        # the scans build the lifting and its system on integer grids
        assert {"breakpoints", "values"}.isdisjoint(vars(inst.lifting))
        assert {"x_positions", "y_positions"}.isdisjoint(vars(inst))
        assert [len(out) for out in M.successors] == [sum(row) for row in M.matrix]
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

    def test_rome_char_poly_rejects_invalid_rome(self):
        # the walk of the complement in rome_matrix finds the loop avoiding the rome
        with pytest.raises(InvalidRome, match=r"loop avoiding the rome: \[0, 1, 0\]"):
            rome_char_poly(FakeSystem([[0, 1], [1, 0]]), Rome(frozenset()))
        with pytest.raises(InvalidRome):
            rome_matrix(FakeSystem([[1, 1, 0], [0, 0, 1], [0, 1, 0]]), Rome({0}))

    def test_acyclic_graph_empty_rome(self):
        # no loop at all: the empty rome, and det(xI - M) = x^n
        M = FakeSystem([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
        assert rome_char_poly(M, Rome(frozenset())) == IntPolynomial.monomial(1, 3) == char_poly(M.matrix)

    def test_vanishing_determinant_raises(self, monkeypatch):
        # rows of M_R(y) - I equal: no graph has this rome matrix, since
        # det(xI - M) is monic, so it can only come from a fault upstream
        one, y = IntPolynomial([1]), IntPolynomial([0, 1])
        monkeypatch.setattr(markov, "rome_matrix", lambda system, rome: ([0, 1], [[one + y, y], [y, one + y]]))
        with pytest.raises(ArithmeticError, match="rome determinant vanished identically"):
            rome_char_poly(FakeSystem([[1, 1], [1, 1]]), Rome({0, 1}))

    def test_non_monic_result_raises(self, monkeypatch):
        # a path of length 0 (a constant term) leaves det(M_R(0) - I) != +-1;
        # the check is a raise, not an assert, so it holds under python -O
        monkeypatch.setattr(markov, "rome_matrix", lambda system, rome: ([0], [[IntPolynomial([3])]]))
        with pytest.raises(ArithmeticError, match="not monic of degree n"):
            rome_char_poly(FakeSystem([[1]]), Rome({0}))

    def test_persistent_two_element_rome_validates(self):
        inst = persistent(7)
        M = inst.markov
        j0 = class_index(inst, F2(0), inst.y_positions[0])
        j3 = class_index(inst, inst.y_positions[13], F2(0) + 1)
        supplied = Rome({j0, j3})
        validate_rome(M, supplied)
        assert rome_char_poly(M, supplied) == markov_char_poly(M) == persistent_poly(7)

    def test_montevideo_five_element_rome_validates(self):
        inst = montevideo(3)
        M = inst.markov
        n, p, r, q = 3, 5, 7, 18
        x, y = inst.x_positions, inst.y_positions
        members = {
            class_index(inst, x[n - 1], x[n]),
            class_index(inst, x[p + n - 1], y[0]),
            class_index(inst, x[n * p + n - 1], y[(n - 2) * r + n + 1]),
            class_index(inst, y[(n - 1) * r], y[(n - 1) * r + 1]),
            class_index(inst, y[q - 1], x[0] + 1),
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


def complement_cycle_reference(succ, members):
    """A loop avoiding `members`, or None: a 3-colour DFS from each root in
    turn, stopped at its first back arrow."""
    color = {}
    for root in range(len(succ)):
        if root in members or root in color:
            continue
        color[root] = 1
        path, stack = [root], [iter(succ[root])]
        while stack:
            for w in stack[-1]:
                if w in members:
                    continue
                if color.get(w) == 1:
                    return path[path.index(w) :] + [w]
                if w not in color:
                    color[w] = 1
                    path.append(w)
                    stack.append(iter(succ[w]))
                    break
            else:
                color[path.pop()] = 2
                stack.pop()
    return None


def greedy_rome_reference(succ):
    """The out-degree >= 2 vertices, then the first vertex of each loop that
    `complement_cycle_reference` finds, restarting it from vertex 0 after
    every addition."""
    members = {i for i, out in enumerate(succ) if len(out) >= 2}
    while (cyc := complement_cycle_reference(succ, members)) is not None:
        members.add(cyc[0])
    return members


class TestWalk:
    """The one depth-first walk behind `transitivity_certificate`,
    `critical_successors`, `find_rome`, `validate_rome` and `rome_matrix`,
    against brute force and the restart-per-loop greedy, on graphs with a
    cycle and on drawn subgraphs of them."""

    @given(graphs_with_cycle(), st.data())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_find_rome_matches_restart_greedy(self, matrix, data):
        M = FakeSystem(matrix)
        # a drawn share of the arrows: sparser, so more loops of out-degree 1
        sub = FakeSystem.from_successors([[w for w in out if data.draw(st.booleans())] for out in M.successors])
        for system in (M, sub):
            rome = find_rome(system)
            assert rome.members == greedy_rome_reference(system.successors)
            validate_rome(system, rome)

    @given(graphs_with_cycle(), st.data())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_invalid_rome_iff_a_loop_avoids_the_set(self, matrix, data):
        M = FakeSystem(matrix)
        n = len(matrix)
        members = data.draw(st.frozensets(st.integers(0, n - 1)))
        outside = set(range(n)) - members
        reach = reach_closure(M.successors, outside)
        has_loop = any(reach[v][v] for v in outside)
        reference = complement_cycle_reference(M.successors, members)
        assert (reference is not None) == has_loop
        for check in (validate_rome, rome_matrix):
            if not has_loop:
                check(M, Rome(members))
                continue
            with pytest.raises(InvalidRome) as err:
                check(M, Rome(members))
            assert str(err.value) == f"loop avoiding the rome: {reference}"
        if has_loop:
            # a closed walk along arrows, outside the set
            assert reference[0] == reference[-1] and len(reference) >= 2
            assert all(w in M.successors[v] for v, w in zip(reference, reference[1:]))
            assert not set(reference) & members

    @given(graphs_with_cycle(), st.data())
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_irreducible_is_mutual_reachability(self, matrix, data):
        succ = [[w for w in out if data.draw(st.booleans())] for out in FakeSystem(matrix).successors]
        n = len(succ)
        reach = reach_closure(succ, set(range(n)))
        irreducible = all(reach[v][w] for v in range(n) for w in range(n))
        assert transitivity_certificate(FakeSystem.from_successors(succ))["irreducible"] == irreducible

    @pytest.mark.parametrize("succ,irreducible", [([], False), ([[]], False), ([[0]], True)])
    def test_irreducible_on_at_most_one_vertex(self, succ, irreducible):
        # a lone vertex is irreducible only with its self-arrow
        assert transitivity_certificate(FakeSystem.from_successors(succ))["irreducible"] == irreducible


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
        assert overlaps(b, expected, slack=F2(1, 10**12))

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
        assert [(l.vertices, l.simple) for l in loops] == [((0,), True), ((0, 0), False), ((0, 0, 0), False)]

    def test_rigid_two_cycle(self):
        M = rigid_half_system()
        loops = enumerate_loops(M, 4)
        simples = [l for l in loops if l.simple]
        assert len(simples) == 1 and simples[0].length == 2
        assert [M.orientation[v] for v in simples[0].vertices] == [1, 1]

    def test_persistent_j0_j2_loop_positive(self):
        inst = persistent(5)
        M = inst.markov
        j0 = class_index(inst, F2(0), inst.y_positions[0])
        j2 = class_index(inst, inst.x_positions[1], inst.y_positions[3])
        loops = enumerate_loops(M, 2)
        two = [l for l in loops if l.length == 2 and set(l.vertices) == {j0, j2}]
        assert len(two) == 1 and two[0].simple
        assert M.orientation[j0] * M.orientation[j2] == 1

    def test_persistent_no_simple_length4(self):
        M = persistent(5).markov
        loops = enumerate_loops(M, 4)
        assert not any(l.simple and l.length == 4 for l in loops)
        # the only length-4 loop is the 2-repetition of the 2-loop
        reps = [l for l in loops if l.length == 4]
        assert len(reps) == 1 and not reps[0].simple

    @given(graphs_with_cycle(), st.sets(st.integers(0, 9)), st.data())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_matches_all_rotations_reference(self, matrix, self_loops, data):
        for v in self_loops:
            matrix[v % len(matrix)][v % len(matrix)] = 1
        M = FakeSystem(matrix)
        got = [(l.vertices, l.simple) for l in enumerate_loops(M, 7)]
        assert got == all_rotations_reference(M.successors, 7)
        # the subgraph of a drawn share of the arrows
        sub = [[w for w in out if data.draw(st.booleans())] for out in M.successors]
        got = [(l.vertices, l.simple) for l in enumerate_loops(M, 7, succ=sub)]
        assert got == all_rotations_reference(sub, 7)

    def test_long_cycle_has_no_loop_below_its_length(self):
        # the return search from each start stays above it and within max_len
        M = FakeSystem.from_successors([[(v + 1) % 3000] for v in range(3000)])
        assert enumerate_loops(M, 1500) == []

    def test_two_cycle_repetitions(self):
        # 800 closed walks 0101..., only the first of them simple
        M = FakeSystem.from_successors([[1], [0]])
        loops = enumerate_loops(M, 1600)
        assert [l.vertices for l in loops] == [(0, 1) * k for k in range(1, 801)]
        assert [l for l in loops if l.simple] == [loops[0]]

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
