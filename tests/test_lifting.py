import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circledyn import lifting
from circledyn.errors import CircledynError, Degenerate, DepthExceeded
from circledyn.families import dream, montevideo, persistent
from circledyn.lifting import (
    LiftedOrbit,
    Lifting,
    RotationInterval,
    build_from_orbits,
    compose,
    lower_map,
    rotation_interval,
    rotation_number_monotone,
    upper_lower,
    upper_map,
)
import lifting_reference as ref

F2 = Fraction

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=60)


def rigid(rho) -> Lifting:
    return Lifting((F2(0),), (F2(rho),))


def sample_lifting() -> Lifting:
    # a non-monotone degree-one map with two laps
    return Lifting(
        (F2(0), F2(1, 4), F2(1, 2), F2(3, 4)),
        (F2(1, 5), F2(9, 10), F2(2, 5), F2(11, 10)),
    )


class TestEval:
    @given(x=rationals)
    def test_degree_one_identity(self, x):
        F = sample_lifting()
        assert F.eval(x + 1) == F.eval(x) + 1

    def test_rigid_rotation_iterate(self):
        F = rigid(F2(1, 2))
        assert F.iterate(F2(0), 2) == 1

    def test_breakpoint_values(self):
        F = sample_lifting()
        for b, v in zip(F.breakpoints, F.values):
            assert F.eval(b) == v

    def test_translate(self):
        F = sample_lifting()
        assert F.translate(3).eval(F2(1, 7)) == F.eval(F2(1, 7)) + 3


class TestBuildFromOrbits:
    def test_single_fixed_orbit_gives_translation(self):
        F = build_from_orbits([LiftedOrbit((F2(0),), shift=2)])
        assert F.eval(F2(1, 3)) == F2(1, 3) + 2

    def test_duplicate_point_degenerate(self):
        orb = LiftedOrbit((F2(0), F2(1, 2)), shift=1)
        with pytest.raises(Degenerate):
            build_from_orbits([orb, orb])

    def test_conflicting_images(self):
        from circledyn.errors import OrderConflict

        with pytest.raises(OrderConflict):
            build_from_orbits(
                [LiftedOrbit((F2(0),), shift=1), LiftedOrbit((F2(0), F2(1, 2)), shift=1)]
            )

    def test_dream_breakpoint_count(self):
        inst = dream(3)
        assert len(inst.lifting.breakpoints) == 10

    def test_persistent_n7_images(self):
        inst = persistent(7)
        assert len(inst.lifting.breakpoints) == 16
        x, y = inst.x_positions, inst.y_positions
        assert inst.lifting.eval(x[0]) == x[1]
        assert inst.lifting.eval(y[0]) == y[9]  # F(y_0) = y_(n+2)

    @pytest.mark.parametrize("name,n", [("dream", 4), ("persistent", 5), ("montevideo", 3)])
    def test_twist_orbit_advance(self, name, n):
        # iterating any orbit point q times advances it by exactly p
        from circledyn.families import make

        inst = make(name, n)
        for pts, shift in (
            (inst.x_positions, None),
            (inst.y_positions, None),
        ):
            q = len(pts)
            x0 = pts[0]
            gain = inst.lifting.iterate(x0, q) - x0
            assert gain.denominator == 1

    @given(data=st.data())
    def test_random_twist_orbit_advance(self, data):
        # any single twist orbit: iterating an orbit point q times advances
        # it by exactly p = shift
        q = data.draw(st.integers(min_value=1, max_value=7))
        shift = data.draw(st.integers(min_value=-6, max_value=6))
        numerators = data.draw(
            st.lists(st.integers(min_value=0, max_value=95), min_size=q, max_size=q, unique=True)
        )
        pts = tuple(sorted(F2(v, 97) for v in numerators))
        F = build_from_orbits([LiftedOrbit(pts, shift=shift)])
        for x0 in pts:
            assert F.iterate(x0, q) == x0 + shift

    def test_dream_orbit_rotations(self):
        inst = dream(3)
        F = inst.lifting
        for x0 in inst.x_positions:  # rotation 1/5: F^5(x) = x + 1
            assert F.iterate(x0, 5) == x0 + 1
        for y0 in inst.y_positions:  # rotation 2/5: F^5(y) = y + 2
            assert F.iterate(y0, 5) == y0 + 2


@st.composite
def random_liftings(draw):
    """Degree-one liftings with at most six breakpoints on the 1/24 grid and
    arbitrary values in [-2, 2]: neither monotone nor continuous mod 1."""
    points = sorted(draw(st.sets(st.fractions(0, F2(23, 24), max_denominator=24), min_size=1, max_size=6)))
    values = [draw(st.fractions(-2, 2, max_denominator=24)) for _ in points]
    return Lifting(tuple(points), tuple(values))


def extreme_over(F: Lifting, lo, hi, pick):
    """min or max of F over [lo, hi] (hi - lo <= 1): F is affine between its
    lifted breakpoints, so the extreme is taken at an end or at one of them."""
    k0 = math.floor(lo)
    inner = [b + k for k in range(k0, k0 + 2) for b in F.breakpoints if lo < b + k < hi]
    return pick(F.eval(x) for x in [lo, hi, *inner])


class TestUpperLower:
    def test_monotone_map_is_its_own_envelope(self):
        F = rigid(F2(2, 7))
        Fl, Fu = upper_lower(F)
        for x in (F2(0), F2(1, 3), F2(5, 6)):
            assert Fl.eval(x) == F.eval(x) == Fu.eval(x)

    @pytest.mark.parametrize("name,n", [("dream", 3), ("persistent", 5), ("montevideo", 3)])
    def test_envelopes_sandwich(self, name, n):
        from circledyn.families import make

        F = make(name, n).lifting
        Fl, Fu = upper_lower(F)
        assert Fl.is_nondecreasing() and Fu.is_nondecreasing()
        probes = list(F.breakpoints) + [F2(1, 1000), F2(17, 37), F2(9, 11)]
        for x in probes:
            assert Fl.eval(x) <= F.eval(x) <= Fu.eval(x)

    def test_persistent_lower_plateau(self):
        # (F_5)_l has a plateau at height x_1 + 1 on [u_l, 1]
        inst = persistent(5)
        Fl = lower_map(inst.lifting)
        x1 = inst.x_positions[1]
        assert Fl.eval(F2(999, 1000)) == x1 + 1
        assert any(vL == vR for _, _, vL, vR in Fl.segments())  # a plateau

    def test_persistent_upper_plateau(self):
        # (F_5)_u has a plateau at height y_(n+1) near 0
        inst = persistent(5)
        Fu = upper_map(inst.lifting)
        y = inst.y_positions
        yn1 = y[(5 + 1) % 10] + (5 + 1) // 10  # y_6 lifted
        assert Fu.eval(F2(1, 1000)) == yn1

    @given(F=random_liftings(), xs=st.lists(rationals, max_size=4))
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_envelopes_are_running_extremes(self, F, xs):
        # F_l(x) = min F[x, x+1] and F_u(x) = max F[x-1, x], at every
        # breakpoint of F and of both envelopes and at random rationals
        Fl, Fu = upper_lower(F)
        for x in [*F.breakpoints, *Fl.breakpoints, *Fu.breakpoints, *xs]:
            assert Fl.eval(x) == extreme_over(F, x, x + 1, min)
            assert Fu.eval(x) == extreme_over(F, x - 1, x, max)

    def test_envelope_of_envelope_is_itself(self):
        F = sample_lifting()
        Fl = lower_map(F)
        assert lower_map(Fl).to_json() == Fl.to_json()


class TestRotationNumbers:
    def test_rigid(self):
        assert rotation_number_monotone(rigid(F2(3, 7))) == F2(3, 7)
        assert rotation_number_monotone(rigid(F2(-2, 5))) == F2(-2, 5)
        assert rotation_number_monotone(rigid(F2(2))) == 2

    def test_translation_invariance(self):
        F = lower_map(sample_lifting())
        base = rotation_number_monotone(F)
        assert rotation_number_monotone(F.translate(3)) == base + 3

    def test_requires_monotone(self):
        with pytest.raises(ValueError):
            rotation_number_monotone(sample_lifting())

    @given(
        q=st.integers(min_value=1, max_value=9),
        p=st.integers(min_value=-9, max_value=18),
        points=st.sets(st.fractions(min_value=0, max_value=F2(99, 100), max_denominator=100), min_size=9, max_size=9),
    )
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_homeomorphism_from_rotation_orbit(self, q, p, points):
        # one twist orbit of rotation p/q interpolated: strictly increasing,
        # no plateau, so the Stern-Brocot path composes the parents' powers
        if math.gcd(p, q) != 1:
            p = 1
        F = build_from_orbits([LiftedOrbit(tuple(sorted(points)[:q]), p)])
        assert rotation_number_monotone(F) == F2(p, q)

    def test_plateau_orbit_off_the_grid_left_to_stern_brocot(self, monkeypatch):
        # the plateau value's orbit is attracted to a periodic orbit on a
        # sloped piece without reaching it, gaining about 6 bits a turn; it
        # stops once its denominator passes D^2 = 481^2, and the Stern-Brocot
        # search answers after a few powers
        F = Lifting(
            (F2(0), F2(4, 37), F2(9, 37), F2(17, 37), F2(29, 37)),
            (F2(36, 13), F2(1335, 481), F2(1337, 481), F2(1337, 481), F2(1340, 481)),
        )
        calls = []
        evaluate = Lifting.eval

        def counted(G, x):
            calls.append(x)
            assert len(calls) <= 100, "the plateau orbit runs on"
            return evaluate(G, x)

        monkeypatch.setattr(lifting, "DEFAULT_DENOMINATOR_BOUND", 60)
        monkeypatch.setattr(Lifting, "eval", counted)
        assert rotation_number_monotone(F) == F2(11, 5)
        monkeypatch.setattr(Lifting, "eval", evaluate)
        assert ref.rotation_interval(F) == rotation_interval(F) == RotationInterval(F2(11, 5), F2(11, 5))

    def test_depth_exceeded_signal(self, monkeypatch):
        monkeypatch.setattr(lifting, "DEFAULT_DENOMINATOR_BOUND", 100)
        F = rigid(F2(355, 113000))
        with pytest.raises(DepthExceeded):
            rotation_number_monotone(F)

    def test_dream_lower(self):
        inst = dream(3)
        Fl = lower_map(inst.lifting)
        assert rotation_number_monotone(Fl) == F2(1, 5)

    def test_montevideo_upper(self):
        inst = montevideo(3)
        Fu = upper_map(inst.lifting)
        assert rotation_number_monotone(Fu) == F2(7, 18)

    def test_compose_is_exact(self):
        F = lower_map(sample_lifting())
        H = compose(F, F)
        for x in (F2(0), F2(1, 9), F2(3, 5), F2(6, 7)):
            assert H.eval(x) == F.eval(F.eval(x))


class TestRotationInterval:
    def test_rigid_degenerate(self):
        r = rotation_interval(rigid(F2(1, 2)))
        assert r.c == r.d == F2(1, 2)

    @pytest.mark.parametrize(
        "name,n,expect",
        [
            ("persistent", 5, (F2(1, 2), F2(7, 10))),
            ("dream", 4, (F2(1, 7), F2(2, 7))),
            ("montevideo", 3, (F2(5, 18), F2(7, 18))),
        ],
    )
    def test_family_intervals(self, name, n, expect):
        from circledyn.families import make

        r = rotation_interval(make(name, n).lifting)
        assert (r.c, r.d) == expect

    def test_endpoints_ordered(self):
        r = rotation_interval(sample_lifting())
        assert r.c <= r.d


@st.composite
def mixed_liftings(draw):
    """Liftings with mixed denominators and values of either sign: arbitrary,
    nondecreasing (with or without plateaus) or rigid, translated by an
    integer.  The crossings of their envelopes mostly fall between grid
    points."""
    points = sorted(draw(st.sets(st.fractions(0, F2(99, 100), max_denominator=100), min_size=1, max_size=6)))
    shape = draw(st.sampled_from(["any", "nondecreasing", "rigid"]))
    if shape == "any":
        values = [draw(st.fractions(-3, 3, max_denominator=60)) for _ in points]
    elif shape == "rigid":
        r = draw(rationals)
        values = [p + r for p in points]
    else:
        steps = [draw(st.fractions(0, 1, max_denominator=12)) for _ in points]
        v0, total = draw(rationals), sum(steps) or 1
        values = [v0 + sum(steps[:i]) / total for i in range(len(points))]
    return Lifting(tuple(points), tuple(values)).translate(draw(st.integers(-2, 2)))


@st.composite
def resolvable_liftings(draw):
    """Liftings whose envelope rotation numbers resolve quickly: maps on the
    full grid j/N with values on it (plateau orbits stay on the grid),
    homeomorphisms interpolating one twist orbit (the Stern-Brocot search)
    and rigid rotations, translated by an integer."""
    shape = draw(st.sampled_from(["grid", "orbit", "rigid"]))
    if shape == "grid":
        N = draw(st.integers(1, 12))
        values = [F2(draw(st.integers(-3 * N, 3 * N)), N) for _ in range(N)]
        F = Lifting(tuple(F2(j, N) for j in range(N)), tuple(values))
    elif shape == "orbit":
        q = draw(st.integers(1, 9))
        p = draw(st.sampled_from([p for p in range(-9, 19) if math.gcd(p, q) == 1]))
        points = draw(st.sets(st.fractions(0, F2(99, 100), max_denominator=100), min_size=q, max_size=q))
        F = build_from_orbits([LiftedOrbit(tuple(sorted(points)), p)])
    else:
        F = rigid(draw(rationals))
    return F.translate(draw(st.integers(-2, 2)))


def outcome(fn, *args):
    """The result of fn(*args), or the type and message of its typed error."""
    try:
        return fn(*args)
    except CircledynError as e:
        return type(e), str(e)


class TestGridMatchesReference:
    """The integer-grid path equals the Fraction reference in
    tests/lifting_reference.py."""

    @given(F=mixed_liftings(), G=mixed_liftings(), xs=st.lists(rationals, max_size=4))
    @example(F=sample_lifting(), G=rigid(F2(1, 3)), xs=[])  # crossings refine the grid 20 -> 140
    @example(F=Lifting((F2(0), F2(1, 2)), (F2(1, 3), F2(5, 6))), G=sample_lifting(), xs=[])  # affine, both stay
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_envelopes_dual_eval_and_compose(self, F, G, xs):
        Fl, Fu = ref.lower_map(F), ref.upper_map(F)
        assert lower_map(F) == Fl and upper_map(F) == Fu and upper_lower(F) == (Fl, Fu)
        assert F.dual() == ref.dual(F)
        assert compose(F, G) == ref.compose(F, G)
        for H in (F, Fl, Fu):
            for x in [*H.breakpoints, *(b + k for b in H.breakpoints for k in (-2, 1)), 3, *xs]:
                assert H.eval(x) == ref.eval_(H, x)

    @given(F=resolvable_liftings())
    @example(F=sample_lifting())
    @settings(max_examples=120, derandomize=True, deadline=None)
    def test_rotation_interval(self, F):
        # the bound 40 turns rigid rotations with larger denominators into
        # DepthExceeded on both sides
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lifting, "DEFAULT_DENOMINATOR_BOUND", 40)
            assert outcome(rotation_interval, F) == outcome(ref.rotation_interval, F)


class TestSerialization:
    def test_roundtrip(self):
        F = sample_lifting()
        assert Lifting.from_json(F.to_json()) == F


# points on one fundamental domain that both constructors reject, and the
# message naming the first check each one fails: the range check comes before
# the order check, so a point outside [0,1) is reported even where the points
# also fall
BAD_POINTS = [
    ((F2(-1, 3), F2(1, 2)), "must lie in [0,1)"),
    ((F2(0), F2(1)), "must lie in [0,1)"),
    ((F2(1, 2), F2(-1, 2)), "must lie in [0,1)"),
    ((F2(0), F2(3, 2), F2(1, 2)), "must lie in [0,1)"),
    ((F2(0), F2(1, 3), F2(1, 3)), "must be strictly increasing"),
    ((F2(0), F2(2, 3), F2(1, 3)), "must be strictly increasing"),
    ((F2(1, 2), F2(1, 4), F2(3, 4)), "must be strictly increasing"),
]


@st.composite
def grids(draw):
    """(D, X, V) for `lifting._on_grid`, D a multiple of the points' own
    denominator as the envelopes' refined grids are: mostly valid, sometimes
    out of order, outside [0, D) or with unmatched lengths."""
    D, m = draw(st.integers(1, 60)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        X = sorted(draw(st.sets(st.integers(0, D - 1), min_size=1, max_size=6)))
    else:
        X = draw(st.lists(st.integers(-D, 2 * D), max_size=6))
    n = max(0, len(X) + draw(st.sampled_from([0, 0, 0, 1, -1])))
    V = [draw(st.integers(-3 * D, 3 * D)) for _ in range(n)]
    return D * m, [x * m for x in X], [v * m for v in V]


def _fraction_built(D, X, V):
    return Lifting(tuple(F2(x, D) for x in X), tuple(F2(v, D) for v in V))


class TestGridConstructor:
    @given(grid=grids())
    @example(grid=(lambda D, X, V: (D, X[:-1], V[:-1]))(*lifting._lower(*sample_lifting().grid)))  # D = 140
    @example(grid=(12, [0, 4, 8], [3, 7, 11]))  # rigid on a refined grid: D = 4
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_grid_built_equals_fraction_built(self, grid):
        try:
            want = _fraction_built(*grid)
        except ValueError as e:
            with pytest.raises(ValueError) as err:
                lifting._on_grid(*grid)
            assert str(err.value) == str(e)
            return
        got = lifting._on_grid(*grid)
        assert got == want and hash(got) == hash(want) and got.to_json() == want.to_json()
        assert got.grid == want.grid and got.grid[0] == math.lcm(*(x.denominator for x in want.breakpoints + want.values))
        assert (got.breakpoints, got.values) == (want.breakpoints, want.values)


class TestValidation:
    @pytest.mark.parametrize(
        "breakpoints,values",
        [((), ()), ((F2(0), F2(1, 2)), (F2(0),)), ((F2(0),), (F2(0), F2(1, 2)))],
    )
    def test_lifting_needs_matching_nonempty_data(self, breakpoints, values):
        with pytest.raises(ValueError) as err:
            Lifting(breakpoints, values)
        assert str(err.value) == "need matching nonempty breakpoints/values"

    @pytest.mark.parametrize("points,message", BAD_POINTS)
    def test_lifting_rejects_breakpoints(self, points, message):
        with pytest.raises(ValueError) as err:
            Lifting(points, (F2(0),) * len(points))
        assert str(err.value) == "breakpoints " + message

    @pytest.mark.parametrize("points,message", [((), "must lie in [0,1)")] + BAD_POINTS)
    def test_orbit_rejects_points(self, points, message):
        with pytest.raises(ValueError) as err:
            LiftedOrbit(points, 1)
        assert str(err.value) == "orbit points " + message

    def test_integer_and_fraction_input_accepted(self):
        F = Lifting((0, F2(1, 3), F2(2, 3)), (F2(1, 6), 1, F2(5, 6)))
        assert F.breakpoints == (F2(0), F2(1, 3), F2(2, 3)) and F.values[1] == 1
        assert LiftedOrbit((0, F2(999, 1000)), 1).points == (F2(0), F2(999, 1000))
