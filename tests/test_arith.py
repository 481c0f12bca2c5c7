import time
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circledyn import arith
from circledyn.arith import (
    CertifiedRoot,
    IntPolynomial,
    ShoNumber,
    _shifted,
    bareiss_det,
    bisect_root,
    char_poly,
    land_root,
    largest_root_above,
    sharkovskii_geq,
    sharkovskii_tail,
)
from circledyn.errors import BudgetExceeded, NoRootAbove
from circledyn.families import POLYNOMIALS, dream, dream_poly
from circledyn.markov import markov_char_poly

sho_values = st.one_of(st.integers(min_value=1, max_value=3000), st.just("2^inf"))


class TestSharkovskii:
    def test_ordering_display(self):
        # 3 > 5 > 7 > 9 > ... > 2*3 > 2*5 > ... > 2^inf > ... > 4 > 2 > 1
        assert sharkovskii_geq(3, 5)
        assert sharkovskii_geq(5, 7)
        assert sharkovskii_geq(9, 6)
        assert sharkovskii_geq(6, 10)
        assert sharkovskii_geq(10, 12)
        assert sharkovskii_geq(ShoNumber("2^inf"), 16)
        assert sharkovskii_geq(12, ShoNumber("2^inf"))
        assert sharkovskii_geq(16, 8)
        assert sharkovskii_geq(2, 1)
        assert sharkovskii_geq(1, 1)
        assert not sharkovskii_geq(1, 2)

    @given(a=sho_values, b=sho_values)
    def test_total_order(self, a, b):
        a, b = ShoNumber(a), ShoNumber(b)
        geq = sharkovskii_geq(a, b)
        leq = sharkovskii_geq(b, a)
        assert geq or leq
        if geq and leq:
            assert a == b

    @given(a=sho_values, b=sho_values, c=sho_values)
    def test_transitive(self, a, b, c):
        a, b, c = ShoNumber(a), ShoNumber(b), ShoNumber(c)
        if sharkovskii_geq(a, b) and sharkovskii_geq(b, c):
            assert sharkovskii_geq(a, c)

    def test_tail_least_element(self):
        t = sharkovskii_tail(1)
        assert 1 in t and 2 not in t

    def test_tail_of_three_is_everything(self):
        t = sharkovskii_tail(3)
        assert all(k in t for k in range(1, 200))

    def test_tail_two_infinity(self):
        t = sharkovskii_tail(ShoNumber("2^inf"))
        members = {k for k in range(1, 200) if k in t}
        assert members == {1, 2, 4, 8, 16, 32, 64, 128}

    def test_tail_power_of_two(self):
        t = sharkovskii_tail(8)
        assert {k for k in range(1, 50) if k in t} == {1, 2, 4, 8}

    def test_tail_mixed_level(self):
        # 2*5: tail holds 2*odd >= 5, everything at deeper doubling levels
        # with odd part >= 3, and all powers of two
        t = sharkovskii_tail(10)
        members = {k for k in range(1, 100) if k in t}
        expected = {
            k
            for k in range(1, 100)
            if (_v2(k) == 1 and _odd(k) >= 5)
            or (_v2(k) >= 2 and _odd(k) >= 3)
            or _odd(k) == 1
        }
        assert members == expected

    @given(s=sho_values, k=st.integers(min_value=1, max_value=400))
    @settings(max_examples=60, derandomize=True)
    def test_tail_downward_closed(self, s, k):
        s = ShoNumber(s)
        t = sharkovskii_tail(s)
        if k in t:
            assert sharkovskii_geq(s, k)
        if sharkovskii_geq(s, k):
            assert k in t


def _v2(k):
    v = 0
    while k % 2 == 0:
        k //= 2
        v += 1
    return v


def _odd(k):
    while k % 2 == 0:
        k //= 2
    return k


class TestIntPolynomial:
    def test_mul_eval(self):
        p = IntPolynomial([1, 2, 3])  # 3x^2 + 2x + 1
        q = IntPolynomial([-1, 1])  # x - 1
        assert (p * q).eval(5) == p.eval(5) * q.eval(5)
        assert (p + q).eval(Fraction(1, 3)) == p.eval(Fraction(1, 3)) + q.eval(Fraction(1, 3))

    def test_divmod_exact(self):
        p = IntPolynomial([-1, 0, 1])  # x^2 - 1
        q, r = p.divmod_exact(IntPolynomial([-1, 1]))
        assert q == IntPolynomial([1, 1]) and r.is_zero()

    def test_division_not_exact(self):
        with pytest.raises(ValueError):
            IntPolynomial([1, 0, 1]).divmod_exact(IntPolynomial([0, 2]))

    def test_normalization(self):
        assert IntPolynomial([1, 2, 0, 0]).degree == 1
        assert IntPolynomial([0, 0]).is_zero()

    @pytest.mark.parametrize("bad", [Fraction(1, 2), 0.9, Fraction(4, 2), 2.0])
    def test_rejects_non_integer_coefficients(self, bad):
        # no silent truncation: Fraction(1, 2) and 0.9 are not read as 0
        with pytest.raises(TypeError):
            IntPolynomial([bad, 1])

    def test_accepts_bools_as_integers(self):
        p = IntPolynomial([-1, True, False])  # char_poly's diagonal entries
        assert p == IntPolynomial([-1, 1]) and type(p.coeffs[1]) is int


class TestLargestRoot:
    def test_linear(self):
        r = largest_root_above(IntPolynomial([-2, 1]), Fraction(1), Fraction(1, 10**9))
        assert r.lower <= 2 <= r.upper and r.width <= Fraction(1, 10**9)

    def test_golden_ratio(self):
        # x^2 - x - 1: largest root (1+sqrt5)/2
        r = largest_root_above(IntPolynomial([-1, -1, 1]), Fraction(1), Fraction(1, 10**12))
        phi = 1.6180339887498949
        assert float(r.lower) <= phi <= float(r.upper)
        # certified: sign change inside the bracket
        p = IntPolynomial([-1, -1, 1])
        assert p.eval(r.lower) * p.eval(r.upper) <= 0

    def test_dream_polynomial_bracket(self):
        # T3 = (x^10 - 1)(x - 1) - 2x^3(x^5 - 1); bisection cross-checked by
        # exact endpoint evaluations
        p = dream_poly(3)
        r = largest_root_above(p, Fraction(1), Fraction(1, 10**9))
        assert p.eval(r.lower) * p.eval(r.upper) <= 0
        assert r.width <= Fraction(1, 10**9)

    def test_no_root_above(self):
        with pytest.raises(NoRootAbove):
            largest_root_above(IntPolynomial([1, 0, 1]), Fraction(1), Fraction(1, 10**6))

    def test_deflates_floor_roots(self):
        # (x-1)^2 (x-3): floor root deflated, finds 3
        p = IntPolynomial([-1, 1]) * IntPolynomial([-1, 1]) * IntPolynomial([-3, 1])
        r = largest_root_above(p, Fraction(1), Fraction(1, 10**9))
        assert r.lower <= 3 <= r.upper


def linear(root: Fraction) -> IntPolynomial:
    """The primitive integer linear factor with the given rational root."""
    root = Fraction(root)
    return IntPolynomial([-root.numerator, root.denominator])


@st.composite
def known_root_polys(draw):
    """(roots, p, floor): p is the product of linear factors at `roots` (some
    pairs only 1e-7 apart) and an irreducible quadratic whose complex roots
    may lie right of every real root."""
    roots = [Fraction(k, 8) for k in draw(st.lists(st.integers(-40, 80), max_size=4, unique=True))]
    if roots:
        roots += [r + Fraction(1, 10**7) for r in draw(st.lists(st.sampled_from(roots), unique=True))]
    u, s = draw(st.integers(-20, 40)), draw(st.integers(1, 64))
    p = IntPolynomial([u * u + s, -8 * u, 16])  # 16 (x - u/4)^2 + s
    for r in roots:
        p = p * linear(r)
    return roots, p, Fraction(draw(st.integers(-16, 48)), 4)


class TestRootKernel:
    """Exact root counting: the bracket holds the largest root above the
    floor, however close its neighbours are."""

    TOL = Fraction(1, 10**9)

    @pytest.mark.parametrize(
        "roots",
        [
            (3, 10, 10 + Fraction(1, 10**6)),
            (2, 7, 7 + Fraction(1, 10**4)),
        ],
    )
    def test_close_pair_brackets_the_largest(self, roots):
        p = IntPolynomial([1])
        for r in roots:
            p = p * linear(r)
        b = largest_root_above(p, Fraction(1), self.TOL)
        assert b.lower <= max(roots) <= b.upper and b.width <= self.TOL

    def test_complex_roots_right_of_real_root(self):
        # (x - 2)((x - 3)^2 + 1): roots 2 and 3 +- i
        p = linear(2) * IntPolynomial([10, -6, 1])
        b = largest_root_above(p, Fraction(1), self.TOL)
        assert b.lower <= 2 <= b.upper and b.width <= self.TOL

    def test_repeated_largest_root_raises(self):
        # (x - 2)^2 (2x + 1): the double root cannot be isolated by a count of 1
        p = linear(2) * linear(2) * linear(Fraction(-1, 2))
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            largest_root_above(p, Fraction(1), self.TOL)
        assert time.perf_counter() - start < 10

    def test_root_at_a_cut_is_exact(self):
        # x^2 (x - 2)^2: the cuts of (1, 5) reach the double root 2 exactly
        p = IntPolynomial([0, 0, 4, -4, 1])
        assert largest_root_above(p, Fraction(1), self.TOL) == CertifiedRoot(Fraction(2), Fraction(2))

    @given(known_root_polys())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_largest_known_root(self, case):
        roots, p, floor = case
        above = [r for r in roots if r > floor]
        if not above:
            with pytest.raises(NoRootAbove):
                largest_root_above(p, floor, self.TOL)
            return
        b = largest_root_above(p, floor, self.TOL)
        assert b.lower <= max(above) <= b.upper and b.width <= self.TOL
        assert b.lower > floor


def _outcome(p, floor, tol):
    """largest_root_above's bracket, or the type of error it raises."""
    try:
        return largest_root_above(p, floor, tol)
    except (NoRootAbove, BudgetExceeded) as e:
        return type(e)


def _bisect_outcome(p, floor, tol):
    """The same, with bisection in place of the landing step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "land_root", lambda q, lo, hi, t: bisect_root(q.sign_at, lo, hi, t))
        return _outcome(p, floor, tol)


@pytest.fixture
def fallbacks(monkeypatch):
    """The calls that land_root makes to bisect_root."""
    calls = []
    monkeypatch.setattr(arith, "bisect_root", lambda *a: calls.append(a) or bisect_root(*a))
    return calls


class TestLandRoot:
    """The landing step returns exactly the bracket bisection ends in."""

    @given(known_root_polys(), st.sampled_from([Fraction(1, 10**9), Fraction(1, 10**12), Fraction(1, 3)]))
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_equals_bisection_on_known_roots(self, case, tol):
        # the roots k/8 lie on the grid points of many cuts
        _, p, floor = case
        assert _outcome(p, floor, tol) == _bisect_outcome(p, floor, tol)

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=13), st.integers(1, 9))
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_equals_bisection_on_random_polynomials(self, cs, lead):
        # p(1) = -1 < 0 < lead: a real root above 1
        cs = cs + [lead]
        cs[0] -= sum(cs) + 1
        p = IntPolynomial(cs)
        assert _outcome(p, Fraction(1), Fraction(1, 10**9)) == _bisect_outcome(p, Fraction(1), Fraction(1, 10**9))

    @pytest.mark.parametrize("cell,misses", [(None, 0), (-2, 1), (-1, 0), (0, 0), (1, 0), (2, 1)])
    def test_root_on_a_cell_end(self, monkeypatch, fallbacks, cell, misses):
        # (1, 3) at tol 1/1000 halves 11 times into cells of width 1/1024, and
        # the root r = 1 + 683/1024 is a cell end.  A guess in r's cell or a
        # neighbouring one lands on [r, r + 1/1024] with exact signs alone; one
        # two cells off falls back to bisection, with the same bracket.
        r, w = Fraction(1707, 1024), Fraction(1, 1024)
        p, lo, hi, tol = linear(r), Fraction(1), Fraction(3), Fraction(1, 1000)
        want = CertifiedRoot(r, r + w)
        assert bisect_root(p.sign_at, lo, hi, tol) == want
        if cell is not None:
            monkeypatch.setattr(arith, "_newton_guess", lambda *a: r + (cell + Fraction(1, 2)) * w)
        assert land_root(p, lo, hi, tol) == want and len(fallbacks) == misses

    @pytest.mark.parametrize("p", [linear(1) * linear(2), linear(1) * IntPolynomial([-3, 0, 1])])
    def test_root_at_the_lower_end(self, p):
        # p(lo) = 0 at lo = 1, and one simple root (2 or sqrt 3) inside
        lo, hi, tol = Fraction(1), Fraction(3), Fraction(1, 10**9)
        assert land_root(p, lo, hi, tol) == bisect_root(p.sign_at, lo, hi, tol)

    def test_piece_within_tol(self):
        # k = 0: the piece itself is the bracket
        p, lo, hi = IntPolynomial([-2, 0, 1]), Fraction(141, 100), Fraction(142, 100)
        assert land_root(p, lo, hi, Fraction(1, 50)) == CertifiedRoot(lo, hi)

    def test_guess_outside_the_piece_stays_inside(self, monkeypatch):
        # roots 1 - 5/2048 and 1 - 3/2048 below (1, 3) make the depth-11 cell
        # [1 - 3/1024, 1 - 2/1024] pass the sign check; a guess there must
        # still give the bracket inside the piece
        p = linear(1 - Fraction(5, 2048)) * linear(1 - Fraction(3, 2048)) * linear(2)
        lo, hi, tol = Fraction(1), Fraction(3), Fraction(1, 1000)
        monkeypatch.setattr(arith, "_newton_guess", lambda *a: lo - Fraction(5, 2048))
        assert land_root(p, lo, hi, tol) == bisect_root(p.sign_at, lo, hi, tol) == CertifiedRoot(Fraction(2), Fraction(2049, 1024))

    @pytest.mark.parametrize("name,n", [("dream", 3), ("dream", 51), ("persistent", 101), ("montevideo", 6)])
    def test_family_roots_land_without_bisection(self, fallbacks, name, n):
        # the fixed-point guess is good enough on the Perron polynomials
        largest_root_above(POLYNOMIALS[name](n), Fraction(1), Fraction(1, 10**12))
        assert fallbacks == []

    def test_forced_miss_falls_back_to_bisection(self, monkeypatch, fallbacks):
        # a guess at the far end of the piece checks the wrong cells
        p, lo, hi, tol = IntPolynomial([-2, 0, 1]), Fraction(1), Fraction(100), Fraction(1, 10**9)
        want = bisect_root(p.sign_at, lo, hi, tol)
        monkeypatch.setattr(arith, "_newton_guess", lambda *a: hi)
        assert land_root(p, lo, hi, tol) == want and len(fallbacks) == 1


@st.composite
def one_variation_polys(draw):
    """(p, floor): the coefficients of p, constant term first, are nonpositive
    then nonnegative (zeros anywhere), with one sign variation; p may be
    negated, and floor >= 0."""
    cs = draw(st.lists(st.integers(-9, 0), max_size=8)) + [draw(st.integers(-99, -1))]
    cs += draw(st.lists(st.integers(0, 9), max_size=30)) + [draw(st.integers(1, 9))]
    p = IntPolynomial(cs) * draw(st.sampled_from([1, -1]))
    return p, Fraction(draw(st.integers(0, 24)), draw(st.sampled_from([1, 2, 3, 8])))


def _first_piece_count(p, floor):
    """The Descartes count the subdivision makes on its first piece,
    (floor, Cauchy bound), from Taylor-shifted coefficients."""
    d, bound = p.degree, p.cauchy_root_bound()
    width = bound - floor
    alpha = floor.numerator * width.denominator
    beta = floor.denominator * width.numerator
    gamma = floor.denominator * width.denominator
    q = _shifted([c * gamma ** (d - i) for i, c in enumerate(p.coeffs)], alpha)
    return arith._descartes_bound([c * beta**i for i, c in enumerate(q)])


class _TaylorShift(Exception):
    pass


def _no_shift(*args):
    raise _TaylorShift


class TestOneVariation:
    """Coefficients with one sign variation and p(floor) < 0 settle the first
    piece without a Taylor shift, with the bracket the subdivision gives."""

    TOL = Fraction(1, 10**12)

    @given(
        st.one_of(one_variation_polys(), known_root_polys().map(lambda case: case[1:])),
        st.sampled_from([Fraction(1, 10**9), Fraction(1, 3)]),
    )
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_first_piece_counts_one_when_the_test_fires(self, case, tol):
        # a bracket found with no Taylor shift comes from the one-variation
        # test; the subdivision would have counted 1 on the same first piece
        p, floor = case
        shifts = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_shifted", lambda *a: shifts.append(a) or _shifted(*a))
            got = _outcome(p, floor, tol)
        if isinstance(got, CertifiedRoot) and not shifts:
            while p.sign_at(floor) == 0:
                p = p // linear(floor)  # deflated as largest_root_above does
            assert _first_piece_count(p, floor) == 1
        assert got == _bisect_outcome(*case, tol)

    @pytest.mark.parametrize("name,n", [("dream", 3), ("dream", 51), ("persistent", 101), ("montevideo", 6)])
    def test_family_roots_need_no_shift(self, name, n):
        p = POLYNOMIALS[name](n)
        want = largest_root_above(p, Fraction(1), self.TOL)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_shifted", _no_shift)
            assert largest_root_above(p, Fraction(1), self.TOL) == want

    @pytest.mark.parametrize("p", [linear(2) * IntPolynomial([10, -6, 1]), linear(3) * linear(Fraction(1, 2)) * linear(2)])
    def test_several_variations_subdivide(self, p):
        # (x - 2)((x - 3)^2 + 1) and (x - 3)(2x - 1)(x - 2): V(p) = 3
        assert arith._sign_variations(p.coeffs) == 3
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_shifted", _no_shift)
            with pytest.raises(_TaylorShift):
                largest_root_above(p, Fraction(1), self.TOL)

    def test_negative_floor_subdivides(self):
        # (2x + 1)(4x + 1)(x - 2) has one variation and is negative at -1, but
        # Descartes' rule counts positive roots: three roots lie above -1
        p = linear(Fraction(-1, 2)) * linear(Fraction(-1, 4)) * linear(2)
        assert arith._sign_variations(p.coeffs) == 1 and p.sign_at(Fraction(-1)) < 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_shifted", _no_shift)
            with pytest.raises(_TaylorShift):
                largest_root_above(p, Fraction(-1), self.TOL)


def leibniz_det(matrix, one):
    """Permutation-sum determinant, the reference for `bareiss_det`."""
    n = len(matrix)
    total = one - one
    for perm in permutations(range(n)):
        term = one
        for i, j in enumerate(perm):
            term = term * matrix[i][j]
        odd = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2
        total = total - term if odd else total + term
    return total


# zero-heavy entries, so that zero pivots (row swaps) and singular matrices are common
int_entries = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3))
poly_entries = st.lists(int_entries, max_size=3).map(IntPolynomial)
ONE = IntPolynomial([1])
Y = IntPolynomial([0, 1])


@st.composite
def square_matrices(draw, entries, max_size=5):
    n = draw(st.integers(min_value=0, max_value=max_size))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = list(rows[0])  # may repeat row 0: singular
    return rows


class TestBareiss:
    """`bareiss_det` over Z and Z[y] against the Leibniz permutation sum."""

    @given(square_matrices(int_entries))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_integer_matrices(self, m):
        assert bareiss_det(m) == leibniz_det(m, 1)

    @given(square_matrices(poly_entries).filter(len))
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_polynomial_matrices(self, m):
        assert bareiss_det(m) == leibniz_det(m, ONE)

    def test_zero_pivots_need_row_swaps(self):
        assert bareiss_det([[0, 1], [1, 0]]) == -1
        assert bareiss_det([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
        m = [[IntPolynomial([]), Y], [ONE + Y, IntPolynomial([2])]]
        assert bareiss_det(m) == leibniz_det(m, ONE) == IntPolynomial([0, -1, -1])

    def test_singular_matrices(self):
        assert bareiss_det([[1, 2], [2, 4]]) == 0
        assert bareiss_det([[0, 1], [0, 2]]) == 0
        m = [[Y, Y * Y], [ONE, Y]]  # second column y times the first
        assert bareiss_det(m).is_zero()
        assert bareiss_det([[IntPolynomial([]), Y], [IntPolynomial([]), ONE]]).is_zero()

    def test_not_square(self):
        with pytest.raises(ValueError):
            bareiss_det([[1, 2]])

    @given(poly_entries.filter(bool), st.lists(int_entries, min_size=2, max_size=4).map(IntPolynomial))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_exact_quotient_by_any_divisor(self, q, d):
        assume(d.degree >= 1)
        assert (q * d) // d == q

    def test_inexact_quotient_raises(self):
        with pytest.raises(ValueError):
            IntPolynomial([1, 0, 1]) // IntPolynomial([1, 1])  # remainder 2
        with pytest.raises(ValueError):
            IntPolynomial([2, 1]) // IntPolynomial([0, 2])  # leading 1 / 2
        with pytest.raises(ValueError):
            IntPolynomial([1, 2]) // 2
        assert IntPolynomial([2, 4]) // 2 == IntPolynomial([1, 2])


class TestCharPoly:
    def test_one_by_one(self):
        assert char_poly([[1]]) == IntPolynomial([-1, 1])

    def test_identity_2x2(self):
        assert char_poly([[1, 0], [0, 1]]) == IntPolynomial([-1, 1]) * IntPolynomial([-1, 1])

    def test_dream_n3_vs_rome(self):
        inst = dream(3)
        assert char_poly(inst.markov.matrix) == markov_char_poly(inst.markov)

    def test_determinant_identity(self):
        # det(xI - M) at x = 0, 1, 2 equals fresh integer determinants
        m = [[0, 1, 1], [1, 0, 0], [1, 1, 0]]
        p = char_poly(m)
        for t in (0, 1, 2):
            a = [[(t if i == j else 0) - m[i][j] for j in range(3)] for i in range(3)]
            assert p.eval(t) == bareiss_det(a)

    @given(
        st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=40, derandomize=True)
    def test_char_poly_eval_matches_det(self, m):
        p = char_poly(m)
        for t in (0, 1, -2):
            a = [[(t if i == j else 0) - m[i][j] for j in range(3)] for i in range(3)]
            assert p.eval(t) == bareiss_det(a)
