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
    _newton_guess,
    _shifted,
    bareiss_det,
    bisect_root,
    kronecker_det,
    land_root,
    largest_root_above,
    sharkovskii_geq,
)
from circledyn.errors import BudgetExceeded, NoRootAbove
from circledyn.families import POLYNOMIALS, dream, dream_poly, make
from circledyn.markov import markov_char_poly
from circledyn.minentropy import q_balance
from poly_reference import char_poly, dense_sign_at
from test_minentropy import GRID

SCAN_RANGES = (
    [("dream", n) for n in range(3, 52)]
    + [("persistent", n) for n in range(5, 102, 2)]
    + [("montevideo", n) for n in range(3, 11)]
)
BETA_PAIRS = GRID + [(Fraction(1, 2 * n - 1), Fraction(2, 2 * n - 1)) for n in range(3, 9)]

sho_values = st.integers(min_value=1, max_value=3000)


class TestSharkovskii:
    def test_ordering_display(self):
        # 3 > 5 > 7 > 9 > ... > 2*3 > 2*5 > ... > 4*3 > ... > 16 > 8 > 4 > 2 > 1
        assert sharkovskii_geq(3, 5)
        assert sharkovskii_geq(5, 7)
        assert sharkovskii_geq(9, 6)
        assert sharkovskii_geq(6, 10)
        assert sharkovskii_geq(10, 12)
        assert sharkovskii_geq(12, 16)
        assert sharkovskii_geq(16, 8)
        assert sharkovskii_geq(2, 1)
        assert sharkovskii_geq(1, 1)
        assert not sharkovskii_geq(1, 2)

    @given(a=sho_values, b=sho_values)
    def test_total_order(self, a, b):
        geq = sharkovskii_geq(a, b)
        leq = sharkovskii_geq(b, a)
        assert geq or leq
        if geq and leq:
            assert a == b

    @given(a=sho_values, b=sho_values, c=sho_values)
    def test_transitive(self, a, b, c):
        if sharkovskii_geq(a, b) and sharkovskii_geq(b, c):
            assert sharkovskii_geq(a, c)

    # the tail {k : k <=_Sh s} of a type s, read off the order

    def test_tail_least_element(self):
        assert sharkovskii_geq(1, 1) and not sharkovskii_geq(1, 2)

    def test_tail_of_three_is_everything(self):
        assert all(sharkovskii_geq(3, k) for k in range(1, 200))

    def test_tail_power_of_two(self):
        assert {k for k in range(1, 50) if sharkovskii_geq(8, k)} == {1, 2, 4, 8}

    def test_tail_mixed_level(self):
        # 2*5: tail holds 2*odd >= 5, everything at deeper doubling levels
        # with odd part >= 3, and all powers of two
        members = {k for k in range(1, 100) if sharkovskii_geq(10, k)}
        expected = {
            k
            for k in range(1, 100)
            if (_v2(k) == 1 and _odd(k) >= 5)
            or (_v2(k) >= 2 and _odd(k) >= 3)
            or _odd(k) == 1
        }
        assert members == expected


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


@st.composite
def sign_cases(draw):
    """(p, points): p of degree up to about 3000 with an exact rational root r,
    dense, with a few terms, or (x - 1) times runs of equal coefficients; the
    points are r, 0, 1, negative ones and ones with large denominators."""
    rnd = draw(st.randoms(use_true_random=False))
    d = draw(st.sampled_from([0, 1, 5, 40, 300, 3000]))
    shape = draw(st.sampled_from(["dense", "few", "runs"]))
    if shape == "dense":
        cs = [rnd.randint(-9, 9) for _ in range(d + 1)]
    elif shape == "few":
        cs = [0] * (d + 1)
        for e in rnd.sample(range(d + 1), min(d + 1, 5)):
            cs[e] = rnd.choice([-1, 1]) * rnd.randint(1, 10**6)
    else:
        cs = []
        while len(cs) <= d:
            cs += [rnd.randint(-9, 9)] * rnd.randint(1, 400)
        cs = (IntPolynomial(cs[: d + 1]) * linear(1)).coeffs
    r = Fraction(rnd.randint(-40, 40), rnd.randint(1, 9))
    points = [r, Fraction(0), Fraction(1), Fraction(-1), Fraction(-7, 3), Fraction(rnd.randint(-(2**70), 2**70), 2**64 + 13)]
    return IntPolynomial(cs) * linear(r), points


class TestSparseSign:
    """`IntPolynomial.sign_at` skips runs of zero coefficients; the dense
    Horner over every coefficient is its reference."""

    @given(sign_cases())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_equals_dense_sign(self, case):
        p, points = case
        for x in points:
            assert p.sign_at(x) == dense_sign_at(p, x)
        assert p.sign_at(points[0]) == 0  # r is a root

    @pytest.mark.parametrize(
        "cs", [(), (5,), (0, 0, 0, 2), (3, 0, 0, 0, 0, -1), (0, 1, 0, 0, 0, 0, 0, -4), (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)]
    )
    def test_zero_runs_at_the_ends(self, cs):
        p = IntPolynomial(cs)
        for x in (Fraction(0), Fraction(1), Fraction(-1), Fraction(-3, 2), Fraction(5, 7), Fraction(1, 2**70)):
            assert p.sign_at(x) == dense_sign_at(p, x)
        # the steps walk the exponents down to 0, one step per nonzero term;
        # the second call reads the kept steps
        p.horner_steps()
        steps, e, rebuilt = p.horner_steps(), p.degree, [0] * len(p.coeffs)
        for g, c in steps:
            e -= g
            rebuilt[e] = c
        assert IntPolynomial(rebuilt) == p and e == min(p.degree, 0)
        assert [c for _, c in steps if c] == [c for c in reversed(p.coeffs) if c]

    @given(
        st.dictionaries(st.integers(0, 3000), st.integers(-(2**40), 2**40), max_size=7),
        st.lists(st.tuples(st.integers(-(2**80), 2**80), st.integers(0, 90), st.sampled_from([1, 1, 3, 5, 7, 2**61 - 1])), min_size=1, max_size=6),
    )
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_dyadic_and_mixed_denominators(self, terms, points):
        # b = 2^s m with m odd: m = 1 is a dyadic point, where the steps only
        # shift; exponents up to 3000 give gaps in the thousands
        p = IntPolynomial([terms.get(e, 0) for e in range(max(terms, default=-1) + 1)])
        for a, s, m in points:
            x = Fraction(a, m << s)
            assert p.sign_at(x) == dense_sign_at(p, x)


@st.composite
def sparse_or_dense_polys(draw):
    """Integer polynomials, the zero polynomial and constants included: dense
    ones of degree < 40, or a few terms at exponents up to 500."""
    if draw(st.booleans()):
        return IntPolynomial(draw(st.lists(st.integers(-9, 9), max_size=40)))
    terms = draw(st.dictionaries(st.integers(0, 500), st.integers(-(2**70), 2**70), max_size=6))
    return IntPolynomial([terms.get(e, 0) for e in range(max(terms, default=-1) + 1)])


def reference_horner_steps(cs) -> list[tuple[int, int]]:
    """`horner_steps` of the coefficients cs by its definition: (gap from the
    exponent before, coefficient) from the leading term down, then (e, 0)
    for a lowest nonzero exponent e above 0."""
    steps, before = [], len(cs) - 1
    for e in range(len(cs) - 1, -1, -1):
        if cs[e]:
            steps.append((before - e, cs[e]))
            before = e
    return steps + [(before, 0)] if steps and before else steps


class TestHornerCache:
    """`horner_steps` is built on the first call and kept in the `_steps`
    slot, which equality, hashing and repr do not read."""

    @given(sparse_or_dense_polys())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_kept_steps_equal_a_fresh_build(self, p):
        steps = p.horner_steps()
        assert list(steps) == reference_horner_steps(p.coeffs)
        assert p.horner_steps() is steps
        # equal polynomials built apart give equal steps, each its own
        q = IntPolynomial(list(p.coeffs))
        assert q.horner_steps() == steps

    @pytest.mark.parametrize("cs", [(), (7,), (0, 0, 3), (1, -1, 0, 2)])
    def test_eq_hash_repr_ignore_the_kept_steps(self, cs):
        p, q = IntPolynomial(cs), IntPolynomial(cs)
        p.horner_steps()
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
        assert repr(p) == repr(IntPolynomial(cs))

    @pytest.mark.parametrize("built", [False, True])
    def test_slots_stay_read_only(self, built):
        p = IntPolynomial([1, 0, -2])
        if built:
            p.horner_steps()
        for name in ("coeffs", "_steps"):
            with pytest.raises(AttributeError):
                setattr(p, name, ())
        assert p.coeffs == (1, 0, -2) and p.horner_steps() == ((0, -2), (2, 1))


class TestLargestRoot:
    def test_linear(self):
        r = largest_root_above(IntPolynomial([-2, 1]), Fraction(1, 10**9))
        assert r.lower <= 2 <= r.upper and r.width <= Fraction(1, 10**9)

    def test_golden_ratio(self):
        # x^2 - x - 1: largest root (1+sqrt5)/2
        r = largest_root_above(IntPolynomial([-1, -1, 1]), Fraction(1, 10**12))
        phi = 1.6180339887498949
        assert float(r.lower) <= phi <= float(r.upper)
        # certified: sign change inside the bracket
        p = IntPolynomial([-1, -1, 1])
        assert p.eval(r.lower) * p.eval(r.upper) <= 0

    def test_dream_polynomial_bracket(self):
        # T3 = (x^10 - 1)(x - 1) - 2x^3(x^5 - 1); bisection cross-checked by
        # exact endpoint evaluations
        p = dream_poly(3)
        r = largest_root_above(p, Fraction(1, 10**9))
        assert p.eval(r.lower) * p.eval(r.upper) <= 0
        assert r.width <= Fraction(1, 10**9)

    def test_no_root_above(self):
        with pytest.raises(NoRootAbove):
            largest_root_above(IntPolynomial([1, 0, 1]), Fraction(1, 10**6))

    def test_deflates_floor_roots(self):
        # (x-1)^2 (x-3): the double root at 1 is deflated, finds 3
        p = IntPolynomial([-1, 1]) * IntPolynomial([-1, 1]) * IntPolynomial([-3, 1])
        r = largest_root_above(p, Fraction(1, 10**9))
        assert r.lower <= 3 <= r.upper


def linear(root: Fraction) -> IntPolynomial:
    """The primitive integer linear factor with the given rational root."""
    root = Fraction(root)
    return IntPolynomial([-root.numerator, root.denominator])


@st.composite
def known_root_polys(draw):
    """(roots, p): p is the product of linear factors at `roots` (some pairs
    only 1e-7 apart) and an irreducible quadratic whose complex roots may lie
    right of every real root."""
    roots = [Fraction(k, 8) for k in draw(st.lists(st.integers(-40, 80), max_size=4, unique=True))]
    if roots:
        roots += [r + Fraction(1, 10**7) for r in draw(st.lists(st.sampled_from(roots), unique=True))]
    u, s = draw(st.integers(-20, 40)), draw(st.integers(1, 64))
    p = IntPolynomial([u * u + s, -8 * u, 16])  # 16 (x - u/4)^2 + s
    for r in roots:
        p = p * linear(r)
    return roots, p


class TestRootKernel:
    """Exact root counting: the bracket holds the largest root above 1,
    however close its neighbours are."""

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
        b = largest_root_above(p, self.TOL)
        assert b.lower <= max(roots) <= b.upper and b.width <= self.TOL

    def test_complex_roots_right_of_real_root(self):
        # (x - 2)((x - 3)^2 + 1): roots 2 and 3 +- i
        p = linear(2) * IntPolynomial([10, -6, 1])
        b = largest_root_above(p, self.TOL)
        assert b.lower <= 2 <= b.upper and b.width <= self.TOL

    def test_repeated_largest_root_raises(self):
        # (x - 2)^2 (2x + 1): the double root cannot be isolated by a count of 1
        p = linear(2) * linear(2) * linear(Fraction(-1, 2))
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            largest_root_above(p, self.TOL)
        assert time.perf_counter() - start < 10

    def test_root_at_a_cut_is_exact(self):
        # x^2 (x - 2)^2: the cuts of (1, 5) reach the double root 2 exactly
        p = IntPolynomial([0, 0, 4, -4, 1])
        assert largest_root_above(p, self.TOL) == CertifiedRoot(Fraction(2), Fraction(2))

    @given(known_root_polys())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_largest_known_root(self, case):
        roots, p = case
        above = [r for r in roots if r > 1]
        if not above:
            with pytest.raises(NoRootAbove):
                largest_root_above(p, self.TOL)
            return
        b = largest_root_above(p, self.TOL)
        assert b.lower <= max(above) <= b.upper and b.width <= self.TOL
        assert b.lower > 1


def _outcome(p, tol):
    """largest_root_above's bracket, or the type of error it raises."""
    try:
        return largest_root_above(p, tol)
    except (NoRootAbove, BudgetExceeded) as e:
        return type(e)


def _bisect_outcome(p, tol):
    """The same, with bisection in place of the landing step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "land_root", lambda q, lo, hi, t: bisect_root(q.sign_at, lo, hi, t))
        return _outcome(p, tol)


def _land_with_form(p, lo, hi, tol):
    """land_root's bracket, and the polynomial it took its signs on."""
    forms = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_newton_guess", lambda q, *a: forms.append(q) or _newton_guess(q, *a))
        return land_root(p, lo, hi, tol), forms[0]


@pytest.fixture
def fallbacks(monkeypatch):
    """The calls that land_root makes to bisect_root."""
    calls = []
    monkeypatch.setattr(arith, "bisect_root", lambda *a: calls.append(a) or bisect_root(*a))
    return calls


class TestDeflation:
    """Roots at 1 are deflated by running sums of the coefficients; repeated
    `divmod_exact` by x - 1 is the reference."""

    @given(
        st.one_of(st.integers(-9, 9).map(lambda c: [c]), st.lists(st.integers(-9, 9), max_size=9)),
        st.integers(0, 3),
    )
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_running_sums_equal_division(self, cs, k):
        p = IntPolynomial(cs)
        for _ in range(k):
            p = p * linear(1)
        want = p
        while want and want.sign_at(Fraction(1)) == 0:
            want, rest = want.divmod_exact(linear(1))
            assert not rest
        # the kernel's first look at the deflated, oriented polynomial is its
        # Cauchy bound; c x^d (constants too) has no root above 1
        seen, bound = [], IntPolynomial.cauchy_root_bound
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(IntPolynomial, "cauchy_root_bound", lambda q: seen.append(q) or bound(q))
            got = _outcome(p, Fraction(1, 10**9))
        if not any(want.coeffs[:-1]):
            assert got is NoRootAbove and seen == []
        else:
            assert seen[0] == (want if want.leading() > 0 else -want)
            assert got == _outcome(want, Fraction(1, 10**9))


class TestLandRoot:
    """The landing step returns exactly the bracket bisection ends in."""

    @given(known_root_polys(), st.sampled_from([Fraction(1, 10**9), Fraction(1, 10**12), Fraction(1, 3)]))
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_equals_bisection_on_known_roots(self, case, tol):
        # the roots k/8 lie on the grid points of many cuts
        _, p = case
        assert _outcome(p, tol) == _bisect_outcome(p, tol)

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=13), st.integers(1, 9))
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_equals_bisection_on_random_polynomials(self, cs, lead):
        # p(1) = -1 < 0 < lead: a real root above 1
        cs = cs + [lead]
        cs[0] -= sum(cs) + 1
        p = IntPolynomial(cs)
        assert _outcome(p, Fraction(1, 10**9)) == _bisect_outcome(p, Fraction(1, 10**9))

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

    @pytest.mark.parametrize("name,n", SCAN_RANGES)
    def test_family_roots_land_without_bisection(self, fallbacks, name, n):
        # the fixed-point guess is good enough on the Perron polynomials
        largest_root_above(POLYNOMIALS[name](n), Fraction(1, 10**12))
        assert fallbacks == []

    @pytest.mark.parametrize("c,d", BETA_PAIRS)
    def test_beta_roots_land_without_bisection(self, fallbacks, c, d):
        largest_root_above(q_balance(c, d)[0], Fraction(1, 10**12))
        assert fallbacks == []

    @pytest.mark.parametrize(
        "p",
        [
            lambda: POLYNOMIALS["dream"](801),
            lambda: POLYNOMIALS["dream"](3201),
            lambda: POLYNOMIALS["persistent"](1601),
            lambda: POLYNOMIALS["persistent"](6401),
            lambda: q_balance(Fraction(0), Fraction(1, 16000))[0],
        ],
        ids=["dream-801", "dream-3201", "persistent-1601", "persistent-6401", "beta-0-1/16000"],
    )
    def test_large_gaps_land_without_bisection(self, fallbacks, p):
        # Horner steps with gaps in the thousands, far above
        # _TRUNCATED_POWERS_FROM: the guess's truncated powers still pick the cell
        p = p()
        assert max(g for g, _ in p.horner_steps()) > 40 * arith._TRUNCATED_POWERS_FROM
        largest_root_above(p, Fraction(1, 10**12))
        assert fallbacks == []

    @given(st.integers(0, 2**20), st.integers(1, 5000), st.integers(30, 130))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_truncated_power_bounds(self, frac, e, P):
        # x in [1, 2) at P bits: every product truncated, for a relative
        # error under about 2e / 2^P, always from below
        x = (1 << P) + (frac << (P - 20))
        exact = (x**e << P) >> P * e
        assert 0 <= exact - arith._truncated_power(x, e, P) <= 2 * e * (exact >> P) + 2 * e + 2

    def test_checks_only_points_in_the_piece(self, monkeypatch):
        # a guess in the first cell checks cells 0 and 1 and then bisects: the
        # cell below lo never passes, and below 1 (x - 1) p, which carries
        # this p's signs, need not have p's sign
        p, lo, tol = IntPolynomial([-9] * 96 + [1] * 4), Fraction(1), Fraction(1, 10**9)
        hi, points, sign_at = p.cauchy_root_bound(), [], IntPolynomial.sign_at
        monkeypatch.setattr(IntPolynomial, "sign_at", lambda q, x: points.append(x) or sign_at(q, x))
        monkeypatch.setattr(arith, "_newton_guess", lambda *a: lo)
        assert land_root(p, lo, hi, tol) == bisect_root(lambda x: sign_at(p, x), lo, hi, tol)
        assert points and all(lo <= x <= hi for x in points)

    def test_forced_miss_falls_back_to_bisection(self, monkeypatch, fallbacks):
        # a guess at the far end of the piece checks the wrong cells
        p, lo, hi, tol = IntPolynomial([-2, 0, 1]), Fraction(1), Fraction(100), Fraction(1, 10**9)
        want = bisect_root(p.sign_at, lo, hi, tol)
        monkeypatch.setattr(arith, "_newton_guess", lambda *a: hi)
        assert land_root(p, lo, hi, tol) == want and len(fallbacks) == 1


@st.composite
def kernel_cases(draw):
    """(p, tol, shape): p times (x - 1)^m, m <= 3, times x^s, maybe negated,
    where p(1) < 0 < lead, so p has a root above 1.  Of degree up to about
    3000, p has one sign variation: nonpositive then nonnegative coefficients
    ("runs"), a few terms at exponents far apart ("few"), or
    (D x - N)(1 + x + ... + x^k) ("cell_end"), whose one root above 1,
    r = N / D = 2^j / (2^j - i), lies on a cell end: the Cauchy bound is
    1 + r, and r - 1 = i r / 2^j, a cell end at depth j and below.  Of
    degree 2 or 12, p has random coefficients ("several")."""
    rnd = draw(st.randoms(use_true_random=False))
    shape = rnd.choice(["runs", "few", "cell_end", "several"])
    d = rnd.choice([2, 12] if shape == "several" else [2, 12, 40, 300, 3000])
    tol = draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2**10)] + ([Fraction(1, 10**9)] if d < 3000 else [])))
    if shape == "cell_end":
        j = rnd.randint(1, 2 if tol == Fraction(1, 3) else 6)  # the cells' depth K is at least 2, or 10
        i = rnd.randint(1, 2**j - 1)
        p = IntPolynomial([-(2**j), 2**j - i]) * IntPolynomial([1] * d)
    else:
        if shape == "few":
            exponents = sorted(rnd.sample(range(d), min(d, rnd.randint(1, 5)))) + [d]
        else:
            exponents = range(d + 1)
        cut = rnd.randint(1, len(exponents) - 1)  # one variation: the exponents below it carry c <= 0
        bound = 10**6 if shape == "few" else 9
        cs = [0] * (d + 1)
        for t, e in enumerate(exponents):
            cs[e] = rnd.randint(-bound, bound) if shape == "several" else (-1) ** (t < cut) * rnd.randint(0, bound)
        cs[d] = rnd.randint(1, bound)
        if sum(cs) >= 0:  # p(1) < 0 < lead: a root above 1
            cs[exponents[0]] -= sum(cs) + 1
        p = IntPolynomial(cs)
    for _ in range(draw(st.integers(0, 3))):
        p = p * linear(1)
    p = p.shift(draw(st.sampled_from([0, 1, 5]))) * draw(st.sampled_from([1, -1]))
    return p, tol, shape


class TestDenseReference:
    """The kernel's bracket is the one `bisect_root` ends in on the piece it
    isolates, with signs from the dense Horner over every coefficient of the
    polynomial as given: no deflation, no sparse steps, no guess."""

    @given(kernel_cases())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_equals_dense_bisection(self, case):
        p, tol, shape = case
        pieces = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "land_root", lambda q, lo, hi, t: pieces.append((lo, hi)) or land_root(q, lo, hi, t))
            got = _outcome(p, tol)
        assert isinstance(got, CertifiedRoot)
        if shape == "cell_end":  # the bracket starts at the root
            assert dense_sign_at(p, got.lower) == 0
        orient = 1 if p.leading() > 0 else -1  # above 1, the deflated form's sign is orient * p's
        if pieces:
            ((lo, hi),) = pieces
            assert lo >= 1 and got == bisect_root(lambda x: orient * dense_sign_at(p, x), lo, hi, tol)
        else:  # a cut hit the root
            assert got.width == 0 and got.lower > 1 and dense_sign_at(p, got.lower) == 0


@st.composite
def one_variation_polys(draw):
    """Polynomials whose coefficients, constant term first, are nonpositive
    then nonnegative (zeros anywhere), with one sign variation; p may be
    negated."""
    cs = draw(st.lists(st.integers(-9, 0), max_size=8)) + [draw(st.integers(-99, -1))]
    cs += draw(st.lists(st.integers(0, 9), max_size=30)) + [draw(st.integers(1, 9))]
    return IntPolynomial(cs) * draw(st.sampled_from([1, -1]))


@st.composite
def equal_run_polys(draw):
    """Coefficients in runs of equal values, nonpositive runs then nonnegative
    ones (one sign variation): the shape (x - 1) p compresses."""

    def runs(values):
        blocks = draw(st.lists(st.tuples(values, st.integers(1, 60)), min_size=1, max_size=4))
        return [v for v, k in blocks for _ in range(k)]

    low = runs(st.integers(-9, 0)) + [draw(st.integers(-9, -1))]
    return IntPolynomial(low + runs(st.integers(0, 9)) + [draw(st.integers(1, 9))])


class TestLandOnOneVariation:
    """`land_root` on polynomials with one sign variation, with and without
    the difference form: the bracket is bisection's."""

    @given(
        st.one_of(one_variation_polys(), equal_run_polys()),
        st.sampled_from([Fraction(0), Fraction(1), Fraction(3, 2)]),
        st.sampled_from([Fraction(1, 10**9), Fraction(1, 3)]),
    )
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_one_variation_equals_bisection(self, p, floor, tol):
        # one sign variation and p(floor) < 0: one simple root in (floor, bound)
        p = -p if p.leading() < 0 else p
        hi = p.cauchy_root_bound()
        assume(p.sign_at(floor) < 0 and hi > floor)
        got, form = _land_with_form(p, floor, hi, tol)
        assert got == bisect_root(p.sign_at, floor, hi, tol)
        assert form == p or (floor >= 1 and form == p * linear(1))

    @pytest.mark.parametrize("floor,difference", [(Fraction(0), False), (Fraction(1), True), (Fraction(3, 2), True)])
    def test_difference_form_above_one(self, floor, difference):
        # p = -9(1 + ... + x^95) + (x^96 + ... + x^99), negative up to its one
        # positive root (about 1.78), has 100 nonzero terms, (x - 1) p =
        # x^100 - 10x^96 + 9 has 3: it carries the signs on pieces from 1 up
        p = IntPolynomial([-9] * 96 + [1] * 4)
        hi, tol = p.cauchy_root_bound(), Fraction(1, 10**9)
        got, form = _land_with_form(p, floor, hi, tol)
        assert got == bisect_root(p.sign_at, floor, hi, tol)
        assert (form == p * linear(1)) == difference
        assert len(form.coeffs) - form.coeffs.count(0) == (3 if difference else 100)

    @pytest.mark.parametrize(
        "poly,difference",
        [
            # 7 terms and one gap above 1 against 6 terms and two: a tie stays on p
            (lambda: q_balance(Fraction(1, 5), Fraction(2, 5))[0], False),
            # 4 terms against 3 terms and a gap of 2: again a tie
            (lambda: q_balance(Fraction(0), Fraction(1, 2))[0], False),
            # 11 terms against 6 terms and two gaps
            (lambda: q_balance(Fraction(1, 9), Fraction(2, 9))[0], True),
            # the Perron polynomial: 103 terms against 6 terms and two gaps
            (lambda: markov_char_poly(dream(51).markov), True),
        ],
        ids=["beta-1/5-2/5", "beta-0-1/2", "beta-1/9-2/9", "dream-51"],
    )
    def test_form_with_the_cheaper_horner_steps(self, monkeypatch, poly, difference):
        p, forms = poly(), []
        while p.sign_at(Fraction(1)) == 0:
            p = p // linear(1)
        monkeypatch.setattr(arith, "_newton_guess", lambda q, *a: forms.append(q) or _newton_guess(q, *a))
        largest_root_above(p, Fraction(1, 10**9))
        assert forms == [p * linear(1) if difference else p]


def _first_piece_count(p):
    """The Descartes count the subdivision makes on its first piece,
    (1, Cauchy bound), on q(t) = den^d p(1 + t num / den), bound - 1 =
    num / den, built by polynomial products rather than Taylor shifts."""
    d, w = p.degree, p.cauchy_root_bound() - 1
    q, power, y = IntPolynomial(()), IntPolynomial([1]), IntPolynomial([w.denominator, w.numerator])
    for i, c in enumerate(p.coeffs):
        q, power = q + power * (c * w.denominator ** (d - i)), power * y
    return arith._descartes_bound(list(q.coeffs))


class _TaylorShift(Exception):
    pass


def _no_shift(*args):
    raise _TaylorShift


class TestOneVariation:
    """Coefficients with one sign variation and p(1) < 0 settle the first
    piece without a Taylor shift, with the bracket the subdivision gives."""

    TOL = Fraction(1, 10**12)

    @given(
        st.one_of(one_variation_polys(), known_root_polys().map(lambda case: case[1])),
        st.sampled_from([Fraction(1, 10**9), Fraction(1, 3)]),
    )
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_first_piece_counts_one_when_the_test_fires(self, case, tol):
        # a bracket found with no Taylor shift comes from the one-variation
        # test; the subdivision would have counted 1 on the same first piece
        p = case
        shifts = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_shifted", lambda *a: shifts.append(a) or _shifted(*a))
            got = _outcome(p, tol)
        if isinstance(got, CertifiedRoot) and not shifts:
            while p.sign_at(Fraction(1)) == 0:
                p = p // linear(1)  # deflated as largest_root_above does
            assert _first_piece_count(p) == 1
        assert got == _bisect_outcome(case, tol)

    @pytest.mark.parametrize("name,n", [("dream", 3), ("dream", 51), ("persistent", 101), ("montevideo", 6)])
    def test_family_roots_need_no_shift(self, name, n):
        p = POLYNOMIALS[name](n)
        want = largest_root_above(p, self.TOL)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_shifted", _no_shift)
            assert largest_root_above(p, self.TOL) == want

    @pytest.mark.parametrize("p", [linear(2) * IntPolynomial([10, -6, 1]), linear(3) * linear(Fraction(1, 2)) * linear(2)])
    def test_several_variations_subdivide(self, p):
        # (x - 2)((x - 3)^2 + 1) and (x - 3)(2x - 1)(x - 2): V(p) = 3
        assert arith._sign_variations(p.coeffs) == 3
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_shifted", _no_shift)
            with pytest.raises(_TaylorShift):
                largest_root_above(p, self.TOL)


class TestLargeN:
    """Perron brackets at large n, where the sparse signs and the difference
    form carry the kernel.  The brackets were recorded with the dense kernel,
    which evaluated every coefficient of the characteristic polynomial."""

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "name,n,lower,upper",
        [
            ("dream", 801, Fraction(1081343425, 1073741824), Fraction(540671713, 536870912)),
            ("persistent", 1601, Fraction(1080565495, 1073741824), Fraction(135070687, 134217728)),
            ("montevideo", 30, Fraction(1121776147, 1073741824), Fraction(280444037, 268435456)),
        ],
        ids=["dream-801", "persistent-1601", "montevideo-30"],
    )
    def test_recorded_brackets(self, name, n, lower, upper):
        char = markov_char_poly(make(name, n).markov)
        assert largest_root_above(char, Fraction(1, 10**9)) == CertifiedRoot(lower, upper)


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


# wide coefficients of either sign, so that packed digits span several bytes
# and borrow across digit boundaries
wide_entries = st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=5).map(IntPolynomial)



def kronecker(matrix):
    """`kronecker_det` of a matrix of IntPolynomials, each entry handed over
    as its {power: coefficient} dict."""
    return kronecker_det([[dict(enumerate(p.coeffs)) for p in row] for row in matrix])


class TestKroneckerDet:
    """`kronecker_det`, one integer determinant at y = 2^B, against Bareiss
    over Z[y] and the Leibniz sum, and at the edges of its digit bound."""

    @given(square_matrices(poly_entries) | square_matrices(wide_entries, max_size=4))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_matches_bareiss_over_polynomials(self, m):
        det = kronecker(m)
        assert det == (bareiss_det(m) if m else ONE)
        if len(m) <= 3:
            assert det == leibniz_det(m, ONE)

    @pytest.mark.parametrize("c", [127, -127, 255, -255, 32767, -32767, 65535, 2**63 - 1, -(2**64) + 1])
    def test_coefficient_at_the_bound(self, c):
        # one coefficient carries the whole bound H = |c|: at H = 2^(B-1) - 1
        # the balanced digit is as wide as it gets, and at H = 2^8k - 1 the
        # bit length is a multiple of 8, so B needs the next byte up
        assert kronecker([[IntPolynomial([0, c])]]) == IntPolynomial([0, c])
        assert kronecker([[IntPolynomial([c, 0, 0, c])]]) == IntPolynomial([c, 0, 0, c])
        # 32767 = 7 * 31 * 151: the bound is the product of the row sums
        diagonal = [IntPolynomial([0, -7]), IntPolynomial([31]), IntPolynomial([0, 0, 151])]
        m = [[p if i == j else IntPolynomial([]) for j in range(3)] for i, p in enumerate(diagonal)]
        assert kronecker(m) == IntPolynomial([0, 0, 0, -32767])

    def test_negative_top_coefficient(self):
        # a permutation's sign: det = -y^3 (y^2 + 5y - 1), whose top digit -1
        # sits over a negative digit and a positive one
        m = [[IntPolynomial([]), IntPolynomial([0, 0, 0, 1])], [IntPolynomial([-1, 5, 1]), IntPolynomial([2])]]
        assert kronecker(m) == IntPolynomial([0, 0, 0, 1, -5, -1]) == leibniz_det(m, ONE)
        assert kronecker([[IntPolynomial([5, 0, -3])]]).leading() == -3

    def test_vanishing_and_empty(self):
        assert kronecker([[Y, Y * Y], [ONE, Y]]).is_zero()
        assert kronecker([[IntPolynomial([]), Y], [IntPolynomial([]), ONE]]).is_zero()
        assert kronecker([]) == ONE

    def test_bound_counts_absolute_values(self):
        # the signed coefficient sums cancel; the bound must not
        assert kronecker_det([[{0: 200, 1: -200}]]) == IntPolynomial([200, -200])
        m = [[{0: 300, 2: -300}, {1: 1}], [{1: -1}, {0: 1}]]
        assert kronecker_det(m) == IntPolynomial([300, 0, -299])

    def test_sparse_entries(self):
        # entries are {power: coefficient} dicts in any order; zero
        # coefficients and empty dicts add nothing
        assert kronecker_det([[{3: 2, 0: 0, 1: -1}]]) == IntPolynomial([0, -1, 0, 2])
        m = [[{}, {5: 1}], [{2: 1, 0: -1}, {}]]
        dense = [[IntPolynomial([]), IntPolynomial([0, 0, 0, 0, 0, 1])], [Y * Y - ONE, IntPolynomial([])]]
        assert kronecker_det(m) == IntPolynomial([0, 0, 0, 0, 0, 1, 0, -1]) == leibniz_det(dense, ONE)

    def test_not_square(self):
        with pytest.raises(ValueError):
            kronecker([[ONE, Y]])


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
