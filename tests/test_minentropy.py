import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn import arith, minentropy
from circledyn.arith import IntPolynomial, largest_root_above
from circledyn.errors import BudgetExceeded
from circledyn.families import dream, persistent
from circledyn.markov import entropy as markov_entropy
from circledyn.minentropy import (
    beta,
    q_balance,
    q_series_enclosure,
    r_balance,
    r_series_enclosure,
)
from brackets import overlaps
from lifting_reference import envelope_rotation_bounds
from minentropy_model import min_entropy_model, offset_sum

F2 = Fraction
TOL = F2(1, 10**8)

GRID = [
    (F2(1, 2), F2(7, 10)),
    (F2(1, 5), F2(2, 5)),
    (F2(1, 4), F2(1, 3)),
    (F2(0), F2(1, 2)),
    (F2(0), F2(1)),
    (F2(1, 3), F2(1, 2)),
    (F2(2, 5), F2(3, 5)),
    (F2(1, 7), F2(2, 7)),
    (F2(3, 7), F2(4, 7)),
    (F2(1, 9), F2(2, 9)),
]


class TestTwoMethods:
    @pytest.mark.parametrize("c,d", GRID)
    def test_agreement_on_grid(self, c, d):
        res = beta(c, d, tol=TOL)
        assert res.method_agreement
        assert abs(res.beta.midpoint() - res.beta_counts.midpoint()) <= 3 * TOL
        assert res.beta.lower > 1

    def test_broken_identity_isolates_r_separately(self, monkeypatch):
        # a counting polynomial that is not Q's over z - 1: disagreement is
        # reported and beta_counts is R's own root (here z = 3)
        expected = beta(F2(1, 5), F2(2, 5), tol=TOL).beta
        monkeypatch.setattr(minentropy, "r_balance", lambda c, d: (IntPolynomial([-3, 1]), None))
        res = beta(F2(1, 5), F2(2, 5), tol=TOL)
        assert not res.method_agreement
        assert res.beta_counts.lower <= 3 <= res.beta_counts.upper
        assert res.beta == expected

    @pytest.mark.parametrize("c,d", GRID + [(F2(1, 2 * n - 1), F2(2, 2 * n - 1)) for n in range(3, 9)])
    def test_balance_roots_need_no_taylor_shift(self, monkeypatch, c, d):
        # with its roots at 1 deflated, q_balance has one sign variation and is
        # negative at 1: the kernel brackets its root without subdividing
        pq = q_balance(c, d)[0]
        want = largest_root_above(pq, TOL)

        def no_shift(*args):
            raise AssertionError("Taylor shift")

        monkeypatch.setattr(arith, "_shifted", no_shift)
        assert largest_root_above(pq, TOL) == want

    def test_series_identity_numerically(self):
        # Q(z) == (z-1)(1 - 2R(z)) at sample points (enclosures must overlap)
        c, d = F2(1, 2), F2(7, 10)
        for z in (F2(2), F2(3, 2), F2(17, 10)):
            qlo, qhi = q_series_enclosure(c, d, z, 4000)
            rlo, rhi = r_series_enclosure(c, d, z, 4000)
            tlo, thi = (z - 1) * (1 - 2 * rhi), (z - 1) * (1 - 2 * rlo)
            assert qlo <= thi and tlo <= qhi


@st.composite
def intervals(draw):
    """0 <= c < d <= 1 with denominators at most 12."""
    s1 = draw(st.integers(min_value=1, max_value=12))
    c = F2(draw(st.integers(min_value=0, max_value=s1 - 1)), s1)
    s2 = draw(st.integers(min_value=1, max_value=12))
    d = F2(draw(st.integers(min_value=s2 * c.numerator // c.denominator + 1, max_value=s2)), s2)
    return c, d


above_one = st.builds(lambda p, q: 1 + F2(p, q), st.integers(1, 40), st.integers(1, 20))


class TestClosedForm:
    """The balance polynomials against the truncated series, each other and the kernel."""

    @given(intervals(), above_one)
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_exact_values_inside_series_enclosures(self, cd, z):
        c, d = cd
        pq, dq = q_balance(c, d)
        pr, dr = r_balance(c, d)
        q = pq.eval(z) / dq.eval(z)
        r = (1 - pr.eval(z) / dr.eval(z)) / 2
        qlo, qhi = q_series_enclosure(c, d, z, 200)
        rlo, rhi = r_series_enclosure(c, d, z, 200)
        assert qlo <= q <= qhi
        assert rlo <= r <= rhi

    @given(intervals())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_series_identity_as_polynomials(self, cd):
        # Q = (z-1)(1 - 2R) with Q = pq/dq and 1 - 2R = pr/dr
        pq, dq = q_balance(*cd)
        pr, dr = r_balance(*cd)
        assert pq * dr == IntPolynomial([-1, 1]) * pr * dq

    @given(intervals())
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_brackets_hold_a_sign_change_of_their_polynomial(self, cd):
        res = beta(*cd, tol=TOL)
        for (poly, _), br in ((q_balance(*cd), res.beta), (r_balance(*cd), res.beta_counts)):
            assert br.lower > 1 and br.width <= TOL
            if br.lower == br.upper:
                assert poly.sign_at(br.lower) == 0
            else:
                assert poly.sign_at(br.lower) <= 0 < poly.sign_at(br.upper)

    @given(intervals())
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_methods_agree(self, cd):
        res = beta(*cd, tol=TOL)
        assert res.method_agreement
        assert abs(res.beta.midpoint() - res.beta_counts.midpoint()) <= 3 * TOL

    @pytest.mark.parametrize("c,z", [(F2(0), F2(2)), (F2(1, 2), F2(3, 2)), (F2(2, 7), F2(11, 10)), (F2(1), F2(5))])
    def test_offset_sum_inside_truncated_sum(self, c, z):
        # sum_{n>=1} floor(nc) z^-(n+1): partial sum, tail below sum_{n>N} nc z^-(n+1)
        w, N = 1 / z, 400
        partial = sum(((n * c).__floor__() * w ** (n + 1) for n in range(1, N + 1)), F2(0))
        tail = c * w ** (N + 2) * ((N + 1) - N * w) / (1 - w) ** 2
        assert partial <= offset_sum(c, z) <= partial + tail

    @pytest.mark.parametrize("c,d", [(F2(1, 97), F2(2, 97)), (F2(0), F2(1, 1000)), (F2(13, 37), F2(19, 41))])
    def test_near_one_and_large_denominators_in_time(self, c, d):
        start = time.perf_counter()
        res = beta(c, d, tol=TOL)
        assert time.perf_counter() - start < 10
        assert res.method_agreement
        for br in (res.beta, res.beta_counts):
            assert br.lower > 1 and br.width <= TOL


class TestPaperBounds:
    def test_beta_above_cube_root_of_three(self):
        # 2/3 in (1/2, 7/10): beta > 3^(1/3); 3/5 inside too: beta > 3^(1/5)
        res = beta(F2(1, 2), F2(7, 10), tol=TOL)
        assert res.beta.lower ** 3 > 3
        assert res.beta.lower ** 5 > 3

    def test_nesting_monotonicity(self):
        # (1/4, 1/3) strictly inside (1/5, 2/5): beta strictly larger outside
        outer = beta(F2(1, 5), F2(2, 5), tol=TOL)
        inner = beta(F2(1, 4), F2(1, 3), tol=TOL)
        assert outer.beta.lower > inner.beta.upper

    def test_nesting_monotone_on_grid_pairs(self):
        # shrinking the interval never increases beta, checked on every
        # strictly nested pair of the grid at certification resolution
        vals = {pair: beta(*pair, tol=TOL).beta for pair in GRID}
        checked = 0
        for c1, d1 in GRID:
            for c2, d2 in GRID:
                if c1 <= c2 and d2 <= d1 and (c1, d1) != (c2, d2):
                    assert vals[(c2, d2)].lower <= vals[(c1, d1)].upper + 3 * TOL
                    checked += 1
        assert checked >= 4

    def test_full_interval_value(self):
        # rotation interval (0,1): the balance equation has the root 1+sqrt(2)
        res = beta(F2(0), F2(1), tol=F2(1, 10**10))
        lo, hi = res.beta.lower, res.beta.upper
        assert lo * lo - 2 * lo - 1 < 0 < hi * hi - 2 * hi - 1

    @pytest.mark.parametrize("n", range(3, 9))
    def test_dream_beta_equals_family_entropy(self, n):
        # the family maps realize the minimal models: log beta <= h(f_n) + 3tol
        res = beta(F2(1, 2 * n - 1), F2(2, 2 * n - 1), tol=TOL)
        rho = markov_entropy(dream(n).markov, TOL)
        assert res.beta.lower <= rho.upper + 3 * TOL
        assert overlaps(res.beta, rho, slack=3 * TOL)

    def test_persistent_beta_equals_family_entropy(self):
        res = beta(F2(1, 2), F2(7, 10), tol=TOL)
        rho = markov_entropy(persistent(5).markov, TOL)
        assert overlaps(res.beta, rho, slack=3 * TOL)

    def test_montevideo_beta_below_family_entropy(self):
        from circledyn.families import montevideo

        res = beta(F2(5, 18), F2(7, 18), tol=TOL)
        rho = markov_entropy(montevideo(3).markov, TOL)
        assert res.beta.lower <= rho.upper + 3 * TOL


class TestModel:
    def test_model_continuity_and_shape(self):
        model = min_entropy_model(F2(1, 2), F2(7, 10), tol=TOL)
        G = model.lifting
        u = model.turning_point
        # degree-one continuity at the wrap is exact for the rational model
        assert G.eval(F2(1)) == G.eval(F2(0)) + 1
        # increasing on [0,u], decreasing on [u,1]
        assert G.eval(u / 2) < G.eval(u)
        assert G.eval(u) > G.eval((u + 1) / 2) > G.eval(F2(99, 100)) or G.eval(u) > G.eval(F2(99, 100))
        slopes = [(vR - vL) / (xR - xL) for xL, xR, vL, vR in G.segments()]
        assert slopes[0] > 0 > slopes[-1]
        assert slopes[0] == -slopes[-1]  # |slope| = beta~ on both laps

    def test_model_parameters_certified(self):
        model = min_entropy_model(F2(1, 2), F2(7, 10), tol=TOL)
        assert model.beta.width <= TOL
        assert model.offset.lower <= model.offset.upper
        b_mid = (model.offset.lower + model.offset.upper) / 2
        assert model.lifting.values[0] == b_mid
        beta_mid = model.beta.midpoint()
        assert model.turning_point == (beta_mid + 1) / (2 * beta_mid)

    def test_model_rotation_interval_close(self):
        # numeric rotation bounds of the model contain (c,d) shrunk and sit
        # inside (c,d) grown by the certification width
        c, d = F2(1, 2), F2(7, 10)
        model = min_entropy_model(c, d, tol=F2(1, 10**9))
        steps = 300
        (llo, lhi), (ulo, uhi) = envelope_rotation_bounds(model.lifting, steps)
        w = F2(2, steps) + F2(1, 10**5)
        assert llo - w <= c <= lhi + w
        assert ulo - w <= d <= uhi + w

    def test_bracket_reaching_one_is_a_typed_error(self):
        # at tol 1/10 the beta bracket of (0, 1/1000) starts at 1, where the
        # offset sum has a pole
        assert beta(F2(0), F2(1, 1000), tol=F2(1, 10)).beta.lower == 1
        with pytest.raises(BudgetExceeded):
            min_entropy_model(F2(0), F2(1, 1000), tol=F2(1, 10))
