from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn.cofiniteness import report, sbc
from circledyn.errors import NotCofinite
from circledyn.families import dream_per, montevideo_per, persistent_per
from circledyn.periods import PeriodSet
from cofiniteness_reference import bc, dens_low_per, density_condition, sbcset

F2 = Fraction


def S(L):
    return PeriodSet(tail_from=L)


class TestSbc:
    def test_all_of_n(self):
        assert sbc(S(1)) == 1

    def test_persistent7(self):
        assert sbc(PeriodSet({2, 5}, tail_from=7)) == 7

    def test_montevideo3(self):
        assert sbc(PeriodSet({3}, tail_from=6)) == 6

    def test_not_cofinite(self):
        with pytest.raises(NotCofinite):
            sbc(PeriodSet({1, 2, 3}))


class TestSbcset:
    def test_successors_contain_n(self):
        for n in range(3, 15):
            s = sbcset(S(n))
            assert s == {n}
            assert bc(S(n)) == n

    def test_persistent5(self):
        # {2,3} ∪ S(5): 3 excluded because 2 is a period; sbcset = {5}
        assert sbcset(PeriodSet({2, 3}, tail_from=5)) == {5}

    def test_persistent7(self):
        assert sbcset(PeriodSet({2, 5}, tail_from=7)) == {5, 7}
        assert bc(PeriodSet({2, 5}, tail_from=7)) == 7

    def test_montevideo6_literal(self):
        per = montevideo_per(6)
        assert per.up_to(34) == {6, 12, 13, 17, 18, 19, 23, 24, 25, 26, 28, 29, 30, 31, 32, 34}
        assert sbc(per) == 34
        assert sbcset(per) == {6, 12, 17, 23}
        assert bc(per) == 23

    def test_members_satisfy_defining_predicates(self):
        for per in (persistent_per(9), montevideo_per(5), S(8)):
            for L in sbcset(per):
                assert L in per and L > 2
                assert (L - 1) not in per
                count = sum(1 for k in range(1, L - 1) if k in per)
                assert 2**count <= (L - 2) ** 2


class TestBcBounds:
    def test_bc_le_sbc_and_strictness(self):
        for per in (persistent_per(7), persistent_per(9), montevideo_per(4), montevideo_per(6), S(5)):
            b, s = bc(per), sbc(per)
            assert b is not None and b <= s
            assert (b < s) == (s not in sbcset(per))

    def test_bc_absent_persistent3(self):
        per = persistent_per(3)
        assert per == S(2)
        assert bc(per) is None

    def test_density_bound_at_bc(self):
        for per in (persistent_per(9), montevideo_per(6)):
            b = bc(per)
            d = dens_low_per(per, b)
            count = sum(1 for k in range(1, b - 1) if k in per)
            assert d == F2(count, b - 2)
            assert 2**count <= (b - 2) ** 2  # exact squared form of the bound

    def test_density_exact_tie_handling(self):
        # equality 2^count == (L-2)^2 counts as satisfying the bound
        assert density_condition(PeriodSet({3, 4}, tail_from=6), 6)  # count=2, (6-2)^2=16
        ps = PeriodSet({2, 3}, tail_from=4)
        # L = 4: count({1,2}) = 2, (4-2)^2 = 4 = 2^2: allowed
        assert density_condition(ps, 4)


class TestDreamScan:
    def test_bc_equals_n_up_to_20(self):
        for n in range(3, 21):
            per = S(n)
            r = report(per)
            assert r.bc == r.sbc == n

    def test_no_low_periods_at_bc(self):
        r = report(S(12))
        assert r.dens_at[12] == 0


class TestPersistentDensityRemark:
    def test_quarter_density_values(self):
        # DensLowPer at sbc is (k+1)/(4k-1) for n = 4k+1, k/(4k-3) for n = 4k-1
        for n in (9, 13, 17):  # 4k+1
            k = (n - 1) // 4
            per = persistent_per(n)
            assert dens_low_per(per, sbc(per)) == F2(k + 1, 4 * k - 1)
        for n in (7, 11, 15):  # 4k-1
            k = (n + 1) // 4
            per = persistent_per(n)
            assert dens_low_per(per, sbc(per)) == F2(k, 4 * k - 3)


class TestReport:
    def test_json_roundtrip_shape(self):
        r = report(PeriodSet({2, 5}, tail_from=7))
        d = r.to_json()
        assert d["sbc"] == 7 and d["bc"] == 7 and d["sbcset"] == [5, 7]


def definitional_report(ps):
    """(sbc, sbcset, bc, dens_at) from the definitions, one L at a time: sbc
    by walking down from the tail, candidates by `density_condition`,
    densities by `dens_low_per`."""
    s = ps.tail_from
    while s > 1 and s - 1 in ps:
        s -= 1
    cand = {L for L in range(3, s + 1) if L in ps and L - 1 not in ps and density_condition(ps, L)}
    return s, cand, max(cand, default=None), {L: dens_low_per(ps, L) for L in cand}


class TestOnePassReport:
    def check(self, ps):
        r = report(ps)
        assert (r.sbc, set(r.sbcset), r.bc, r.dens_at) == definitional_report(ps)
        assert (sbc(ps), sbcset(ps), bc(ps)) == (r.sbc, set(r.sbcset), r.bc)

    @given(
        finite=st.frozensets(st.integers(min_value=1, max_value=60)),
        tail=st.integers(min_value=1, max_value=80),
    )
    @settings(max_examples=300, derandomize=True)
    def test_random_cofinite_sets(self, finite, tail):
        self.check(PeriodSet(finite, tail_from=tail))

    @pytest.mark.parametrize(
        "per",
        [dream_per(n) for n in (3, 17, 51)]
        + [persistent_per(n) for n in (3, 5, 7, 9, 41, 101)]
        + [montevideo_per(n) for n in (3, 4, 6, 10)],
        ids=repr,
    )
    def test_family_sets(self, per):
        self.check(per)
