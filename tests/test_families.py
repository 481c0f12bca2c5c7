import copy
import pickle
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from circledyn import families
from circledyn.arith import CertifiedRoot, IntPolynomial, rat_str
from circledyn.cofiniteness import CofinitenessReport
from circledyn.errors import BadParameter
from circledyn.families import (
    dream,
    dream_poly,
    make,
    montevideo,
    montevideo_per,
    montevideo_poly,
    mts1_scan,
    persistent,
    persistent_per,
    persistent_poly,
    verify,
)
from circledyn.graphext import CombGraph, extend
from circledyn.lifting import RotationInterval
from circledyn.markov import markov_char_poly
from family_classes import class_index
import family_bounds_reference

F2 = Fraction


class TestConstructors:
    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            dream(2)
        with pytest.raises(BadParameter):
            persistent(4)
        with pytest.raises(BadParameter):
            persistent(1)
        with pytest.raises(BadParameter):
            montevideo(2)
        with pytest.raises(BadParameter):
            make("nosuch", 3)

    def test_dream_structure(self):
        inst = dream(3)
        assert inst.markov.size == 10
        # intertwining: x_0..x_2 < y_0 < x_3 < y_1 < y_2 < x_4 < y_3 < y_4
        x, y = inst.x_positions, inst.y_positions
        assert x[2] < y[0] < x[3] < y[1] < y[2] < x[4] < y[3] < y[4]

    def test_persistent_structure(self):
        inst = persistent(7)
        x, y = inst.x_positions, inst.y_positions
        assert x[0] == 0 < y[0] and y[4] < x[1] < y[5] and y[13] < 1

    def test_montevideo_structure(self):
        inst = montevideo(3)
        x, y = inst.x_positions, inst.y_positions
        # x_0..x_7 < y_0..y_3 < x_8..x_12 < y_4..y_10 < x_13..x_17 < y_11..
        assert x[7] < y[0] and y[3] < x[8] and x[12] < y[4] and y[10] < x[13] and x[17] < y[11]

    @pytest.mark.parametrize("name,n", [("dream", 5), ("persistent", 7), ("montevideo", 4)])
    def test_class_index(self, name, n):
        inst = make(name, n)
        M = inst.markov
        assert [class_index(inst, a, b) for a, b in M.classes] == list(range(M.size))
        p = M.partition
        for a, b in [
            (p[0], p[2]),  # not consecutive
            (p[-1], p[0]),  # the wrap class ends at p[0] + 1
            (p[0] + 1, p[1] + 1),  # a translate
            ((p[0] + p[1]) / 2, p[1]),  # not a partition point
            (F2(-1), p[0]),
            (p[-1] + F2(1, 10**6), p[0] + 1),  # past the last point
        ]:
            with pytest.raises(KeyError) as err:
                class_index(inst, a, b)
            assert err.value.args == (f"no class [{rat_str(a)},{rat_str(b)}]",)

    @pytest.mark.parametrize("name,n", [("dream", 5), ("persistent", 7), ("persistent", 9), ("montevideo", 4)])
    def test_extension_classes_by_label(self, name, n):
        # the (left, right) labels name the classes the orbit points bound
        inst = make(name, n)
        x, y = inst.x_positions, inst.y_positions
        if name == "dream":
            ends = [(y[3], y[4]), (y[5], y[6]), (y[7], y[8])]
        elif name == "persistent":
            chain = [(n + 1 + i * (n + 2)) % (2 * n) for i in (1, 2, 3)]
            ends = [(y[a], y[a + 1]) for a in chain] + [(x[0], y[0]), (x[1], y[n - 2])]  # J0, J2
        else:
            p, r, q = 2 * n - 1, 2 * n + 1, 2 * n * n
            ends = [
                (y[(n - 3) * r + n], x[(n - 2) * p + n]),
                (y[(n - 2) * r + n], x[(n - 1) * p + n]),
                (y[q - 1], x[0] + 1),
            ]
        assert inst.extension == families.ExtensionSpec(*(class_index(inst, a, b) for a, b in ends))

    def test_extension_labels_must_bound_a_class(self):
        order = [("x", 0), ("y", 0), ("x", 1), ("y", 1)]
        args = ("dream", 3, order, (1, 1), None, None, None, ())
        wrap = [(("y", 1), ("x", 0))] * 3  # class 3 wraps to x_0 + 1
        assert families._instance(*args, wrap).extension == families.ExtensionSpec(3, 3, 3)
        with pytest.raises(KeyError):
            families._instance(*args, [(("x", 0), ("x", 1))] * 3)

    def test_closed_form_period_sets(self):
        assert persistent_per(5).up_to(8) == {2, 3, 5, 6, 7, 8}
        assert persistent_per(13).up_to(13) == {2, 7, 9, 11, 13}
        assert montevideo_per(4).up_to(15) == {4, 8, 9, 11, 12, 13, 15}


def _built_steps(p: IntPolynomial) -> IntPolynomial:
    p.horner_steps()
    return p


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize(
    "build",
    [
        lambda: dream(5),
        lambda: persistent(7),
        lambda: montevideo(4),
        lambda: _built_steps(IntPolynomial([3, 0, 0, -2, 1])),
        lambda: extend(dream(5), CombGraph(("u", "v", "p"), (("u", "v"), ("v", "u"), ("u", "p")))),
    ],
    ids=["dream", "persistent", "montevideo", "polynomial", "extension"],
)
def test_copy_and_pickle_round_trip(build, how):
    # an instance goes to a worker process as what it is a view of, its
    # family name and n; a polynomial as its coefficients
    obj = build()
    back = ROUND_TRIPS[how](obj)
    assert type(back) is type(obj) and back == obj


class TestGraphShapeInvariants:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_dream_class_count(self, n):
        assert dream(n).markov.size == 2 * (2 * n - 1)

    @pytest.mark.parametrize("n", (5, 7, 9))
    def test_persistent_branching(self, n):
        # 2n+2 classes; exactly two classes cover more than two others
        # (the chain top covers exactly two)
        M = persistent(n).markov
        assert M.size == 2 * n + 2
        big = [i for i in range(M.size) if len(M.successors[i]) > 2]
        two = [i for i in range(M.size) if len(M.successors[i]) == 2]
        assert len(big) == 2 and len(two) == 1

    @pytest.mark.parametrize("n", (3, 4))
    def test_montevideo_road_ends(self, n):
        # 2q classes with exactly 5 road-end classes of out-degree > 1
        M = montevideo(n).markov
        assert M.size == 4 * n * n
        branch = [i for i in range(M.size) if len(M.successors[i]) > 1]
        assert len(branch) == 5


class TestPolynomials:
    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_dream_char_identity(self, n):
        char = markov_char_poly(dream(n).markov)
        assert char * IntPolynomial([-1, 1]) == dream_poly(n)

    @pytest.mark.parametrize("n", (3, 5, 7, 9, 11))
    def test_persistent_char_identity(self, n):
        assert markov_char_poly(persistent(n).markov) == persistent_poly(n)

    @pytest.mark.parametrize("n", (3, 4))
    def test_montevideo_char_identity(self, n):
        inst = montevideo(n)
        char = markov_char_poly(inst.markov)
        assert char * inst.poly_cofactor == montevideo_poly(n)

    @pytest.mark.parametrize("name,n", [("dream", 201), ("persistent", 401), ("montevideo", 12)])
    def test_closed_forms_at_large_n(self, name, n):
        # rome entries of degree 201 to 800: each packed entry runs to
        # thousands of bits
        inst = make(name, n)
        assert markov_char_poly(inst.markov) * inst.poly_cofactor == inst.expected_poly

    @pytest.mark.parametrize("name,n", [("dream", 7), ("persistent", 9), ("montevideo", 4)])
    def test_expected_poly_is_a_view_of_name_and_n(self, name, n, monkeypatch):
        # built on first read, then cached; a scan never reads it
        inst = make(name, n)
        assert "expected_poly" not in vars(inst)
        assert inst.expected_poly == families.POLYNOMIALS[name](n)
        assert vars(inst)["expected_poly"] is inst.expected_poly
        monkeypatch.setattr(families, "POLYNOMIALS", {})
        assert mts1_scan(name, n, n).all_green
        with pytest.raises(KeyError):
            make(name, n).expected_poly

    def test_cofactor_roots_on_unit_circle(self):
        # the cofactors are products of x^k - 1: exactly the structural check
        for inst in (dream(4), montevideo(3)):
            residue = inst.poly_cofactor
            for k in range(residue.degree, 0, -1):
                cyc = IntPolynomial([-1] + [0] * (k - 1) + [1])
                while residue.degree >= k:
                    quotient, rest = residue.divmod_exact(cyc)
                    if rest:
                        break
                    residue = quotient
            assert residue == IntPolynomial([1])


class TestEntropyFloor:
    @pytest.mark.parametrize("name,n", [("dream", 3), ("dream", 8), ("persistent", 7), ("montevideo", 3)])
    def test_log3_over_s_lower_bound(self, name, n):
        # h >= log(3)/s for any p/s in lowest terms inside the rotation
        # interval, i.e. sigma^s >= 3; checked at the smallest admissible s
        from circledyn.lifting import rotation_interval
        from circledyn.markov import entropy as markov_entropy
        from circledyn.periods import m_set

        inst = make(name, n)
        rot = rotation_interval(inst.lifting)
        ms = m_set(rot.c, rot.d)
        m = min(ms.finite) if ms.finite else ms.tail_from
        k = next(k for k in range(1, m + 1) if rot.c < F2(k, m) < rot.d)
        s = F2(k, m).denominator
        sigma = markov_entropy(inst.markov, F2(1, 10**10))
        assert sigma.lower**s >= 3


class TestVerify:
    @pytest.mark.parametrize(
        "name,n",
        [("dream", 3), ("dream", 6), ("persistent", 5), ("persistent", 7), ("montevideo", 3)],
    )
    def test_all_green(self, name, n):
        rep = verify(make(name, n))
        assert rep.all_green, rep.to_json()

    def test_persistent3_bc_absent_is_documented_green(self):
        rep = verify(persistent(3))
        assert rep.theorem_bound_flags["bc_exists"] is False
        assert rep.bounds_as_documented and rep.all_green

    def test_montevideo3_upper_bound_failure_recorded(self):
        rep = verify(montevideo(3))
        assert rep.cofin.bc == 6  # literal value, above the theorem's bound 4
        assert rep.theorem_bound_flags["bc_upper_bound"] is False  # recorded as failing
        assert rep.all_green  # the failure is exactly the documented one
        assert not rep.strict_green

    def test_poly_root_reads_the_entropy_bracket_when_polynomials_agree(self, monkeypatch):
        # persistent: the rome polynomial is the closed form itself, so the
        # bracket of the entropy is the bracket of the closed form
        inst = persistent(7)
        assert inst.expected_poly == markov_char_poly(inst.markov)
        assert verify(inst).poly_root_ok
        # the bracket [1, 1] stands for no root above 1
        monkeypatch.setattr(families, "markov_entropy", lambda M, tol, char: CertifiedRoot(F2(1), F2(1)))
        assert not verify(inst).poly_root_ok

    def test_rotation_mismatch_reads_red(self, monkeypatch):
        # the lifting's Rot(F) is only compared: Per(F) reads M's own
        inst = dream(4)
        assert not verify(replace(inst, expected_rot=RotationInterval(F2(0), F2(1, 7)))).rot_ok
        shifted = RotationInterval(inst.expected_rot.c, inst.expected_rot.d + F2(1, 100))
        monkeypatch.setattr(families, "rotation_interval", lambda F: shifted)
        rep = verify(inst)
        assert not rep.rot_ok and rep.per_ok and not rep.all_green

    def test_report_json_shape(self):
        d = verify(dream(3)).to_json()
        for key in ("rot_ok", "per_ok", "poly_exact", "entropy_bracket", "cofiniteness"):
            assert key in d


class TestClosedFormRootOk:
    # `certify` and its `poly_root_ok`: when char * cofactor == x^k * closed
    # form, the bracket of char's largest root above 1 holds the closed
    # form's exactly when the cofactor has no root above 1
    TOL = F2(1, 10**12)
    GOLDEN = SimpleNamespace(successors=((0, 1), (0,)))  # char x^2 - x - 1
    CHAR = IntPolynomial([-1, -1, 1])

    @pytest.mark.parametrize(
        "cofactor",
        [
            IntPolynomial([-1, 1]),
            IntPolynomial([1]),
            IntPolynomial([-1, 0, 0, 0, 0, 1]) * IntPolynomial([-1, 0, 0, 0, 0, 0, 0, 1]),
        ],
    )
    def test_unit_circle_cofactor_is_certified(self, cofactor):
        checks, sigma = families.certify(self.GOLDEN, self.CHAR * cofactor, cofactor, self.TOL)
        assert checks == {
            "irreducible": True,
            "permutation": False,
            "transitive": True,
            "poly_exact": True,
            "poly_power": 0,
            "poly_root_ok": True,
        }
        assert F2(1618033, 10**6) < sigma.lower < sigma.upper < F2(1618034, 10**6)  # the golden mean

    def test_identity_up_to_a_power_of_x_is_certified(self):
        # vertex 2 feeds the golden mean graph and carries no loop: char is
        # x (x^2 - x - 1), the closed form at power 1
        tail = SimpleNamespace(successors=((0, 1), (0,), (0,)))
        checks, _ = families.certify(tail, self.CHAR, IntPolynomial([1]), self.TOL)
        assert (checks["poly_exact"], checks["poly_power"], checks["poly_root_ok"]) == (True, 1, True)
        assert not checks["irreducible"]

    def test_cofactor_root_above_one_is_not_certified(self):
        cofactor = IntPolynomial([-2, 1])
        checks, _ = families.certify(self.GOLDEN, self.CHAR * cofactor, cofactor, self.TOL)
        assert checks["poly_exact"] and not checks["poly_root_ok"]

    def test_no_root_above_one_is_not_certified(self):
        # a 2-cycle: char x^2 - 1, and [1, 1] stands for "no root above 1"
        cycle = SimpleNamespace(successors=((1,), (0,)))
        checks, sigma = families.certify(cycle, IntPolynomial([-1, 0, 1]), IntPolynomial([1]), self.TOL)
        assert sigma == CertifiedRoot(F2(1), F2(1))
        assert checks["poly_exact"] and checks["permutation"] and not checks["poly_root_ok"]

    def test_failed_identity_is_not_certified(self):
        checks, _ = families.certify(self.GOLDEN, IntPolynomial([0, -1, 1]), IntPolynomial([1]), self.TOL)
        assert (checks["poly_exact"], checks["poly_power"], checks["poly_root_ok"]) == (False, 0, False)

    @pytest.mark.parametrize(
        "closed_form,power",
        [(IntPolynomial([1, 1]), 1), (IntPolynomial([-1, -1, 1]).shift(1), -1)],
    )
    def test_failed_identity_reports_the_degree_gap(self, monkeypatch, closed_form, power):
        # and the cofactor's root count is not made
        monkeypatch.setattr(families, "largest_root_above", lambda p, tol: pytest.fail("counted"))
        checks, _ = families.certify(self.GOLDEN, closed_form, IntPolynomial([1]), self.TOL)
        assert (checks["poly_exact"], checks["poly_power"], checks["poly_root_ok"]) == (False, power, False)

    def test_kernel_errors_propagate(self, monkeypatch):
        def broken(p, tol):
            raise ArithmeticError("root finder failed")

        monkeypatch.setattr(families, "largest_root_above", broken)
        with pytest.raises(ArithmeticError, match="root finder failed"):
            families.certify(self.GOLDEN, self.CHAR * IntPolynomial([-1, 1]), IntPolynomial([-1, 1]), self.TOL)

    def test_circle_identity_is_at_power_zero(self):
        # a cofactor one x too many makes the identity hold at power 1 only:
        # on the circle that is no identity, and the root check needs one
        inst = dream(5)
        rep = verify(replace(inst, poly_cofactor=inst.poly_cofactor.shift(1)))
        assert not rep.poly_exact and not rep.poly_root_ok and not rep.all_green


class TestScan:
    def test_dream_scan(self):
        sc = mts1_scan("dream", 3, 12)
        assert len(sc.rows) == 10
        assert [str(r.len_rot) for r in sc.rows][:3] == ["1/5", "1/7", "1/9"]
        assert all(r.bc == r.n for r in sc.rows)
        assert sc.all_green

    def test_persistent_scan(self):
        sc = mts1_scan("persistent", 5, 13)
        assert [r.n for r in sc.rows] == [5, 7, 9, 11, 13]
        assert sc.all_green
        ents = [r.entropy for r in sc.rows]
        assert all(ents[i].lower > ents[i + 1].upper for i in range(len(ents) - 1))

    @pytest.mark.slow
    def test_persistent_scan_touching_brackets(self):
        # the brackets of 12799 and 12801 touch at 1074890341/2^30, a
        # non-integer: 12799's root is at or above it, 12801's below
        sc = mts1_scan("persistent", 12799, 12801)
        hi, lo = (r.entropy for r in sc.rows)
        assert hi.lower == lo.upper == F2(1074890341, 2**30)
        assert sc.entropy_strictly_decreasing

    def test_montevideo_scan(self):
        sc = mts1_scan("montevideo", 3, 6)
        assert [str(r.len_rot) for r in sc.rows] == ["1/9", "1/16", "1/25", "1/36"]
        assert sc.all_green
        flags = {r.n: r.flags["bc_upper_bound_holds"] for r in sc.rows}
        assert flags == {3: False, 4: False, 5: False, 6: True}


SCAN_RANGES = {"montevideo": range(3, 11), "persistent": range(5, 102, 2), "dream": range(3, 52)}


def without_oracle(monkeypatch):
    # the bound flags read only the cofiniteness report; an empty oracle
    # result keeps verify cheap (its oracle_ok reads false)
    empty = SimpleNamespace(periods=set, witnesses={})
    monkeypatch.setattr(families, "periods_up_to", lambda M, P: empty)


def flags_on(name, n, report, monkeypatch):
    """verify's theorem and expected bound flags and the scan row's bound
    flags on instance (name, n) when its cofiniteness report is `report`."""
    without_oracle(monkeypatch)
    monkeypatch.setattr(families, "cofin_report", lambda per: report)
    rep = verify(make(name, n))
    (row,) = mts1_scan(name, n, n).rows
    assert (row.sbc, row.bc) == (report.sbc, report.bc)
    scan = {k: v for k, v in row.flags.items() if k != "per_matches_closed_form"}
    return rep.theorem_bound_flags, rep.expected_bound_flags, scan


def synthetic_reports(name, n):
    """Reports with no bc, with bc one off each stated bc value, and with sbc
    one off the stated sbc: every side of every bound."""
    exp = family_bounds_reference.expectations(name, n)
    values = [v for k, v in exp.items() if k != "sbc" and type(v) is int]
    bcs = [None] + sorted({v + dv for v in values for dv in (-1, 0, 1)})
    sbcs = [exp["sbc"] + ds for ds in (-1, 0, 1)]
    return [CofinitenessReport(sbc=s, sbcset=frozenset(), bc=bc, dens_at={}) for s in sbcs for bc in bcs]


class TestBoundsMatchReference:
    # each family states its bounds once, as `Bound`s; verify's and the
    # scan's flags read off them match the per-family ladders of
    # tests/family_bounds_reference.py
    @pytest.mark.parametrize("name", sorted(SCAN_RANGES))
    def test_scan_ranges(self, name, monkeypatch):
        ns = SCAN_RANGES[name]
        sc = mts1_scan(name, ns[0], ns[-1])
        assert [r.n for r in sc.rows] == list(ns)
        without_oracle(monkeypatch)
        for row in sc.rows:
            rep = verify(make(name, row.n))
            assert (rep.cofin.sbc, rep.cofin.bc) == (row.sbc, row.bc)
            want = family_bounds_reference.verify_flags(name, row.n, rep.cofin)
            assert (rep.theorem_bound_flags, rep.expected_bound_flags) == want
            want_scan = family_bounds_reference.scan_flags(name, row.n, rep.cofin)
            assert row.flags == {"per_matches_closed_form": True, **want_scan}

    @pytest.mark.parametrize(
        "name,n",
        [("persistent", 3), ("dream", 3)] + [("montevideo", n) for n in (3, 4, 5, 6)],
    )
    def test_verify(self, name, n):
        rep = verify(make(name, n))
        want = family_bounds_reference.verify_flags(name, n, rep.cofin)
        assert (rep.theorem_bound_flags, rep.expected_bound_flags) == want
        assert rep.to_json()["theorem_bound_flags"] == dict(sorted(want[0].items()))
        assert rep.all_green

    @pytest.mark.parametrize(
        "name,n",
        [("dream", n) for n in (3, 4, 51)]
        + [("persistent", n) for n in (3, 5, 7, 99, 101)]
        + [("montevideo", n) for n in (3, 4, 5, 6, 10)],
    )
    def test_synthetic_reports(self, name, n, monkeypatch):
        for r in synthetic_reports(name, n):
            flags, expected, scan = flags_on(name, n, r, monkeypatch)
            assert (flags, expected) == family_bounds_reference.verify_flags(name, n, r), r
            assert scan == family_bounds_reference.scan_flags(name, n, r), r
            assert all(type(v) is bool for d in (flags, expected, scan) for v in d.values())

    @pytest.mark.parametrize(
        "name,n,with_bc,without_bc",
        [
            ("dream", 5, {"sbc_equals_n", "bc_equals_n"}, {"sbc_equals_n", "bc_equals_n"}),
            ("persistent", 7, {"sbc_matches", "bc_exists", "bc_in_bounds"}, {"sbc_matches", "bc_exists"}),
            (
                "montevideo",
                4,
                {"sbc_matches", "bc_exists", "bc_lower_bound", "bc_upper_bound"},
                {"sbc_matches", "bc_exists"},
            ),
        ],
    )
    def test_keys_present(self, name, n, with_bc, without_bc, monkeypatch):
        # dream's bc_equals_n is there without a bc; the other bc bounds are
        # there, in the flags and the expected flags alike, only with one.
        # Without a bc every scan flag reads false
        for bc, keys in ((n, with_bc), (None, without_bc)):
            report = CofinitenessReport(sbc=n, sbcset=frozenset(), bc=bc, dens_at={})
            flags, expected, scan = flags_on(name, n, report, monkeypatch)
            assert set(flags) == set(expected) == keys
        assert set(scan.values()) == {False}

    def test_instances_compare_by_their_data(self):
        # the bound tests are closures, left out of the instance's equality
        assert make("montevideo", 4) == make("montevideo", 4) != make("montevideo", 5)
