"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria run at their stated tolerances; nothing is deferred to calibration.
The instance set is dream n in 3..10, persistent n in {5,7,9,11,13} and
montevideo n in 3..6, shared across criteria through a module-scoped cache.
"""

from fractions import Fraction

from circledyn.arith import IntPolynomial, largest_root_above
from circledyn.cofiniteness import report as cofin_report
from circledyn.families import (
    make,
    montevideo_nu,
    mts1_scan,
    persistent_k,
)
from circledyn.graphext import CombGraph, excise, extend, traversal, verify_extension
from circledyn.markov import entropy as markov_entropy, markov_char_poly, transitivity_certificate
from circledyn.minentropy import beta
from circledyn.oracle import periods_up_to
from circledyn.periods import per_from_rotation
from brackets import overlaps
from cofiniteness_reference import sbcset
from test_graphext import parity_property_holds

F2 = Fraction
TOL12 = F2(1, 10**12)

INSTANCE_SET = (
    [("dream", n) for n in range(3, 11)]
    + [("persistent", n) for n in (5, 7, 9, 11, 13)]
    + [("montevideo", n) for n in (3, 4, 5, 6)]
)

_cache = {}


def inst_of(name, n):
    key = (name, n)
    if key not in _cache:
        _cache[key] = make(name, n)
    return _cache[key]


_per_cache = {}


def per_of(name, n):
    key = (name, n)
    if key not in _per_cache:
        i = inst_of(name, n)
        _per_cache[key] = per_from_rotation(i.lifting, i.markov)
    return _per_cache[key]


def _report(num, label):
    print(f"ACCEPTANCE {num}: PASS - {label}")


def test_criterion_1_period_sets():
    """per_from_rotation equals the closed-form Per exactly (zero tolerance)."""
    for name, n in INSTANCE_SET:
        inst = inst_of(name, n)
        assert per_of(name, n) == inst.expected_per, (name, n)
    _report(1, "exact period-set reproduction on all 17 instances")


def test_criterion_2_oracle_equivalence():
    """periods_up_to equals Per ∩ [1, sbc+3] exactly."""
    for name, n in INSTANCE_SET:
        inst = inst_of(name, n)
        P = cofin_report(per_of(name, n)).sbc + 3
        got = periods_up_to(inst.markov, P).periods()
        assert got == inst.expected_per.up_to(P), (name, n)
    _report(2, "oracle equivalence at P = sbc + 3 on all instances")


def test_criterion_3_rotation_intervals():
    from circledyn.lifting import rotation_interval

    for name, n in INSTANCE_SET:
        inst = inst_of(name, n)
        rot = rotation_interval(inst.lifting)
        assert (rot.c, rot.d) == (inst.expected_rot.c, inst.expected_rot.d), (name, n)
    _report(3, "exact rotation intervals on all instances")


def _unit_circle_cofactor(cof: IntPolynomial) -> bool:
    residue = cof
    for k in range(residue.degree, 0, -1):
        cyc = IntPolynomial([-1] + [0] * (k - 1) + [1])
        while residue.degree >= k:
            quotient, rest = residue.divmod_exact(cyc)
            if rest:
                break
            residue = quotient
    return residue == IntPolynomial([1])


def test_criterion_4_entropy_polynomials():
    """Root brackets of the rome char poly and the closed form overlap at
    width <= 1e-12; cofactors have all roots on the unit circle; entropy
    strictly decreasing along each family; top-of-range entropy below 0.35."""
    tops = {}
    for name, ns in (("dream", range(3, 11)), ("persistent", (5, 7, 9, 11, 13)), ("montevideo", range(3, 7))):
        prev = None
        for n in ns:
            inst = inst_of(name, n)
            char = markov_char_poly(inst.markov)
            assert char * inst.poly_cofactor == inst.expected_poly, (name, n)
            assert _unit_circle_cofactor(inst.poly_cofactor), (name, n)
            got = markov_entropy(inst.markov, TOL12)
            want = largest_root_above(inst.expected_poly, TOL12)
            assert overlaps(got, want, slack=TOL12), (name, n)
            if prev is not None:
                assert got.upper < prev.lower, (name, n, "entropy not decreasing")
            prev = got
        tops[name] = prev
    # h < 0.35 at the top of each range: sigma below 1419067/10^6 < e^0.35
    e035_lower_bound = F2(1419067, 10**6)
    for name, bracket in tops.items():
        assert bracket.upper < e035_lower_bound, (name, float(bracket.upper))
    _report(4, "entropy polynomial identities, brackets at 1e-12, decay, h < 0.35")


def test_criterion_5_cofiniteness_statistics():
    # dream: bc = sbc = n for n in 3..20
    for n in range(3, 21):
        if n <= 10:
            rep = cofin_report(per_of("dream", n))
        else:
            i = make("dream", n)
            rep = cofin_report(per_from_rotation(i.lifting, i.markov))
        assert rep.sbc == n and rep.bc == n, ("dream", n)
    # persistent: sbc = n, 2k+1 <= bc <= n; the n = 5 nuance: 3 is not in
    # sbcset (2 is a period), yet bc = 5 stays within bounds
    for n in (5, 7, 9, 11, 13):
        rep = cofin_report(per_of("persistent", n))
        k = persistent_k(n)
        assert rep.sbc == n and rep.bc is not None and 2 * k + 1 <= rep.bc <= n, n
    assert sbcset(per_of("persistent", 5)) == {5}
    # montevideo: sbc = n*nu + 1 - nu/2; upper bound holds at 6, fails at
    # 3, 4, 5 with the literal values 6, 15, 19
    literals = {}
    for n in (3, 4, 5, 6):
        rep = cofin_report(per_of("montevideo", n))
        nu = montevideo_nu(n)
        assert rep.sbc == n * nu + 1 - nu // 2, n
        literals[n] = rep.bc
        holds = rep.bc <= n * nu - 1 - nu // 2
        assert holds == (n == 6), n
    assert literals == {3: 6, 4: 15, 5: 19, 6: 23}
    _report(5, "cofiniteness statistics incl. documented bound failures 6/15/19")


def test_criterion_6_transitivity():
    G = CombGraph(("u", "v", "w", "p"), (("u", "v"), ("v", "w"), ("w", "u"), ("u", "p")))
    for name, n in INSTANCE_SET:
        cert = transitivity_certificate(inst_of(name, n).markov)
        assert cert["irreducible"] and not cert["permutation"], (name, n)
    for name, n in (("dream", 5), ("dream", 8), ("persistent", 7), ("persistent", 11), ("montevideo", 4), ("montevideo", 5)):
        E = extend(inst_of(name, n), G)
        cert = transitivity_certificate(E)
        assert cert["irreducible"] and not cert["permutation"], (name, n)
    _report(6, "transitivity certificates for all family and extension instances")


APPLE = CombGraph(
    ("c1", "c2", "c3", "t", "s1", "s2"),
    (
        ("c1", "c2"),
        ("c2", "c3"),
        ("c3", "c1"),
        ("c2", "t"),
        ("t", "s1"),
        ("t", "s1"),
        ("t", "s2"),
        ("s2", "s2"),
    ),
)


def test_criterion_7_graph_extension():
    # traversal on the built-in example graph and on a 3-star fixture
    star = CombGraph(("a", "b", "c", "w"), (("a", "w"), ("b", "w"), ("c", "w")))
    tr = traversal(star, "a", "b")
    assert tr.m >= 5 and tr.m % 2 == 1 and parity_property_holds(tr)
    X, a, b = excise(APPLE)
    tr = traversal(X, a, b)
    assert tr.m >= 5 and tr.m % 2 == 1 and parity_property_holds(tr)

    prev_ext = prev_base = None
    for n in (5, 6, 7, 8):  # dream scan with the fixed ambient graph
        E = extend(inst_of("dream", n) if n <= 10 else make("dream", n), APPLE)
        rep = verify_extension(E, TOL12)
        assert rep["poly_exact"] and rep["poly_root_ok"], n
        want = largest_root_above(E.expected_poly, TOL12)
        assert overlaps(rep["ext_entropy"], want, slack=TOL12), n
        char = markov_char_poly(E)
        lhs = char * E.cofactor
        power = lhs.degree - E.expected_poly.degree
        for x in (2, 3):
            assert lhs.eval(x) == E.expected_poly.eval(x) * x**power, n
        assert rep["entropy_above_base"], n
        if prev_ext is not None:
            assert rep["ext_entropy"].upper < prev_ext.lower, n
            assert rep["base_entropy"].upper < prev_base.lower, n
        prev_ext, prev_base = rep["ext_entropy"], rep["base_entropy"]

    for name, n in (("persistent", 7), ("montevideo", 4)):
        E = extend(inst_of(name, n), APPLE)
        rep = verify_extension(E, TOL12)
        assert rep["poly_exact"] and rep["poly_root_ok"] and rep["entropy_above_base"], (name, n)
        want = largest_root_above(E.expected_poly, TOL12)
        assert overlaps(rep["ext_entropy"], want, slack=TOL12), (name, n)
        char = markov_char_poly(E)
        lhs = char * E.cofactor
        power = lhs.degree - E.expected_poly.degree
        for x in (2, 3):
            assert lhs.eval(x) == E.expected_poly.eval(x) * x**power, (name, n)
    _report(7, "traversals, extended polynomial identities and entropy ordering")


def test_criterion_8_minentropy():
    tol = F2(1, 10**8)
    grid = [
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
    for c, d in grid:
        res = beta(c, d, tol=tol)
        assert res.method_agreement, (c, d)
        assert abs(res.beta.midpoint() - res.beta_counts.midpoint()) <= 3 * tol, (c, d)
    # beta > 3^(1/q) for p/q inside the interval
    res = beta(F2(1, 2), F2(7, 10), tol=tol)
    assert res.beta.lower ** 3 > 3 and res.beta.lower ** 5 > 3
    # log beta(c_n, d_n) <= h(f_n) + 3 tol for the dream family
    for n in range(3, 9):
        res = beta(F2(1, 2 * n - 1), F2(2, 2 * n - 1), tol=tol)
        rho = markov_entropy(inst_of("dream", n).markov, tol)
        assert res.beta.lower <= rho.upper + 3 * tol, n
    _report(8, "two-method beta agreement, 3^(1/q) witnesses, entropy floor")


def test_criterion_9_main_theorem_scan():
    # montevideo 3..10: len = 1/n^2 reaches 1/100
    sc = mts1_scan("montevideo", 3, 10)
    assert sc.all_green and sc.rows[-1].len_rot <= F2(1, 100)
    assert {r.n: r.flags["bc_upper_bound_holds"] for r in sc.rows if r.n <= 5} == {
        3: False,
        4: False,
        5: False,
    }
    # persistent up to 101: len = 1/n reaches 1/101
    sc = mts1_scan("persistent", 5, 101)
    assert sc.all_green and sc.rows[-1].len_rot <= F2(1, 100)
    # dream extended run to 51: len = 1/(2n-1) reaches 1/101
    sc = mts1_scan("dream", 3, 51)
    assert sc.all_green and sc.rows[-1].len_rot <= F2(1, 100)
    assert all(r.bc == r.n for r in sc.rows)
    _report(9, "main-theorem desk scans: len to <= 1/100, bc and entropy monotone")
