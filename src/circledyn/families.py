"""The three example families of degree-one circle maps and their verifiers.

Each constructor lays the two prescribed twist orbits at equally spaced
rationals j/N in the intertwining order the construction fixes; periods,
rotation intervals, Markov graphs, transition polynomials and transitivity
certificates depend only on that order, so equal spacing loses nothing and
keeps every computation exact.

Closed-form data carried by an instance (expected rotation interval, period
set, transition-polynomial and its unit-circle cofactor, cofiniteness bounds)
are the quantities the verifier checks against the constructed system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

from .arith import CertifiedRoot, IntPolynomial, largest_root_above, rat_str
from .cofiniteness import CofinitenessReport, report as cofin_report
from .errors import BadParameter, NoRootAbove
from .lifting import Lifting, RotationInterval, orbit_lifting, rotation_interval
from .markov import (
    MarkovSystem,
    bracket_above,
    build_markov_system,
    entropy as markov_entropy,
    markov_char_poly,
    transitivity_certificate,
)
from .oracle import periods_up_to
from .periods import PeriodSet, infer_sho_type, per_from_rotation

DEFAULT_POLY_TOL = Fraction(1, 10**12)


def poly_from_terms(terms: dict[int, int]) -> IntPolynomial:
    deg = max(terms)
    coeffs = [0] * (deg + 1)
    for e, c in terms.items():
        coeffs[e] += c
    return IntPolynomial(coeffs)


# ---------------------------------------------------------------------------
# Closed-form transition polynomials, one per family: m is the number of
# segments of a graph extension's traversal, and m = 1 is the circle itself
# ---------------------------------------------------------------------------


def dream_poly(n: int, m: int = 1) -> IntPolynomial:
    """(x^(4n-2) - m)(x-1) - x^(2n-1)(2x^n - x - 1) - m x^n (x^(n-1)(x+1) - 2):
    the graph extension with a traversal of m segments, the circle at m = 1."""
    return poly_from_terms(
        {
            4 * n - 1: 1,
            4 * n - 2: -1,
            3 * n - 1: -2,
            2 * n: 1 - m,
            2 * n - 1: 1 - m,
            n: 2 * m,
            1: -m,
            0: m,
        }
    )


def _persistent_exponents(n: int) -> tuple[int, int, int]:
    """Middle-term exponents of the persistent family polynomial.

    The chain-entry offsets differ between n = 4k-1 (entries at I_d, I_2d,
    I_3d with d = (n-1)/2, giving exponents 3d+2, 2d+2, d+2) and n = 4k+1
    (entries at I_(2n-ld) with d = (n+1)/2, giving 3d, 2d, d).
    """
    if n % 4 == 3:
        d = (n - 1) // 2
        return (d + 2, 2 * d + 2, 3 * d + 2)
    d = (n + 1) // 2
    return (d, 2 * d, 3 * d)


def persistent_poly(n: int, m: int = 1) -> IntPolynomial:
    """x^2n (x^2 - 1) - 2x^e3 - 2x^e2 - 2x^e1 - m x^2 - m: the graph extension
    with a traversal of m segments, the circle at m = 1."""
    e1, e2, e3 = _persistent_exponents(n)
    terms = {2 * n + 2: 1, 2 * n: -1}
    for e in (e1, e2, e3):
        terms[e] = terms.get(e, 0) - 2
    terms[2] = terms.get(2, 0) - m
    terms[0] = terms.get(0, 0) - m
    return poly_from_terms(terms)


def montevideo_poly(n: int, m: int = 1) -> IntPolynomial:
    """k2 (x^2q + 1) + x^q k1 - (m+1) k0 with q = 2n^2: the graph extension
    with a traversal of m segments, the circle at m = 1."""
    q = 2 * n * n
    k2 = poly_from_terms(
        {
            4 * n: 1,
            3 * n: -(m + 1),
            2 * n + 1: -1,
            2 * n: -(m + 1),
            2 * n - 1: -(m + 2),
            n: -(m + 1),
            0: 1,
        }
    )
    k1 = poly_from_terms(
        {
            4 * n: m - 1,
            3 * n: 2 * (m + 1),
            2 * n + 1: 2,
            2 * n: 2 * (m + 1),
            2 * n - 1: 2,
            n: 2 * (m + 1),
            0: m - 1,
        }
    )
    k0 = poly_from_terms({4 * n: 1, 2 * n - 1: -2, 0: 1})
    x2q_plus_1 = poly_from_terms({2 * q: 1, 0: 1})
    return k2 * x2q_plus_1 + k1.shift(q) - (m + 1) * k0


# ---------------------------------------------------------------------------
# Closed-form period sets and cofiniteness expectations
# ---------------------------------------------------------------------------


def persistent_k(n: int) -> int:
    """k with n = 4k+1 or n = 4k-1."""
    return (n + 1) // 4 if n % 4 == 3 else (n - 1) // 4


def dream_per(n: int) -> PeriodSet:
    return PeriodSet(tail_from=n)


def persistent_per(n: int) -> PeriodSet:
    k = persistent_k(n)
    odds = set(range(2 * k + 1, n - 1, 2))
    return PeriodSet({2} | odds, tail_from=n)


def montevideo_nu(n: int) -> int:
    return n if n % 2 == 0 else n - 1


def montevideo_per(n: int) -> PeriodSet:
    nu = montevideo_nu(n)
    mid = set()
    for t in range(2, nu):
        lo = -(t // 2) + (1 if t % 2 == 0 else 0)
        for k in range(lo, t // 2 + 1):
            mid.add(t * n + k)
    tail = n * nu + 1 - nu // 2
    return PeriodSet({n} | mid, tail_from=tail)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bound:
    """One stated cofiniteness bound: its `theorem_bound_flags` key, the
    desk-scan flag it feeds (or None), its test on the CofinitenessReport
    (None when it needs a bc and there is none), and the outcome the
    documented small-n failures predict."""

    key: str
    scan_flag: Optional[str]
    test: Callable[[CofinitenessReport], Optional[bool]]
    expected: bool = True


def _on_bc(test: Callable[[int], bool]) -> Callable[[CofinitenessReport], Optional[bool]]:
    return lambda r: None if r.bc is None else test(r.bc)


@dataclass(frozen=True)
class ExtensionSpec:
    """Designated classes for the graph extension: the detour class (its
    interval is replaced by the L's), the excised class (replaced by the U's)
    and the return class every U covers.  The extension's polynomial is the
    family polynomial at the traversal's m, with the instance's cofactor.
    `j0` and `j2`, when given (persistent's J0 and J2), are the pair whose
    one loop in the extension, positive and of length 2, its report checks."""

    detour: int
    excised: int
    ret: int
    j0: Optional[int] = None
    j2: Optional[int] = None


@dataclass(frozen=True)
class FamilyInstance:
    name: str
    n: int
    lifting: Lifting
    markov: MarkovSystem
    expected_rot: RotationInterval
    expected_per: PeriodSet
    poly_cofactor: IntPolynomial  # char * cofactor == expected_poly, exactly
    bounds: tuple = field(compare=False)  # one Bound per stated cofiniteness bound; a view of (name, n)
    orbit_keys: tuple  # (x keys, y keys): orbit point j/N at key j, N their total count
    extension: Optional[ExtensionSpec]

    # the orbit points j/N as Fractions, views of `orbit_keys`, and the
    # family's transition polynomial, a view of (name, n)
    x_positions = cached_property(lambda self: self._points(0))
    y_positions = cached_property(lambda self: self._points(1))
    expected_poly = cached_property(lambda self: POLYNOMIALS[self.name](self.n))

    def _points(self, orbit: int) -> tuple:
        N = sum(map(len, self.orbit_keys))
        return tuple(Fraction(j, N) for j in self.orbit_keys[orbit])

    def __reduce__(self):
        # copied or pickled as what it is a view of; `bounds` are closures
        return make, (self.name, self.n)


def _instance(name, n, order, shifts, rot, per, cofactor, bounds, extension) -> FamilyInstance:
    """The family instance whose orbit points x_i and y_i lie at j/N, j the
    label's place in `order` (N = len(order)), with the given orbit shifts;
    each orbit's labels run up from 0 along `order`, as a twist orbit's
    points do.  `extension` names the ExtensionSpec classes, in field order,
    by their (left, right) labels, or is None; class j is
    [order[j], order[j+1]], the last one wrapping to order[0] + 1, and
    KeyError if no class has those ends."""
    N = len(order)
    place, keys = {}, {"x": [], "y": []}
    for j, lab in enumerate(order):
        place[lab] = j
        keys[lab[0]].append(j)
    xs, ys = tuple(keys["x"]), tuple(keys["y"])
    F = orbit_lifting(N, [(xs, shifts[0]), (ys, shifts[1])])

    def class_of(left, right) -> int:
        j = place[left]
        if order[(j + 1) % N] != right:
            raise KeyError(f"no class from {left} to {right}")
        return j

    return FamilyInstance(
        name=name,
        n=n,
        lifting=F,
        markov=build_markov_system(F),
        expected_rot=rot,
        expected_per=per,
        poly_cofactor=cofactor,
        bounds=bounds,
        orbit_keys=(xs, ys),
        extension=None if extension is None else ExtensionSpec(*(class_of(*ends) for ends in extension)),
    )


def dream(n: int) -> FamilyInstance:
    """Two twist orbits of period 2n-1 with rotation numbers 1/(2n-1) and
    2/(2n-1), intertwined x_0..x_(n-1), y_0, then x_(n+j) < y_(2j+1) < y_(2j+2)."""
    if n < 3:
        raise BadParameter("dream family needs n >= 3")
    p = 2 * n - 1
    order = [("x", i) for i in range(n)] + [("y", 0)]
    for j in range(n - 1):
        order += [("x", n + j), ("y", 2 * j + 1), ("y", 2 * j + 2)]
    extension = [(("y", a), ("y", a + 1)) for a in (3, 5, 7)] if n >= 5 else None
    return _instance(
        "dream",
        n,
        order,
        (1, 2),
        RotationInterval(Fraction(1, p), Fraction(2, p)),
        dream_per(n),
        IntPolynomial([-1, 1]),  # char * (x - 1) == T_n
        (
            Bound("sbc_equals_n", None, lambda r: r.sbc == n),
            Bound("bc_equals_n", "bc_closed_form", lambda r: r.bc == n),
        ),
        extension,
    )


def persistent(n: int) -> FamilyInstance:
    """Orbit of period 2 (rotation 1/2) intertwined with an orbit of period 2n
    (rotation (n+2)/2n): x_0 < y_0..y_(n-3) < x_1 < y_(n-2)..y_(2n-1)."""
    if n < 3 or n % 2 == 0:
        raise BadParameter("persistent family needs odd n >= 3")
    order = [("x", 0)] + [("y", i) for i in range(n - 2)]
    order += [("x", 1)] + [("y", i) for i in range(n - 2, 2 * n)]
    k = persistent_k(n)
    # chain classes I_1, I_2, I_3 with I_i = [y_(n+1+i(n+2) mod 2n), +1]
    chain = [(n + 1 + i * (n + 2)) % (2 * n) for i in (1, 2, 3)]
    j0_j2 = [(("x", 0), ("y", 0)), (("x", 1), ("y", n - 2))]  # J0 = [x_0, y_0], J2 = [x_1, y_(n-2)]
    extension = [(("y", a), ("y", a + 1)) for a in chain] + j0_j2 if n >= 7 else None
    return _instance(
        "persistent",
        n,
        order,
        (1, n + 2),
        RotationInterval(Fraction(1, 2), Fraction(n + 2, 2 * n)),
        persistent_per(n),
        IntPolynomial([1]),  # char == T_n exactly
        (
            Bound("sbc_matches", None, lambda r: r.sbc == (n if n >= 5 else 2)),
            Bound("bc_exists", None, lambda r: r.bc is not None, n >= 5),
            Bound("bc_in_bounds", "bc_closed_form", _on_bc(lambda bc: 2 * k + 1 <= bc <= n)),
        ),
        extension,
    )


def montevideo(n: int) -> FamilyInstance:
    """Both orbits of period q = 2n^2, rotations (2n-1)/q and (2n+1)/q,
    intertwined in p-blocks of Q_n against r-blocks of P_n."""
    if n < 3:
        raise BadParameter("montevideo family needs n >= 3")
    p, r, q = 2 * n - 1, 2 * n + 1, 2 * n * n
    order = [("x", i) for i in range(p + n)]
    order += [("y", j) for j in range(n + 1)]
    for blk in range(1, n):
        order += [("x", blk * p + n + t) for t in range(p)]
        order += [("y", (blk - 1) * r + n + 1 + t) for t in range(r)]
    nu = montevideo_nu(n)
    bc_hi = n * nu - 1 - nu // 2
    extension = None
    if n >= 4:
        extension = [
            (("y", (n - 3) * r + n), ("x", (n - 2) * p + n)),  # detour
            (("y", (n - 2) * r + n), ("x", (n - 1) * p + n)),  # excised
            (("y", q - 1), ("x", 0)),  # return: the wrap class [y_(q-1), x_q]
        ]
    cof = poly_from_terms({2 * n - 1: 1, 0: -1}) * poly_from_terms({2 * n + 1: 1, 0: -1})
    return _instance(
        "montevideo",
        n,
        order,
        (p, r),
        RotationInterval(Fraction(p, q), Fraction(r, q)),
        montevideo_per(n),
        cof,  # char * (x^(2n-1)-1)(x^(2n+1)-1) == T_n
        (
            Bound("sbc_matches", None, lambda r: r.sbc == n * nu + 1 - nu // 2),
            Bound("bc_exists", None, lambda r: r.bc is not None),
            Bound("bc_lower_bound", "bc_closed_form", _on_bc(lambda bc: n <= bc)),
            # literal value of the theorem's upper bound; fails for n <= 5
            Bound("bc_upper_bound", "bc_upper_bound_holds", _on_bc(lambda bc: bc <= bc_hi), n >= 6),
        ),
        extension,
    )


FAMILIES = {"dream": dream, "persistent": persistent, "montevideo": montevideo}

# family name -> its transition polynomial at (n, m): the circle instance's
# expected_poly at m = 1, its graph extension's with a traversal of m segments
POLYNOMIALS = {"dream": dream_poly, "persistent": persistent_poly, "montevideo": montevideo_poly}


def make(name: str, n: int) -> FamilyInstance:
    if name not in FAMILIES:
        raise BadParameter(f"unknown family {name!r}")
    return FAMILIES[name](n)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    name: str
    n: int
    rot_ok: bool
    per_ok: bool
    poly_exact: bool
    poly_root_ok: bool
    transitive_ok: bool
    oracle_ok: bool
    classes_ok: bool
    cofin: CofinitenessReport
    entropy: CertifiedRoot
    theorem_bound_flags: dict  # literal holds/fails of the stated bounds
    expected_bound_flags: dict  # what the documented discrepancies predict
    computed_rot: RotationInterval
    computed_per: PeriodSet
    endpoint_types: dict

    @property
    def bounds_as_documented(self) -> bool:
        return self.theorem_bound_flags == self.expected_bound_flags

    @property
    def all_green(self) -> bool:
        """Green means every exact check passed and every theorem bound came
        out exactly as documented (including the known small-n failures)."""
        return (
            self.rot_ok
            and self.per_ok
            and self.poly_exact
            and self.poly_root_ok
            and self.transitive_ok
            and self.oracle_ok
            and self.classes_ok
            and self.bounds_as_documented
        )

    @property
    def strict_green(self) -> bool:
        """Strict reading: every literal theorem bound must hold."""
        return (
            self.all_green
            and all(self.theorem_bound_flags.values())
        )

    def to_json(self) -> dict:
        return {
            "family": self.name,
            "n": self.n,
            "rot_ok": self.rot_ok,
            "per_ok": self.per_ok,
            "poly_exact": self.poly_exact,
            "poly_root_ok": self.poly_root_ok,
            "transitive_ok": self.transitive_ok,
            "oracle_ok": self.oracle_ok,
            "classes_ok": self.classes_ok,
            "cofiniteness": self.cofin.to_json(),
            "entropy_bracket": self.entropy.to_json(),
            "entropy_log": self.entropy.log_float(),
            "theorem_bound_flags": dict(sorted(self.theorem_bound_flags.items())),
            "bounds_as_documented": self.bounds_as_documented,
            "rotation_interval": self.computed_rot.to_json(),
            "periods": self.computed_per.to_json(),
            "endpoint_types": {
                e: {
                    "sho": t.sho,
                    "bounded_evidence": True,
                    "ambiguous_two_infinity": t.ambiguous_two_infinity,
                }
                for e, t in sorted(self.endpoint_types.items())
            },
            "all_green": self.all_green,
            "strict_green": self.strict_green,
        }


def certify(system, closed_form: IntPolynomial, cofactor: IntPolynomial, tol: Fraction) -> tuple[dict, CertifiedRoot]:
    """`(checks, sigma)`: sigma the entropy bracket of `system`'s
    characteristic polynomial `char`, and `checks` its
    `transitivity_certificate` plus `poly_exact`, the exact identity
    `char * cofactor == x^k * closed_form`; `poly_power`, k, the degree gap
    (also when the identity fails); and `poly_root_ok`, that sigma holds the
    closed form's largest root.  It does when the identity holds, sigma is
    not [1, 1] and the cofactor has no root above 1: one exact root count
    settles that, and kernel errors other than NoRootAbove propagate."""
    char = markov_char_poly(system)
    sigma = markov_entropy(system, tol, char)
    lhs = char * cofactor
    power = lhs.degree - closed_form.degree
    exact = power >= 0 and lhs == closed_form.shift(power)
    root_ok = False
    if exact and sigma.upper > 1:
        try:
            largest_root_above(cofactor, tol)
        except NoRootAbove:
            root_ok = True
    checks = transitivity_certificate(system)
    checks.update(poly_exact=exact, poly_power=power, poly_root_ok=root_ok)
    return checks, sigma


def verify(inst: FamilyInstance, tol: Fraction = DEFAULT_POLY_TOL) -> VerificationReport:
    """Run every check of the family's stated data against the built system."""
    F, M = inst.lifting, inst.markov
    rot = rotation_interval(F)
    rot_ok = rot == inst.expected_rot == M.rotation

    per = per_from_rotation(F, M)
    per_ok = per == inst.expected_per

    # on the circle the closed form is char * cofactor itself, at power 0
    checks, sigma = certify(M, inst.expected_poly, inst.poly_cofactor, tol)
    poly_exact = checks["poly_exact"] and checks["poly_power"] == 0
    classes_ok = M.size == sum(map(len, inst.orbit_keys))

    creport = cofin_report(per)
    flags, expected_flags = {}, {}
    for b in inst.bounds:  # a bound that needs a bc is left out where there is none
        holds = b.test(creport)
        if holds is not None:
            flags[b.key], expected_flags[b.key] = holds, b.expected

    P = creport.sbc + 3
    oracle_result = periods_up_to(M, P)
    oracle_ok = oracle_result.periods() == inst.expected_per.up_to(P)
    # bounded-evidence Sharkovskii type of each endpoint: observed k = m/s (a
    # witness of rotation e = r/s has e*m integer, so s divides m)
    endpoint_types = {}
    for e in (rot.c, rot.d):
        s = e.denominator
        ks = {m // s for (m, rho) in oracle_result.witnesses if rho == e}
        endpoint_types[rat_str(e)] = infer_sho_type(ks, bound=P // s)

    return VerificationReport(
        name=inst.name,
        n=inst.n,
        rot_ok=rot_ok,
        per_ok=per_ok,
        poly_exact=poly_exact,
        poly_root_ok=poly_exact and checks["poly_root_ok"],
        transitive_ok=checks["transitive"],
        oracle_ok=oracle_ok,
        classes_ok=classes_ok,
        cofin=creport,
        entropy=sigma,
        theorem_bound_flags=flags,
        expected_bound_flags=expected_flags,
        computed_rot=rot,
        computed_per=per,
        endpoint_types=endpoint_types,
    )


# ---------------------------------------------------------------------------
# Main-theorem desk scan
# ---------------------------------------------------------------------------


@dataclass
class ScanRow:
    n: int
    rot: RotationInterval
    entropy: CertifiedRoot
    sbc: int
    bc: Optional[int]
    flags: dict

    @property
    def len_rot(self) -> Fraction:
        return self.rot.length

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "rot_c": rat_str(self.rot.c),
            "rot_d": rat_str(self.rot.d),
            "len_rot": rat_str(self.len_rot),
            "entropy_lo": rat_str(self.entropy.lower),
            "entropy_hi": rat_str(self.entropy.upper),
            "sbc": self.sbc,
            "bc": self.bc,
            "flags": dict(sorted(self.flags.items())),
        }


@dataclass
class ScanResult:
    family: str
    rows: list
    len_strictly_decreasing: bool
    entropy_strictly_decreasing: bool
    bc_nondecreasing: bool
    bc_matches_closed_form: bool

    @property
    def all_green(self) -> bool:
        return (
            self.len_strictly_decreasing
            and self.entropy_strictly_decreasing
            and self.bc_nondecreasing
            and self.bc_matches_closed_form
        )

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "rows": [r.to_json() for r in self.rows],
            "len_strictly_decreasing": self.len_strictly_decreasing,
            "entropy_strictly_decreasing": self.entropy_strictly_decreasing,
            "bc_nondecreasing": self.bc_nondecreasing,
            "bc_matches_closed_form": self.bc_matches_closed_form,
            "all_green": self.all_green,
        }


def scan_values(family: str, n_from: int, n_to: int) -> list[int]:
    if family == "persistent":
        start = n_from if n_from % 2 == 1 else n_from + 1
        return list(range(start, n_to + 1, 2))
    return list(range(n_from, n_to + 1))


def mts1_scan(family: str, n_from: int, n_to: int, tol: Fraction = Fraction(1, 10**9)) -> ScanResult:
    """Desk-scale scan of the Main Theorem quantities: exact rotation-interval
    lengths, certified entropy brackets and literal boundary-of-cofiniteness
    values along the family, with the monotonicity assertions recorded."""
    ns = scan_values(family, n_from, n_to)
    if not ns:
        raise BadParameter(f"no {family} instance with {n_from} <= n <= {n_to}")
    rows = []
    for n in ns:
        inst = make(family, n)
        rot = inst.markov.rotation
        per = per_from_rotation(inst.lifting, inst.markov)
        crep = cofin_report(per)
        sigma = markov_entropy(inst.markov, tol)
        flags = {"per_matches_closed_form": per == inst.expected_per}
        # each bound's scan flag: bc exists and the bound holds
        flags.update((b.scan_flag, crep.bc is not None and b.test(crep)) for b in inst.bounds if b.scan_flag)
        rows.append(ScanRow(n=n, rot=rot, entropy=sigma, sbc=crep.sbc, bc=crep.bc, flags=flags))
    len_dec = all(rows[i].len_rot > rows[i + 1].len_rot for i in range(len(rows) - 1))
    ent_dec = all(bracket_above(rows[i].entropy, rows[i + 1].entropy) for i in range(len(rows) - 1))
    bcs = [r.bc for r in rows if r.bc is not None]
    bc_nondec = all(bcs[i] <= bcs[i + 1] for i in range(len(bcs) - 1))
    bc_cf = all(r.flags.get("bc_closed_form", False) for r in rows)
    return ScanResult(
        family=family,
        rows=rows,
        len_strictly_decreasing=len_dec,
        entropy_strictly_decreasing=ent_dec,
        bc_nondecreasing=bc_nondec,
        bc_matches_closed_form=bc_cf,
    )
