"""Independent output check for the circledyn benchmark.

Everything here is re-derived from the paper's closed forms with plain
integers and Fractions; nothing calls back into circledyn.  Entropy brackets
are certified with an integer Horner sign evaluation of the closed-form
transition polynomial, not with `arith.largest_root_above` (whose sampled
"no root above" grid misses close root pairs).

Each `check_*` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

from fractions import Fraction

# Literal values the paper states for the montevideo family (criterion 5).
MONTEVIDEO_BC = {3: 6, 4: 15, 5: 19, 6: 23}

# Traversal size m of the excised ambient graphs, as built by `extend`.
EXTENSION_M = {"apple": 43, "triangle_tail": 23}

# beta(c,d) > 3^(1/q) for every p/q strictly inside (c,d); checked up to
# this denominator.
WITNESS_MAX_Q = 16


# ---------------------------------------------------------------------------
# Integer polynomials as coefficient lists, lowest degree first
# ---------------------------------------------------------------------------


def mono(exp: int, coeff: int = 1) -> list[int]:
    return [0] * exp + [coeff]


def padd(*ps: list[int]) -> list[int]:
    out = [0] * max(len(p) for p in ps)
    for p in ps:
        for i, c in enumerate(p):
            out[i] += c
    return out


def pscale(p: list[int], k: int) -> list[int]:
    return [k * c for c in p]


def pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def sign_at(p: list[int], x: Fraction) -> int:
    """Sign of p(x), from the integer b^deg * p(a/b) (homogeneous Horner)."""
    a, b = x.numerator, x.denominator
    acc = 0
    scale = 1
    for c in reversed(p):
        acc = acc * a + c * scale
        scale *= b
    # acc = sum c_i a^i b^(deg-i) = b^deg p(a/b), and b > 0
    return (acc > 0) - (acc < 0)


def leading_sign(p: list[int]) -> int:
    for c in reversed(p):
        if c:
            return (c > 0) - (c < 0)
    return 0


# ---------------------------------------------------------------------------
# Closed forms of the three families and their graph extensions
# ---------------------------------------------------------------------------


def persistent_k(n: int) -> int:
    return (n + 1) // 4 if n % 4 == 3 else (n - 1) // 4


def montevideo_nu(n: int) -> int:
    return n if n % 2 == 0 else n - 1


def rotation(name: str, n: int) -> tuple[Fraction, Fraction]:
    if name == "dream":
        p = 2 * n - 1
        return Fraction(1, p), Fraction(2, p)
    if name == "persistent":
        return Fraction(1, 2), Fraction(n + 2, 2 * n)
    q = 2 * n * n
    return Fraction(2 * n - 1, q), Fraction(2 * n + 1, q)


def normalize_periods(finite: set[int], tail: int) -> tuple[frozenset, int]:
    finite = {k for k in finite if k < tail}
    while tail - 1 in finite:
        tail -= 1
        finite.discard(tail)
    return frozenset(finite), tail


def period_set(name: str, n: int) -> tuple[frozenset, int]:
    """(finite part, tail start) of Per(f_n)."""
    if name == "dream":
        return normalize_periods(set(), n)
    if name == "persistent":
        k = persistent_k(n)
        return normalize_periods({2} | set(range(2 * k + 1, n - 1, 2)), n)
    nu = montevideo_nu(n)
    mid = {n}
    for t in range(2, nu):
        lo = -(t // 2) + (1 if t % 2 == 0 else 0)
        mid.update(t * n + j for j in range(lo, t // 2 + 1))
    return normalize_periods(mid, n * nu + 1 - nu // 2)


def cofiniteness(finite: frozenset, tail: int) -> tuple[int, int | None]:
    """(sbc, bc) straight from the definitions: sbc is the least s with
    {s, s+1, ...} inside Per; bc is the largest L <= sbc in Per with L-1 not
    in Per and 2^#(Per ∩ [1, L-2]) <= (L-2)^2."""

    def has(k: int) -> bool:
        return k >= tail or k in finite

    s = tail
    while s > 1 and has(s - 1):
        s -= 1
    cands = [
        L
        for L in range(3, s + 1)
        if has(L) and not has(L - 1) and 2 ** sum(has(k) for k in range(1, L - 1)) <= (L - 2) ** 2
    ]
    return s, (max(cands) if cands else None)


def dream_poly(n: int) -> list[int]:
    """(x^(4n-2) - 1)(x - 1) - 2 x^n (x^(2n-1) - 1)."""
    return padd(
        pmul(padd(mono(4 * n - 2), [-1]), [-1, 1]),
        pscale(pmul(mono(n), padd(mono(2 * n - 1), [-1])), -2),
    )


def persistent_poly(n: int, c: int = 1) -> list[int]:
    """x^2n (x^2 - 1) - 2 (x^e1 + x^e2 + x^e3) - c (x^2 + 1)."""
    if n % 4 == 3:
        d = (n - 1) // 2
        exps = (d + 2, 2 * d + 2, 3 * d + 2)
    else:
        d = (n + 1) // 2
        exps = (d, 2 * d, 3 * d)
    return padd(
        pmul(mono(2 * n), [-1, 0, 1]),
        *(mono(e, -2) for e in exps),
        [-c, 0, -c],
    )


def _montevideo(n: int, k2: list[int], k1: list[int], k1_shift: int, k0_mult: int) -> list[int]:
    q = 2 * n * n
    k0 = padd(mono(4 * n), mono(2 * n - 1, -2), [1])
    return padd(pmul(k2, padd(mono(2 * q), [1])), pmul(mono(k1_shift), k1), pscale(k0, -k0_mult))


def montevideo_poly(n: int) -> list[int]:
    k2 = padd(mono(4 * n), mono(3 * n, -2), mono(2 * n + 1, -1), mono(2 * n, -2), mono(2 * n - 1, -3), mono(n, -2), [1])
    k1 = padd(mono(2 * n, 4), mono(n + 1, 2), mono(n, 4), mono(n - 1, 2), [4])
    return _montevideo(n, k2, k1, 2 * n * n + n, 2)


def dream_ext_poly(n: int, m: int) -> list[int]:
    """(x^(4n-2) - m)(x-1) - x^(2n-1)(2x^n - x - 1) - m x^n (x^(n-1)(x+1) - 2)."""
    return padd(
        pmul(padd(mono(4 * n - 2), [-m]), [-1, 1]),
        pscale(pmul(mono(2 * n - 1), padd(mono(n, 2), [-1, -1])), -1),
        pscale(pmul(mono(n), padd(pmul(mono(n - 1), [1, 1]), [-2])), -m),
    )


def montevideo_ext_poly(n: int, m: int) -> list[int]:
    k2 = padd(
        mono(4 * n), mono(3 * n, -(m + 1)), mono(2 * n + 1, -1), mono(2 * n, -(m + 1)),
        mono(2 * n - 1, -(m + 2)), mono(n, -(m + 1)), [1],
    )
    k1 = padd(
        mono(4 * n, m - 1), mono(3 * n, 2 * (m + 1)), mono(2 * n + 1, 2), mono(2 * n, 2 * (m + 1)),
        mono(2 * n - 1, 2), mono(n, 2 * (m + 1)), [m - 1],
    )
    return _montevideo(n, k2, k1, 2 * n * n, m + 1)


def family_poly(name: str, n: int) -> list[int]:
    """Transition polynomial: the Markov characteristic polynomial times a
    cofactor whose roots lie on the unit circle, so both share the root > 1."""
    return {"dream": dream_poly, "persistent": persistent_poly, "montevideo": montevideo_poly}[name](n)


def extension_poly(name: str, n: int, m: int) -> list[int]:
    if name == "dream":
        return dream_ext_poly(n, m)
    if name == "persistent":
        return persistent_poly(n, c=m)
    return montevideo_ext_poly(n, m)


# ---------------------------------------------------------------------------
# Field checks
# ---------------------------------------------------------------------------


def bracket_problems(label: str, poly: list[int], lower: Fraction, upper: Fraction, tol: Fraction) -> list[str]:
    """lower > 1, width <= tol, a sign change of poly across [lower, upper],
    and the sign of +infinity at upper."""
    out = []
    if not lower > 1:
        out.append(f"{label}: lower {lower} not above 1")
    if not 0 <= upper - lower <= tol:
        out.append(f"{label}: width {float(upper - lower):.3g} outside [0, {float(tol):.3g}]")
    s_lo, s_hi = sign_at(poly, lower), sign_at(poly, upper)
    if s_lo * s_hi > 0:
        out.append(f"{label}: no sign change across [{float(lower)}, {float(upper)}]")
    elif s_hi != 0 and s_hi != leading_sign(poly):
        out.append(f"{label}: upper end not on the sign of +infinity")
    return out


def period_set_problems(label: str, per, name: str, n: int) -> list[str]:
    finite, tail = period_set(name, n)
    if tuple(getattr(per, "patterns", ())) != ():
        return [f"{label}: unexpected periodic patterns {per.patterns}"]
    if frozenset(per.finite) != finite or per.tail_from != tail:
        missing = sorted(finite - frozenset(per.finite))
        extra = sorted(frozenset(per.finite) - finite)
        return [f"{label}: period set differs (missing {missing}, extra {extra}, tail {per.tail_from} vs {tail})"]
    return []


def cofin_problems(label: str, sbc: int, bc, name: str, n: int) -> list[str]:
    want_sbc, want_bc = cofiniteness(*period_set(name, n))
    out = []
    if (sbc, bc) != (want_sbc, want_bc):
        out.append(f"{label}: (sbc, bc) = ({sbc}, {bc}), expected ({want_sbc}, {want_bc})")
    if name == "montevideo" and n in MONTEVIDEO_BC and bc != MONTEVIDEO_BC[n]:
        out.append(f"{label}: bc {bc} differs from the literal {MONTEVIDEO_BC[n]}")
    return out


def rotation_problems(label: str, c: Fraction, d: Fraction, name: str, n: int) -> list[str]:
    want = rotation(name, n)
    return [] if (c, d) == want else [f"{label}: rotation [{c}, {d}], expected [{want[0]}, {want[1]}]"]


def check_scan(item: tuple, res, tol: Fraction) -> list[str]:
    """One `mts1_scan(name, n, n)` result: a single row."""
    name, n = item
    label = f"scan {name} n={n}"
    if res.family != name or [r.n for r in res.rows] != [n]:
        return [f"{label}: rows {[r.n for r in res.rows]} instead of [{n}]"]
    out = [f"{label}: {flag} is not true" for flag in ("all_green", "bc_matches_closed_form")
           if getattr(res, flag) is not True]
    r = res.rows[0]
    out += rotation_problems(label, r.rot.c, r.rot.d, name, n)
    if r.len_rot != r.rot.d - r.rot.c:
        out.append(f"{label}: len_rot {r.len_rot} is not d - c")
    out += cofin_problems(label, r.sbc, r.bc, name, n)
    out += bracket_problems(label, family_poly(name, n), r.entropy.lower, r.entropy.upper, tol)
    want_flags = {"per_matches_closed_form": True, "bc_closed_form": True}
    if name == "montevideo":
        nu = montevideo_nu(n)
        want_flags["bc_upper_bound_holds"] = r.bc is not None and r.bc <= n * nu - 1 - nu // 2
    if r.flags != want_flags:
        out.append(f"{label}: flags {r.flags}, expected {want_flags}")
    return out


def check_scan_order(rows: dict) -> dict:
    """Across the rows of one pass, {(name, n): problems} where row n breaks
    the scan's monotonicity against the previous n of its family: rotation
    length and entropy strictly decreasing, bc nondecreasing."""
    out: dict = {}
    for name in sorted({name for name, _ in rows}):
        ns = sorted(n for fam, n in rows if fam == name)
        for n0, n1 in zip(ns, ns[1:]):
            r0, r1 = rows[(name, n0)], rows[(name, n1)]
            problems = []
            if not r0.len_rot > r1.len_rot:
                problems.append(f"scan {name}: length not decreasing at n={n1}")
            if not r0.entropy.lower > r1.entropy.upper:
                problems.append(f"scan {name}: entropy not decreasing at n={n1}")
            if r0.bc is not None and r1.bc is not None and not r0.bc <= r1.bc:
                problems.append(f"scan {name}: bc decreasing at n={n1}")
            if problems:
                out[(name, n1)] = problems
    return out


def check_verify(item: tuple, rep, tol: Fraction) -> list[str]:
    _, name, n = item
    label = f"verify {name} n={n}"
    out = []
    for flag in ("rot_ok", "per_ok", "poly_exact", "poly_root_ok", "transitive_ok", "oracle_ok",
                 "classes_ok", "all_green"):
        if getattr(rep, flag) is not True:
            out.append(f"{label}: {flag} is not true")
    out += rotation_problems(label, rep.computed_rot.c, rep.computed_rot.d, name, n)
    out += period_set_problems(label, rep.computed_per, name, n)
    out += cofin_problems(label, rep.cofin.sbc, rep.cofin.bc, name, n)
    out += bracket_problems(label, family_poly(name, n), rep.entropy.lower, rep.entropy.upper, tol)
    return out


def check_extension(item: tuple, rep: dict, tol: Fraction) -> list[str]:
    _, graph, name, n = item
    label = f"extension {graph} {name} n={n}"
    want = {
        "irreducible": True, "permutation": False, "transitive": True, "poly_exact": True,
        "poly_root_ok": True, "entropy_above_base": True, "projection_ok": True, "counts_ok": True,
    }
    if name == "persistent":
        want.update(j0_j2_unique_2loop=True, j0_j2_loop_positive=True)
    out = [f"{label}: {k} is {rep.get(k)!r}" for k, v in want.items() if rep.get(k) is not v]
    ext, base = rep["ext_entropy"], rep["base_entropy"]
    out += bracket_problems(f"{label} base", family_poly(name, n), base.lower, base.upper, tol)
    out += bracket_problems(f"{label} ext", extension_poly(name, n, EXTENSION_M[graph]), ext.lower, ext.upper, tol)
    if not ext.lower > base.upper:
        out.append(f"{label}: extension entropy not above the base")
    return out


def dream_n_of(c: Fraction, d: Fraction) -> int | None:
    """n with (c, d) = (1/(2n-1), 2/(2n-1)), if any."""
    if c > 0 and c.numerator == 1 and c.denominator % 2 == 1 and d == 2 * c:
        return (c.denominator + 1) // 2
    return None


def check_beta(item: tuple, res, tol: Fraction) -> list[str]:
    c, d = item
    label = f"beta ({c}, {d})"
    out = []
    if res.tol != tol:
        out.append(f"{label}: tol {res.tol}, expected {tol}")
    for which, br in (("q-series", res.beta), ("r-series", res.beta_counts)):
        if not br.lower > 1:
            out.append(f"{label} {which}: lower not above 1")
        if not 0 <= br.upper - br.lower <= tol:
            out.append(f"{label} {which}: width {float(br.upper - br.lower):.3g} above tol")
    mid_q = (res.beta.lower + res.beta.upper) / 2
    mid_r = (res.beta_counts.lower + res.beta_counts.upper) / 2
    if res.method_agreement is not True or abs(mid_q - mid_r) > 3 * tol:
        out.append(f"{label}: methods disagree by {float(abs(mid_q - mid_r)):.3g}")
    lo = res.beta.lower
    for q in range(1, WITNESS_MAX_Q + 1):
        for p in range(q + 1):
            if c < Fraction(p, q) < d and not lo**q > 3:
                out.append(f"{label}: beta^{q} <= 3 although {p}/{q} lies inside")
    n = dream_n_of(c, d)
    if n is not None:
        # a root of the dream polynomial above beta - 3 tol: log beta <= h(f_n) + 3 tol
        poly = dream_poly(n)
        if sign_at(poly, lo - 3 * tol) == leading_sign(poly):
            out.append(f"{label}: beta above the dream n={n} entropy by more than 3 tol")
    return out
