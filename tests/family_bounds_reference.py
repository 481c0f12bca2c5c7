"""The families' cofiniteness bounds as three if/elif ladders on the family
name, each with its literal closed forms: a test reference for the `Bound`s
each family constructor states, which `families.verify` and
`families.mts1_scan` read alone.
"""

from __future__ import annotations


def expectations(name: str, n: int) -> dict:
    """The stated sbc and bc values of the instance, by family name."""
    if name == "dream":
        return {"sbc": n, "bc": n}
    if name == "persistent":
        k = (n + 1) // 4 if n % 4 == 3 else (n - 1) // 4  # n = 4k-1 or 4k+1
        return {"sbc": n if n >= 5 else 2, "bc_lo": 2 * k + 1, "bc_hi": n, "bc_exists": n >= 5}
    nu = n if n % 2 == 0 else n - 1
    return {
        "sbc": n * nu + 1 - nu // 2,
        "bc_lo": n,
        "bc_hi": n * nu - 1 - nu // 2,
        "bc_upper_bound_expected": n >= 6,
    }


def verify_flags(name: str, n: int, creport) -> tuple[dict, dict]:
    """(theorem_bound_flags, expected_bound_flags) of `verify`."""
    exp = expectations(name, n)
    flags = {}
    if name == "dream":
        flags["sbc_equals_n"] = creport.sbc == exp["sbc"]
        flags["bc_equals_n"] = creport.bc == exp["bc"]
        expected_flags = {"sbc_equals_n": True, "bc_equals_n": True}
    elif name == "persistent":
        flags["sbc_matches"] = creport.sbc == exp["sbc"]
        flags["bc_exists"] = creport.bc is not None
        expected_flags = {"sbc_matches": True, "bc_exists": exp["bc_exists"]}
        if creport.bc is not None:
            flags["bc_in_bounds"] = exp["bc_lo"] <= creport.bc <= exp["bc_hi"]
            expected_flags["bc_in_bounds"] = True
    else:
        flags["sbc_matches"] = creport.sbc == exp["sbc"]
        flags["bc_exists"] = creport.bc is not None
        expected_flags = {"sbc_matches": True, "bc_exists": True}
        if creport.bc is not None:
            flags["bc_lower_bound"] = exp["bc_lo"] <= creport.bc
            # literal value of the theorem's upper bound; fails for n <= 5
            flags["bc_upper_bound"] = creport.bc <= exp["bc_hi"]
            expected_flags["bc_lower_bound"] = True
            expected_flags["bc_upper_bound"] = exp["bc_upper_bound_expected"]
    return flags, expected_flags


def scan_flags(family: str, n: int, crep) -> dict:
    """The bound flags of one `mts1_scan` row (all but per_matches_closed_form)."""
    exp = expectations(family, n)
    flags = {}
    if family == "dream":
        flags["bc_closed_form"] = crep.bc == exp["bc"]
    elif family == "persistent":
        flags["bc_closed_form"] = crep.bc is not None and exp["bc_lo"] <= crep.bc <= exp["bc_hi"]
    else:
        flags["bc_closed_form"] = crep.bc is not None and crep.bc >= exp["bc_lo"]
        flags["bc_upper_bound_holds"] = crep.bc is not None and crep.bc <= exp["bc_hi"]
    return flags
