"""The three benchmark workloads: fixed item sets, seed-permuted order.

The item sets come from the acceptance criteria and may not shrink; the seed
only shuffles their order.  Every call goes through a module attribute
(`families.verify`, not a local copy) so that the traced run sees it.

- scan:   the three criterion-9 desk scans through `mts1_scan` at tol 1e-9
          (montevideo 3..10, persistent 5..101 odd, dream 3..51), one item
          per instance: 106 items, `mts1_scan(f, n, n)` each, so that item
          latency means the latency of one instance.  The checker compares
          consecutive rows across items.  Bound by `build_markov_system` and
          `perron_bracket`.
- verify: `verify(make(f, n))` on the 17 acceptance instances plus 12
          `verify_extension(extend(...))` items, at tol 1e-12.  Bound by the
          oracle (full loop enumeration at P = sbc + 3).
- beta:   the criterion-8 grid, 16 `beta(c, d)` items at tol 1e-8.  Runs
          only the minentropy series: the control where lifting, markov and
          oracle changes must show nothing.
"""

from __future__ import annotations

import random
from fractions import Fraction

from circledyn import families, graphext, minentropy

SCAN_TOL = Fraction(1, 10**9)
VERIFY_TOL = Fraction(1, 10**12)
BETA_TOL = Fraction(1, 10**8)

GRAPHS = {
    "apple": (
        ("c1", "c2", "c3", "t", "s1", "s2"),
        (("c1", "c2"), ("c2", "c3"), ("c3", "c1"), ("c2", "t"), ("t", "s1"), ("t", "s1"), ("t", "s2"), ("s2", "s2")),
    ),
    "triangle_tail": (
        ("u", "v", "w", "p"),
        (("u", "v"), ("v", "w"), ("w", "u"), ("u", "p")),
    ),
}

ACCEPTANCE = (
    [("dream", n) for n in range(3, 11)]
    + [("persistent", n) for n in (5, 7, 9, 11, 13)]
    + [("montevideo", n) for n in (3, 4, 5, 6)]
)

EXTENSIONS = (
    [("apple", "dream", n) for n in (5, 6, 7, 8)]
    + [("apple", "persistent", 7), ("apple", "montevideo", 4)]
    + [("triangle_tail", "dream", n) for n in (5, 8)]
    + [("triangle_tail", "persistent", n) for n in (7, 11)]
    + [("triangle_tail", "montevideo", n) for n in (4, 5)]
)

BETA_GRID = [
    (Fraction(1, 2), Fraction(7, 10)),
    (Fraction(1, 5), Fraction(2, 5)),
    (Fraction(1, 4), Fraction(1, 3)),
    (Fraction(0), Fraction(1, 2)),
    (Fraction(0), Fraction(1)),
    (Fraction(1, 3), Fraction(1, 2)),
    (Fraction(2, 5), Fraction(3, 5)),
    (Fraction(1, 7), Fraction(2, 7)),
    (Fraction(3, 7), Fraction(4, 7)),
    (Fraction(1, 9), Fraction(2, 9)),
] + [(Fraction(1, 2 * n - 1), Fraction(2, 2 * n - 1)) for n in range(3, 9)]

SCANS = [("montevideo", range(3, 11)), ("persistent", range(5, 102, 2)), ("dream", range(3, 52))]

WORKLOADS = ("scan", "verify", "beta")


def base_items(workload: str) -> list[tuple]:
    if workload == "scan":
        return [(name, n) for name, ns in SCANS for n in ns]
    if workload == "verify":
        return [("family", name, n) for name, n in ACCEPTANCE] + [("extension",) + e for e in EXTENSIONS]
    if workload == "beta":
        return list(BETA_GRID)
    raise ValueError(f"unknown workload {workload!r}")


def make_items(workload: str, seed: int) -> list[tuple]:
    """The workload's items in the order the seed fixes; extension items
    carry their ambient graph built here, as input to the program."""
    items = base_items(workload)
    random.Random(seed).shuffle(items)
    if workload == "verify":
        items = [it if it[0] == "family" else it + (graphext.CombGraph(*GRAPHS[it[1]]),) for it in items]
    return items


def label(item: tuple) -> str:
    return " ".join(str(x) for x in item if not isinstance(x, graphext.CombGraph))


def run_item(workload: str, item: tuple):
    if workload == "scan":
        name, n = item
        return families.mts1_scan(name, n, n, SCAN_TOL)
    if workload == "verify":
        if item[0] == "family":
            return families.verify(families.make(item[1], item[2]), VERIFY_TOL)
        _, _, name, n, graph = item
        return graphext.verify_extension(graphext.extend(families.make(name, n), graph), VERIFY_TOL)
    c, d = item
    return minentropy.beta(c, d, tol=BETA_TOL)


def signature(output) -> object:
    """A plain, comparable form of one item's output."""
    if isinstance(output, dict):
        return {k: (v.to_json() if hasattr(v, "to_json") else v) for k, v in output.items()}
    return output.to_json()
