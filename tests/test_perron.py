"""The reported entropy brackets against `perron_reference.above_perron`,
which decides x > sigma(M) from the rome matrix without forming the
characteristic polynomial: each bracket's lower end is not above the Perron
root and its upper end is, the [lower, upper) property that
`markov.bracket_above` orders touching brackets by."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from perron_reference import above_perron, leading_minors
from test_families import SCAN_RANGES
from test_golden import EXTEND_GOLDEN, GRAPHS
from test_markov import FakeSystem, graphs_with_cycle, reach_closure
from test_periods import two_orbit_maps

from circledyn.arith import CertifiedRoot, bareiss_det
from circledyn.errors import BudgetExceeded
from circledyn.families import make, mts1_scan
from circledyn.graphext import CombGraph, extend, verify_extension
from circledyn.lifting import Lifting, build_from_orbits
from circledyn.markov import build_markov_system, entropy

F2 = Fraction


def assert_brackets_perron(system, bracket):
    assert bracket.lower < bracket.upper
    assert not above_perron(system, bracket.lower)
    assert above_perron(system, bracket.upper)


@pytest.mark.parametrize("name", sorted(SCAN_RANGES))
def test_scan_brackets(name):
    ns = SCAN_RANGES[name]
    for row in mts1_scan(name, ns[0], ns[-1], F2(1, 10**9)).rows:
        assert_brackets_perron(make(name, row.n).markov, row.entropy)


def test_extension_brackets():
    for graph, family, n, _ in EXTEND_GOLDEN:
        g = GRAPHS[graph]
        E = extend(make(family, n), CombGraph(g["vertices"], g["edges"]))
        rep = verify_extension(E, F2(1, 10**12))
        assert_brackets_perron(E, rep["ext_entropy"])
        assert_brackets_perron(E.base, rep["base_entropy"])


@pytest.mark.parametrize("name,n", [("dream", 3), ("persistent", 5), ("montevideo", 3)])
def test_shifted_bracket_fails(name, n):
    # the check has teeth: the bracket moved up or down by its own width, as
    # a root kernel off by one cell would report it, fails
    M = make(name, n).markov
    (row,) = mts1_scan(name, n, n).rows
    lo, hi, w = row.entropy.lower, row.entropy.upper, row.entropy.width
    for shift in (w, -w):
        with pytest.raises(AssertionError):
            assert_brackets_perron(M, CertifiedRoot(lo + shift, hi + shift))


def square_matrices(n):
    return st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)


@given(st.integers(1, 5).flatmap(square_matrices))
def test_leading_minors_are_determinants(a):
    assert list(leading_minors(a)) == [bareiss_det([row[:r] for row in a[:r]]) for r in range(1, len(a) + 1)]


def test_permutation_system():
    # a rigid rotation's graph is one cycle: sigma = 1, so 1 is not above it
    M = build_markov_system(Lifting((F2(0),), (F2(1, 2),)))
    assert not above_perron(M, 1) and above_perron(M, F2(1001, 1000))


NEAR = F2(1, 3 * 10**6)  # off every bracket end, which have power-of-two denominators


def check_graph_entropy(succ):
    """The `entropy` bracket of a small graph against `above_perron`: False
    at and just below the lower end, True at and just above the upper end.
    An acyclic graph has sigma = 0 and the bracket [1, 1], so there 1 and
    the points below it are above sigma too.  A repeated Perron root raises
    BudgetExceeded by design and is let pass."""
    system = FakeSystem.from_successors(succ)
    try:
        bracket = entropy(system)
    except BudgetExceeded:
        return
    lo, hi = bracket.lower, bracket.upper
    assert above_perron(system, hi + NEAR)
    assert lo == hi or above_perron(system, hi)
    reach = reach_closure(system.successors, set(range(len(succ))))
    if not any(reach[v][v] for v in range(len(succ))):
        assert (lo, hi) == (1, 1) and above_perron(system, lo) and above_perron(system, lo - NEAR)
    else:
        assert not above_perron(system, lo) and not above_perron(system, lo - NEAR)


@given(graphs_with_cycle(), st.data())
@settings(max_examples=120, derandomize=True, deadline=None)
def test_random_graph_brackets(matrix, data):
    # the graph, and a drawn share of its arrows: reducible and acyclic ones too
    succ = FakeSystem(matrix).successors
    check_graph_entropy(succ)
    check_graph_entropy([[w for w in out if data.draw(st.booleans())] for out in succ])


@given(st.integers(1, 10).flatmap(lambda n: st.permutations(range(n))))
@settings(max_examples=40, derandomize=True, deadline=None)
def test_permutation_graph_brackets(perm):
    # unions of cycles: sigma = 1 and the bracket [1, 1]
    succ = [[w] for w in perm]
    assert entropy(FakeSystem.from_successors(succ)) == CertifiedRoot(F2(1), F2(1))
    check_graph_entropy(succ)


@pytest.mark.parametrize(
    "succ,sigma",
    [
        ([[1], [2], []], 0),  # acyclic
        ([[1], [0], [3], [2]], 1),  # two 2-cycles, reducible
        ([[0, 1], [0, 1]], 2),  # the full graph on two vertices
        ([[0, 1], [0, 1], [2]], 2),  # reducible, a loop of sigma 1 beside it
    ],
)
def test_small_graph_brackets(succ, sigma):
    got = entropy(FakeSystem.from_successors(succ))
    assert got.lower <= max(sigma, 1) <= got.upper
    check_graph_entropy(succ)


@given(two_orbit_maps(max_period=14))
@settings(max_examples=80, derandomize=True, deadline=None)
def test_two_orbit_map_brackets(case):
    # maps through two twist orbits of period up to 14, as the generic
    # benchmark maps are drawn
    _, M, _ = case
    check_graph_entropy(M.successors)


@pytest.mark.slow
def test_generic_map_brackets(monkeypatch):
    # the 540 maps of bench/generic_liftings.py at seeds 0-2, 180 each
    # (about 6 s); every one builds
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from generic_liftings import random_orbit_pair

    for seed in range(3):
        rng = random.Random(seed)
        for _ in range(180):
            M = build_markov_system(build_from_orbits(random_orbit_pair(rng)))
            check_graph_entropy(M.successors)


@pytest.mark.slow
@pytest.mark.parametrize("n", [12799, 12801])
def test_touching_persistent_brackets(n):
    # the two brackets that touch at 1074890341/2^30
    M = make("persistent", n).markov
    (row,) = mts1_scan("persistent", n, n).rows
    assert_brackets_perron(M, row.entropy)
