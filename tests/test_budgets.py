"""Every budget stops with its typed error, and promptly: one adversarial
input per budget, each under a wall-clock bound."""

import time
from fractions import Fraction
from pathlib import Path

import pytest

from circledyn import lifting
from circledyn.errors import BudgetExceeded, DepthExceeded, NotInvariant
from circledyn.families import montevideo
from circledyn.lifting import Lifting, RotationInterval, rotation_interval
from circledyn.markov import build_markov_system, enumerate_loops
from circledyn.minentropy import beta, q_balance, r_balance

F2 = Fraction


def _raises_within(seconds, error, fn, *args, **kwargs):
    start = time.perf_counter()
    with pytest.raises(error):
        fn(*args, **kwargs)
    assert time.perf_counter() - start < seconds


def test_closure_budget_stops_growing_denominators():
    # each new closure point has a larger denominator: the point count alone
    # would let this run for minutes, the total bit length stops it
    F = Lifting((F2(0), F2(1, 3)), (F2(1, 7), F2(9, 10)))
    _raises_within(2, NotInvariant, build_markov_system, F)


def test_loop_cap_stops_enumeration():
    M = montevideo(6).markov  # 144 classes, dense at length 60
    _raises_within(2, BudgetExceeded, enumerate_loops, M, 60, cap=10**4)


def test_stern_brocot_bound_stops_search(monkeypatch):
    # rotation 1/1009 needs the denominator 1009, past the bound 100
    monkeypatch.setattr(lifting, "DEFAULT_DENOMINATOR_BOUND", 100)
    F = Lifting((F2(0), F2(1, 2)), (F2(1, 1009), F2(1, 2) + F2(1, 1009)))
    _raises_within(5, DepthExceeded, rotation_interval, F)


def test_stern_brocot_default_bound_stops_rigid_rotation():
    # a Fibonacci ratio climbs the Stern-Brocot tree geometrically; the
    # powers of a rigid rotation keep one breakpoint, so the search reaches
    # the default bound 10^6 at once
    F = Lifting((F2(0),), (F2(832040, 1346269),))
    _raises_within(10, DepthExceeded, rotation_interval, F)


def test_stern_brocot_work_budget_stops_search():
    # slopes 14/15 and 16/15: the power F^q has about 2q breakpoints whose
    # denominators grow with q, so far below the default bound the search
    # would run for minutes; the budget on composed bits stops it
    F = Lifting((F2(0), F2(1, 2)), (F2(1, 3), F2(4, 5)))
    _raises_within(10, DepthExceeded, rotation_interval, F)


def test_stern_brocot_breakpoint_budget_stops_search(monkeypatch):
    # the same map with the bit budget lifted: the breakpoint count alone,
    # lowered here so that it trips within a few powers, stops the search
    monkeypatch.setattr(lifting, "_COMPOSE_BITS", 10**15)
    monkeypatch.setattr(lifting, "_COMPOSE_BREAKPOINTS", 1000)
    F = Lifting((F2(0), F2(1, 2)), (F2(1, 3), F2(4, 5)))
    _raises_within(10, DepthExceeded, rotation_interval, F)


def test_long_stern_brocot_chain_still_resolves():
    # rotation 1/1009 walks 1/2, 1/3, ..., 1/1009: rigid powers stay small
    F = Lifting((F2(0), F2(1, 2)), (F2(1, 1009), F2(1, 2) + F2(1, 1009)))
    assert rotation_interval(F) == RotationInterval(F2(1, 1009), F2(1, 1009))


def test_balance_degree_budget_stops_beta():
    # degree 1 + 10^6 + 2: building the two balance polynomials alone would
    # take about a second, isolating their root minutes
    _raises_within(1, BudgetExceeded, beta, F2(0), F2(1, 10**6))


def test_balance_degree_budget_admits_the_beta_grid(monkeypatch):
    # every interval of the benchmark's beta grid, and (0, 1/64000), builds
    # its balance polynomials
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    for c, d in workloads.BETA_GRID + [(F2(0), F2(1, 64000))]:
        assert q_balance(c, d)[0].degree == c.denominator + d.denominator + 2
        r_balance(c, d)
