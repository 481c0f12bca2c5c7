"""Every budget stops with its typed error, and promptly: one adversarial
input per budget, each under a wall-clock bound."""

import time
from fractions import Fraction

import pytest

from circledyn.errors import BudgetExceeded, DepthExceeded, NotInvariant
from circledyn.families import montevideo
from circledyn.lifting import Lifting, rotation_interval
from circledyn.markov import build_markov_system, enumerate_loops

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


def test_stern_brocot_bound_stops_search():
    # rotation 1/1009 needs the denominator 1009, past the bound 100
    F = Lifting((F2(0), F2(1, 2)), (F2(1, 1009), F2(1, 2) + F2(1, 1009)))
    _raises_within(5, DepthExceeded, rotation_interval, F, denominator_bound=100)
