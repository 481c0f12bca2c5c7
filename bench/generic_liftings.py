#!/usr/bin/env python3
"""Reproduction of the known gap: generic liftings are not benchmarked.

Builds seeded random pairs of twist orbits (periods 2..14, random shifts
coprime to the period, random interleaving of the two orbits on [0,1)) and
times `per_from_rotation` on each map's Markov system.  Such maps, with only
13-14 classes, can take minutes: `per_from_rotation` runs the oracle
`periods_up_to` up to the M(c,d) tail threshold, and the loop enumeration
behind it can pass its cap (BudgetExceeded).

    python3 bench/generic_liftings.py --seed 0 --count 20 --limit 60

Each map prints one line: index, the two rotation numbers, class count and
the seconds taken, or the error / the limit it hit.  This is a diagnostic for
a later fix, not a benchmark workload.
"""

from __future__ import annotations

import argparse
import math
import random
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from circledyn.errors import CircledynError  # noqa: E402
from circledyn.lifting import LiftedOrbit, build_from_orbits  # noqa: E402
from circledyn.markov import build_markov_system  # noqa: E402
from circledyn.periods import per_from_rotation  # noqa: E402


class LimitReached(Exception):
    pass


def random_orbit_pair(rng: random.Random) -> tuple[LiftedOrbit, LiftedOrbit]:
    """Two twist orbits with periods in 2..14, interleaved at random on the
    equally spaced points j/N."""
    shapes = []
    for _ in range(2):
        q = rng.randint(2, 14)
        p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
        shapes.append((q, p))
    (q1, p1), (q2, p2) = shapes
    labels = [0] * q1 + [1] * q2
    rng.shuffle(labels)
    N = q1 + q2
    xs = [Fraction(j, N) for j, lab in enumerate(labels) if lab == 0]
    ys = [Fraction(j, N) for j, lab in enumerate(labels) if lab == 1]
    return LiftedOrbit(tuple(xs), p1), LiftedOrbit(tuple(ys), p2)


def _alarm(signum, frame):
    raise LimitReached


def main() -> int:
    ap = argparse.ArgumentParser(description="time per_from_rotation on random twist-orbit pairs")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--limit", type=int, default=60, help="seconds allowed per map")
    args = ap.parse_args()
    rng = random.Random(args.seed)
    signal.signal(signal.SIGALRM, _alarm)
    for i in range(args.count):
        x, y = random_orbit_pair(rng)
        head = f"{i:4d} rot {x.rotation}, {y.rotation}"
        try:
            F = build_from_orbits([x, y])
            M = build_markov_system(F)
        except CircledynError as e:
            print(f"{head}: skipped at build ({type(e).__name__})", flush=True)
            continue
        t0 = time.perf_counter()
        signal.alarm(args.limit)
        try:
            per = per_from_rotation(F, M)
            outcome = f"{per}"
        except LimitReached:
            outcome = f"stopped at the {args.limit} s limit"
        except CircledynError as e:
            outcome = f"{type(e).__name__}: {e}"
        finally:
            signal.alarm(0)
        print(f"{head} classes {M.size}: {time.perf_counter() - t0:.2f} s, {outcome}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
