"""circledyn: exact combinatorial dynamics of degree-one circle maps.

Rotation intervals, Markov graphs modulo 1, sets of periods via Misiurewicz's
theorem, topological entropy through the rome method, boundary-of-cofiniteness
statistics, the minimal entropy of a rotation interval, and combinatorial
graph extensions -- everything over exact rational/integer arithmetic with
certified brackets where real roots are unavoidable.
"""

from .arith import (
    CertifiedRoot,
    IntPolynomial,
    char_poly,
    largest_root_above,
    sharkovskii_geq,
)
from .cofiniteness import CofinitenessReport, bc, dens_low_per, sbc, sbcset
from .families import FamilyInstance, dream, make, montevideo, mts1_scan, persistent, verify
from .graphext import CombGraph, ExtendedMarkov, extend, traversal, verify_extension
from .lifting import (
    LiftedOrbit,
    Lifting,
    RotationInterval,
    build_from_orbits,
    rotation_interval,
    rotation_number_monotone,
    upper_lower,
)
from .markov import (
    MarkovSystem,
    Rome,
    build_markov_system,
    entropy,
    enumerate_loops,
    find_rome,
    partition_rotation_interval,
    rome_char_poly,
    transitivity_certificate,
)
from .minentropy import BetaResult, beta
from .oracle import PeriodicWitness, periods_up_to
from .periods import PeriodSet, endpoint_periods, m_set, per_from_rotation

__all__ = [
    "CertifiedRoot",
    "IntPolynomial",
    "char_poly",
    "largest_root_above",
    "sharkovskii_geq",
    "CofinitenessReport",
    "bc",
    "dens_low_per",
    "sbc",
    "sbcset",
    "FamilyInstance",
    "dream",
    "make",
    "montevideo",
    "mts1_scan",
    "persistent",
    "verify",
    "CombGraph",
    "ExtendedMarkov",
    "extend",
    "traversal",
    "verify_extension",
    "LiftedOrbit",
    "Lifting",
    "RotationInterval",
    "build_from_orbits",
    "rotation_interval",
    "rotation_number_monotone",
    "upper_lower",
    "MarkovSystem",
    "Rome",
    "build_markov_system",
    "entropy",
    "enumerate_loops",
    "find_rome",
    "partition_rotation_interval",
    "rome_char_poly",
    "transitivity_certificate",
    "BetaResult",
    "beta",
    "PeriodicWitness",
    "periods_up_to",
    "PeriodSet",
    "endpoint_periods",
    "m_set",
    "per_from_rotation",
]
