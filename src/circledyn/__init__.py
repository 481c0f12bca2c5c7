"""circledyn: exact combinatorial dynamics of degree-one circle maps.

Rotation intervals, Markov graphs modulo 1, sets of periods via Misiurewicz's
theorem, topological entropy through the rome method, boundary-of-cofiniteness
statistics, the minimal entropy of a rotation interval, and combinatorial
graph extensions -- everything over exact rational/integer arithmetic with
certified brackets where real roots are unavoidable.
"""
