"""Dense integer-polynomial references for the tests: the characteristic
polynomial by Bareiss over Z[x], the check on the packed rome method, and the
exact sign by Horner over every coefficient, the check on the sparse
`IntPolynomial.sign_at`.
"""

from __future__ import annotations

from fractions import Fraction

from circledyn.arith import IntPolynomial, bareiss_det


def char_poly(matrix) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - M) of a square integer matrix, by
    `bareiss_det` over Z[x]: no packing, so it checks the packed rome method."""
    if not matrix:
        return IntPolynomial([1])
    return bareiss_det([[IntPolynomial([-a, i == j]) for j, a in enumerate(row)] for i, row in enumerate(matrix)])


def dense_sign_at(p: IntPolynomial, x: Fraction) -> int:
    """Sign of p(x) for x = a/b, from b^d p(a/b) = sum c_i a^i b^(d-i) by
    Horner over all d + 1 coefficients, zeros included."""
    a, b = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(p.coeffs):
        acc = acc * a + c * scale
        scale *= b
    return (acc > 0) - (acc < 0)
