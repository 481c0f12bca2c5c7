"""Independent Perron check of an entropy bracket, for the tests only.

`above_perron(system, x)` decides x > sigma(M), sigma the spectral radius of
the covering matrix, for rational x > 0 without forming the characteristic
polynomial.  For a nonnegative M, x > sigma(M) if and only if I - M/x is a
nonsingular M-matrix (Berman & Plemmons, *Nonnegative Matrices in the
Mathematical Sciences*, ch. 6).  The vertices outside a rome carry no loop,
so the block of I - M/x on them is one, and then I - M/x is one if and only
if its Schur complement on the rome is: I - M_R(1/x), M_R(y) summing
y^length over the paths r_i -> r_j with no member inside (Block,
Guckenheimer, Misiurewicz & Young 1980).  That Z-matrix is a nonsingular
M-matrix if and only if its leading principal minors are positive.

M_R comes from `graph_reference.per_vertex_rome_matrix` on `find_rome`'s
rome, the rome `rome_char_poly` reads its rows off.  Scaled by p^top for
x = p/q it is an integer matrix with minors of the same signs.  Its leading
principal minors come from Berkowitz's division-free recurrence: each
leading block's characteristic polynomial from the one before.
"""

from __future__ import annotations

from fractions import Fraction

from graph_reference import per_vertex_rome_matrix

from circledyn.markov import find_rome


def above_perron(system, x) -> bool:
    """Whether the rational x > 0 lies strictly above sigma(M)."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("x must be positive")
    _, rm = per_vertex_rome_matrix(system, find_rome(system))
    p, q = x.numerator, x.denominator  # y = 1/x = q/p
    top = max((len(e.coeffs) - 1 for row in rm for e in row), default=0)

    def scaled(e):  # p^top e(q/p), over e's nonzero terms
        return sum(c * q**k * p ** (top - k) for k, c in enumerate(e.coeffs) if c)

    a = [[(p**top if i == j else 0) - scaled(e) for j, e in enumerate(row)] for i, row in enumerate(rm)]
    return all(minor > 0 for minor in leading_minors(a))


def leading_minors(a):
    """The leading principal minors of the square integer matrix a, in
    order and without a division (Berkowitz).  With A_r the r-th leading
    block, head = A[r][:r], col = A[:r][r] and t = (1, -A[r][r],
    -head.col, -head.A_r.col, ..., -head.A_r^(r-1).col), the coefficients of
    det(zI - A_(r+1)), highest first, are t convolved with those of
    det(zI - A_r); the minor is (-1)^(r+1) times the constant term."""
    char = [1]
    for r, row in enumerate(a):
        head, col = row[:r], [a[i][r] for i in range(r)]
        t = [1, -row[r]]
        for k in range(r):
            if k:
                col = [sum(x * y for x, y in zip(a[i][:r], col)) for i in range(r)]
            t.append(-sum(x * y for x, y in zip(head, col)))
        char = [sum(t[k - j] * c for j, c in enumerate(char[: k + 1])) for k in range(r + 2)]
        yield char[-1] if r % 2 else -char[-1]
