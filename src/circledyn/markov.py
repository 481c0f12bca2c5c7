"""Markov partitions modulo 1, covering graphs, romes and entropy.

A MarkovSystem holds the partition (one fundamental domain), the basic
interval classes (consecutive partition points, wrap included), the 0/1
transition matrix of the covering relation, the integer translate realizing
each covering, and the orientation of the map on each class.  It also keeps
the map on the partition as integers (the lifted index of each point's image)
and the affine branch of the map on each class, so that later stages walk
indices and compose branches instead of evaluating the lifting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .arith import CertifiedRoot, IntPolynomial, floor_frac, largest_root_above, rat_str
from .errors import BudgetExceeded, InvalidRome, NoRootAbove, NotInvariant, NotShort
from .lifting import Lifting

_CLOSURE_BUDGET = 100000
DEFAULT_LOOP_CAP = 10**6


@dataclass(frozen=True)
class MarkovSystem:
    lifting: Lifting
    partition: tuple  # sorted Fractions in [0,1)
    classes: tuple  # (a, b) representatives; last one wraps to partition[0]+1
    matrix: tuple  # 0/1 rows
    shifts: tuple  # integer translate k of each covering: F(rep_i) >= rep_j + k
    orientation: tuple  # +1 increasing, -1 decreasing, 0 degenerate
    index_map: tuple  # lifted index G[i] = j + n*k for F(partition[i]) = partition[j] + k
    branches: tuple  # (slope, offset) of F on each class: F(x) = slope*x + offset

    @property
    def size(self) -> int:
        return len(self.classes)

    @property
    def class_names(self) -> list[str]:
        return [f"[{rat_str(a)},{rat_str(b)}]" for (a, b) in self.classes]

    def out_degree(self, i: int) -> int:
        return sum(self.matrix[i])

    def arrows(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(self.size)
            for j in range(self.size)
            if self.matrix[i][j]
        ]

    def to_json(self) -> dict:
        return {
            "classes": self.class_names,
            "arrows": [[i, j] for (i, j) in self.arrows()],
            "orientation": list(self.orientation),
        }


def build_markov_system(F: Lifting, extra_points: Iterable = ()) -> MarkovSystem:
    """Markov system modulo 1 generated by the breakpoints and extra points.

    The point set is closed under the circle map; NotInvariant if the forward
    closure does not terminate within budget, NotShort if some basic interval
    has an image of length >= 1 (the partition would not project to a Markov
    partition of the circle map).

    Lifted index L stands for the point partition[L mod n] + L div n, and the
    lifted class L for [point L, point L+1].  With F(partition[i]) at lifted
    index G[i], class i (affine, since every breakpoint is a partition point)
    covers exactly the lifted classes min(G[i],G[i+1]) .. max(G[i],G[i+1])-1,
    where G[n] = G[0] + n closes the wrap class.
    """
    images = {}
    pts = {b for b in F.breakpoints}
    for p in extra_points:
        p = Fraction(p)
        pts.add(p - floor_frac(p))
    frontier = list(pts)
    while frontier:
        if len(pts) > _CLOSURE_BUDGET:
            raise NotInvariant("forward closure of the partition does not stabilize")
        x = frontier.pop()
        y = images[x] = F.eval(x)
        y -= floor_frac(y)
        if y not in pts:
            pts.add(y)
            frontier.append(y)
    partition = tuple(sorted(pts))
    n = len(partition)
    if n < 2:
        raise NotInvariant("need at least two partition points mod 1")

    index = {p: i for i, p in enumerate(partition)}
    G = []
    for p in partition:
        y = images[p]
        k = floor_frac(y)
        G.append(index[y - k] + n * k)
    ends = partition + (partition[0] + 1,)
    values = [images[p] for p in partition] + [images[partition[0]] + 1]
    lifted = G + [G[0] + n]

    classes = [(ends[i], ends[i + 1]) for i in range(n)]
    matrix = [[0] * n for _ in range(n)]
    shifts = [[0] * n for _ in range(n)]
    orientation = []
    branches = []
    for i, (a, b) in enumerate(classes):
        g0, g1 = lifted[i], lifted[i + 1]
        if abs(g1 - g0) >= n:
            length = abs(values[i + 1] - values[i])
            raise NotShort(f"class [{rat_str(a)},{rat_str(b)}] has image length {length} >= 1")
        orientation.append((g1 > g0) - (g1 < g0))
        slope = (values[i + 1] - values[i]) / (b - a)
        branches.append((slope, values[i] - slope * a))
        row, srow = matrix[i], shifts[i]
        for L in range(min(g0, g1), max(g0, g1)):
            k, j = divmod(L, n)
            row[j] = 1
            srow[j] = k

    return MarkovSystem(
        lifting=F,
        partition=partition,
        classes=tuple(classes),
        matrix=tuple(tuple(r) for r in matrix),
        shifts=tuple(tuple(r) for r in shifts),
        orientation=tuple(orientation),
        index_map=tuple(G),
        branches=tuple(branches),
    )


# ---------------------------------------------------------------------------
# Transitivity certificate
# ---------------------------------------------------------------------------


def _strongly_connected(matrix: Sequence[Sequence[int]]) -> bool:
    n = len(matrix)
    if n == 0:
        return False
    if n == 1:
        return matrix[0][0] > 0

    def reach(start: int, rows) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in range(n):
                if rows[v][w] and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    transpose = [[matrix[j][i] for j in range(n)] for i in range(n)]
    return len(reach(0, matrix)) == n and len(reach(0, transpose)) == n


def _is_permutation(matrix: Sequence[Sequence[int]]) -> bool:
    n = len(matrix)
    return all(sum(matrix[i]) == 1 for i in range(n)) and all(
        sum(matrix[i][j] for i in range(n)) == 1 for j in range(n)
    )


def transitivity_certificate(system) -> dict:
    """{'irreducible', 'permutation', 'transitive'} for any object carrying a
    0/1 `matrix`; transitive = irreducible and not a permutation matrix.
    Irreducibility belongs to this matrix, so it depends on the partition:
    refining the rigid 1/2-rotation from two classes to four splits its single
    2-cycle into two, and the certificate turns reducible."""
    m = system.matrix if hasattr(system, "matrix") else system
    irr = _strongly_connected(m)
    perm = _is_permutation(m)
    return {"irreducible": irr, "permutation": perm, "transitive": irr and not perm}


# ---------------------------------------------------------------------------
# Romes and the rome method
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rome:
    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))


def _complement_cycle(matrix, members) -> Optional[list[int]]:
    """A loop avoiding `members`, or None (iterative 3-color DFS)."""
    n = len(matrix)
    color = {}
    for root in range(n):
        if root in members or color.get(root) == 2:
            continue
        stack = [(root, 0)]
        path = []
        while stack:
            v, idx = stack.pop()
            if idx == 0:
                color[v] = 1
                path.append(v)
            advanced = False
            for w in range(idx, n):
                if not matrix[v][w] or w in members:
                    continue
                if color.get(w) == 1:
                    return path[path.index(w):] + [w]
                if color.get(w, 0) == 0:
                    stack.append((v, w + 1))
                    stack.append((w, 0))
                    advanced = True
                    break
            if not advanced:
                color[v] = 2
                path.pop()
    return None


def validate_rome(system, rome: Rome) -> None:
    cyc = _complement_cycle(system.matrix, rome.members)
    if cyc is not None:
        raise InvalidRome(f"loop avoiding the rome: {cyc}")


def find_rome(system) -> Rome:
    """Greedy rome: all vertices of out-degree >= 2, then one vertex from each
    remaining cycle of the (now functional) complement graph."""
    matrix = system.matrix
    n = len(matrix)
    members = {i for i in range(n) if sum(matrix[i]) >= 2}
    while True:
        cyc = _complement_cycle(matrix, members)
        if cyc is None:
            break
        members.add(cyc[0])
    rome = Rome(frozenset(members))
    validate_rome(system, rome)
    return rome


def rome_matrix(system, rome: Rome):
    """(sorted members, m x m matrix of IntPolynomials in y = 1/x).

    Entry (i,j) counts simple rome paths r_i -> r_j by length: the coefficient
    of y^l is the number of such paths of length l, computed by a dynamic
    program over the (acyclic, by rome validity) complement.
    """
    validate_rome(system, rome)
    matrix = system.matrix
    n = len(matrix)
    members = sorted(rome.members)
    comp = [v for v in range(n) if v not in rome.members]

    indeg = {v: 0 for v in comp}
    compset = set(comp)
    succ = [[w for w in range(n) if matrix[v][w]] for v in range(n)]
    for v in comp:
        for w in succ[v]:
            if w in compset:
                indeg[w] += 1
    topo = [v for v in comp if indeg[v] == 0]
    queue = list(topo)
    while queue:
        v = queue.pop()
        for w in succ[v]:
            if w in compset:
                indeg[w] -= 1
                if indeg[w] == 0:
                    topo.append(w)
                    queue.append(w)
    assert len(topo) == len(comp)

    y = IntPolynomial([0, 1])
    entries = []
    for rj in members:
        g = {v: IntPolynomial.zero() for v in comp}
        for v in reversed(topo):
            acc = IntPolynomial.zero()
            for w in succ[v]:
                if w == rj:
                    acc = acc + IntPolynomial([1])
                if w in compset and not g[w].is_zero():
                    acc = acc + g[w]
            g[v] = y * acc if not acc.is_zero() else acc
        col = {}
        for ri in members:
            acc = IntPolynomial.zero()
            for w in succ[ri]:
                if w == rj:
                    acc = acc + IntPolynomial([1])
                if w in compset and not g[w].is_zero():
                    acc = acc + g[w]
            col[ri] = y * acc if not acc.is_zero() else acc
        entries.append(col)

    rm = [[entries[jc][members[ir]] for jc in range(len(members))] for ir in range(len(members))]
    return members, rm


def rome_char_poly(system, rome: Rome) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - M) via the rome method:
    (-1)^(k-m) x^k det(M_R(x) - I) normalized to the monic convention."""
    matrix = system.matrix
    n = len(matrix)
    members, rm = rome_matrix(system, rome)
    m = len(members)
    if m == 0:
        return IntPolynomial.monomial(1, n)  # acyclic graph
    a = [
        [rm[i][j] - (IntPolynomial([1]) if i == j else IntPolynomial.zero()) for j in range(m)]
        for i in range(m)
    ]
    det = _poly_det(a)
    if det.is_zero():
        raise ArithmeticError("rome determinant vanished identically")
    if det.degree > n:
        raise ArithmeticError("rome path length exceeded matrix size")
    coeffs = [0] * (n + 1)
    for j, c in enumerate(det.coeffs):
        coeffs[n - j] = c
    p = IntPolynomial(coeffs)
    if p.leading() < 0:
        p = -p
    assert p.leading() == 1 and p.degree == n
    return p


def _poly_det(a: list[list[IntPolynomial]]) -> IntPolynomial:
    """Determinant over Z[y] by expansion with shared minors (column masks)."""
    m = len(a)
    memo: dict[tuple[int, int], IntPolynomial] = {}

    def minor(row: int, mask: int) -> IntPolynomial:
        if row == m:
            return IntPolynomial([1])
        key = (row, mask)
        if key in memo:
            return memo[key]
        det = IntPolynomial.zero()
        sign = 1
        for j in range(m):
            if not (mask >> j) & 1:
                continue
            if not a[row][j].is_zero():
                term = a[row][j] * minor(row + 1, mask & ~(1 << j))
                det = det + (term if sign > 0 else -term)
            sign = -sign
        memo[key] = det
        return det

    return minor(0, (1 << m) - 1)


def markov_char_poly(system) -> IntPolynomial:
    """Characteristic polynomial through the rome method with a found rome."""
    return rome_char_poly(system, find_rome(system))


def perron_bracket(
    system, tol: Fraction = Fraction(1, 10**12), char: Optional[IntPolynomial] = None
) -> CertifiedRoot:
    """Certified bracket for the largest real eigenvalue above 1: the largest
    root above 1 of the rome characteristic polynomial, isolated by an exact
    root count.  `char` is that polynomial when the caller already has it."""
    if char is None:
        char = markov_char_poly(system)
    return largest_root_above(char, Fraction(1), tol)


def entropy(
    system, tol: Fraction = Fraction(1, 10**12), char: Optional[IntPolynomial] = None
) -> CertifiedRoot:
    """Certified bracket for the spectral radius sigma(M); entropy is its log.

    The bracket holds the largest real root above 1 of the characteristic
    polynomial, and the exact root count certifies that no real root lies
    above it; for a nonnegative matrix that root is the spectral radius.  The
    exact bracket [1, 1] is returned when the count finds no root above 1
    (permutation-like or union-of-cycles systems); a transitive system, whose
    Perron root must exceed 1, re-raises instead.  A repeated Perron root
    (a reducible system with two equal components) cannot be isolated and
    raises BudgetExceeded."""
    try:
        return perron_bracket(system, tol, char)
    except NoRootAbove:
        if transitivity_certificate(system)["transitive"]:
            raise
        return CertifiedRoot(Fraction(1), Fraction(1))


# ---------------------------------------------------------------------------
# Loop enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Loop:
    vertices: tuple  # canonical rotation (lexicographically minimal)
    sign: int
    simple: bool

    @property
    def length(self) -> int:
        return len(self.vertices)


def _canonical_rotation(word: tuple) -> tuple:
    rotations = [word[i:] + word[:i] for i in range(len(word))]
    return min(rotations)


def _word_period(word: tuple) -> int:
    L = len(word)
    for p in range(1, L + 1):
        if L % p == 0 and all(word[i] == word[i % p] for i in range(L)):
            return p
    return L


def enumerate_loops(system, max_len: int, cap: int = DEFAULT_LOOP_CAP) -> list[Loop]:
    """All loops of length <= max_len up to cyclic rotation.

    Closed walks are enumerated by DFS from each start vertex, pruned to walks
    whose minimal vertex is the start and by shortest-return distance; results
    are canonicalized by minimal rotation.  BudgetExceeded past `cap`.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    matrix = system.matrix
    orientation = getattr(system, "orientation", None) or (1,) * len(matrix)
    n = len(matrix)
    succ = [[w for w in range(n) if matrix[v][w]] for v in range(n)]

    pred = [[u for u in range(n) if matrix[u][w]] for w in range(n)]
    found: dict[tuple, None] = {}
    explored = 0
    for start in range(n):
        # dist[v] = shortest path length v -> start (BFS on reversed arrows)
        dist: list[Optional[int]] = [None] * n
        dist[start] = 0
        queue = [start]
        qi = 0
        while qi < len(queue):
            w = queue[qi]
            qi += 1
            for u in pred[w]:
                if dist[u] is None:
                    dist[u] = dist[w] + 1
                    queue.append(u)
        returns = [1 + dist[u] for u in succ[start] if dist[u] is not None]
        start_return = min(returns) if returns else None

        stack = [(start, (start,))]
        while stack:
            v, path = stack.pop()
            explored += 1
            if explored > cap:
                raise BudgetExceeded(f"loop enumeration passed cap {cap}")
            for w in succ[v]:
                if w < start:
                    continue
                if w == start:
                    word = _canonical_rotation(path)
                    if word not in found:
                        if len(found) >= cap:
                            raise BudgetExceeded(f"loop count passed cap {cap}")
                        found[word] = None
                rem = dist[w] if w != start else start_return
                if rem is not None and len(path) + rem <= max_len:
                    stack.append((w, path + (w,)))

    loops = []
    for word in sorted(found):
        sign = 1
        for v in word:
            sign *= orientation[v]
        loops.append(Loop(vertices=word, sign=sign, simple=_word_period(word) == len(word)))
    return loops
