"""Markov partitions modulo 1, covering graphs, romes and entropy.

A MarkovSystem holds the partition (one fundamental domain), the basic
interval classes (consecutive partition points, wrap included), the map on
the partition as integers (the lifted index of each point's image), the
affine branch of the map on each class, the covering arrows with the integer
translate realizing each one, and the orientation of the map on each class.
Later stages walk indices and arrows and compose branches instead of
evaluating the lifting; the dense covering matrix is a view built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from typing import Iterable, Optional

from .arith import CertifiedRoot, IntPolynomial, bareiss_det, floor_frac, largest_root_above, rat_str
from .errors import BudgetExceeded, InvalidRome, NoRootAbove, NotInvariant, NotShort, RotationMismatch
from .lifting import Lifting, RotationInterval

_CLOSURE_BUDGET = 100000
_CLOSURE_BITS = 10**6  # total denominator bit length of the closure
DEFAULT_LOOP_CAP = 10**6


@dataclass(frozen=True)
class MarkovSystem:
    """The map on its partition, held as integers plus one arrow list.

    `index_map`, `branches` and `coverings` are the only graph data; the dense
    `matrix` and `shifts` tables are views derived from `coverings` on first
    use and cached, for reports and tests.  The scan never builds them.
    """

    lifting: Lifting
    partition: tuple  # sorted Fractions in [0,1)
    classes: tuple  # (a, b) representatives; last one wraps to partition[0]+1
    orientation: tuple  # +1 increasing, -1 decreasing, 0 degenerate
    index_map: tuple  # lifted index G[i] = j + n*k for F(partition[i]) = partition[j] + k
    branches: tuple  # (slope, offset) of F on each class: F(x) = slope*x + offset
    coverings: tuple  # arrows (i, j, k), class i covers class j + k, in (i, j) order

    @property
    def size(self) -> int:
        return len(self.classes)

    @property
    def class_names(self) -> list[str]:
        return [f"[{rat_str(a)},{rat_str(b)}]" for (a, b) in self.classes]

    @cached_property
    def matrix(self) -> tuple:
        """0/1 covering matrix (a view of `coverings`)."""
        return self._dense(lambda k: 1)

    @cached_property
    def shifts(self) -> tuple:
        """Integer translate k of each covering, F(rep_i) >= rep_j + k, and 0
        off the arrows (a view of `coverings`)."""
        return self._dense(lambda k: k)

    def _dense(self, entry) -> tuple:
        rows = [[0] * self.size for _ in self.classes]
        for i, j, k in self.coverings:
            rows[i][j] = entry(k)
        return tuple(map(tuple, rows))

    def out_degree(self, i: int) -> int:
        """Class i covers the lifted classes between its end indices."""
        G, n = self.index_map, self.size
        return abs((G[i + 1] if i + 1 < n else G[0] + n) - G[i])

    def arrows(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j, _ in self.coverings]

    def to_json(self) -> dict:
        return {
            "classes": self.class_names,
            "arrows": [[i, j] for (i, j) in self.arrows()],
            "orientation": list(self.orientation),
        }


def build_markov_system(F: Lifting, extra_points: Iterable = ()) -> MarkovSystem:
    """Markov system modulo 1 generated by the breakpoints and extra points.

    The point set is closed under the circle map; NotInvariant if the forward
    closure does not terminate within budget (a point count, and a total
    denominator bit length for closures whose denominators keep growing),
    NotShort if some basic interval has an image of length >= 1 (the
    partition would not project to a Markov partition of the circle map).
    The closure reads the images of breakpoints off F.values and evaluates F
    only at the other points.

    After the closure everything is integer: on the common denominator D of
    the partition, point p is the key X = p*D and its image the integer
    Y = F(p)*D, so the index map comes from divmod(Y, D) and each branch
    from integer differences of consecutive (X, Y).  Lifted index L stands
    for the point partition[L mod n] + L div n, and the lifted class L for
    [point L, point L+1].  With F(partition[i]) at lifted index G[i], class i
    (affine, since every breakpoint is a partition point) covers exactly the
    lifted classes min(G[i],G[i+1]) .. max(G[i],G[i+1])-1, where
    G[n] = G[0] + n closes the wrap class.
    """
    images = dict(zip(F.breakpoints, F.values))
    pts = set(images)
    for p in extra_points:
        p = Fraction(p)
        pts.add(p - floor_frac(p))
    frontier = list(pts)
    bits = sum(p.denominator.bit_length() for p in pts)
    while frontier:
        if len(pts) > _CLOSURE_BUDGET or bits > _CLOSURE_BITS:
            raise NotInvariant("forward closure of the partition does not stabilize")
        x = frontier.pop()
        y = images.get(x)
        if y is None:
            y = images[x] = F.eval(x)
        y -= floor_frac(y)
        if y not in pts:
            pts.add(y)
            frontier.append(y)
            bits += y.denominator.bit_length()
    n = len(pts)
    if n < 2:
        raise NotInvariant("need at least two partition points mod 1")

    D = lcm(*(p.denominator for p in pts))
    keyed = sorted((p.numerator * (D // p.denominator), p) for p in pts)
    partition = tuple(p for _, p in keyed)
    X = [key for key, _ in keyed]
    index = {key: i for i, key in enumerate(X)}
    Y = []
    G = []
    for p in partition:
        y = images[p]
        Y.append(y.numerator * (D // y.denominator))
        k, r = divmod(Y[-1], D)
        G.append(index[r] + n * k)
    ends = partition + (partition[0] + 1,)
    X.append(X[0] + D)
    Y.append(Y[0] + D)
    G.append(G[0] + n)

    classes = tuple((ends[i], ends[i + 1]) for i in range(n))
    orientation = []
    branches = []
    coverings = []
    for i in range(n):
        g0, g1 = G[i], G[i + 1]
        dx, dy = X[i + 1] - X[i], Y[i + 1] - Y[i]
        if abs(g1 - g0) >= n:
            a, b = classes[i]
            length = Fraction(abs(dy), D)
            raise NotShort(f"class [{rat_str(a)},{rat_str(b)}] has image length {length} >= 1")
        orientation.append((g1 > g0) - (g1 < g0))
        branches.append((Fraction(dy, dx), Fraction(Y[i] * dx - dy * X[i], D * dx)))
        # lifted classes lo..hi-1 (fewer than n) in class order: those past
        # the turn, classes 0.. at turn q+1 (all below r), then r..top-1 at q
        lo, hi = min(g0, g1), max(g0, g1)
        q, r = divmod(lo, n)
        top = min(hi - q * n, n)
        coverings.extend((i, j, q + 1) for j in range(hi - (q + 1) * n))
        coverings.extend((i, j, q) for j in range(r, top))

    return MarkovSystem(
        lifting=F,
        partition=partition,
        classes=classes,
        orientation=tuple(orientation),
        index_map=tuple(G[:n]),
        branches=tuple(branches),
        coverings=tuple(coverings),
    )


def partition_rotation_interval(system: MarkovSystem) -> RotationInterval:
    """Rot(F) = [rho(F_l), rho(F_u)] from the lifted index map alone, exactly.

    F is affine between partition points, so on them the lower map
    F_l(x) = min F[x, x+1] and the upper map F_u(x) = max F[x-1, x] take
    partition values: G_l[i] = min G[i..i+n) and G_u[i] = max G(i-n..i], a
    suffix minimum and a prefix maximum over G doubled (G[j+n] = G[j] + n).
    The orbit of point 0 under either monotone map repeats mod 1 within n
    steps; a repeat after m steps, K turns higher, gives rho = K/m.
    """
    n = system.size
    doubled = list(system.index_map) + [g + n for g in system.index_map]
    lower = list(accumulate(reversed(doubled), min))[::-1][:n]
    upper = [g - n for g in list(accumulate(doubled, max))[n:]]
    rho = []
    for E in (lower, upper):
        seen, L = {}, 0  # point L mod n -> (step, L) along the orbit of point 0
        while L % n not in seen:
            seen[L % n] = (len(seen), L)
            L = E[L % n] + L - L % n
        step, L0 = seen[L % n]
        rho.append(Fraction((L - L0) // n, len(seen) - step))
    return RotationInterval(*rho)


def _successors(system) -> list[list[int]]:
    """Sorted successor lists of the covering graph: from the arrow list of a
    MarkovSystem, or from the 0/1 `matrix` of any other system."""
    arrows = getattr(system, "coverings", None)
    if arrows is None:
        return [[j for j, a in enumerate(row) if a] for row in system.matrix]
    succ = [[] for _ in system.classes]
    for i, j, _ in arrows:
        succ[i].append(j)
    return succ


def _reverse(succ) -> list[list[int]]:
    pred = [[] for _ in succ]
    for v, out in enumerate(succ):
        for w in out:
            pred[w].append(v)
    return pred


def _components(succ) -> list[int]:
    """Strongly connected component label of each vertex (iterative Kosaraju)."""
    n = len(succ)
    order, seen = [], [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    pred = _reverse(succ)
    comp = [-1] * n
    for root in reversed(order):
        if comp[root] < 0:
            comp[root] = root
            stack = [root]
            while stack:
                for u in pred[stack.pop()]:
                    if comp[u] < 0:
                        comp[u] = root
                        stack.append(u)
    return comp


def critical_successors(system: MarkovSystem, e: Fraction, side: int) -> list[list[int]]:
    """Successor lists of the arrows on loops of mean (shift / length) exactly
    e = r/s, where side = +1 if e is the least loop mean and -1 if the largest.

    Bellman-Ford potentials pi for the weights side*(s*k - r) make every
    reduced cost w + pi(i) - pi(j) >= 0, so a loop has mean e iff all its
    arrows are tight (reduced cost 0): the tight arrows inside one strongly
    connected component of the tight graph (Karp 1978).  RotationMismatch if
    an arrow still relaxes after n rounds (a loop of mean beyond e) or if no
    loop has mean e."""
    r, s = e.numerator, e.denominator
    n = system.size
    arcs = [(i, j, side * (s * k - r)) for i, j, k in system.coverings]
    pi = [0] * n
    for _ in range(n + 1):
        changed = False
        for i, j, w in arcs:
            if pi[i] + w < pi[j]:
                pi[j] = pi[i] + w
                changed = True
        if not changed:
            break
    else:
        raise RotationMismatch(f"a loop has mean beyond {rat_str(e)}")
    tight = [[] for _ in range(n)]
    for i, j, w in arcs:
        if w + pi[i] == pi[j]:
            tight[i].append(j)
    comp = _components(tight)
    succ = [[j for j in tight[i] if comp[j] == comp[i]] for i in range(n)]
    if not any(succ):
        raise RotationMismatch(f"no loop has mean {rat_str(e)}")
    return succ


# ---------------------------------------------------------------------------
# Transitivity certificate
# ---------------------------------------------------------------------------


def transitivity_certificate(system) -> dict:
    """{'irreducible', 'permutation', 'transitive'} for a MarkovSystem or any
    object carrying a 0/1 `matrix`; transitive = irreducible and not a
    permutation matrix.  Irreducibility belongs to this matrix, so it depends
    on the partition: refining the rigid 1/2-rotation from two classes to four
    splits its single 2-cycle into two, and the certificate turns reducible."""
    succ = _successors(system)
    irr = len(set(_components(succ))) == 1 and (len(succ) > 1 or succ == [[0]])
    perm = sorted(succ) == [[j] for j in range(len(succ))]  # one 1 in each row and column
    return {"irreducible": irr, "permutation": perm, "transitive": irr and not perm}


# ---------------------------------------------------------------------------
# Romes and the rome method
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rome:
    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))


def _complement_cycle(succ, members) -> Optional[list[int]]:
    """A loop avoiding `members`, or None (iterative 3-color DFS)."""
    color = {}
    for root in range(len(succ)):
        if root in members or root in color:
            continue
        color[root] = 1
        path, stack = [root], [iter(succ[root])]
        while stack:
            for w in stack[-1]:
                if w in members:
                    continue
                if color.get(w) == 1:
                    return path[path.index(w):] + [w]
                if w not in color:
                    color[w] = 1
                    path.append(w)
                    stack.append(iter(succ[w]))
                    break
            else:
                color[path.pop()] = 2
                stack.pop()
    return None


def validate_rome(system, rome: Rome) -> None:
    cyc = _complement_cycle(_successors(system), rome.members)
    if cyc is not None:
        raise InvalidRome(f"loop avoiding the rome: {cyc}")


def find_rome(system) -> Rome:
    """Greedy rome: all vertices of out-degree >= 2, then one vertex from each
    remaining cycle of the (now functional) complement graph.  The loop stops
    only when no loop avoids the members, so the result is a valid rome."""
    succ = _successors(system)
    members = {i for i, out in enumerate(succ) if len(out) >= 2}
    while (cyc := _complement_cycle(succ, members)) is not None:
        members.add(cyc[0])
    return Rome(frozenset(members))


def rome_matrix(system, rome: Rome):
    """(sorted members, m x m matrix of IntPolynomials in y = 1/x).

    Entry (i,j) counts simple rome paths r_i -> r_j by length: the coefficient
    of y^l is the number of such paths of length l.  One pass over the
    complement (acyclic, by rome validity) in reverse topological order
    carries, for each vertex, its path counts to the members as sparse
    {(member, length): count}; on `find_rome`'s romes every complement vertex
    has one successor, so each carries a single term.
    """
    validate_rome(system, rome)
    succ = _successors(system)
    members = sorted(rome.members)
    comp = [v for v in range(len(succ)) if v not in rome.members]

    indeg = dict.fromkeys(comp, 0)
    for v in comp:
        for w in succ[v]:
            if w in indeg:
                indeg[w] += 1
    topo = [v for v in comp if indeg[v] == 0]
    queue = list(topo)
    while queue:
        v = queue.pop()
        for w in succ[v]:
            if w in indeg:
                indeg[w] -= 1
                if indeg[w] == 0:
                    topo.append(w)
                    queue.append(w)
    assert len(topo) == len(comp)

    paths: dict[int, dict] = {}

    def step(v) -> dict:
        """Paths v -> member through the complement, one arrow longer than
        those of v's successors."""
        acc: dict = {}
        for w in succ[v]:
            terms = paths[w].items() if w in paths else [((w, 0), 1)]  # a member ends the path
            for (r, length), count in terms:
                acc[r, length + 1] = acc.get((r, length + 1), 0) + count
        return acc

    for v in reversed(topo):
        paths[v] = step(v)
    col = {r: jc for jc, r in enumerate(members)}
    rm = []
    for ri in members:
        coeffs = [[0] for _ in members]
        for (r, length), count in step(ri).items():
            row = coeffs[col[r]]
            row.extend([0] * (length + 1 - len(row)))
            row[length] += count
        rm.append([IntPolynomial(c) for c in coeffs])
    return members, rm


def rome_char_poly(system, rome: Rome) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - M) via the rome method:
    (-1)^(k-m) x^k det(M_R(x) - I) normalized to the monic convention, with
    the m x m determinant over Z[y] by `bareiss_det`."""
    n = len(_successors(system))
    members, rm = rome_matrix(system, rome)
    m = len(members)
    if m == 0:
        return IntPolynomial.monomial(1, n)  # acyclic graph
    for i in range(m):
        rm[i][i] = rm[i][i] - IntPolynomial([1])
    det = bareiss_det(rm)
    if det.is_zero():
        raise ArithmeticError("rome determinant vanished identically")
    if det.degree > n:
        raise ArithmeticError("rome path length exceeded matrix size")
    p = IntPolynomial((det.coeffs + (0,) * (n - det.degree))[::-1])  # x^n det(1/x)
    if p.leading() < 0:
        p = -p
    assert p.leading() == 1 and p.degree == n
    return p


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


def enumerate_loops(
    system, max_len: int, cap: int = DEFAULT_LOOP_CAP, succ: Optional[list] = None
) -> list[Loop]:
    """All loops of length <= max_len up to cyclic rotation, in the whole
    covering graph or in the subgraph given by the successor lists `succ`.

    Closed walks are enumerated by DFS from each start vertex, pruned to walks
    whose minimal vertex is the start and by shortest-return distance; results
    are canonicalized by minimal rotation.  BudgetExceeded past `cap`.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if succ is None:
        succ = _successors(system)
    n = len(succ)
    orientation = getattr(system, "orientation", None) or (1,) * n
    pred = _reverse(succ)
    found: dict[tuple, None] = {}
    explored = 0
    for start in range(n):
        if not succ[start]:
            continue
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
