"""Markov partitions modulo 1, covering graphs, romes and entropy.

A MarkovSystem holds the partition (one fundamental domain), the basic
interval classes (consecutive partition points, wrap included), the map on
the partition as integers (the partition's keys on its common denominator and
the lifted index of each point's image), the covering arrows with the integer
translate realizing each one, and the orientation of the map on each class.
Later stages walk indices, keys and arrows instead of evaluating the
lifting.  The graph passes here read two things of a system:
`successors` (sorted successor lists of the covering graph) and
`orientation`; a MarkovSystem builds its successor lists from the arrows once,
and any other graph (an extension, a test fixture) carries its own.
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

    On the common denominator D of the partition, point i is the integer key
    X[i] = partition[i]*D, with X[n] = X[0] + D closing the wrap class.  The
    lifted index L stands for the key K(L) = X[L mod n] + (L div n)*D, and
    F(partition[i]) is the point of lifted index G[i] (`index_map`).  F is
    affine on each class, so these integers are the whole map: class i goes
    from key X[i] to X[i+1] onto K(G[i]) .. K(G[i+1]), G[n] = G[0] + n.

    `denominator`, `keys`, `index_map` and `coverings` are the only map and
    graph data.  Views derived from them on first use and cached:
    `successors` for the graph passes, `arrow_steps` and `partition_cycles`
    for the oracle, and the dense 0/1 `matrix` for tests and the benchmark
    tracer (the scan never builds it).
    """

    lifting: Lifting
    partition: tuple  # sorted Fractions in [0,1)
    classes: tuple  # (a, b) representatives; last one wraps to partition[0]+1
    orientation: tuple  # +1 increasing, -1 decreasing, 0 degenerate
    denominator: int  # D, the common denominator of the partition
    keys: tuple  # X[i] = partition[i]*D for i < n, and X[n] = X[0] + D
    index_map: tuple  # lifted index G[i] = j + n*k for F(partition[i]) = partition[j] + k
    coverings: tuple  # arrows (i, j, k), class i covers class j + k, in (i, j) order

    @property
    def size(self) -> int:
        return len(self.classes)

    @property
    def class_names(self) -> list[str]:
        return [f"[{rat_str(a)},{rat_str(b)}]" for (a, b) in self.classes]

    @cached_property
    def successors(self) -> tuple:
        """Sorted successor lists of the covering graph (a view of `coverings`)."""
        succ = [[] for _ in self.classes]
        for i, j, _ in self.coverings:
            succ[i].append(j)
        return tuple(map(tuple, succ))

    @cached_property
    def arrow_steps(self) -> dict:
        """{(i, j): (lo, hi, dx, dy, e, k)} for the arrows (i, j, k) (a view of
        `coverings`): class i runs over the keys lo < x < hi, and F(x) - k on
        the keys is x -> (dy*x + e)/dx."""
        X, G, D, n = self.keys, self.index_map, self.denominator, self.size
        Y = [X[g % n] + g // n * D for g in G + (G[0] + n,)]  # keys of the images
        steps = {}
        for i, j, k in self.coverings:
            dx, dy = X[i + 1] - X[i], Y[i + 1] - Y[i]
            steps[i, j] = (X[i], X[i + 1], dx, dy, (Y[i] - k * D) * dx - X[i] * dy, k)
        return steps

    @cached_property
    def partition_cycles(self) -> tuple:
        """The periodic partition orbits: `index_cycles` of the index map from
        every point; point i starts class i, so residues are itineraries."""
        return tuple(index_cycles(self.index_map, range(self.size)))

    @cached_property
    def matrix(self) -> tuple:
        """0/1 covering matrix (a view of `coverings`)."""
        rows = [[0] * self.size for _ in self.classes]
        for i, j, _ in self.coverings:
            rows[i][j] = 1
        return tuple(map(tuple, rows))

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
    The closure runs on reduced pairs (a, b) for the point a/b: reducing
    mod 1 is (a % b, b), still reduced, so it needs no gcd and no Fraction.
    Images of breakpoints come off F.values; F is evaluated only at the other
    points.  The partition keeps the Fractions at hand (breakpoints, extra
    points, images in [0,1)) and builds the others once.

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
    frac = {(b.numerator, b.denominator): b for b in F.breakpoints}
    images = {x: (v.numerator, v.denominator) for x, v in zip(frac, F.values)}
    for p in extra_points:
        p = Fraction(p)
        p -= floor_frac(p)
        frac.setdefault((p.numerator, p.denominator), p)
    pts = set(frac)
    frontier = list(pts)
    bits = sum(b.bit_length() for _, b in pts)
    while frontier:
        if len(pts) > _CLOSURE_BUDGET or bits > _CLOSURE_BITS:
            raise NotInvariant("forward closure of the partition does not stabilize")
        x = frontier.pop()
        y = images.get(x)
        if y is None:
            v = F.eval(frac.get(x) or Fraction(*x))
            y = images[x] = (v.numerator, v.denominator)
            if 0 <= y[0] < y[1]:
                frac[y] = v
        a, b = y
        y = (a % b, b)
        if y not in pts:
            pts.add(y)
            frontier.append(y)
            bits += b.bit_length()
    n = len(pts)
    if n < 2:
        raise NotInvariant("need at least two partition points mod 1")

    D = lcm(*{b for _, b in pts})
    keyed = sorted((a * (D // b), (a, b)) for a, b in pts)
    X = [key for key, _ in keyed]
    index = {key: i for i, key in enumerate(X)}
    Y = []
    G = []
    for _, x in keyed:
        a, b = images[x]
        Y.append(a * (D // b))
        k, r = divmod(Y[-1], D)
        G.append(index[r] + n * k)
    partition = tuple(frac.get(x) or Fraction(*x) for _, x in keyed)
    ends = partition + (partition[0] + 1,)
    X.append(X[0] + D)
    Y.append(Y[0] + D)
    G.append(G[0] + n)

    classes = tuple((ends[i], ends[i + 1]) for i in range(n))
    orientation = []
    coverings = []
    for i in range(n):
        g0, g1 = G[i], G[i + 1]
        if abs(g1 - g0) >= n:
            a, b = classes[i]
            length = Fraction(abs(Y[i + 1] - Y[i]), D)
            raise NotShort(f"class [{rat_str(a)},{rat_str(b)}] has image length {length} >= 1")
        orientation.append((g1 > g0) - (g1 < g0))
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
        denominator=D,
        keys=tuple(X),
        index_map=tuple(G[:n]),
        coverings=tuple(coverings),
    )


def index_cycles(E, starts) -> list[tuple]:
    """The cycles that the orbits of `starts` reach under the lifted index
    map L -> E[L mod n] + L - L mod n (n = len(E)), each once, in the order
    the walks close them: (r, m, K/m, residues) for the cycle entered at point
    r that repeats mod n after m steps, K turns higher.  A walk stops at a
    point that an earlier walk met, whose cycle is already listed."""
    n = len(E)
    seen: set = set()
    cycles = []
    for start in starts:
        pos, L = {}, start  # point L mod n -> (step, L) along this walk
        while L % n not in pos and L % n not in seen:
            pos[L % n] = (len(pos), L)
            L = E[L % n] + L - L % n
        seen.update(pos)
        if L % n in pos:
            j, L0 = pos[L % n]
            m = len(pos) - j
            cycles.append((L % n, m, Fraction((L - L0) // n, m), tuple(pos)[j:]))
    return cycles


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
    return RotationInterval(*(index_cycles(E, (0,))[0][2] for E in (lower, upper)))


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
    """{'irreducible', 'permutation', 'transitive'} of the covering graph;
    transitive = irreducible and not a permutation matrix.  Irreducibility
    belongs to this graph, so it depends on the partition: refining the rigid
    1/2-rotation from two classes to four splits its single 2-cycle into two,
    and the certificate turns reducible."""
    succ = system.successors
    irr = len(set(_components(succ))) == 1 and (len(succ) > 1 or 0 in succ[0])
    # one 1 in each row and column
    perm = all(len(out) == 1 for out in succ) and len({out[0] for out in succ}) == len(succ)
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
    cyc = _complement_cycle(system.successors, rome.members)
    if cyc is not None:
        raise InvalidRome(f"loop avoiding the rome: {cyc}")


def find_rome(system) -> Rome:
    """Greedy rome: all vertices of out-degree >= 2, then one vertex from each
    remaining cycle of the (now functional) complement graph.  The loop stops
    only when no loop avoids the members, so the result is a valid rome."""
    succ = system.successors
    members = {i for i, out in enumerate(succ) if len(out) >= 2}
    while (cyc := _complement_cycle(succ, members)) is not None:
        members.add(cyc[0])
    return Rome(frozenset(members))


def rome_matrix(system, rome: Rome):
    """(sorted members, m x m matrix of IntPolynomials in y = 1/x).

    Entry (i,j) counts simple rome paths r_i -> r_j by length: the coefficient
    of y^l is the number of such paths of length l.  One pass over the
    complement in reverse topological order carries, for each vertex, its
    path counts to the members as sparse {(member, length): count}; on
    `find_rome`'s romes every complement vertex has one successor, so each
    carries a single term.  A complement with no topological order holds a
    loop avoiding the rome: InvalidRome, with that loop.
    """
    succ = system.successors
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
    if len(topo) < len(comp):
        validate_rome(system, rome)

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
    n = len(system.successors)
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
    simple: bool  # not a repetition of a shorter loop

    @property
    def length(self) -> int:
        return len(self.vertices)


def enumerate_loops(
    system, max_len: int, cap: int = DEFAULT_LOOP_CAP, succ: Optional[list] = None
) -> list[Loop]:
    """All loops of length <= max_len up to cyclic rotation, sorted, in the
    whole covering graph or in the subgraph given by the successor lists
    `succ`.

    Each loop is met once, as its least rotation (a necklace), by a DFS from
    its least vertex.  A path a_1..a_L carries p, the length of its longest
    Lyndon prefix (Fredricksen-Kessler-Maiorana): a next vertex w keeps p if
    w == a_(L+1-p), makes it L + 1 if w is larger, and if w is smaller the
    path is the prefix of no necklace and is cut.  A closed walk is a
    necklace iff p divides L, and simple (a Lyndon word) iff p == L.  Paths
    are also cut by their shortest return to the start through vertices
    above it.  BudgetExceeded past `cap` DFS steps or `cap` loops.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if succ is None:
        succ = system.successors
    pred = _reverse(succ)
    loops = []
    explored = 0
    for start in range(len(succ)):
        # dist[v] = shortest path v -> start through vertices above start
        # (BFS on reversed arrows); a return of max_len or more fits no loop
        dist = {start: 0}
        queue = [start]
        for w in queue:
            if dist[w] + 1 < max_len:
                for u in pred[w]:
                    if u > start and u not in dist:
                        dist[u] = dist[w] + 1
                        queue.append(u)
        start_return = min((1 + dist[u] for u in succ[start] if u in dist), default=None)
        if start_return is None:
            continue

        stack = [(start, (start,), 1)]
        while stack:
            v, path, p = stack.pop()
            explored += 1
            if explored > cap:
                raise BudgetExceeded(f"loop enumeration passed cap {cap}")
            L = len(path)
            ref = path[L - p]  # == start whenever p divides L
            for w in succ[v]:
                if w < ref:
                    continue
                if w == start and L % p == 0:
                    if len(loops) >= cap:
                        raise BudgetExceeded(f"loop count passed cap {cap}")
                    loops.append(Loop(vertices=path, simple=p == L))
                rem = dist.get(w) if w != start else start_return
                if rem is not None and L + rem <= max_len:
                    stack.append((w, path + (w,), p if w == ref else L + 1))
    loops.sort(key=lambda loop: loop.vertices)
    return loops
