"""Markov partitions modulo 1, covering graphs, romes and entropy.

A MarkovSystem is the map on its partition as integers: the partition's keys
on their common denominator, the lifted index of each point's image, and the
covering arrows with the integer translate realizing each one.  Everything
else (partition, classes, orientation, Rot(F), graph views) derives from them.
Later stages walk indices, keys and arrows instead of evaluating the lifting.
The graph passes here (transitivity, romes, loops) read one thing of a
system, `successors` (sorted successor lists of the covering graph), so any
other graph (an extension, a test fixture) is its successor lists alone;
`critical_successors` also reads `coverings` and `envelope_cycles`.  A
depth-first walk (`_walk`) gives orders and loops; romes and their
polynomial come from one successor chase (`_chase`) of the graph outside
its branching vertices, where each vertex has one successor at most.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from math import gcd, lcm, prod
from typing import Optional

from .arith import CertifiedRoot, IntPolynomial, kronecker_det, largest_root_above, rat_str
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
    graph data; the lifting they came from stays with the caller.  Views
    derived from them on first use and cached: `partition`, `classes`,
    `orientation`, `envelope_cycles` and `rotation` for the map,
    `successors` for the graph passes, `arrow_steps` and `partition_cycles`
    for the oracle, and the dense 0/1 `matrix` for tests and the benchmark
    tracer (the scan builds none of the Fraction views or `matrix`).
    """

    denominator: int  # D, the common denominator of the partition
    keys: tuple  # X[i] = partition[i]*D for i < n, and X[n] = X[0] + D
    index_map: tuple  # lifted index G[i] = j + n*k for F(partition[i]) = partition[j] + k
    coverings: tuple  # arrows (i, j, k), class i covers class j + k, in (i, j) order

    @property
    def size(self) -> int:
        return len(self.index_map)

    @cached_property
    def partition(self) -> tuple:
        """The sorted partition points X[i]/D in [0,1)."""
        return tuple(Fraction(x, self.denominator) for x in self.keys[:-1])

    @cached_property
    def classes(self) -> tuple:
        """(a, b) ends of each class; the last one wraps to partition[0] + 1."""
        ends = self.partition + (self.partition[0] + 1,)
        return tuple(zip(ends, ends[1:]))

    @cached_property
    def orientation(self) -> tuple:
        """Sign of G[i+1] - G[i]: +1 increasing, -1 decreasing, 0 constant."""
        G = self.index_map + (self.index_map[0] + self.size,)
        return tuple((b > a) - (b < a) for a, b in zip(G, G[1:]))

    @cached_property
    def envelope_cycles(self) -> tuple:
        """The `index_cycles` entries (r, m, rho, residues) of point 0 under
        the lower and upper maps.  F is affine between partition points, so
        on them F_l(x) = min F[x, x+1] and F_u(x) = max F[x-1, x] take
        partition values: G_l[i] = min G[i..i+n) and G_u[i] = max G(i-n..i].
        As G[j+n] = G[j] + n, they are a running minimum of G from the end,
        started at min G + n, and a running maximum from the start, started
        at max G - n."""
        G, n = self.index_map, self.size
        lower, upper = [], []
        lo, hi = min(G) + n, max(G) - n
        for g in reversed(G):
            lo = g if g < lo else lo
            lower.append(lo)
        for g in G:
            hi = g if g > hi else hi
            upper.append(hi)
        return tuple(index_cycles(E, (0,))[0] for E in (lower[::-1], upper))

    @cached_property
    def rotation(self) -> RotationInterval:
        """Rot(F) = [rho(F_l), rho(F_u)], exactly, from the `envelope_cycles`."""
        return RotationInterval(*(cycle[2] for cycle in self.envelope_cycles))

    @cached_property
    def successors(self) -> tuple:
        """Sorted successor lists of the covering graph (a view of `coverings`)."""
        succ = [[] for _ in range(self.size)]
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
        rows = [[0] * self.size for _ in range(self.size)]
        for i, j, _ in self.coverings:
            rows[i][j] = 1
        return tuple(map(tuple, rows))

    def to_json(self) -> dict:
        return {
            "classes": [f"[{rat_str(a)},{rat_str(b)}]" for (a, b) in self.classes],
            "arrows": [[i, j] for i, j, _ in self.coverings],
            "orientation": list(self.orientation),
        }


def build_markov_system(F: Lifting) -> MarkovSystem:
    """Markov system modulo 1 generated by the breakpoints.

    The point set is closed under the circle map; NotInvariant, naming the
    budget and its limit, if the forward closure passes a point count or a
    total reduced-denominator bit length, NotShort if some basic interval
    has an image of length >= 1 (the partition would not project to a
    Markov partition of the circle map).  An invariant grid (an orbit
    lifting's: each breakpoint's image a breakpoint mod 1) is the partition
    as it stands, E = 1.  Else the closure runs on F's integer grid
    (D, X, V): a point p is the key p*D in [0, D), an int on the grid and a
    Fraction between grid points.  A breakpoint's image is read off V; F is
    evaluated only at the other points.  Keys off the grid refine it once,
    after the closure, by the lcm E of their denominators.  (To put a point
    p into the partition, make it a breakpoint of F with the value F.eval(p).)

    After the closure everything is integer: on the partition's common
    denominator D*E, point p is the key X = p*D*E and its image the integer
    Y = F(p)*D*E, so the index map comes from divmod(Y, D*E) and each branch
    from integer differences of consecutive (X, Y).  Lifted index L stands
    for the point partition[L mod n] + L div n, and the lifted class L for
    [point L, point L+1].  With F(partition[i]) at lifted index G[i], class i
    (affine, since every breakpoint is a partition point) covers exactly the
    lifted classes min(G[i],G[i+1]) .. max(G[i],G[i+1])-1, where
    G[n] = G[0] + n closes the wrap class.
    """
    D, X, Y = F.grid
    n = len(X) - 1
    index = dict(zip(X, range(n)))
    try:  # the grid is invariant
        G = [index[r] + n * k for k, r in map(divmod, Y[:n], repeat(D))]
    except KeyError:  # it is not: close it
        images = dict(zip(X[:-1], Y))  # key -> key of its image, not reduced mod D
        pts = set(images)
        frontier = list(pts)
        bits = sum([(D // gcd(x, D)).bit_length() for x in pts])  # the grid keys x are ints
        while frontier:
            if len(pts) > _CLOSURE_BUDGET:
                raise NotInvariant(f"forward closure of the partition passed {_CLOSURE_BUDGET} points")
            if bits > _CLOSURE_BITS:
                raise NotInvariant(f"forward closure of the partition passed {_CLOSURE_BITS} denominator bits")
            x = frontier.pop()
            y = images.get(x)
            if y is None:
                y = images[x] = F.eval(Fraction(x, D)) * D
            y %= D
            if y not in pts:
                pts.add(y)
                frontier.append(y)
                bits += (y.denominator * D // gcd(y.numerator, D)).bit_length()
        n = len(pts)
        E = lcm(*{x.denominator for x in pts})
        D *= E
        points = sorted(pts)
        X = [x.numerator * (E // x.denominator) for x in points]
        Y = [y.numerator * (E // y.denominator) for y in map(images.__getitem__, points)]
        index = {key: i for i, key in enumerate(X)}
        G = [index[r] + n * k for k, r in map(divmod, Y, repeat(D))]
        X.append(X[0] + D)
        Y.append(Y[0] + D)
    else:  # the same budgets; a key's bits are at most D's, so the sum runs only past that bound
        if n > _CLOSURE_BUDGET:
            raise NotInvariant(f"forward closure of the partition passed {_CLOSURE_BUDGET} points")
        bits = n * D.bit_length() > _CLOSURE_BITS and sum([(D // gcd(x, D)).bit_length() for x in X[:n]])
        if bits > _CLOSURE_BITS:
            raise NotInvariant(f"forward closure of the partition passed {_CLOSURE_BITS} denominator bits")
    if n < 2:
        raise NotInvariant("need at least two partition points mod 1")
    G.append(G[0] + n)

    coverings = []
    for i, (g, h) in enumerate(zip(G, G[1:])):
        lo, hi = (g, h) if g <= h else (h, g)
        q, r = divmod(lo, n)
        if hi - lo == 1:  # most classes cover one lifted class
            coverings.append((i, r, q))
            continue
        if hi - lo >= n:
            a, b = Fraction(X[i], D), Fraction(X[i + 1], D)
            length = Fraction(abs(Y[i + 1] - Y[i]), D)
            raise NotShort(f"class [{rat_str(a)},{rat_str(b)}] has image length {length} >= 1")
        # lifted classes lo..hi-1 (fewer than n) in class order: those past
        # the turn, classes 0.. at turn q+1 (all below r), then r..top-1 at q
        top = min(hi - q * n, n)
        coverings += zip(repeat(i), range(hi - (q + 1) * n), repeat(q + 1))
        coverings += zip(repeat(i), range(r, top), repeat(q))

    return MarkovSystem(
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
    at = [0] * n  # 1 + the number of points met before point r; 0 while unmet
    met, cycles = 0, []
    for start in starts:
        path, L, r = [], start, start % n  # the lifted points of this walk
        while not at[r]:
            path.append(L)
            at[r] = met + len(path)
            L += E[r] - r
            r = L % n
        j = at[r] - met - 1  # the step of this walk at r; < 0 if an earlier walk met r
        met += len(path)
        if j >= 0:
            m = len(path) - j
            cycles.append((r, m, Fraction((L - path[j]) // n, m), tuple([x % n for x in path[j:]])))
    return cycles


def _reverse(succ) -> list[list[int]]:
    pred = [[] for _ in succ]
    for v, out in enumerate(succ):
        for w in out:
            pred[w].append(v)
    return pred


def _walk(succ, skip=(), until_loop=False) -> tuple[list[int], Optional[list[int]]]:
    """One iterative depth-first walk of the graph without the vertices in
    `skip`, roots and successors in increasing order.  Returns the finishing
    order (each vertex after every vertex it reaches, unless they share a
    loop; the first root finishes last iff it reaches every vertex) and the
    first loop it closes (w .. v w for the first back arrow v -> w), or None
    when no loop avoids `skip`.  With `until_loop` the walk stops at that
    first back arrow, for callers that read only the loop: the order is then
    partial."""
    state = [0] * len(succ)  # 0 unseen, 1 on the path, 2 finished or skipped
    for v in skip:
        state[v] = 2
    order, loop = [], None
    for root in range(len(succ)):
        if state[root]:
            continue
        state[root] = 1
        path, its = [root], [iter(succ[root])]  # its[i]: the successors of path[i] not yet read
        while path:
            for w in its[-1]:
                if not state[w]:
                    state[w] = 1
                    path.append(w)
                    its.append(iter(succ[w]))
                    break
                if state[w] == 1 and loop is None:
                    loop = path[path.index(w) :] + [w]
                    if until_loop:
                        return order, loop
            else:
                its.pop()
                v = path.pop()
                state[v] = 2
                order.append(v)
    return order, loop


def critical_successors(system: MarkovSystem, e: Fraction, side: int) -> list[list[int]]:
    """Successor lists of the tight arrows for the loop mean (shift / length)
    e, where side = +1 if e is the least loop mean and -1 if the largest:
    a loop has mean exactly e iff every arrow on it is tight.

    The potential is that end's envelope cycle (lower map for side = +1,
    upper for -1), of m points and K turns, rho = K/m: pi[i] counts its
    points at or below point i, pi(j + k*n) = pi[j] + k*m, and arrow
    (i, j, k) costs side*(pi[j] + k*m - pi[i] - K) >= 0.  Lower: the covered
    lifted class L = j + k*n starts at or above min(G[i], G[i+1]) >= G_l[i],
    and G_l, nondecreasing, moves its cycle points in order K places on, so
    pi(L) >= pi(G_l[i]) >= pi[i] + K.  Upper: L + 1 <= G_u[i+1], and with
    Psi counting the cycle points strictly below a point,
    pi(L) = Psi(L + 1) <= Psi(G_u[i+1]) <= Psi(i + 1) + K = pi[i] + K.  A
    loop's costs sum to side*m*length*(mean - rho): no loop has a mean beyond
    rho, and a loop has mean rho iff all its arrows are tight (cost 0).  A
    tight arrow between two strongly connected components lies on no loop;
    loop searches never take it.  RotationMismatch if an arrow costs below 0
    or `_walk` closes no tight loop (the cycle certifies nothing), and if e
    is not rho: a loop has mean beyond e, or no loop has mean e."""
    _, m, rho, cycle = system.envelope_cycles[side < 0]
    on_cycle = [0] * system.size
    for i in cycle:
        on_cycle[i] = 1
    K, pi = int(rho * m), list(accumulate(on_cycle))
    tight = [[] for _ in pi]
    for i, j, k in system.coverings:
        cost = side * (pi[j] + k * m - pi[i] - K)
        if cost < 0:
            raise RotationMismatch(f"arrow ({i}, {j}, {k}) costs {cost} on the cycle of mean {rat_str(rho)}")
        if cost == 0:
            tight[i].append(j)
    if _walk(tight, until_loop=True)[1] is None:
        raise RotationMismatch(f"no loop has mean {rat_str(rho)}")
    if e != rho:  # the loops of mean rho are beyond e, or none has mean e
        message = "a loop has mean beyond" if side * (e - rho) > 0 else "no loop has mean"
        raise RotationMismatch(f"{message} {rat_str(e)}")
    return tight


# ---------------------------------------------------------------------------
# Transitivity certificate
# ---------------------------------------------------------------------------


def transitivity_certificate(system) -> dict:
    """{'irreducible', 'permutation', 'transitive'} of the covering graph;
    transitive = irreducible and not a permutation matrix.  Irreducible: some
    vertex exists, vertex 0 reaches every vertex along the arrows and along
    the reversed arrows (`_walk` finishes it last in both), and a lone vertex
    has its self-arrow.  Irreducibility belongs to this graph, so it depends
    on the partition: refining the rigid 1/2-rotation from two classes to four
    splits its single 2-cycle into two, and the certificate turns reducible."""
    succ = system.successors
    irr = (
        bool(succ)
        and (len(succ) > 1 or 0 in succ[0])
        and all(_walk(g)[0][-1] == 0 for g in (succ, _reverse(succ)))
    )
    # one 1 in each row and column
    perm = all(len(out) == 1 for out in succ) and len({out[0] for out in succ}) == len(succ)
    return {"irreducible": irr, "permutation": perm, "transitive": irr and not perm}


# ---------------------------------------------------------------------------
# Romes and the rome method
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rome:
    """A vertex set that every loop meets; `chase` is the `_chase` that
    `find_rome` found it by (None for a rome given by its members)."""

    members: frozenset
    chase: Optional[tuple] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))


def _chase(succ, rome=frozenset()) -> tuple[list[int], list[int], list[int]]:
    """Each vertex's one path to the rome that starts from the vertices in
    `rome` and every vertex of out-degree >= 2: outside them each vertex has
    one successor at most.  From each vertex in increasing order the chase
    follows successors to a member, a vertex with no arrow out or a vertex
    already resolved; a loop it closes on its own path at w avoids the rome,
    and w joins it.  Unwinding fills in each path vertex's member column and
    path length.  Returns (columns, end, length): the members in column
    order (the starting ones ascending, then the joined vertices as met);
    end[v] the column v's path ends at (-1: none, it ends at a vertex with
    no arrow out, for which index n stands) and length[v] its length."""
    n = len(succ)
    columns = sorted(rome.union(v for v, out in enumerate(succ) if len(out) > 1))
    end = [-2] * n + [-1]  # -2: not met yet, -3: on the current chase
    length = [0] * (n + 1)
    for c, r in enumerate(columns):
        end[r] = c
    for v in range(n):
        if end[v] != -2:
            continue
        path, w = [], v
        while end[w] == -2:
            end[w] = -3
            path.append(w)
            out = succ[w]
            w = out[0] if out else n
        if end[w] == -3:  # a loop outside the rome, closed at w
            end[w] = len(columns)
            columns.append(w)
        c, k = end[w], length[w]
        for u in reversed(path):
            if u == w:
                k = 0
            else:
                k += 1
                end[u], length[u] = c, k
    return columns, end, length


def validate_rome(system, rome: Rome) -> None:
    """InvalidRome, with the first loop of `_walk`, if a loop avoids the rome."""
    loop = _walk(system.successors, rome.members, until_loop=True)[1]
    if loop is not None:
        raise InvalidRome(f"loop avoiding the rome: {loop}")


def find_rome(system) -> Rome:
    """Greedy rome: all vertices of out-degree >= 2, then one vertex of each
    loop of the (now functional) complement graph, the vertex at which
    `_chase` closes it; no loop avoids the result.  The members are those of
    the restart-per-loop greedy (the first vertex of the first loop a
    depth-first walk from vertex 0 finds, each time), and the chase goes
    with the rome."""
    chase = _chase(system.successors)
    return Rome(chase[0], chase)


def rome_char_poly(system, rome: Rome) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - M) = x^n det(I - M_R(1/x)) by
    the rome method (Block, Guckenheimer, Misiurewicz & Young 1980), where
    M_R(y)[i][j] sums y^length over the paths r_i -> r_j with no member
    inside (an empty rome, on an acyclic graph, gives x^n).

    The rows come from the rome's `_chase`.  A rome without one is checked
    by `validate_rome` and then chased, which joins every vertex of
    out-degree >= 2 to it (no rome changes the polynomial) and closes no
    loop.  Member r's row of I - M_R(y) has 1 at its own column and
    -y^(length[w] + 1) at column end[w] for each arrow r -> w with
    end[w] >= 0, packed at y = 2^B as `kronecker_det` takes it: every
    |coefficient| of the determinant is at most H, the product over rows of
    1 + the row's path count, and 2^(B-1) > H with 8 | B.  Its coefficients,
    highest power first, are those of x^n det(I - M_R(1/x)) from x^(n-degree)
    up, and its constant term det(I) = 1 makes the result monic."""
    succ = system.successors
    n = len(succ)
    if rome.chase is None:
        validate_rome(system, rome)
        columns, end, length = _chase(succ, rome.members)
    else:
        columns, end, length = rome.chase
    paths = [[w for w in succ[r] if end[w] >= 0] for r in columns]  # the arrows that start a rome path
    bits = 8 * ((prod(len(row) + 1 for row in paths).bit_length() + 8) // 8)
    rows = []
    for c, row in enumerate(paths):
        packed = [0] * len(columns)
        packed[c] = 1
        for w in row:
            packed[end[w]] -= 1 << bits * (length[w] + 1)
        rows.append(packed)
    det = kronecker_det(rows, bits)
    if not det:
        raise ArithmeticError("rome determinant vanished identically")
    if len(det) > n + 1:
        raise ArithmeticError("rome path length exceeded matrix size")
    if det[-1] != 1:  # det(I - M_R(0)): every path has length >= 1
        raise ArithmeticError("rome polynomial is not monic of degree n")
    return IntPolynomial([0] * (n + 1 - len(det)) + det)


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
    return largest_root_above(char, tol)


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


def bracket_above(high: CertifiedRoot, low: CertifiedRoot) -> bool:
    """Whether the root in the `entropy` bracket `high` is certainly above
    the one in `low`.  A bracket is either exact, [r, r] with r a rational
    root of a monic integer polynomial and so an integer, or holds its root
    in [lower, upper) with upper no root.  So brackets that touch at a
    non-integer t are ordered too: low's root lies below t, high's at or
    above it.  Integer touching points, the exact [1, 1] among them, are not
    decided."""
    t = high.lower
    return t > low.upper or (t == low.upper and t.denominator != 1)


# ---------------------------------------------------------------------------
# Loop enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Loop:
    vertices: tuple  # a Lyndon word: the least rotation, of no shorter word repeated
    shared: int  # leading vertices in common with the loop listed before (0 for the first)
    simple = True  # a constant, not a field: bench/tracer.py reads it


def enumerate_loops(
    system, max_len: int, cap: int = DEFAULT_LOOP_CAP, succ: Optional[list] = None
) -> list[Loop]:
    """The simple loops of length <= max_len, each once as its least rotation
    (a Lyndon word), sorted, in the whole covering graph or in the subgraph
    given by the sorted successor lists `succ`.

    A DFS from each loop's least vertex: the starts go up, and from each the
    DFS takes the smaller successor first, so a path comes before its
    extensions and before every larger path, and the loops come out sorted.
    A path a_1..a_L carries p, the length of its longest Lyndon prefix
    (Fredricksen-Kessler-Maiorana): a next vertex w keeps p if
    w == a_(L+1-p), makes it L + 1 if w is larger, and if w is smaller the
    path is the prefix of no necklace and is cut.  A closed walk is a Lyndon
    word iff p == L.  Paths are also cut by their shortest return to the
    start through vertices above it.  The DFS keeps one path, cut back to
    each popped entry's depth.  BudgetExceeded past `cap` DFS steps (paths
    visited); a step closes at most one loop.

    A loop's `shared` is the least depth the path was cut back to since the
    loop before: the entry put there replaces a sibling or is a new start,
    so the two words agree on exactly their first `shared` vertices.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if succ is None:
        succ = system.successors
    pred = _reverse(succ)
    loops = []
    explored = 0
    dist = [None] * len(succ)  # None outside the current start's return search
    path = []
    low = 0  # the least depth the path was cut back to since the last loop
    for start in range(len(succ)):
        if max(succ[start], default=-1) < start or max(pred[start], default=-1) < start:
            continue  # start is the least vertex of no loop
        # dist[v] = shortest path v -> start through vertices above start
        # (BFS on reversed arrows); a return of max_len or more fits no loop
        dist[start] = 0
        queue = [start]
        for w in queue:
            if dist[w] + 1 < max_len:
                for u in pred[w]:
                    if u > start and dist[u] is None:
                        dist[u] = dist[w] + 1
                        queue.append(u)
        start_return = min((1 + dist[u] for u in succ[start] if dist[u] is not None), default=None)
        stack = [(start, 0, 1)] if start_return is not None else []  # (vertex, depth, p)
        while stack:
            v, L, p = stack.pop()
            explored += 1
            if explored > cap:
                raise BudgetExceeded(f"loop enumeration passed cap {cap}")
            path[L:] = (v,)
            if L < low:
                low = L
            L += 1
            ref = path[L - p]  # == start whenever p == L
            for w in reversed(succ[v]):
                if w < ref:
                    break
                if w == start and p == L:
                    loops.append(Loop(tuple(path), low))
                    low = L
                rem = dist[w] if w != start else start_return
                if rem is not None and L + rem <= max_len:
                    stack.append((w, L, p if w == ref else L + 1))
        for v in queue:
            dist[v] = None
    return loops
