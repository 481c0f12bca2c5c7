"""Test references for the covering-graph passes of `circledyn.markov`.

- `bellman_ford_critical_successors`, for `critical_successors`:
  `critical_successors` reads its potential off the envelope cycle that
  gives its end of Rot(F).  This reference finds one by shortest paths
  instead, as the program did before, and needs only `size` and
  `coverings`, so it also runs on hand-made graphs with no index map.
  `tight_loop_arrows` keeps the tight arrows that lie on a tight loop: those
  lie on a closed walk of mean e, so they are tight under every feasible
  potential, and the program and the reference agree on them.
- `reference_coverings`, for the arrow loop of `build_markov_system`: two
  range extends per class, with no one-arrow shortcut.
- `dict_index_cycles`, for `index_cycles`: one dict of visits per walk.
- `reference_envelopes`, for `MarkovSystem.envelope_cycles`: the lower and
  upper index maps, each entry the min or max over its window of G.
- `per_vertex_rome_matrix` and `per_member_rome_matrix`, for
  `rome_char_poly`: path counts to the rome as {(member, length): count}
  dicts carried per vertex, which also serve romes whose complement
  branches, and a dense dynamic program per member.
  `reference_rome_char_poly` takes the determinant of the first over Z[y]
  by Bareiss, with no packing.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import repeat

from circledyn.arith import IntPolynomial, bareiss_det, rat_str
from circledyn.errors import RotationMismatch
from circledyn.markov import _reverse, _walk, validate_rome


def bellman_ford_critical_successors(system, e: Fraction, side: int) -> list[list[int]]:
    """Successor lists of the tight arrows for the loop mean e = r/s, where
    side = +1 if e is the least loop mean and -1 if the largest.

    Bellman-Ford potentials pi for the weights side*(s*k - r) make every
    reduced cost w + pi(i) - pi(j) >= 0, and a loop's reduced costs sum to its
    weight, so a loop has mean e iff all its arrows are tight (Karp 1978).  A
    FIFO queue relaxes the arrows out of each lowered vertex.  A potential's
    walk of n arrows repeats a vertex, whose two lowerings close a loop of
    mean beyond e: RotationMismatch then, or if `_walk` closes no tight loop
    (no loop has mean e)."""
    e = Fraction(e)
    r, s = e.numerator, e.denominator
    n = system.size
    out = [[] for _ in range(n)]
    for i, j, k in system.coverings:
        out[i].append((j, side * (s * k - r)))
    pi, arrows = [0] * n, [0] * n
    queue, queued = deque(range(n)), [True] * n
    while queue:
        i = queue.popleft()
        queued[i] = False
        for j, w in out[i]:
            if pi[i] + w < pi[j]:
                pi[j], arrows[j] = pi[i] + w, arrows[i] + 1
                if arrows[j] >= n:
                    raise RotationMismatch(f"a loop has mean beyond {rat_str(e)}")
                if not queued[j]:
                    queued[j] = True
                    queue.append(j)
    tight = [[j for j, w in out[i] if w + pi[i] == pi[j]] for i in range(n)]
    if _walk(tight)[1] is None:
        raise RotationMismatch(f"no loop has mean {rat_str(e)}")
    return tight


def tight_loop_arrows(succ) -> set[tuple[int, int]]:
    """The arrows (v, w) of the successor lists that lie on a loop: v and w
    share a strongly connected component.  Kosaraju: a depth-first pass
    records finishing times, then each search on the reversed arrows, from
    the latest unlabelled finisher on, labels one component."""
    n = len(succ)
    seen, order = [False] * n, []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            w = next((w for w in it if not seen[w]), None)
            if w is None:
                stack.pop()
                order.append(v)
            else:
                seen[w] = True
                stack.append((w, iter(succ[w])))
    pred = _reverse(succ)
    label = [None] * n
    for root in reversed(order):
        if label[root] is None:
            label[root], stack = root, [root]
            while stack:
                for u in pred[stack.pop()]:
                    if label[u] is None:
                        label[u] = root
                        stack.append(u)
    return {(v, w) for v in range(n) for w in succ[v] if label[v] == label[w]}


def reference_coverings(index_map) -> list[tuple[int, int, int]]:
    """The arrows (i, j, k) of the index map G (n = len(G), G[n] = G[0] + n):
    class i covers the lifted classes min(G[i], G[i+1]) .. max - 1 (fewer
    than n), those past the turn first, then r..top-1 at turn q."""
    n = len(index_map)
    G = list(index_map) + [index_map[0] + n]
    coverings = []
    for i in range(n):
        lo, hi = sorted(G[i : i + 2])
        q, r = divmod(lo, n)
        top = min(hi - q * n, n)
        coverings += zip(repeat(i), range(hi - (q + 1) * n), repeat(q + 1))
        coverings += zip(repeat(i), range(r, top), repeat(q))
    return coverings


def dict_index_cycles(E, starts) -> list[tuple]:
    """`index_cycles` with a dict per walk: point -> (step, lifted point)."""
    n = len(E)
    seen: set = set()
    cycles = []
    for start in starts:
        pos, L = {}, start
        while L % n not in pos and L % n not in seen:
            pos[L % n] = (len(pos), L)
            L = E[L % n] + L - L % n
        seen.update(pos)
        if L % n in pos:
            j, L0 = pos[L % n]
            m = len(pos) - j
            cycles.append((L % n, m, Fraction((L - L0) // n, m), tuple(pos)[j:]))
    return cycles


def reference_envelopes(index_map) -> tuple[list[int], list[int]]:
    """The lower and upper index maps by their definition, over the lifted
    index map G(j + k*n) = G[j] + k*n (n = len(G)): G_l[i] = min G[i..i+n)
    and G_u[i] = max G(i-n..i]."""
    n = len(index_map)

    def G(j):
        q, r = divmod(j, n)
        return index_map[r] + q * n

    lower = [min(G(j) for j in range(i, i + n)) for i in range(n)]
    upper = [max(G(j) for j in range(i - n + 1, i + 1)) for i in range(n)]
    return lower, upper


def per_vertex_rome_matrix(system, rome):
    """(sorted members, m x m matrix of IntPolynomials in y = 1/x): entry
    (i, j) has the number of paths r_i -> r_j of length l with no member
    inside as its coefficient of y^l.  One pass over the complement in the
    finishing order of `_walk` (each vertex after its successors, as
    `validate_rome` leaves no loop outside the rome) carries, for each
    vertex, its path counts to the members as {(member, length): count}."""
    succ = system.successors
    members = sorted(rome.members)
    paths: dict[int, dict] = {}

    def step(v) -> dict:
        acc: dict = {}
        for w in succ[v]:
            terms = paths[w].items() if w in paths else [((w, 0), 1)]  # a member ends the path
            for (r, length), count in terms:
                acc[r, length + 1] = acc.get((r, length + 1), 0) + count
        return acc

    validate_rome(system, rome)
    for v in _walk(succ, rome.members)[0]:
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


def per_member_rome_matrix(system, rome):
    """Reference rome matrix by a per-member dynamic program: for each member
    r_j, one pass over the complement in reverse topological order building
    dense polynomials of the paths to r_j."""
    validate_rome(system, rome)
    succ = system.successors
    members = sorted(rome.members)
    comp = [v for v in range(len(succ)) if v not in rome.members]
    compset = set(comp)
    indeg = {v: sum(1 for u in comp for w in succ[u] if w == v) for v in comp}
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
    y = IntPolynomial([0, 1])

    def paths(v, rj, g):
        acc = IntPolynomial(())
        for w in succ[v]:
            if w == rj:
                acc = acc + IntPolynomial([1])
            if w in compset and not g[w].is_zero():
                acc = acc + g[w]
        return y * acc if not acc.is_zero() else acc

    entries = []
    for rj in members:
        g = {}
        for v in reversed(topo):
            g[v] = paths(v, rj, g)
        entries.append({ri: paths(ri, rj, g) for ri in members})
    return members, [[entries[jc][ri] for jc in range(len(members))] for ri in members]


def reference_rome_char_poly(system, rome) -> IntPolynomial:
    """det(xI - M) as x^n det(M_R(1/x) - I), monic, from
    `per_vertex_rome_matrix` and Bareiss over Z[y]."""
    n = len(system.successors)
    _, rm = per_vertex_rome_matrix(system, rome)
    for i, row in enumerate(rm):
        row[i] = row[i] - IntPolynomial([1])
    det = bareiss_det(rm) if rm else IntPolynomial([1])
    p = IntPolynomial((det.coeffs + (0,) * (n - det.degree))[::-1])
    return -p if p.leading() < 0 else p
