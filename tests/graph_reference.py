"""Bellman-Ford critical subgraphs: a test reference for
`circledyn.markov.critical_successors`.

`critical_successors` reads its potential off the envelope cycle that gives
its end of Rot(F).  This reference finds one by shortest paths instead, as
the program did before, and needs only `size` and `coverings`, so it also
runs on hand-made graphs with no index map.  `tight_loop_arrows` keeps the
tight arrows that lie on a tight loop: those lie on a closed walk of mean e,
so they are tight under every feasible potential, and the program and the
reference agree on them.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from circledyn.arith import rat_str
from circledyn.errors import RotationMismatch
from circledyn.markov import _reverse, _walk


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
    if _walk(tight)[2] is None:
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
