"""Combinatorial extension of the circle families to graphs with a circuit.

The excised subgraph X (the ambient graph minus the open arc carrying the
circle dynamics) is traversed by an edge walk from one cut endpoint to the
other; the walk induces the partition 0 = s_0 < ... < s_m = 1 with m odd and
the parity property (vertex images at even indices, edge midpoints at odd
ones).  The circle Markov graph is then modified exactly as in the figures:
the detour class is replaced by m intervals L_i, the excised class by the
distinct walk-edge halves U_j, each L_i covering one U_j and each U_j covering
the return class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .arith import IntPolynomial
from .errors import BadParameter, NotExtendable
from .families import DEFAULT_POLY_TOL, POLYNOMIALS, ExtensionSpec, FamilyInstance, certify
from .markov import bracket_above, entropy as markov_entropy


@dataclass(frozen=True)
class CombGraph:
    """Multigraph: distinct vertex names plus edges as (u, v) pairs;
    self-loops and parallel edges allowed.  ValueError names a repeated
    vertex, an edge that is not a pair, or an edge on an unknown vertex."""

    vertices: tuple
    edges: tuple

    def __post_init__(self):
        vs = tuple(self.vertices)
        es = tuple(map(tuple, self.edges))
        names = set(vs)
        if len(names) < len(vs):
            twice = next(v for i, v in enumerate(vs) if v in vs[:i])
            raise ValueError(f"graph vertex {twice} is listed twice")
        for i, e in enumerate(es):
            if len(e) != 2:
                raise ValueError(f"graph edge {i} is not a pair of vertices")
            if not names.issuperset(e):
                raise ValueError(f"edge ({e[0]},{e[1]}) uses unknown vertex")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)

    @cached_property
    def adjacency(self) -> dict:
        """vertex -> [(edge index, other end)] in edge order; a self-loop is
        listed twice, once from each end."""
        adj = {v: [] for v in self.vertices}
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((i, v))
            adj[v].append((i, u))
        return adj

    def degree(self, v) -> int:
        return len(self.adjacency[v])

    def is_connected(self) -> bool:
        return self._connected_without(None)

    def _connected_without(self, skip) -> bool:
        """Is the graph connected with the edge of index `skip` left out?"""
        if not self.vertices:
            return False
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for i, w in self.adjacency[stack.pop()]:
                if i != skip and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def is_interval(self) -> bool:
        """Is the graph homeomorphic to a closed interval (a path)?"""
        if not self.is_connected():
            return False
        if len(self.edges) != len(self.vertices) - 1:
            return False  # a connected graph with a cycle, a multi-edge or a self-loop
        degs = [self.degree(v) for v in self.vertices]
        return all(d <= 2 for d in degs) and sum(1 for d in degs if d == 1) == 2

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices), "edges": [list(e) for e in self.edges]}

    @staticmethod
    def from_json(d: dict) -> "CombGraph":
        """The graph of {"vertices": [...], "edges": [[u, v], ...]};
        ValueError on any other shape, a string in place of a list included
        (it would read as its characters)."""
        try:
            vertices, edges = d["vertices"], d["edges"]
            if not all(isinstance(x, list) for x in (vertices, edges, *edges)):
                raise TypeError("a list is expected where a string or another value stands")
            return CombGraph(tuple(vertices), tuple(tuple(e) for e in edges))
        except (KeyError, TypeError) as e:
            raise ValueError(f'graph JSON needs "vertices" and "edges" lists ({type(e).__name__}: {e})') from None

    @staticmethod
    def excise_hint_from_json(d: dict):
        """Optional {"excise": {"circuit_edge_hint": i}} companion of the
        graph file: which circuit edge carries the circle dynamics.
        ValueError if "excise" is not an object or the hint not an integer."""
        excise = d.get("excise", {}) if isinstance(d, dict) else None
        if not isinstance(excise, dict):
            raise ValueError('graph JSON "excise" must be an object such as {"circuit_edge_hint": 0}')
        hint = excise.get("circuit_edge_hint")
        if hint is not None and type(hint) is not int:  # not a bool or a float either
            raise ValueError('graph JSON "circuit_edge_hint" must be an edge index')
        return hint


@dataclass(frozen=True)
class Traversal:
    """Edge walk a -> ... -> v -> b covering every edge of the excised
    subgraph, with the induced partition data."""

    m: int
    steps: tuple  # (edge_key, from_vertex, to_vertex) per step, J last
    segment_halves: tuple  # per segment 0..m-1: the U-id it maps onto
    u_ids: tuple  # distinct U-ids in order of first appearance


def _subdivide_self_loops(graph: CombGraph) -> CombGraph:
    verts = list(graph.vertices)
    edges = []
    for i, (u, v) in enumerate(graph.edges):
        if u == v:
            mid = object()  # a fresh vertex, equal to no vertex of the user's graph
            verts.append(mid)
            edges.append((u, mid))
            edges.append((mid, v))
        else:
            edges.append((u, v))
    return CombGraph(tuple(verts), tuple(edges))


def traversal(X: CombGraph, a, b) -> Traversal:
    """Surjective edge walk from a to b of the excised subgraph.

    Requires a, b to be distinct degree-one vertices and X not an interval.
    The walk doubles a DFS over all non-J edges (so each is crossed down and
    up), then descends to J's inner endpoint and finishes through J; m is
    2 * (number of steps) - 1, always odd.  X minus b is connected, so the
    DFS crosses every non-J edge; X is no interval, so there are at least
    two of them and m >= 11.
    """
    if a == b or a not in X.vertices or b not in X.vertices:
        raise NotExtendable("endpoints must be two distinct vertices of X")
    if X.degree(a) != 1 or X.degree(b) != 1:
        raise NotExtendable("endpoints must have degree 1 in X")
    if not X.is_connected():
        raise NotExtendable("excised subgraph is disconnected")
    if X.is_interval():
        raise NotExtendable("excised subgraph is an interval")

    G = _subdivide_self_loops(X)
    adj = G.adjacency
    [(j_edge, v_inner)] = adj[b]  # J, the one edge at b

    # doubled DFS walk from a over all non-J edges
    steps: list = []
    visited_edges: set = {j_edge}
    parent_path: dict = {a: None}

    stack = [(a, iter(adj[a]))]
    while stack:
        u, out = stack[-1]
        for i, w in out:
            if i in visited_edges:
                continue
            visited_edges.add(i)
            steps.append((i, u, w))
            if w not in parent_path:
                parent_path[w] = (i, u)
                stack.append((w, iter(adj[w])))
                break
            steps.append((i, w, u))
        else:
            stack.pop()
            if stack:  # back up the tree edge that reached u
                i, p = parent_path[u]
                steps.append((i, u, p))

    # descend from a to the inner endpoint of J along tree-parent links
    chain = []
    u = v_inner
    while u != a:
        i, p = parent_path[u]
        chain.append((i, p, u))
        u = p
    steps.extend(chain[::-1])
    steps.append((j_edge, v_inner, b))

    def half_id(edge_idx, vertex):
        u, w = G.edges[edge_idx]
        return (edge_idx, 0 if vertex == u else 1)

    seg_halves: list = []
    for ei, fr, to in steps[:-1]:
        seg_halves.append(half_id(ei, fr))
        seg_halves.append(half_id(ei, to))
    seg_halves.append(("J",))

    return Traversal(
        m=2 * len(steps) - 1,
        steps=tuple(steps),
        segment_halves=tuple(seg_halves),
        u_ids=tuple(dict.fromkeys(seg_halves)),  # distinct, in order of first appearance
    )


# ---------------------------------------------------------------------------
# Excision of an arc from a circuit edge
# ---------------------------------------------------------------------------


def excise(G: CombGraph, edge_index: Optional[int] = None):
    """Cut the open interior of a circuit edge of G: returns (X, a, b) where
    a, b are the fresh degree-one endpoints left by the cut.  Without a hint
    the edge is the first, in input order, that lies on a circuit: a
    self-loop, or an edge whose removal leaves G connected."""
    if not G.is_connected():
        raise BadParameter("ambient graph must be connected")

    def on_circuit(i) -> bool:
        u, v = G.edges[i]
        return u == v or G._connected_without(i)

    if edge_index is None:
        edge_index = next(filter(on_circuit, range(len(G.edges))), None)
        if edge_index is None:
            raise NotExtendable("ambient graph has no circuit")
    elif edge_index not in range(len(G.edges)) or not on_circuit(edge_index):
        raise NotExtendable("chosen edge is not on a circuit")
    u, v = G.edges[edge_index]
    a, b = object(), object()  # fresh vertices, equal to no vertex of G
    edges = G.edges[:edge_index] + G.edges[edge_index + 1 :] + ((u, a), (v, b))
    X = CombGraph(G.vertices + (a, b), edges)
    return X, a, b


# ---------------------------------------------------------------------------
# The extended Markov graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtendedMarkov:
    base: object  # the circle family MarkovSystem
    spec: ExtensionSpec  # the instance's designated classes
    m: int
    u_count: int
    successors: tuple  # sorted successor lists of the extended covering graph
    projection: tuple  # extended vertex -> base vertex index
    base_index: dict  # surviving base idx -> ext idx
    expected_poly: IntPolynomial
    cofactor: IntPolynomial

    @property
    def size(self) -> int:
        return len(self.successors)


def extend(inst: FamilyInstance, G: CombGraph, edge_index: Optional[int] = None) -> ExtendedMarkov:
    """Extended Markov graph of the family instance over the ambient graph G.

    The base graph keeps every class except the detour and excised ones; the
    detour's predecessors fan out to all m L-classes, each L covers the U it
    maps onto under the traversal, and every U covers the return class.
    """
    ext = inst.extension
    if ext is None:
        raise BadParameter(
            f"{inst.name} family instance n={inst.n} below the extension range"
        )
    X, a, b = excise(G, edge_index)
    trav = traversal(X, a, b)
    m = trav.m
    base = inst.markov
    nb = base.size
    removed = {ext.detour, ext.excised}

    base_succ = base.successors
    preds = [i for i, out in enumerate(base_succ) if ext.detour in out]
    if any(p in removed for p in preds):
        raise BadParameter("detour class fed from inside the replaced pair")
    if ext.excised not in base_succ[ext.detour] or ext.ret not in base_succ[ext.excised]:
        raise BadParameter("detour, excised and return classes are not a path of arrows")

    keep = [i for i in range(nb) if i not in removed]
    base_index = {i: j for j, i in enumerate(keep)}
    l_ids = range(len(keep), len(keep) + m)
    u_index = {uid: l_ids.stop + t for t, uid in enumerate(trav.u_ids)}
    projection = keep + [ext.detour] * m + [ext.excised] * len(u_index)

    # kept classes come first in base order, then the L and the U classes,
    # so each list below is built sorted
    succ = [[base_index[j] for j in base_succ[i] if j in base_index] for i in keep]
    for p in preds:
        succ[base_index[p]].extend(l_ids)
    succ.extend([u_index[trav.segment_halves[i]]] for i in range(m))
    succ.extend([base_index[ext.ret]] for _ in trav.u_ids)
    return ExtendedMarkov(
        base=base,
        spec=ext,
        m=m,
        u_count=len(u_index),
        successors=tuple(map(tuple, succ)),
        projection=tuple(projection),
        base_index=base_index,
        expected_poly=POLYNOMIALS[inst.name](inst.n, m),
        cofactor=inst.poly_cofactor,
    )


def projection_preserves_arrows(E: ExtendedMarkov) -> bool:
    """Every extended arrow must project onto an arrow of the base graph."""
    base_arrows = {(i, j) for i, j, _ in E.base.coverings}
    proj = E.projection
    return all((proj[i], proj[j]) in base_arrows for i, out in enumerate(E.successors) for j in out)


def verify_extension(E: ExtendedMarkov, tol: Fraction = DEFAULT_POLY_TOL) -> dict:
    """Report on the extension: the `families.certify` checks against the
    family polynomial at the traversal's m (transitivity, the exact identity
    up to a power of x and the certified root), entropy strictly above the
    circle instance, and the projection and loop facts the
    period-preservation argument uses."""
    checks, ext_root = certify(E, E.expected_poly, E.cofactor, tol)
    base_root = markov_entropy(E.base, tol)
    result = {
        **checks,
        "entropy_above_base": bracket_above(ext_root, base_root),
        "projection_ok": projection_preserves_arrows(E),
        "counts_ok": E.size == E.base.size - 2 + E.m + E.u_count,
        "ext_entropy": ext_root,
        "base_entropy": base_root,
    }
    spec = E.spec
    if spec.j0 is not None:
        # the only loop among {J0~, J2~} is the length-2 positive loop: both
        # cross arrows and no self-arrow
        j0, j2 = E.base_index[spec.j0], E.base_index[spec.j2]
        out0, out2 = E.successors[j0], E.successors[j2]
        result["j0_j2_unique_2loop"] = j2 in out0 and j0 in out2 and j0 not in out0 and j2 not in out2
        result["j0_j2_loop_positive"] = E.base.orientation[spec.j0] * E.base.orientation[spec.j2] == 1
    return result


def extension_green(report: dict) -> bool:
    """The verdict on a `verify_extension` report: every boolean check holds.
    `permutation` is not a check; `transitive` already covers it."""
    return all(v for k, v in report.items() if isinstance(v, bool) and k != "permutation")
