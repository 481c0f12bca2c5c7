import random
import sys
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest

from circledyn.arith import IntPolynomial
from circledyn.errors import BadParameter, NotExtendable
from circledyn.families import dream, make, persistent
from circledyn.graphext import (
    CombGraph,
    excise,
    extend,
    extension_green,
    traversal,
    verify_extension,
)
from circledyn.markov import entropy as markov_entropy, enumerate_loops, markov_char_poly
from family_classes import class_index

F2 = Fraction


def s_images(tr) -> list:
    """The phi-images of s_0 .. s_m, rebuilt from the walk: ("vertex", v) at
    each step's start, ("alpha", edge) at the midpoint of each step but the
    last (J), and ("vertex", b) at the end."""
    images = []
    for ei, fr, _ in tr.steps[:-1]:
        images += [("vertex", fr), ("alpha", ei)]
    _, fr, b = tr.steps[-1]
    return images + [("vertex", fr), ("vertex", b)]


def parity_property_holds(tr) -> bool:
    """Equal phi-images only at indices of equal parity."""
    parities: dict = {}
    for i, img in enumerate(s_images(tr)):
        parities.setdefault(img, set()).add(i % 2)
    return all(len(p) == 1 for p in parities.values())


def triangle_with_tail() -> CombGraph:
    return CombGraph(("u", "v", "w", "p"), (("u", "v"), ("v", "w"), ("w", "u"), ("u", "p")))


def apple_graph() -> CombGraph:
    """A circuit with an attached branch carrying its own loop and twigs:
    an apple-shaped fixture exercising self-loops and parallel edges."""
    return CombGraph(
        ("c1", "c2", "c3", "t", "s1", "s2"),
        (
            ("c1", "c2"),  # circuit
            ("c2", "c3"),
            ("c3", "c1"),
            ("c2", "t"),  # stem
            ("t", "s1"),
            ("t", "s1"),  # parallel pair: a second circuit
            ("t", "s2"),
            ("s2", "s2"),  # self-loop twig
        ),
    )


def three_star_excised() -> tuple:
    # X = 3-star with a, b on two of its legs (the smallest admissible case)
    X = CombGraph(("a", "b", "c", "w"), (("a", "w"), ("b", "w"), ("c", "w")))
    return X, "a", "b"


class TestCombGraph:
    def test_interval_detection(self):
        path = CombGraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
        assert path.is_interval()
        assert not triangle_with_tail().is_interval()

    def test_excise_takes_circuit_edges_only(self):
        G = triangle_with_tail()
        for i in range(3):  # the triangle
            X, a, b = excise(G, i)
            (u, v) = G.edges[i]
            assert X.edges == G.edges[:i] + G.edges[i + 1 :] + ((u, a), (v, b))
        for hint in (3, 4, -1):  # the pendant edge, then past either end
            with pytest.raises(NotExtendable, match="not on a circuit"):
                excise(G, hint)

    def test_excise_tests_one_edge_at_a_time(self):
        # edge 0 lies on the triangle: after the connectivity check (skip
        # None), one pass without edge 0 settles it
        G = triangle_with_tail()
        connected_without = CombGraph._connected_without
        with mock.patch.object(CombGraph, "_connected_without", autospec=True, side_effect=connected_without) as passes:
            X, a, b = excise(G)
        assert [call.args[1] for call in passes.call_args_list] == [None, 0]
        assert X.edges == G.edges[1:] + (("u", a), ("v", b))

    def test_json_roundtrip(self):
        G = apple_graph()
        assert CombGraph.from_json(G.to_json()).edges == G.edges

    @pytest.mark.parametrize(
        "vertices,edges,message",
        [
            (("u", "v", "p", "p"), (("u", "v"), ("u", "p")), "graph vertex p is listed twice"),
            (("u", "v"), (("u", "v"), ("u",)), "graph edge 1 is not a pair of vertices"),
            (("u", "v"), (("u", "v", "u"),), "graph edge 0 is not a pair of vertices"),
            (("u", "v"), (("u", "x"),), "edge (u,x) uses unknown vertex"),
        ],
    )
    def test_malformed_graph_rejected(self, vertices, edges, message):
        with pytest.raises(ValueError) as err:
            CombGraph(vertices, edges)
        assert str(err.value) == message


class TestTraversal:
    def test_three_star(self):
        X, a, b = three_star_excised()
        tr = traversal(X, a, b)
        assert tr.m == 11  # the smallest X: two non-J edges, each crossed twice
        assert parity_property_holds(tr)
        assert tr.m == 2 * len(tr.steps) - 1
        assert 1 <= len(tr.u_ids) <= tr.m

    def test_apple_after_excision(self):
        X, a, b = excise(apple_graph())
        tr = traversal(X, a, b)
        assert tr.m >= 11 and tr.m % 2 == 1
        assert parity_property_holds(tr)
        # b appears exactly once among the s-images, at the last index
        b_hits = [i for i, img in enumerate(s_images(tr)) if img == ("vertex", b)]
        assert b_hits == [tr.m]

    def test_interval_not_extendable(self):
        X = CombGraph(("a", "m", "b"), (("a", "m"), ("m", "b")))
        with pytest.raises(NotExtendable):
            traversal(X, "a", "b")

    def test_invalid_endpoints(self):
        X, a, b = three_star_excised()
        with pytest.raises(NotExtendable):
            traversal(X, "w", b)

    def test_circle_ambient_not_extendable(self):
        circle = CombGraph(("u", "v"), (("u", "v"), ("v", "u")))
        X, a, b = excise(circle)
        with pytest.raises(NotExtendable):
            traversal(X, a, b)

    def test_self_loop_gets_artificial_point(self):
        X, a, b = excise(apple_graph())
        tr = traversal(X, a, b)
        alphas = {img for img in s_images(tr) if img[0] == "alpha"}
        assert alphas  # every traversed component carries its midpoint

    @pytest.mark.parametrize("seed", range(40))
    def test_walk_crosses_every_edge(self, seed):
        # X connected and no interval is all the walk needs: every non-J edge
        # (a self-loop as its two halves) is crossed, and m >= 11
        rng = random.Random(seed)
        k = rng.randint(1, 6)
        verts = [f"v{i}" for i in range(k)]
        edges = [(verts[i], rng.choice(verts[:i])) for i in range(1, k)]  # a spanning tree
        edges += [(rng.choice(verts), rng.choice(verts)) for _ in range(rng.randint(0, 3))]
        edges += [("a", rng.choice(verts)), ("b", rng.choice(verts))]
        X = CombGraph(tuple(verts) + ("a", "b"), tuple(edges))
        if X.is_interval():
            with pytest.raises(NotExtendable):
                traversal(X, "a", "b")
            return
        tr = traversal(X, "a", "b")
        loops = sum(u == v for u, v in edges)
        assert len({ei for ei, _, _ in tr.steps}) == len(edges) + loops
        assert tr.m >= 11 and tr.m == 2 * len(tr.steps) - 1 and parity_property_holds(tr)

    def test_long_tail_leaves_recursion_limit_alone(self):
        # a triangle with a 1,200-edge path to a and a pendant edge J to b:
        # the walk from a runs deeper than the default recursion limit
        tail = tuple(f"t{i}" for i in range(1200))
        edges = (("u", "v"), ("v", "w"), ("w", "u"), ("u", "b"), ("w", tail[0])) + tuple(zip(tail, tail[1:]))
        X = CombGraph(("u", "v", "w", "b") + tail, edges)
        limit = sys.getrecursionlimit()
        with mock.patch.object(sys, "setrecursionlimit", side_effect=AssertionError("recursion limit changed")):
            tr = traversal(X, tail[-1], "b")
        assert sys.getrecursionlimit() == limit
        assert tr.steps[0][1] == tail[-1] and tr.steps[-1] == (3, "u", "b")
        assert all(s[2] == t[1] for s, t in zip(tr.steps, tr.steps[1:]))
        # every non-J edge down and back, the tree path a -> w -> v -> u, then J
        assert len(tr.steps) == 2 * (len(edges) - 1) + (len(tail) + 2) + 1
        assert tr.m == 2 * len(tr.steps) - 1 and parity_property_holds(tr)


class TestExtend:
    def test_below_range_rejected(self):
        from circledyn.families import montevideo

        with pytest.raises(BadParameter):
            extend(dream(4), triangle_with_tail())
        with pytest.raises(BadParameter):
            extend(persistent(5), triangle_with_tail())
        with pytest.raises(BadParameter):
            extend(montevideo(3), triangle_with_tail())

    @pytest.mark.parametrize("name,n", [("dream", 5), ("persistent", 7), ("montevideo", 4)])
    def test_forged_extension_spec_rejected(self, name, n):
        # a spec whose detour -> excised -> return is not a path of arrows is
        # bad family data: a typed error, which python -O does not strip
        inst = make(name, n)
        ext, succ = inst.extension, inst.markov.successors
        size = inst.markov.size
        bad_ret = next(j for j in range(size) if j not in succ[ext.excised])
        feeds_detour = {i for i, out in enumerate(succ) if ext.detour in out}
        bad_excised = next(
            j for j in range(size) if j not in succ[ext.detour] and j != ext.detour and j not in feeds_detour
        )
        extend(inst, triangle_with_tail())  # the true spec extends
        for forged in (replace(ext, ret=bad_ret), replace(ext, excised=bad_excised)):
            with pytest.raises(BadParameter, match="not a path of arrows"):
                extend(replace(inst, extension=forged), triangle_with_tail())

    def test_tree_ambient_rejected(self):
        tree = CombGraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
        with pytest.raises(NotExtendable):
            excise(tree)

    @pytest.mark.parametrize(
        "name,n", [("dream", 5), ("persistent", 7), ("montevideo", 4)]
    )
    def test_vertex_count(self, name, n):
        E = extend(make(name, n), triangle_with_tail())
        assert E.size == E.base.size - 2 + E.m + E.u_count

    @pytest.mark.parametrize(
        "name,n",
        [("dream", 5), ("dream", 7), ("persistent", 7), ("persistent", 9), ("montevideo", 4)],
    )
    def test_verify_extension_green(self, name, n):
        E = extend(make(name, n), triangle_with_tail())
        rep = verify_extension(E)
        for key in (
            "irreducible",
            "transitive",
            "poly_exact",
            "poly_root_ok",
            "entropy_above_base",
            "projection_ok",
            "counts_ok",
        ):
            assert rep[key], (name, n, key, rep)
        assert not rep["permutation"]
        assert extension_green(rep)

    def test_failed_identity_keeps_the_degree_gap(self):
        # a closed form off by one in its constant term: no identity and no
        # certified root, and the degree gap is the green report's
        E = extend(dream(5), triangle_with_tail())
        green = verify_extension(E)
        red = verify_extension(replace(E, expected_poly=E.expected_poly + IntPolynomial([1])))
        assert (red["poly_exact"], red["poly_root_ok"]) == (False, False) and not extension_green(red)
        assert red["poly_power"] == green["poly_power"] > 0

    def test_extension_green_reads_every_check(self):
        # red when any one boolean check is false, the j0_j2_* loop facts
        # included; permutation is a fact that transitive covers, not a check
        rep = verify_extension(extend(persistent(7), triangle_with_tail()))
        checks = [k for k, v in rep.items() if isinstance(v, bool) and k != "permutation"]
        assert {"j0_j2_unique_2loop", "j0_j2_loop_positive", "poly_exact", "counts_ok"} <= set(checks)
        assert extension_green(rep)
        for key in checks:
            assert not extension_green({**rep, key: False}), key
        assert extension_green({**rep, "permutation": True})
        assert extension_green({**rep, "poly_power": 0})  # a number, not a check

    def test_persistent_loop_facts(self):
        E = extend(persistent(7), triangle_with_tail())
        rep = verify_extension(E)
        assert rep["j0_j2_unique_2loop"] and rep["j0_j2_loop_positive"]

    @pytest.mark.parametrize("toggle", [None, ("j0", "j0"), ("j2", "j2"), ("j0", "j2"), ("j2", "j0")])
    def test_unique_2loop_matches_loop_enumeration(self, toggle):
        # the arrow test against the simple loops inside {J0~, J2~}, on the
        # extension and on copies with one arrow inside the pair toggled: a
        # self-arrow added or a cross arrow cut
        E = extend(persistent(7), triangle_with_tail())
        ends = {"j0": E.base_index[E.spec.j0], "j2": E.base_index[E.spec.j2]}
        j0, j2 = ends.values()
        succ = [set(out) for out in E.successors]
        if toggle is not None:
            v, w = (ends[x] for x in toggle)
            succ[v] ^= {w}
        E = replace(E, successors=tuple(tuple(sorted(out)) for out in succ))
        inside = [[w for w in out if w in (j0, j2)] if v in (j0, j2) else [] for v, out in enumerate(E.successors)]
        lengths = {len(loop.vertices) for loop in enumerate_loops(E, 8, succ=inside)}
        assert verify_extension(E)["j0_j2_unique_2loop"] == (lengths == {2}) == (toggle is None)

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
    def test_persistent_j0_j2_classes(self, n):
        # J0 = [x0, y0] is class 0 and J2 = [x1, y_(n-2)] is class n - 1;
        # the extension spec names them from n = 7 on
        inst = persistent(n)
        x, y = inst.x_positions, inst.y_positions
        assert class_index(inst, x[0], y[0]) == 0
        assert class_index(inst, x[1], y[n - 2]) == n - 1
        if n >= 7:
            assert (inst.extension.j0, inst.extension.j2) == (0, n - 1)

    @pytest.mark.parametrize("name,n", [("dream", 5), ("montevideo", 4)])
    def test_no_j0_j2_pair_no_loop_facts(self, name, n):
        E = extend(make(name, n), triangle_with_tail())
        assert E.spec.j0 is None and E.spec.j2 is None
        assert not [key for key in verify_extension(E) if key.startswith("j0_j2")]

    def test_integer_evaluation_identity(self):
        # char * cofactor == x^pow * closed form, checked at x = 2 and 3
        for name, n in (("dream", 5), ("persistent", 7), ("montevideo", 4)):
            E = extend(make(name, n), triangle_with_tail())
            char = markov_char_poly(E)
            lhs = char * E.cofactor
            power = lhs.degree - E.expected_poly.degree
            for x in (2, 3):
                assert lhs.eval(x) == E.expected_poly.eval(x) * x**power

    def test_root_finder_errors_propagate(self, monkeypatch):
        # the cofactor's root count answers NoRootAbove for "certified"; any
        # other error from the root finder is a fault and must reach the caller
        import circledyn.families

        def broken(p, tol):
            raise ArithmeticError("root finder failed")

        E = extend(dream(5), triangle_with_tail())
        monkeypatch.setattr(circledyn.families, "largest_root_above", broken)
        with pytest.raises(ArithmeticError, match="root finder failed"):
            verify_extension(E)

    def test_apple_graph_extension(self):
        E = extend(dream(5), apple_graph())
        rep = verify_extension(E)
        assert rep["poly_exact"] and rep["transitive"] and rep["entropy_above_base"]

    def test_entropy_decreasing_along_n(self):
        # fixed ambient graph: extended entropies strictly decrease in n
        G = triangle_with_tail()
        brackets = []
        for n in range(5, 10):
            E = extend(dream(n), G)
            brackets.append(markov_entropy(E, F2(1, 10**10)))
        assert all(brackets[i].lower > brackets[i + 1].upper for i in range(len(brackets) - 1))

    def test_assignment_permutation_invariance(self):
        # permuting which U each L covers (keeping surjectivity) leaves the
        # characteristic polynomial unchanged
        E = extend(dream(5), triangle_with_tail())
        base_char = markov_char_poly(E)
        rng = random.Random(7)
        # the kept base classes, then the m L classes, then the U classes
        l_ids = range(E.size - E.u_count - E.m, E.size - E.u_count)
        u_ids = list(range(E.size - E.u_count, E.size))
        for _ in range(3):
            perm = u_ids[:]
            rng.shuffle(perm)
            relabel = dict(zip(u_ids, perm))
            matrix = [[int(j in out) for j in range(E.size)] for out in E.successors]
            for li in l_ids:
                (old_u,) = [j for j in u_ids if matrix[li][j]]
                matrix[li][old_u] = 0
                matrix[li][relabel[old_u]] = 1

            class Shim:
                pass

            shim = Shim()
            shim.successors = tuple(tuple(j for j, a in enumerate(row) if a) for row in matrix)
            assert markov_char_poly(shim) == base_char
