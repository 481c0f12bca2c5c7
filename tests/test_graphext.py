import random
import sys
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest

from circledyn.errors import BadParameter, NotExtendable
from circledyn.families import dream, make, persistent
from circledyn.graphext import (
    CombGraph,
    excise,
    extend,
    traversal,
    verify_extension,
)
from circledyn.markov import entropy as markov_entropy, markov_char_poly
from family_classes import class_index

F2 = Fraction


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

    def test_bridges(self):
        G = triangle_with_tail()
        assert G.bridges() == {3}  # only the pendant edge

    def test_json_roundtrip(self):
        G = apple_graph()
        assert CombGraph.from_json(G.to_json()).edges == G.edges


class TestTraversal:
    def test_three_star(self):
        X, a, b = three_star_excised()
        tr = traversal(X, a, b)
        assert tr.m >= 5 and tr.m % 2 == 1
        assert tr.parity_property_holds()
        assert tr.m == 2 * len(tr.steps) - 1
        assert 1 <= tr.u_count <= tr.m

    def test_apple_after_excision(self):
        X, a, b = excise(apple_graph())
        tr = traversal(X, a, b)
        assert tr.m >= 5 and tr.m % 2 == 1
        assert tr.parity_property_holds()
        # b appears exactly once among the s-images, at the last index
        b_hits = [i for i, img in enumerate(tr.s_images) if img == ("vertex", b)]
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
        alphas = {img for img in tr.s_images if img[0] == "alpha"}
        assert alphas  # every traversed component carries its midpoint

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
        assert tr.m == 2 * len(tr.steps) - 1 and tr.parity_property_holds()


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

    def test_persistent_loop_facts(self):
        E = extend(persistent(7), triangle_with_tail())
        rep = verify_extension(E)
        assert rep["j0_j2_unique_2loop"] and rep["j0_j2_loop_positive"]

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
    def test_persistent_j0_j2_classes(self, n):
        # verify_extension reads J0 = [x0, y0] as class 0 and
        # J2 = [x1, y_(n-2)] as class n - 1
        inst = persistent(n)
        x, y = inst.x_positions, inst.y_positions
        assert class_index(inst, x[0], y[0]) == 0
        assert class_index(inst, x[1], y[n - 2]) == n - 1

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

        def broken(p, lo, tol):
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
            shim.orientation = E.orientation
            assert markov_char_poly(shim) == base_char
