import math

import numpy as np
import pytest

from geowidth.errors import DomainError, InvalidPointError, ModelMismatchError
from geowidth.spaces import (
    CayleyTree,
    EuclideanSpace,
    HyperbolicPlane,
    MetricTree,
    convexity_defect,
    project_to_segment,
    quadrilateral_defect,
    triangle_defect,
)

from conftest import all_model_spaces


def tree_path_sum_oracle(tree: MetricTree, u, v) -> float:
    """Independent BFS path-sum distance between two vertices."""
    iu, iv = tree._index[u], tree._index[v]
    frontier = [(iu, 0.0)]
    seen = {iu}
    while frontier:
        nxt = []
        for node, acc in frontier:
            if node == iv:
                return acc
            for k, w in tree._adj[node]:
                if w not in seen:
                    seen.add(w)
                    nxt.append((w, acc + tree.edges[k][2]))
        frontier = nxt
    raise AssertionError("disconnected")


class TestDist:
    def test_pythagoras(self, euclid2):
        assert euclid2.dist(euclid2.point([0, 0]), euclid2.point([3, 4])) == pytest.approx(5.0)

    def test_hyperbolic_unit_speed(self, hyperbolic):
        p = hyperbolic.point([1, 0, 0])
        q = hyperbolic.point([math.cosh(1), math.sinh(1), 0])
        assert hyperbolic.dist(p, q) == pytest.approx(1.0, abs=1e-12)

    def test_tree_two_edge_path(self):
        tree = MetricTree(["a", "v", "b"], [("a", "v", 2.0), ("v", "b", 3.0)])
        d = tree.dist(tree.vertex_point("a"), tree.vertex_point("b"))
        assert d == pytest.approx(tree_path_sum_oracle(tree, "a", "b"))
        assert d == pytest.approx(5.0)

    def test_tree_matches_oracle_all_pairs(self, caterpillar):
        for u in caterpillar.vertices:
            for v in caterpillar.vertices:
                got = caterpillar.dist(caterpillar.vertex_point(u), caterpillar.vertex_point(v))
                assert got == pytest.approx(tree_path_sum_oracle(caterpillar, u, v))

    def test_model_mismatch(self, euclid2, tripod):
        with pytest.raises(ModelMismatchError):
            euclid2.dist(tripod.vertex_point("c"), tripod.vertex_point("p"))

    def test_unknown_edge(self, tripod):
        with pytest.raises(InvalidPointError):
            tripod.edge_point(10, 0.5)

    @pytest.mark.parametrize("name", list(all_model_spaces()))
    def test_metric_axioms_random(self, name):
        space = all_model_spaces()[name]
        rng = np.random.default_rng(11)
        for _ in range(100):
            p, q, r = (space.random_point(rng) for _ in range(3))
            dpq = space.dist(p, q)
            assert dpq >= 0.0
            assert dpq == pytest.approx(space.dist(q, p), abs=1e-12)
            assert space.dist(p, p) <= 1e-12
            assert dpq <= space.dist(p, r) + space.dist(r, q) + 1e-9


class TestGeodesicPoint:
    def test_euclidean_midpoint(self, euclid2):
        m = euclid2.geodesic_point(euclid2.point([0, 0]), euclid2.point([2, 0]), 0.5)
        assert np.allclose(m, [1, 0])

    @pytest.mark.parametrize("name", list(all_model_spaces()))
    def test_endpoints_exact(self, name):
        space = all_model_spaces()[name]
        rng = np.random.default_rng(3)
        p, q = space.random_point(rng), space.random_point(rng)
        assert space.same_point(space.geodesic_point(p, q, 0.0), p, tol=0)
        assert space.same_point(space.geodesic_point(p, q, 1.0), q, tol=0)

    def test_tree_midpoint_is_shared_vertex(self):
        tree = MetricTree(["a", "v", "b"], [("a", "v", 1.0), ("v", "b", 1.0)])
        m = tree.geodesic_point(tree.vertex_point("a"), tree.vertex_point("b"), 0.5)
        assert m == tree.vertex_point("v")

    @pytest.mark.parametrize("name", list(all_model_spaces()))
    def test_split_ratio(self, name):
        space = all_model_spaces()[name]
        rng = np.random.default_rng(5)
        for _ in range(50):
            p, q = space.random_point(rng), space.random_point(rng)
            t = float(rng.uniform())
            r = space.geodesic_point(p, q, t)
            d = space.dist(p, q)
            assert space.dist(p, r) == pytest.approx(t * d, abs=1e-9)
            assert space.dist(r, q) == pytest.approx((1 - t) * d, abs=1e-9)

    @pytest.mark.parametrize("name", list(all_model_spaces()))
    def test_composition(self, name):
        space = all_model_spaces()[name]
        rng = np.random.default_rng(7)
        for _ in range(25):
            p, q = space.random_point(rng), space.random_point(rng)
            s, t = float(rng.uniform()), float(rng.uniform())
            direct = space.geodesic_point(p, q, s * t)
            nested = space.geodesic_point(p, space.geodesic_point(p, q, t), s)
            assert space.dist(direct, nested) <= 1e-9

    def test_cayley_rounding_past_breakpoint(self, cayley2):
        # t * d = 3.0000000000000004 passes the vertex at arclength 3 by an ulp
        p, q = cayley2.vertex_point((2, 1, 1, 1, -2, -2)), cayley2.vertex_point((1, 1, 1, -2))
        assert cayley2.geodesic_point(p, q, 0.30000000000000004) == cayley2.vertex_point((2, 1, 1))

    def test_tree_rounding_past_breakpoint(self):
        path = MetricTree(list(range(11)), [(i, i + 1, 1.0) for i in range(10)])
        m = path.geodesic_point(path.vertex_point(0), path.vertex_point(10), 0.30000000000000004)
        assert m == path.vertex_point(3)

    def test_t_out_of_range(self, euclid2):
        p = euclid2.point([0, 0])
        with pytest.raises(DomainError):
            euclid2.geodesic_point(p, p, 1.5)

    def test_hyperboloid_constraint_preserved(self, hyperbolic):
        rng = np.random.default_rng(9)
        p = hyperbolic.random_point(rng)
        for _ in range(1000):
            q = hyperbolic.random_point(rng)
            p = hyperbolic.geodesic_point(p, q, float(rng.uniform()))
        assert abs(hyperbolic.minkowski(p, p) - 1.0) <= 1e-9


class TestTriangleDefect:
    def test_euclidean_equality(self, euclid2):
        rng = np.random.default_rng(1)
        for _ in range(200):
            pts = [euclid2.random_point(rng) for _ in range(3)]
            lam = float(rng.uniform())
            assert abs(triangle_defect(euclid2, *pts, lam)) <= 1e-9

    def test_tripod_hand_value(self, tripod):
        # leaves at pairwise distance 2; Q_0.5 is the center, d(P, center) = 1
        # RHS = 0.5*4 + 0.5*4 - 0.25*4 = 3, LHS = 1, defect = 2
        P, Q, R = (tripod.vertex_point(x) for x in "pqr")
        assert triangle_defect(tripod, P, Q, R, 0.5) == pytest.approx(2.0)
        # cross-check against the path-sum oracle
        c = tripod.geodesic_point(Q, R, 0.5)
        assert c == tripod.vertex_point("c")
        assert tripod.dist(P, c) == pytest.approx(tree_path_sum_oracle(tripod, "p", "c"))

    def test_degenerate(self, euclid2):
        p = euclid2.point([1, 2])
        assert triangle_defect(euclid2, p, p, p, 0.3) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", list(all_model_spaces()))
    def test_nonnegative_random(self, name):
        space = all_model_spaces()[name]
        rng = np.random.default_rng(13)
        for _ in range(300):
            pts = [space.random_point(rng) for _ in range(3)]
            lam = float(rng.uniform())
            assert triangle_defect(space, *pts, lam) >= -1e-9


class TestQuadrilateralDefect:
    def test_unit_square_equality(self, euclid2):
        P, Q, R, S = (euclid2.point(c) for c in [(0, 0), (1, 0), (1, 1), (0, 1)])
        assert abs(quadrilateral_defect(euclid2, P, Q, R, S, 0.5, 0.0)) <= 1e-9

    def test_degenerate_pairs(self, hyperbolic):
        rng = np.random.default_rng(2)
        p, r = hyperbolic.random_point(rng), hyperbolic.random_point(rng)
        # P = Q and R = S, alpha = 1: d_PS = d_QR so the defect collapses to
        # (1-t) d^2 + t d^2 - d(P_t,Q_t)^2 with both tracks the same geodesic
        for t in (0.0, 0.3, 1.0):
            val = quadrilateral_defect(hyperbolic, p, p, r, r, t, 1.0)
            assert abs(val) <= 1e-9

    def test_hyperbolic_random_positive(self, hyperbolic):
        rng = np.random.default_rng(42)
        pts = [hyperbolic.random_point(rng) for _ in range(4)]
        val = quadrilateral_defect(hyperbolic, *pts, 0.5, 0.5)
        assert val > 0.0

    @pytest.mark.parametrize("name", list(all_model_spaces()))
    def test_nonnegative_and_convexity(self, name):
        space = all_model_spaces()[name]
        rng = np.random.default_rng(17)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        for _ in range(60):
            pts = [space.random_point(rng) for _ in range(4)]
            for t in grid:
                for alpha in grid:
                    assert quadrilateral_defect(space, *pts, t, alpha) >= -1e-9
                assert convexity_defect(space, *pts, t) >= -1e-9

    def test_param_out_of_range(self, euclid2):
        p = euclid2.point([0, 0])
        with pytest.raises(DomainError):
            quadrilateral_defect(euclid2, p, p, p, p, 1.2, 0.0)


class TestProjection:
    def test_orthogonal_foot(self, euclid2):
        a, b, y = euclid2.point([0, 0]), euclid2.point([2, 0]), euclid2.point([1, 5])
        proj, t = project_to_segment(euclid2, a, b, y)
        assert np.allclose(proj, [1, 0], atol=1e-6)
        assert t == pytest.approx(0.5, abs=1e-6)

    def test_y_in_set(self, euclid2):
        a, b = euclid2.point([0, 0]), euclid2.point([2, 0])
        proj, t = project_to_segment(euclid2, a, b, a)
        assert t == 0.0
        assert np.allclose(proj, a)

    def test_tree_leaf_off_midpoint(self):
        tree = MetricTree(
            ["a", "m", "b", "leaf"],
            [("a", "m", 0.5), ("m", "b", 0.5), ("m", "leaf", 1.0)],
        )
        proj, t = project_to_segment(
            tree, tree.vertex_point("a"), tree.vertex_point("b"), tree.vertex_point("leaf")
        )
        assert proj == tree.vertex_point("m")
        assert t == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("name", ["euclid2", "hyperbolic", "caterpillar"])
    def test_against_grid_scan(self, name):
        space = all_model_spaces()[name]
        rng = np.random.default_rng(23)
        for _ in range(5):
            a, b, y = (space.random_point(rng) for _ in range(3))
            _, t = project_to_segment(space, a, b, y)
            best = min(
                space.dist(y, space.geodesic_point(a, b, s)) for s in np.linspace(0, 1, 10001)
            )
            found = space.dist(y, space.geodesic_point(a, b, t))
            assert found <= best + 1e-8


class TestConstruction:
    def test_tree_must_be_acyclic(self):
        with pytest.raises(DomainError):
            MetricTree([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])

    def test_tree_positive_lengths(self):
        with pytest.raises(DomainError):
            MetricTree([0, 1], [(0, 1, 0.0)])

    def test_tree_json_roundtrip(self, caterpillar):
        rebuilt = MetricTree.from_json(caterpillar.to_json_dict())
        assert rebuilt.vertices == caterpillar.vertices
        assert rebuilt.edges == caterpillar.edges

    def test_hyperbolic_bad_point(self, hyperbolic):
        with pytest.raises(InvalidPointError):
            hyperbolic.point([1, 2, 0])  # spacelike, cannot rescale onto the sheet
