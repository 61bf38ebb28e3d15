import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geowidth import spaces
from geowidth.equivariant import build_bouquet_map
from geowidth.errors import DomainError, InvalidPointError, ModelMismatchError
from geowidth.isometries import CayleyTranslation, HyperbolicIsometry, TreeAutomorphism
from geowidth.spaces import (
    INNER_TOLERANCE,
    CayleyPoint,
    CayleyTree,
    EuclideanSpace,
    HyperbolicPlane,
    MetricTree,
    VERTEX_SNAP,
    TreePoint,
    comparison_sweep,
    convexity_defect,
    quadrilateral_defect,
    triangle_defect,
)

from conftest import all_model_spaces, deep_tree, readme_rep, window_tree


def _edge_ends(tree: MetricTree, x: TreePoint):
    """(vertex, arclength from x) for each end of x's edge; x itself if it is a vertex."""
    if x.edge is None:
        return [(x.vertex, 0.0)]
    a, b, length = tree.edges[x.edge]
    return [(a, x.offset), (b, length - x.offset)]


def tree_path_sum_oracle(tree: MetricTree):
    """Independent point distances: ``oracle(p)(x)`` sums the path from each end of p's edge."""
    adj = {v: [] for v in tree.vertices}
    for a, b, length in tree.edges:
        adj[a].append((b, length))
        adj[b].append((a, length))

    def from_point(p: TreePoint):
        tables = []
        for u, cu in _edge_ends(tree, p):
            acc, frontier = {u: cu}, [u]
            for node in frontier:
                for w, length in adj[node]:
                    if w not in acc:
                        acc[w] = acc[node] + length
                        frontier.append(w)
            tables.append(acc)

        def dist(x: TreePoint) -> float:
            if x.edge is not None and x.edge == p.edge:
                return abs(x.offset - p.offset)
            return min(acc[v] + cv for acc in tables for v, cv in _edge_ends(tree, x))

        return dist

    return from_point


def recursive_tree(n: int, window: int, seed: int):
    """Vertex i hangs off one of the ``window`` vertices before it; returns (tree, parents).

    Edge i - 1 joins vertex i to its parent, in a random orientation.
    """
    rng = np.random.default_rng(seed)
    parents = [None] + [int(rng.integers(max(0, i - window), i)) for i in range(1, n)]
    ends = [(i, parents[i]) if rng.random() < 0.5 else (parents[i], i) for i in range(1, n)]
    return MetricTree(list(range(n)), [(a, b, float(rng.uniform(0.5, 2.0))) for a, b in ends]), parents


class TestDist:
    def test_pythagoras(self, euclid2):
        assert euclid2.dist(euclid2.point([0, 0]), euclid2.point([3, 4])) == pytest.approx(5.0)

    def test_hyperbolic_unit_speed(self, hyperbolic):
        p = hyperbolic.point([1, 0, 0])
        q = hyperbolic.point([math.cosh(1), math.sinh(1), 0])
        assert hyperbolic.dist(p, q) == pytest.approx(1.0, abs=1e-12)

    def test_tree_two_edge_path(self):
        tree = MetricTree(["a", "v", "b"], [("a", "v", 2.0), ("v", "b", 3.0)])
        a, b = tree.vertex_point("a"), tree.vertex_point("b")
        d = tree.dist(a, b)
        assert d == pytest.approx(tree_path_sum_oracle(tree)(a)(b))
        assert d == pytest.approx(5.0)

    def test_tree_matches_oracle_all_pairs(self, caterpillar):
        for u in caterpillar.vertices:
            oracle = tree_path_sum_oracle(caterpillar)(caterpillar.vertex_point(u))
            for v in caterpillar.vertices:
                got = caterpillar.dist(caterpillar.vertex_point(u), caterpillar.vertex_point(v))
                assert got == pytest.approx(oracle(caterpillar.vertex_point(v)))

    @pytest.mark.parametrize(
        "dtype, x", [(np.int64, 4_000_000_000), (np.int32, 40_000), (np.float32, 1.1)]
    )
    def test_euclidean_other_dtypes_as_norm(self, euclid2, dtype, x):
        # squaring 4e9 in int64 wraps, as norm's cast to float does not;
        # float32 points keep norm's single-precision square root
        p = np.array([x, 3], dtype=dtype)
        q = np.array([0, -1], dtype=dtype)
        assert euclid2.dist(p, q) == float(np.linalg.norm(p - q))
        assert euclid2.dist(p, q) > 0.0

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
        assert space.dist(space.geodesic_point(p, q, 0.0), p) == 0.0
        assert space.dist(space.geodesic_point(p, q, 1.0), q) == 0.0

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

    @pytest.mark.parametrize(
        "name", [name for name, space in all_model_spaces().items() if isinstance(space, (MetricTree, CayleyTree))]
    )
    def test_vertex_crossings_round_to_the_vertex(self, name):
        # every vertex a random geodesic crosses, at its t and both float neighbours of it
        space = all_model_spaces()[name]
        rng = np.random.default_rng(29)
        for _ in range(30):
            p, q = space.random_point(rng), space.random_point(rng)
            d = space.dist(p, q)
            if isinstance(space, CayleyTree):  # a geodesic's vertices are prefixes of its ends' edges
                ends = [x.word + ((x.letter,) if x.letter else ()) for x in (p, q)]
                candidates = {w[:k] for w in ends for k in range(len(w) + 1)}
            else:
                candidates = space.vertices
            for v in map(space.vertex_point, candidates):
                t_v = space.dist(p, v) / d
                if not (0.0 < t_v < 1.0 and space.dist(p, v) + space.dist(v, q) <= d + 1e-9):
                    continue
                for t in (math.nextafter(t_v, 0.0), t_v, math.nextafter(t_v, 1.0)):
                    assert space.geodesic_point(p, q, t) == v

    @pytest.mark.parametrize("name", ["tripod", "deep-tree", "cayley2"])
    def test_numpy_t_gives_float_fields(self, name):
        space = all_model_spaces()[name]
        rng = np.random.default_rng(37)
        interior = 0
        for _ in range(200):
            p, q, t = space.random_point(rng), space.random_point(rng), float(rng.uniform())
            x = space._geodesic_point(p, q, np.float64(t))
            assert x == space._geodesic_point(p, q, t)
            assert type(x.offset if isinstance(x, TreePoint) else x.t) is float
            interior += x.edge is not None if isinstance(x, TreePoint) else x.letter != 0
        assert interior > 100

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


def counted_hooks(space, monkeypatch) -> dict:
    """Record each span the instance's ``_span`` returns and count its ``_step`` calls."""
    calls = {"spans": [], "step": 0}
    span, step = space._span, space._step

    def counted_span(p, q):
        calls["spans"].append(span(p, q))
        return calls["spans"][-1]

    def counted_step(s, t):
        calls["step"] += 1
        return step(s, t)

    monkeypatch.setattr(space, "_span", counted_span)
    monkeypatch.setattr(space, "_step", counted_step)
    return calls


class TestGeodesicHooks:
    """``Space`` owns the endpoint rules and both loops; a model's ``_span`` and ``_step`` run only past them."""

    @pytest.mark.parametrize("name", list(all_model_spaces()))
    def test_scalar_kernel(self, name, monkeypatch):
        space = all_model_spaces()[name]
        rng = np.random.default_rng(59)
        p, q = space.random_point(rng), space.random_point(rng)
        calls = counted_hooks(space, monkeypatch)
        assert space._geodesic_point(p, q, 0.0) is p and space._geodesic_point(p, q, 1.0) is q
        assert calls == {"spans": [], "step": 0}
        for a, b in ((p, q), (p, p)):
            calls.update(spans=[], step=0)
            x = space._geodesic_point(a, b, 0.25)
            assert len(calls["spans"]) == 1
            if calls["spans"][0] is None:
                assert calls["step"] == 0 and x is a
            else:
                assert calls["step"] == 1
        # the span of (p, p): only Euclidean space has no length-0 rule
        assert (calls["spans"][0] is None) == (space.model != "euclidean")

    @pytest.mark.parametrize("name", list(all_model_spaces()))
    @pytest.mark.parametrize("ts", [[], [0.0, 1.0], [0.5], [0.0, 0.25, 0.5, 1.0, 0.75], [i / 64 for i in range(65)]])
    def test_batch_kernel_takes_one_span(self, name, ts, monkeypatch):
        space = all_model_spaces()[name]
        rng = np.random.default_rng(61)
        p, q = space.random_point(rng), space.random_point(rng)
        calls = counted_hooks(space, monkeypatch)
        interior = sum(0.0 < t < 1.0 for t in ts)
        for a, b in ((p, q), (p, p)):
            calls.update(spans=[], step=0)
            space._geodesic_points(a, b, ts)
            assert len(calls["spans"]) == 1
            assert calls["step"] == (0 if calls["spans"][0] is None else interior)


class TestTreeReferee:
    """dist and geodesic_point against the path-sum oracle on large random recursive trees."""

    @staticmethod
    def pairs(tree, parents, rng, count):
        """Vertex and interior pairs, pairs on one edge, and pairs with one point on the other's root path."""

        def vertex(lowest=0):
            return tree.vertex_point(int(rng.integers(lowest, len(tree.vertices))))

        def interior(k):
            return tree.edge_point(k, float(rng.uniform(0.0, tree.edges[k][2])))

        def edge():
            return int(rng.integers(len(tree.edges)))

        for i in range(count):
            kind = i % 5
            if kind == 0:
                p, q = vertex(), vertex()
            elif kind == 1:
                p, q = vertex(), interior(edge())
            elif kind == 2:
                p, q = interior(edge()), interior(edge())
            elif kind == 3:
                k = edge()
                p, q = interior(k), interior(k)
            else:
                q = vertex(lowest=1) if i % 2 else interior(edge())  # not the root, vertex 0
                low, above = (q.vertex if q.edge is None else q.edge + 1), []
                while low != 0:  # the edges of q's root path
                    above.append(low - 1)
                    low = parents[low]
                p = interior(above[int(rng.integers(len(above)))])
            yield (q, p) if (i // 10) % 2 else (p, q)

    def test_thousand_vertex_tree_matches_oracle(self):
        tree, parents = recursive_tree(1000, 24, seed=41)
        rng = np.random.default_rng(43)
        oracle = tree_path_sum_oracle(tree)
        for p, q in self.pairs(tree, parents, rng, 2000):
            from_p, from_q = oracle(p), oracle(q)
            d = from_p(q)
            assert tree.dist(p, q) == pytest.approx(d, abs=1e-9)
            t = float(rng.uniform())
            r = tree.geodesic_point(p, q, t)
            assert from_p(r) == pytest.approx(t * d, abs=1e-9)
            assert from_q(r) == pytest.approx((1.0 - t) * d, abs=1e-9)

    def test_hundred_thousand_vertex_tree(self):
        tree, _ = recursive_tree(100_000, 24, seed=47)
        p, q = tree.edge_point(99_998, 0.25), tree.vertex_point(50_000)
        d = tree_path_sum_oracle(tree)(p)(q)
        assert d > 1000.0
        assert tree.dist(p, q) == pytest.approx(d, abs=1e-9 * d)


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
        assert tripod.dist(P, c) == pytest.approx(tree_path_sum_oracle(tripod)(P)(c))

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


def foreign_point(space):
    """A point of another model."""
    return np.array([1.0, 0.0, 0.0]) if isinstance(space, CayleyTree) else CayleyPoint()


class TestBoundaryChecks:
    """Public entry points check each point once, then run the trusted kernels."""

    @pytest.mark.parametrize("name", list(all_model_spaces()))
    def test_quadrilateral_checks_each_point_once(self, name, monkeypatch):
        space = all_model_spaces()[name]
        rng = np.random.default_rng(5)
        pts = [space.random_point(rng) for _ in range(4)]
        checked, check = [], space._check_point
        monkeypatch.setattr(space, "_check_point", lambda p: checked.append(id(p)) or check(p))
        quadrilateral_defect(space, *pts, 0.5, 0.5)
        assert sorted(checked) == sorted(id(p) for p in pts)
        checked.clear()
        comparison_sweep(space, *pts, 0.5, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert sorted(checked) == sorted(id(p) for p in pts)

    @pytest.mark.parametrize("name", list(all_model_spaces()))
    def test_public_calls_refuse_a_foreign_point(self, name):
        space = all_model_spaces()[name]
        p, x = space.random_point(np.random.default_rng(6)), foreign_point(space)
        calls = [
            lambda: space.dist(p, x),
            lambda: space.dist(x, p),
            lambda: space.geodesic_point(p, x, 0.5),
            lambda: space.geodesic_point(x, p, 0.0),
            lambda: comparison_sweep(space, p, p, x, p, 0.5, [0.5]),
        ]
        for call in calls:
            with pytest.raises(ModelMismatchError):
                call()

    @pytest.mark.parametrize("t", [-0.1, 1.5])
    @pytest.mark.parametrize("name", list(all_model_spaces()))
    def test_defects_refuse_t_outside_unit_interval(self, name, t):
        space = all_model_spaces()[name]
        rng = np.random.default_rng(7)
        P, Q, R, S = (space.random_point(rng) for _ in range(4))
        with pytest.raises(DomainError):
            triangle_defect(space, P, Q, R, t)
        with pytest.raises(DomainError):
            quadrilateral_defect(space, P, Q, R, S, t, 0.5)
        with pytest.raises(DomainError):
            convexity_defect(space, P, Q, R, S, t)
        with pytest.raises(DomainError):
            comparison_sweep(space, P, Q, R, S, t, [0.5])
        with pytest.raises(DomainError):
            comparison_sweep(space, P, Q, R, S, 0.5, [0.0, t])

    def test_distances_too_large_to_square(self):
        tree = MetricTree(["a", "b", "c"], [("a", "b", 1e200), ("b", "c", 1.0)])
        P, Q, R = (tree.vertex_point(v) for v in "abc")
        with pytest.raises(DomainError):
            triangle_defect(tree, P, Q, R, 0.5)
        with pytest.raises(DomainError):
            quadrilateral_defect(tree, P, Q, R, P, 0.5, 0.5)
        with pytest.raises(DomainError):
            comparison_sweep(tree, P, Q, R, P, 0.5, [0.5])


class TestConstruction:
    def test_tree_must_be_acyclic(self):
        with pytest.raises(DomainError):
            MetricTree([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])

    def test_tree_positive_lengths(self):
        with pytest.raises(DomainError):
            MetricTree([0, 1], [(0, 1, 0.0)])

    @pytest.mark.parametrize("length", [math.nan, math.inf])
    def test_tree_finite_lengths(self, length):
        with pytest.raises(DomainError, match="not positive and finite"):
            MetricTree([0, 1, 2], [(0, 1, 1.0), (1, 2, length)])

    def test_tree_needs_an_edge(self):
        with pytest.raises(DomainError):
            MetricTree([0], [])

    def test_tree_json_roundtrip(self, caterpillar):
        rebuilt = MetricTree.from_json(caterpillar.to_json_dict())
        assert rebuilt.vertices == caterpillar.vertices
        assert rebuilt.edges == caterpillar.edges

    @pytest.mark.parametrize(
        "point",
        [
            CayleyPoint(word=(1,), letter=-1, t=0.5),  # canonical form: edge_point((), 1, 0.5)
            CayleyPoint(word=(1, -1)),  # the identity vertex, unreduced
            CayleyPoint(word=(1, 0, 2)),  # letter 0 is no generator
        ],
    )
    def test_cayley_non_canonical_point(self, point):
        space = CayleyTree(2)
        with pytest.raises(InvalidPointError):
            space.validate_point(point)
        with pytest.raises(InvalidPointError):
            space.dist(point, space.vertex_point(()))

    @pytest.mark.parametrize(
        "build",
        [
            lambda s: s.vertex_point((1, 0, 2)),
            lambda s: s.edge_point((1, 0, 2), 1, 0.5),
            lambda s: s.edge_point((1, -1), 2, 0.5),
        ],
        ids=["vertex-zero-letter", "edge-zero-letter", "edge-unreduced"],
    )
    def test_cayley_constructors_check_through_validate_point(self, build):
        with pytest.raises(InvalidPointError):
            build(CayleyTree(2))

    def test_hyperbolic_bad_point(self, hyperbolic):
        with pytest.raises(InvalidPointError):
            hyperbolic.point([1, 2, 0])  # spacelike, cannot rescale onto the sheet

    @pytest.mark.parametrize(
        "call",
        [
            lambda h: h.point([1e200, 0.0, 0.0]),
            lambda h: h.normalize(h.from_polar(355.75, math.pi / 4)),
            lambda h: spaces._h_exp((1.0, 0.0, 0.0), (0.0, 355.75 / math.sqrt(2.0), 355.75 / math.sqrt(2.0))),
        ],
        ids=["point", "normalize", "exp"],
    )
    def test_overflowed_minkowski_square_is_refused(self, hyperbolic, call):
        # x0^2 overflows alone, so x0^2 - x1^2 - x2^2 is inf and scaling by its root would give (0, 0, 0)
        with pytest.raises(InvalidPointError):
            call(hyperbolic)

    def test_hyperbolic_nan_point_refused(self, hyperbolic):
        p = np.array([math.nan, 0.0, 0.0])
        with pytest.raises(InvalidPointError):
            hyperbolic.validate_point(p)
        with pytest.raises(InvalidPointError):
            build_bouquet_map(readme_rep(), p)


class TestHyperbolicLocalMin:
    @pytest.mark.parametrize(
        "matrix", [[[1, 2], [0, 1]], [[3, 0], [0, 1 / 3]], [[12, 5], [7, 3]]], ids=["parabolic", "axial", "sl2z"]
    )
    def test_trial_steps_off_the_sheet_fail_like_armijo_trials(self, hyperbolic, matrix):
        # long trial steps, and short ones from iterates near radius 10, can round off the sheet
        loop = [(1.0, HyperbolicIsometry(matrix))]
        for k in range(200):
            y0 = hyperbolic.random_point(np.random.default_rng(k))
            y = hyperbolic.local_min(y0, [], loop)
            assert hyperbolic.local_value(y, [], loop) <= hyperbolic.local_value(y0, [], loop)

    @pytest.mark.parametrize("r", [89.57, 89.6])
    def test_trial_step_past_float_range_fails(self, hyperbolic, r):
        # from the origin, a loop whose axis lies r away along pi/4 makes a first trial of about 4 r, whose x0^2
        # alone overflows: _dist reads 0 to (0, 0, 0), so taking it would look like an exact minimum
        c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
        d = HyperbolicIsometry([[math.exp(r / 2), 0.0], [0.0, math.exp(-r / 2)]])
        rot = HyperbolicIsometry([[c, -s], [s, c]])
        axial = HyperbolicIsometry([[math.cosh(0.5), math.sinh(0.5)], [math.sinh(0.5), math.cosh(0.5)]])
        loop = rot.compose(d).compose(axial).compose(d.inverse()).compose(rot.inverse())
        y = hyperbolic.local_min(hyperbolic.point([1.0, 0.0, 0.0]), [], [(1.0, loop)])
        assert np.all(np.isfinite(y)) and y[0] >= 1.0


# Reference builders: tree points as they were made before the trusted constructors, each through the public,
# checking edge_point, and MetricTree's rooted-tree queries as they ran before heavy paths, one parent per step.


def climbing_lca(tree, i, j):
    parents, levels = tree._parents, tree._levels
    while levels[i] > levels[j]:
        i = parents[i]
    while levels[j] > levels[i]:
        j = parents[j]
    while i != j:
        i, j = parents[i], parents[j]
    return i


def climbing_above(tree, i, h, snap):
    parents, heights = tree._parents, tree._heights
    while heights[i] - h > snap:
        j = parents[i]
        r = h - heights[j]
        if r > snap:
            k = tree._pedges[i]
            ia, _, length = tree._ends[k]
            return tree.edge_point(k, min(r, length) if ia == j else max(length - r, 0.0))
        i = j
    return TreePoint(vertex=tree.vertices[i])


def checked_metric_random_point(tree, rng):
    k = int(rng.integers(0, len(tree.edges)))
    offset = float(rng.uniform(0.0, tree.edges[k][2]))
    return tree.edge_point(k, offset)


def checked_cayley_random_point(tree, rng):
    k = int(rng.integers(0, tree.RANDOM_WORD_CAP + 1))
    letters = []
    for _ in range(k):
        while True:
            x = int(rng.integers(1, tree.rank + 1)) * (1 if rng.random() < 0.5 else -1)
            if not letters or letters[-1] != -x:
                break
        letters.append(x)
    w = tuple(letters)
    if rng.random() < 0.5:
        return CayleyPoint(word=w)
    while True:
        x = int(rng.integers(1, tree.rank + 1)) * (1 if rng.random() < 0.5 else -1)
        if not w or w[-1] != -x:
            break
    return tree.edge_point(w, x, float(rng.uniform(0.0, 1.0)))


TREE_MODELS = [name for name, space in all_model_spaces().items() if isinstance(space, (MetricTree, CayleyTree))]


class TestTrustedTreePoints:
    """The trusted builders give the points that the checking edge_point gave, and check nothing."""

    @pytest.mark.parametrize("name", TREE_MODELS + ["cayley1", "cayley3"])
    def test_random_points_match_the_checked_path(self, name):
        space = {"cayley1": CayleyTree(1), "cayley3": CayleyTree(3)}.get(name) or all_model_spaces()[name]
        checked = checked_cayley_random_point if isinstance(space, CayleyTree) else checked_metric_random_point
        rng, reference = np.random.default_rng(41), np.random.default_rng(41)
        for _ in range(2000):
            assert space.random_point(rng) == checked(space, reference)

    @pytest.mark.parametrize("name", ["tripod", "caterpillar", "deep-tree", "recursive"])
    def test_tree_geodesic_points_match_the_checked_path(self, name, monkeypatch):
        tree = recursive_tree(500, 8, 5)[0] if name == "recursive" else all_model_spaces()[name]
        rng = np.random.default_rng(43)
        triples = [(tree.random_point(rng), tree.random_point(rng), float(rng.uniform())) for _ in range(2000)]
        triples += [(p, q, t) for p, q, _ in triples[:200] for t in (0.5, math.nextafter(1.0, 0.0))]
        got = [tree.geodesic_point(p, q, t) for p, q, t in triples]
        monkeypatch.setattr(tree, "_above", lambda i, h, snap: climbing_above(tree, i, h, snap))
        assert got == [tree.geodesic_point(p, q, t) for p, q, t in triples]

    @pytest.mark.parametrize("name", TREE_MODELS)
    def test_builders_call_no_point_check(self, name, monkeypatch):
        space = all_model_spaces()[name]
        rng = np.random.default_rng(53)
        if isinstance(space, CayleyTree):
            g = CayleyTranslation(space, (1, 2, -1))
        else:  # the identity, which every tree has
            g = TreeAutomorphism(space, {v: v for v in space.vertices})
        points = [space.random_point(rng) for _ in range(40)]
        calls = []
        for check in ("validate_point", "edge_point", "vertex_point"):
            monkeypatch.setattr(space, check, lambda *args, check=check: calls.append(check))
        for p, q in zip(points, points[1:]):
            space._geodesic_point(p, q, float(rng.uniform()))
            g.apply(p)
            space.random_point(rng)
        for p, q in zip(points[:4], points[1:5]):  # the walk and its exact edge step build points too
            space.local_min(p, [(1.0, q)], [(0.5, g)])
        assert calls == []


def root_path(tree, i):
    path = [i]
    while path[-1] != 0:
        path.append(tree._parents[path[-1]])
    return path


def probe_heights(tree, i, j, v):
    """The snap of a geodesic from i to j, and heights at v that i's root path holds: v's own, inside v's snap, on
    its edge and one float outside it."""
    heights = tree._heights
    snap, hv = VERTEX_SNAP * max(1.0, heights[i] + heights[j]), heights[v]
    probes = [hv, hv - 0.5 * snap, hv + 0.5 * snap, hv - 2.0 * snap, hv + 2.0 * snap]
    for edge in (hv - snap, hv + snap):
        probes += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
    return snap, [h for h in probes if 0.0 <= h <= heights[i]]


class TestHeavyPaths:
    """MetricTree's heavy-path ``_lca`` and ``_above`` against the climbs they replaced."""

    @staticmethod
    def check(tree, i, j, stops, rng):
        assert tree._lca(i, j) == climbing_lca(tree, i, j), (i, j)
        for v in stops:
            snap, probes = probe_heights(tree, i, j, v)
            probes.append(float(rng.uniform(0.0, tree._heights[i])))
            for h in probes:
                assert tree._above(i, h, snap) == climbing_above(tree, i, h, snap), (i, j, v, h)

    @pytest.mark.parametrize("name", ["tripod", "star", "caterpillar"])
    def test_all_vertex_pairs(self, name):
        star = MetricTree(["l0", "c"] + [f"l{k}" for k in range(1, 7)], [("c", f"l{k}", 0.5 + k) for k in range(7)])
        tree = star if name == "star" else all_model_spaces()[name]
        rng = np.random.default_rng(67)
        n = len(tree.vertices)
        for i in range(n):
            for j in range(n):
                self.check(tree, i, j, root_path(tree, i), rng)

    @pytest.mark.parametrize("name, pairs", [("deep-tree", 600), ("window-2", 300), ("window-24", 600)])
    def test_seeded_pairs(self, name, pairs):
        tree = {
            "deep-tree": deep_tree,
            "window-2": lambda: window_tree(5000, 2, 3),  # the tree file of tests/test_cli.py
            "window-24": lambda: window_tree(1000, 24, 71),
        }[name]()
        rng = np.random.default_rng(73)
        n = len(tree.vertices)
        for _ in range(pairs):
            i, j = (int(x) for x in rng.integers(n, size=2))
            path = root_path(tree, i)
            stops = [i, climbing_lca(tree, i, j), path[int(rng.integers(len(path)))], 0]
            self.check(tree, i, j, stops, rng)

    def test_vertex_past_the_rounded_sum_of_h_and_snap(self):
        # h + snap rounds down to 1.0 (a tie), below vertex 1, yet heights[1] - h ties down to snap: vertex 1 is
        # within snap of h
        tree = MetricTree([0, 1, 2], [(0, 1, 1.0 + 2.0**-52), (1, 2, 1.0)])
        h, snap = 2.0**-53, 1.0
        assert h + snap < tree._heights[1] and tree._heights[1] - h <= snap
        assert tree._above(2, h, snap) == climbing_above(tree, 2, h, snap) == TreePoint(vertex=1)

    def test_hundred_thousand_deep_vertices(self):
        # climbing one parent per step took about 10 s for these calls on a 2-core Xeon
        tree = window_tree(100_000, 2, 79)
        assert max(tree._levels) >= 30_000
        rng = np.random.default_rng(83)

        def point(lo, hi):
            k = int(rng.integers(lo, hi))
            return tree._edge_point(k, float(rng.uniform(0.0, tree.edges[k][2])))

        pairs = [(point(90_000, 99_999), point(0, 10_000)) for _ in range(1000)]
        pairs += [(point(90_000, 99_999), point(90_000, 99_999)) for _ in range(1000)]
        t0 = time.perf_counter()
        dists = [tree._dist(p, q) for p, q in pairs]
        mids = [tree._geodesic_point(p, q, 0.5) for p, q in pairs]
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        assert min(dists[:1000]) > 10_000.0
        assert all(tree._dist(p, m) == pytest.approx(0.5 * d, abs=1e-9 * d) for (p, _), m, d in zip(pairs, mids, dists))


# Referees: the golden-section search that the tree descent walk replaced, and the candidate scan of the old tree
# local search.

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section step ratio


def golden_section(f, a: float, b: float, tol: float) -> float:
    """Argmin of a unimodal (convex) function on [a, b]."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def reference_segment_min(space, a, b, f):
    """The least of f at a, at the golden-section argmin on [a, b], and at b."""
    if space._dist(a, b) < 1e-15:
        return f(a)
    s = golden_section(lambda s: f(space._geodesic_point(a, b, s)), 0.0, 1.0, INNER_TOLERANCE)
    return min(f(a), f(space._geodesic_point(a, b, s)), f(b))


def reference_local_value(space, y0, point_terms, iso_terms):
    """The least objective over y0, the candidate vertices and a golden-section search of each candidate edge.

    The candidates are every vertex and edge of a finite tree, and on a Cayley tree the subtree that y0 and the
    term targets (isometry images both ways) span."""
    def f(y):
        return space.local_value(y, point_terms, iso_terms)

    if isinstance(space, MetricTree):
        vertices = [TreePoint(v) for v in space.vertices]
        edges = [(TreePoint(a), TreePoint(b)) for a, b, _ in space.edges]
    else:
        anchors = [y0] + [p for _, p in point_terms] + [b.apply(y0) for _, a in iso_terms for b in (a, a.inverse())]
        ends = {p.word for p in anchors} | {p.word + (p.letter,) for p in anchors if p.letter}
        first, spanned = next(iter(ends)), set()
        for w in ends:  # the path first -> w
            m = len(CayleyTree._lca(first, w))
            spanned.update([first[:k] for k in range(m, len(first) + 1)] + [w[:k] for k in range(m, len(w) + 1)])
        vertices = [CayleyPoint(w) for w in spanned]
        edges = [(CayleyPoint(w[:-1]), CayleyPoint(w)) for w in spanned if w]
    return min([f(y0)] + [f(p) for p in vertices] + [reference_segment_min(space, a, b, f) for a, b in edges])


def _tree_flip(space, rng):
    # swaps the ends of edge u-v, fixing only its midpoint
    return TreeAutomorphism(space, {"u": "v", "v": "u", "u1": "v1", "v1": "u1", "u2": "v2", "v2": "u2"})


def _tripod_swap(space, rng):
    return TreeAutomorphism(space, {"c": "c", "p": "q", "q": "p", "r": "r"})


def _cayley_translation(space, rng):
    return CayleyTranslation(space, space.random_point(rng).word)


# (space, a seeded loop isometry or None)
LOCAL_MIN_MODELS = {
    "tripod": (all_model_spaces()["tripod"], _tripod_swap),
    "caterpillar": (all_model_spaces()["caterpillar"], None),
    "dumbbell": (
        MetricTree(
            ["u", "v", "u1", "u2", "v1", "v2"],
            [("u", "v", 2.0), ("u", "u1", 1.0), ("v", "v1", 1.0), ("u", "u2", 0.5), ("v", "v2", 0.5)],
        ),
        _tree_flip,
    ),
    "deep-tree": (deep_tree(), None),
    "cayley2": (CayleyTree(2), _cayley_translation),
    "cayley3": (CayleyTree(3), _cayley_translation),
}


def local_min_instance(name, rng, k):
    """(space, y0, point_terms, iso_terms), seeded; every fourth instance with a loop isometry has it as its one term,
    so the walk stops beside the flip's fixed midpoint or the translation's axis."""
    space, loop = LOCAL_MIN_MODELS[name]
    y0 = space.random_point(rng)
    if loop and k % 4 == 0:
        return space, y0, [], [(1.0, loop(space, rng))]
    point_terms = [(float(rng.uniform(0.1, 2.0)), space.random_point(rng)) for _ in range(int(rng.integers(1, 4)))]
    iso_terms = [(float(rng.uniform(0.1, 2.0)), loop(space, rng)) for _ in range(int(rng.integers(0, 3)) if loop else 0)]
    return space, y0, point_terms, iso_terms


class TestTreeLocalMin:
    """The descent walk against the candidate scan it replaced, and the walk's own guarantees."""

    # 1,003 instances; a Cayley reference takes about 20 ms, and the deep tree's scans all 299 edges in 0.25 s
    @pytest.mark.parametrize(
        "name, count",
        [("tripod", 400), ("caterpillar", 250), ("dumbbell", 250), ("cayley2", 50), ("cayley3", 50), ("deep-tree", 3)],
    )
    def test_never_worse_than_the_candidate_scan(self, name, count):
        rng = np.random.default_rng(59)
        for k in range(count):
            space, y0, point_terms, iso_terms = local_min_instance(name, rng, k)
            value = space.local_value(space.local_min(y0, point_terms, iso_terms), point_terms, iso_terms)
            reference = reference_local_value(space, y0, point_terms, iso_terms)
            assert value <= reference + 1e-12 * max(1.0, value), (name, k)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(list(LOCAL_MIN_MODELS)))
    def test_no_edge_out_of_the_result_descends(self, seed, name):
        space, y0, point_terms, iso_terms = local_min_instance(name, np.random.default_rng(seed), seed)
        x = space.local_min(y0, point_terms, iso_terms)

        def f(y):
            return space.local_value(y, point_terms, iso_terms)

        scale = max(1.0, f(x))
        for q in space._neighbours(x):
            assert reference_segment_min(space, x, q, f) >= f(x) - 1e-12 * scale, q

    @pytest.mark.parametrize("name", list(LOCAL_MIN_MODELS))
    def test_exact_step_runs_on_the_edges_out_of_one_point(self, name, monkeypatch):
        space = LOCAL_MIN_MODELS[name][0]
        edge_min, calls = space._edge_min, []
        monkeypatch.setattr(space, "_edge_min", lambda p, q, *rest: calls.append((p, q)) or edge_min(p, q, *rest))
        rng = np.random.default_rng(61)
        for k in range(40):
            _, y0, point_terms, iso_terms = local_min_instance(name, rng, k)
            calls.clear()
            space.local_min(y0, point_terms, iso_terms)
            (p,) = {p for p, _ in calls}
            assert [q for _, q in calls] == space._neighbours(p)

    @pytest.mark.parametrize("name", ["caterpillar", "cayley2"])
    def test_interior_start_that_rounds_onto_its_edge_end(self, name):
        space = LOCAL_MIN_MODELS[name][0]
        # 1e-20 past a vertex at height 2 or 3: its distance to that vertex rounds to 0
        y0 = space.edge_point(1, 1e-20) if name == "caterpillar" else space.edge_point((1, 2, 1), 2, 1e-20)
        x = space.local_min(y0, [(1.0, y0)], [])
        assert space.local_value(x, [(1.0, y0)], []) == 0.0
