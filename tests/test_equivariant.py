import math

import mpmath
import numpy as np
import pytest

from geowidth.equivariant import (
    Edge,
    EquivariantMap,
    FundamentalGraph,
    GeodesicHomotopy,
    bouquet_graph,
    build_bouquet_map,
    convexity_report,
    energy,
    homotopy_width_2,
    homotopy_width_2_detailed,
    homotopy_width_inf,
    length,
    per_edge_table,
)
from geowidth.errors import DomainError
from geowidth.isometries import EuclideanIsometry, HyperbolicIsometry, Representation
from geowidth.spaces import EuclideanSpace, HyperbolicPlane

from conftest import readme_rep
from test_acceptance import _theta_graph, _theta_representations


def euclidean_translation_rep(vectors):
    space = EuclideanSpace(len(vectors[0]))
    gens = [EuclideanIsometry(np.eye(space.dim), v) for v in vectors]
    return Representation(space, gens, check_samples=20)


def theta_graph():
    # two vertices joined by three unit edges
    return FundamentalGraph(
        [0, 1],
        [Edge(0, 1, 1.0, ()), Edge(0, 1, 1.0, (1,)), Edge(0, 1, 1.0, (2,))],
    )


@pytest.fixture
def z2_rep():
    return euclidean_translation_rep([np.array([1.0, 0.0]), np.array([0.0, 1.0])])


class TestGraph:
    def test_rejects_terminal_vertex(self):
        with pytest.raises(DomainError):
            FundamentalGraph([0, 1], [Edge(0, 1, 1.0, ())])

    def test_rejects_disconnected(self):
        with pytest.raises(DomainError):
            FundamentalGraph(
                [0, 1], [Edge(0, 0, 1.0, (1,)), Edge(1, 1, 1.0, (2,))]
            )

    @pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_lengths_not_positive_and_finite(self, length):
        with pytest.raises(DomainError, match="positive and finite"):
            FundamentalGraph([0], [Edge(0, 0, 1.0, (1,)), Edge(0, 0, length, (2,))])

    def test_loop_counts_twice_for_degree(self):
        g = FundamentalGraph([0], [Edge(0, 0, 1.0, (1,))])
        assert g.total_length() == 1.0

    def test_bouquet(self):
        g = bouquet_graph(3)
        assert len(g.edges) == 3
        assert [e.label for e in g.edges] == [(1,), (2,), (3,)]
        assert g.total_length() == 3.0


class TestMapLengthEnergy:
    def test_bouquet_translation_lengths(self, z2_rep):
        u = build_bouquet_map(z2_rep, np.zeros(2))
        # each loop image runs from 0 to the generator translation vector
        assert length(u) == pytest.approx(2.0)
        assert energy(u) == pytest.approx(2.0)

    def test_energy_length_scaling(self, z2_rep):
        graph = FundamentalGraph([0], [Edge(0, 0, 4.0, (1,)), Edge(0, 0, 0.5, (2,))])
        u = EquivariantMap(graph, z2_rep, {0: np.zeros(2)})
        assert length(u) == pytest.approx(2.0)
        assert energy(u) == pytest.approx(1.0 / 4.0 + 1.0 / 0.5)

    def test_per_edge_identity(self, z2_rep):
        graph = FundamentalGraph([0], [Edge(0, 0, 2.5, (1,))])
        u = EquivariantMap(graph, z2_rep, {0: np.array([3.0, 4.0])})
        rows = per_edge_table(u)
        assert len(rows) == 1
        r = rows[0]
        assert r["L"] ** 2 == pytest.approx(r["E"] * r["len"], rel=1e-12)

    def test_images_must_match_vertices(self, z2_rep):
        with pytest.raises(DomainError):
            EquivariantMap(bouquet_graph(2), z2_rep, {"v": np.zeros(2), "w": np.zeros(2)})


class TestHomotopy:
    def hyp_theta_maps(self):
        space = HyperbolicPlane()
        rho = Representation(
            space,
            [
                HyperbolicIsometry([[1.0, 2.0], [0.0, 1.0]]),
                HyperbolicIsometry([[1.0, 0.0], [2.0, 1.0]]),
            ],
            check_samples=20,
        )
        graph = theta_graph()
        u = EquivariantMap(
            graph, rho, {0: space.point([1.0, 0.0, 0.0]), 1: space.from_polar(0.5, 0.2)}
        )
        v = EquivariantMap(
            graph, rho, {0: space.from_polar(1.0, 1.0), 1: space.from_polar(0.7, -0.4)}
        )
        return u, v

    def test_endpoints(self):
        # H_0 = u and H_1 = v: their edge tracks start at u's edge lengths and end at v's
        u, v = self.hyp_theta_maps()
        h = GeodesicHomotopy(u, v)
        (s0, l0, e0), (s1, l1, e1) = h.length_energy_at((0.0, 1.0))
        assert (s0, s1) == (0.0, 1.0)
        assert (l0, e0) == pytest.approx((length(u), energy(u)), abs=1e-12)
        assert (l1, e1) == pytest.approx((length(v), energy(v)), abs=1e-12)

    def test_parameter_outside_unit_interval(self):
        h = GeodesicHomotopy(*self.hyp_theta_maps())
        for s in (-0.1, 1.5):
            with pytest.raises(DomainError):
                h.length_energy_at((s,))

    def test_width_inf_endpoint_reduction(self):
        u, v = self.hyp_theta_maps()
        h = GeodesicHomotopy(u, v)
        w = homotopy_width_inf(h)
        vertex_max = max(
            u.space.dist(u.images[x], v.images[x]) for x in u.graph.vertices
        )
        assert w >= vertex_max - 1e-12
        # convexity puts each edge's largest track at an endpoint
        for k in range(len(u.graph.edges)):
            end_max = max(h.track_lengths(k, (0.0, 1.0)))
            assert max(h.track_lengths(k, [i / 50 for i in range(1, 50)])) <= end_max + 1e-9

    def test_width_2_euclidean_hand_value(self, z2_rep):
        # single unit loop, track length constant = 3: W2 = 3
        graph = FundamentalGraph([0], [Edge(0, 0, 1.0, (1,))])
        u = EquivariantMap(graph, z2_rep, {0: np.array([0.0, 0.0])})
        v = EquivariantMap(graph, z2_rep, {0: np.array([0.0, 3.0])})
        h = GeodesicHomotopy(u, v)
        w, err = homotopy_width_2_detailed(h)
        assert w == pytest.approx(3.0, abs=1e-12)
        assert err <= 1e-12
        assert homotopy_width_inf(h) == pytest.approx(3.0)

    @pytest.mark.parametrize("samples", [2, 6, 10])
    def test_width_2_error_vanishes_on_a_constant_track(self, z2_rep, samples):
        # the track length is 3 everywhere, which both Simpson rules integrate exactly
        u = EquivariantMap(theta_graph(), z2_rep, {0: np.array([0.0, 0.0]), 1: np.array([0.5, 1.0])})
        v = EquivariantMap(theta_graph(), z2_rep, {0: np.array([0.0, 3.0]), 1: np.array([0.5, 4.0])})
        w, err = homotopy_width_2_detailed(GeodesicHomotopy(u, v), samples)
        assert w == pytest.approx(3.0 * math.sqrt(3.0), abs=1e-12)
        assert err <= 1e-12

    def test_width_2_linear_track(self, z2_rep):
        # track length is x along a unit edge: integral of x^2 is 1/3
        graph = FundamentalGraph([0, 1], [Edge(0, 1, 1.0, ()), Edge(1, 0, 1.0, ())])
        a, b = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        u = EquivariantMap(graph, z2_rep, {0: a, 1: b})
        v = EquivariantMap(graph, z2_rep, {0: a, 1: np.array([1.0, 1.0])})
        h = GeodesicHomotopy(u, v)
        w = homotopy_width_2(h, samples_per_edge=128)
        assert w == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-6)

    def test_convexity_report_grid(self):
        u, v = self.hyp_theta_maps()
        h = GeodesicHomotopy(u, v)
        rows = convexity_report(h, [i / 10 for i in range(11)])
        assert len(rows) == 11
        assert rows[0].length == pytest.approx(length(u), abs=1e-12)
        assert rows[-1].energy == pytest.approx(energy(v), abs=1e-12)

    def test_mismatched_graphs_rejected(self, z2_rep):
        u = build_bouquet_map(z2_rep, np.zeros(2))
        graph2 = FundamentalGraph([0], [Edge(0, 0, 2.0, (1,)), Edge(0, 0, 1.0, (2,))])
        v = EquivariantMap(graph2, z2_rep, {0: np.zeros(2)})
        with pytest.raises(DomainError):
            GeodesicHomotopy(u, v)

    def test_mismatched_reps_rejected(self, z2_rep):
        other = euclidean_translation_rep([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        u = build_bouquet_map(z2_rep, np.zeros(2))
        v = build_bouquet_map(other, np.zeros(2))
        with pytest.raises(DomainError):
            GeodesicHomotopy(u, v)


class TestEdgeData:
    """A map evaluates its labels once; the maps derived from it reuse them."""

    @pytest.fixture
    def counted(self, monkeypatch):
        counts = {"evaluate": 0, "geodesic_point": 0, "apply": 0, "with_images": 0, "tracks": [], "edge_tracks": []}
        evaluate, point, tracks = Representation.evaluate, HyperbolicPlane._geodesic_point, HyperbolicPlane._track_lengths
        apply, with_images, edge_tracks = HyperbolicIsometry.apply, EquivariantMap.with_images, HyperbolicPlane._edge_track_lengths

        def counted_evaluate(self, g):
            counts["evaluate"] += 1
            return evaluate(self, g)

        def counted_point(self, p, q, t):
            counts["geodesic_point"] += 1
            return point(self, p, q, t)

        def counted_apply(self, p):
            counts["apply"] += 1
            return apply(self, p)

        def counted_with_images(self, images):
            counts["with_images"] += 1
            return with_images(self, images)

        def counted_tracks(self, a, b, c, d, ts):
            counts["tracks"].append((a.tolist(), b.tolist(), c.tolist(), d.tolist(), list(ts)))
            return tracks(self, a, b, c, d, ts)

        def counted_edge_tracks(self, a, b, c, d, g, far, ts):
            counts["edge_tracks"].append((a.tolist(), b.tolist(), c.tolist(), d.tolist(), g, [x.tolist() for x in far], list(ts)))
            return edge_tracks(self, a, b, c, d, g, far, ts)

        monkeypatch.setattr(Representation, "evaluate", counted_evaluate)
        monkeypatch.setattr(HyperbolicPlane, "_geodesic_point", counted_point)
        monkeypatch.setattr(HyperbolicIsometry, "apply", counted_apply)
        monkeypatch.setattr(EquivariantMap, "with_images", counted_with_images)
        monkeypatch.setattr(HyperbolicPlane, "_track_lengths", counted_tracks)
        monkeypatch.setattr(HyperbolicPlane, "_edge_track_lengths", counted_edge_tracks)
        return counts

    def test_construction_evaluates_each_label_once(self, counted):
        u, v = TestHomotopy().hyp_theta_maps()
        assert counted["evaluate"] == 2 * len(u.graph.edges)
        assert [g.matrix.tolist() for g in u.isometries] == [u.rho.evaluate(e.label).matrix.tolist() for e in u.graph.edges]

    def test_convexity_report_evaluates_no_label(self, counted):
        u, v = TestHomotopy().hyp_theta_maps()
        counted["evaluate"] = 0
        convexity_report(GeodesicHomotopy(u, v), [i / 10 for i in range(11)])
        assert counted["evaluate"] == 0

    @pytest.mark.parametrize("samples, k_sub", [(64, 64), (10, 12), (2, 4)])
    def test_width_2_samples_each_track_once(self, counted, samples, k_sub):
        # one _track_lengths call per edge, on its u- and v-segments, at the k_sub + 1 quadrature nodes
        u, v = TestHomotopy().hyp_theta_maps()
        counted["evaluate"] = counted["apply"] = 0
        homotopy_width_2_detailed(GeodesicHomotopy(u, v), samples)
        nodes = np.linspace(0.0, 1.0, k_sub + 1).tolist()
        expected = [
            (*(x.tolist() for x in u.edge_endpoints(k)), *(x.tolist() for x in v.edge_endpoints(k)), nodes)
            for k in range(len(u.graph.edges))
        ]
        assert counted["tracks"] == expected
        assert [counted[k] for k in ("evaluate", "geodesic_point", "apply", "with_images")] == [0, 0, 0, 0]

    def test_convexity_report_samples_each_vertex_track_once(self, counted):
        # one _edge_track_lengths call per edge, at the grid; on the hyperbolic plane it applies the edge's
        # isometry to each point of the target's track from the matrix entries, without the public apply
        u, v = TestHomotopy().hyp_theta_maps()
        counted["evaluate"] = counted["apply"] = 0
        grid = [i / 10 for i in range(11)]
        convexity_report(GeodesicHomotopy(u, v), grid)
        expected = [
            (*(m.images[w].tolist() for w in (e.src, e.tgt) for m in (u, v)), g if e.label else None,
             [u._far[k].tolist(), v._far[k].tolist()], grid)
            for k, (e, g) in enumerate(zip(u.graph.edges, u.isometries))
        ]
        assert counted["edge_tracks"] == expected and counted["tracks"] == []
        assert [counted[k] for k in ("evaluate", "geodesic_point", "apply", "with_images")] == [0, 0, 0, 0]

    @pytest.mark.parametrize("name", ["euclidean-2", "tree-tripod", "free-2"])
    def test_convexity_report_tracks_the_far_ends_elsewhere(self, name, monkeypatch):
        # off the hyperbolic plane the edge's track is _track_lengths between its source's and its far ends'
        # geodesics: no isometry is applied
        rho = maps_workload_representations()[name]
        rng = np.random.default_rng(7)
        u, v = (EquivariantMap(_theta_graph(), rho, {0: rho.space.random_point(rng), 1: rho.space.random_point(rng)}) for _ in range(2))
        calls, tracks, apply = [], type(rho.space)._track_lengths, type(u.isometries[0]).apply
        monkeypatch.setattr(type(rho.space), "_track_lengths", lambda s, *args: calls.append(args) or tracks(s, *args))
        monkeypatch.setattr(type(u.isometries[0]), "apply", lambda g, p: calls.append("apply") or apply(g, p))
        grid = [i / 10 for i in range(11)]
        convexity_report(GeodesicHomotopy(u, v), grid)
        expected = [(u.images[e.src], v.images[e.src], u._far[k], v._far[k], tuple(grid)) for k, e in enumerate(u.graph.edges)]
        assert len(calls) == len(expected)
        assert all(all(x is y for x, y in zip(got[:4], want[:4])) and got[4] == want[4] for got, want in zip(calls, expected))

    def test_with_images_measures_the_new_images(self):
        # a quarter turn about the origin: loop length sqrt(2) |y|
        rho = Representation(EuclideanSpace(2), [EuclideanIsometry([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0])], check_samples=5)
        u = build_bouquet_map(rho, np.zeros(2))
        images = {"v": np.array([3.0, 4.0])}
        m = u.with_images(images)
        images["v"] = np.zeros(2)  # the map keeps its own copy
        assert m.isometries is u.isometries
        assert np.array_equal(m.images["v"], [3.0, 4.0])
        assert (u.edge_lengths, m.edge_lengths) == ([0.0], [EuclideanSpace(2).dist(np.array([3.0, 4.0]), np.array([-4.0, 3.0]))])


# ---------------------------------------------------------------------------
# the track kernel's callers against the per-sample loops they replaced


def maps_workload_representations():
    """The seven theta-graph actions of the benchmark's maps workload."""
    reps = _theta_representations()
    reps["sl2z"] = readme_rep()
    reps["free-2"] = Representation.free_on_cayley_tree(2)
    return reps


def reference_width_2(h, samples_per_edge):
    """homotopy_width_2_detailed as one dist of two scalar geodesic points per sample."""
    k_sub = -(-samples_per_edge // 4) * 4
    xs = np.linspace(0.0, 1.0, k_sub + 1)

    def simpson(fs, step):
        w = np.ones(len(fs))
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return step / 3.0 * float(w @ fs)

    fine = coarse = 0.0
    for k, e in enumerate(h.u.graph.edges):
        point = h.space._geodesic_point
        fs = np.array([h.space._dist(point(*h.u.edge_endpoints(k), x), point(*h.v.edge_endpoints(k), x)) ** 2 for x in xs])
        fine += simpson(fs, e.length / k_sub)
        coarse += simpson(fs[::2].copy(), e.length / (k_sub // 2))
    width = math.sqrt(max(fine, 0.0))
    err = abs(fine - coarse) / 15.0
    return width, err / (2.0 * width) if width > 1e-12 else math.sqrt(err)


def reference_convexity_rows(h, s_grid):
    """(s, length, energy) of the map made from scalar geodesic points at each s."""
    rows = []
    for s in s_grid:
        m = h.u.with_images({w: h.space._geodesic_point(h.u.images[w], h.v.images[w], s) for w in h.u.graph.vertices})
        rows.append((float(s), length(m), energy(m)))
    return rows


def assert_close(got, expected, rel):
    """Equal shapes, and each number within rel * max(1, |expected|)."""
    got, expected = np.array(got, dtype=float), np.array(expected, dtype=float)
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= rel * np.maximum(1.0, np.abs(expected)))


#: where the track kernel does the reference's arithmetic: the hyperbolic kernel measures the points of
#: _geodesic_point as tuples, and the tripod's samples meet no vertex snap
W2_EXACT = ("hyperbolic", "sl2z", "tree-tripod")

#: where the edge tracks do the reference's arithmetic: on the hyperbolic plane rho(label) is applied to each
#: point of the target's track, as the reference's maps do
ROWS_EXACT = ("hyperbolic", "sl2z")


class TestBatchedCallers:
    @pytest.mark.parametrize("name", list(maps_workload_representations()))
    def test_width_2_and_convexity_rows_match_the_per_sample_loops(self, name):
        # W2: 1e-12 where the kernel is not exact.  Convexity rows: elsewhere H_s's far ends are sampled on the
        # geodesic between the far ends of u and v, not as rho(label) applied to the track of the target
        rho = maps_workload_representations()[name]
        rng = np.random.default_rng(1801)
        grid = [i / 10 for i in range(11)]
        for _ in range(8):
            u, v = (EquivariantMap(_theta_graph(), rho, {0: rho.space.random_point(rng), 1: rho.space.random_point(rng)}) for _ in range(2))
            h = GeodesicHomotopy(u, v)
            for samples in (2, 10, 64):
                if name in W2_EXACT:
                    assert repr(homotopy_width_2_detailed(h, samples)) == repr(reference_width_2(h, samples))
                else:
                    assert_close(homotopy_width_2_detailed(h, samples), reference_width_2(h, samples), 1e-12)
            rows = [(r.s, r.length, r.energy) for r in convexity_report(h, grid)]
            assert [r[0] for r in rows] == grid
            if name in ROWS_EXACT:
                assert repr(rows) == repr(reference_convexity_rows(h, grid))
            else:
                assert_close(rows, reference_convexity_rows(h, grid), 5e-11)

    def test_a_generator_grid_gives_the_rows_of_a_list_grid(self):
        # the grid is read once: the range check must not use up a generator before the tracks are taken
        u, v = TestHomotopy().hyp_theta_maps()
        h = GeodesicHomotopy(u, v)
        grid = [i / 10 for i in range(11)]
        rows = [(r.s, r.length, r.energy) for r in convexity_report(h, (s for s in grid))]
        assert repr(rows) == repr(reference_convexity_rows(h, grid))
        assert [s for s, *_ in h.length_energy_at(iter([0.0, 0.5, 1.0]))] == [0.0, 0.5, 1.0]


def precise_convexity_rows(h, s_grid):
    """(length, energy) of H_s in 50-digit mpmath: each image scaled onto the sheet, H_s(w) on the geodesic
    u(w) -> v(w), each far end rho(label) . H_s(tgt) from the label's 2x2 matrix, d = acosh <p, q>."""
    with mpmath.workdps(50):

        def sheet(p):
            x0, x1, x2 = (mpmath.mpf(float(c)) for c in p)
            n = mpmath.sqrt(x0 * x0 - x1 * x1 - x2 * x2)
            return x0 / n, x1 / n, x2 / n

        def dist(p, q):
            return mpmath.acosh(max(mpmath.mpf(1), p[0] * q[0] - p[1] * q[1] - p[2] * q[2]))

        def point(p, q, s):
            d = dist(p, q)
            if d == 0:
                return p
            a, b = mpmath.sinh((1 - s) * d) / mpmath.sinh(d), mpmath.sinh(s * d) / mpmath.sinh(d)
            return tuple(a * x + b * y for x, y in zip(p, q))

        def apply(m, p):
            # A X A^T on X = [[p0 + p1, p2], [p2, p0 - p1]]
            a, b, c, d = (mpmath.mpf(float(x)) for x in m.flat)
            x00, x01, x11 = p[0] + p[1], p[2], p[0] - p[1]
            y00 = a * (a * x00 + b * x01) + b * (a * x01 + b * x11)
            y01 = a * (c * x00 + d * x01) + b * (c * x01 + d * x11)
            y11 = c * (c * x00 + d * x01) + d * (c * x01 + d * x11)
            return (y00 + y11) / 2, (y00 - y11) / 2, y01

        rows = []
        for s in s_grid:
            at = {w: point(sheet(h.u.images[w]), sheet(h.v.images[w]), mpmath.mpf(s)) for w in h.u.graph.vertices}
            ds = [(e, dist(at[e.src], apply(g.matrix, at[e.tgt]))) for e, g in zip(h.u.graph.edges, h.u.isometries)]
            rows.append((float(sum(d for _, d in ds)), float(sum(d * d / e.length for e, d in ds))))
        return rows


def long_label_theta_graph():
    """The theta graph with a six-letter label: on sl2z its far ends lie beyond radius 15."""
    return FundamentalGraph([0, 1], [Edge(0, 1, 1.0, ()), Edge(0, 1, 1.0, (1, 1, 1, 1, 2, 2)), Edge(1, 0, 1.0, (2,))])


@pytest.mark.parametrize(
    "name, graph, seed, pairs",
    [
        ("sl2z", _theta_graph, 1801, 8),
        ("hyperbolic", _theta_graph, 1801, 8),
        ("sl2z", _theta_graph, 2501, 200),
        ("sl2z", long_label_theta_graph, 3, 1),
    ],
)
def test_convexity_rows_match_a_50_digit_referee(name, graph, seed, pairs):
    # rho(label) is applied to H_s(tgt), whose coordinates then carry a relative error of about eps, so an edge
    # length loses about eps e^R at a far end of radius R.  Worst errors: 1.5e-14 on the 8 theta pairs of
    # TestBatchedCallers, 3.9e-12 on the 200 default_rng(2501) pairs (a far end of radius 9.2), and 1.8e-11 on
    # the six-letter label (radius 15.2).  A step along the geodesic between the far ends of u and v instead
    # rescales onto the sheet with an error of about eps cosh^2 R (ROADMAP item 11): 1.8e-10 and 2.9e-5 there
    rho = maps_workload_representations()[name]
    rng = np.random.default_rng(seed)
    grid = [i / 10 for i in range(11)]
    for _ in range(pairs):
        u, v = (EquivariantMap(graph(), rho, {0: rho.space.random_point(rng), 1: rho.space.random_point(rng)}) for _ in range(2))
        h = GeodesicHomotopy(u, v)
        rows = [(r.length, r.energy) for r in convexity_report(h, grid)]
        expected = precise_convexity_rows(h, grid)
        assert np.all(np.abs(np.array(rows) - expected) <= 5e-11 * np.abs(expected))
