import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geowidth import harmonic
from geowidth.cli import main
from geowidth.equivariant import (
    Edge,
    EquivariantMap,
    FundamentalGraph,
    build_bouquet_map,
    energy,
    length,
)
from geowidth.errors import CapabilityError, DomainError, InvalidPointError, PreconditionError
from geowidth.harmonic import (
    RelaxationConfig,
    check_not_boundary_fixing,
    d_infinity,
    estimate_width_constant,
    main_lemma_ratio,
    relax,
    stationarity_probe,
    verify_harmonic_homotopy,
)
from geowidth.isometries import (
    FAMILIES,
    EuclideanIsometry,
    HyperbolicIsometry,
    Representation,
    TreeAutomorphism,
)
from geowidth.spaces import CayleyTree, EuclideanSpace, HyperbolicPlane, MetricTree

from conftest import all_model_spaces, parabolic_rep, readme_rep


#: z -> 2z and z -> 2z + 1: two hyperbolic elements that share the fixed end inf
AFFINE_PAIR = (
    [[math.sqrt(2.0), 0.0], [0.0, 1.0 / math.sqrt(2.0)]],
    [[math.sqrt(2.0), 1.0 / math.sqrt(2.0)], [0.0, 1.0 / math.sqrt(2.0)]],
)

#: integral generators of SL(2, Z): T, T^-1, U, U^-1 and S
SL2Z_LETTERS = (((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 0), (1, 1)), ((1, 0), (-1, 1)), ((0, -1), (1, 0)))


def _int_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2))


def _int_inverse(a):
    (p, q), (r, s) = a
    return ((s, -q), (-r, p))


def _int_word(letters):
    m = ((1, 0), (0, 1))
    for k in letters:
        m = _int_mul(m, SL2Z_LETTERS[k])
    return m


def _int_power(a, n):
    m = ((1, 0), (0, 1))
    for _ in range(abs(n)):
        m = _int_mul(m, a if n > 0 else _int_inverse(a))
    return m


def hyperbolic_axial_rep():
    """Single generator translating distance 2 along the x2 = 0 axis."""
    return Representation(
        HyperbolicPlane(),
        [HyperbolicIsometry([[math.e, 0.0], [0.0, 1.0 / math.e]])],
        check_samples=20,
    )


class TestRelaxEuclidean:
    def test_translations_are_already_harmonic(self):
        space = EuclideanSpace(2)
        rho = Representation(
            space,
            [
                EuclideanIsometry(np.eye(2), [1.0, 0.0]),
                EuclideanIsometry(np.eye(2), [0.0, 1.0]),
            ],
            check_samples=20,
        )
        u0 = build_bouquet_map(rho, np.array([0.3, -0.8]))
        r = relax(u0)
        assert r.converged
        assert r.e_star == pytest.approx(2.0, abs=1e-12)
        # translations keep the objective flat: the basepoint must not drift
        assert np.allclose(r.map.images["v"], [0.3, -0.8])

    def test_rotation_finds_fixed_point(self):
        # point rotation about (1, 0): the zero of d(y, g y)
        space = EuclideanSpace(2)
        g = EuclideanIsometry(-np.eye(2), [2.0, 0.0])
        rho = Representation(space, [g], check_samples=20)
        u0 = build_bouquet_map(rho, np.array([5.0, 5.0]))
        r = relax(u0)
        assert r.converged
        assert r.e_star == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(r.map.images["v"], [1.0, 0.0], atol=1e-9)

    def test_theta_graph_balances_vertices(self):
        # two vertices, three parallel unit edges with identity labels:
        # the minimizer collapses both images to a common point
        space = EuclideanSpace(2)
        rho = Representation(
            space, [EuclideanIsometry(np.eye(2), [1.0, 0.0])], check_samples=10
        )
        graph = FundamentalGraph(
            [0, 1], [Edge(0, 1, 1.0, ()), Edge(0, 1, 1.0, ()), Edge(1, 0, 1.0, ())]
        )
        u0 = EquivariantMap(graph, rho, {0: np.zeros(2), 1: np.array([4.0, 0.0])})
        r = relax(u0)
        assert r.converged
        assert r.e_star == pytest.approx(0.0, abs=1e-18)
        assert space.dist(r.map.images[0], r.map.images[1]) <= 1e-9


class TestRelaxHyperbolic:
    def test_axial_loop_reaches_translation_length(self):
        rho = hyperbolic_axial_rep()
        space = rho.space
        u0 = build_bouquet_map(rho, space.from_polar(1.5, 1.0))
        r = relax(u0)
        assert r.converged
        # min over y of d(y, g y)^2 is the squared translation length
        assert r.e_star == pytest.approx(4.0, abs=1e-6)
        # minimizer lies on the axis x2 = 0
        assert abs(r.map.images["v"][2]) <= 1e-4

    def test_energy_trace_monotone(self):
        rho = hyperbolic_axial_rep()
        u0 = build_bouquet_map(rho, rho.space.from_polar(2.0, 0.7))
        r = relax(u0)
        trace = r.energy_trace
        assert all(b <= a + 1e-10 for a, b in zip(trace, trace[1:]))

    def test_stationarity_probe_small(self):
        rho = hyperbolic_axial_rep()
        u0 = build_bouquet_map(rho, rho.space.from_polar(1.0, 0.3))
        r = relax(u0)
        assert stationarity_probe(r) <= 1e-10


class TestRelaxTrees:
    def test_finite_tree_swap_finds_center(self):
        tree = MetricTree(
            ["c", "p", "q", "r"], [("c", "p", 1.0), ("c", "q", 1.0), ("c", "r", 1.0)]
        )
        g = TreeAutomorphism(tree, {"c": "c", "p": "q", "q": "p", "r": "r"})
        rho = Representation(tree, [g], check_samples=20)
        u0 = build_bouquet_map(rho, tree.vertex_point("p"))
        r = relax(u0)
        assert r.converged
        assert r.e_star == pytest.approx(0.0, abs=1e-15)
        assert r.map.images["v"] == tree.vertex_point("c")

    def test_cayley_bouquet_energy(self):
        rho = Representation.free_on_cayley_tree(2)
        tree = rho.space
        u0 = build_bouquet_map(rho, tree.vertex_point((1, 2)))
        r = relax(u0)
        assert r.converged
        # every point moves by at least the translation length 1 per loop
        assert r.e_star == pytest.approx(2.0, abs=1e-9)
        assert r.l_star == pytest.approx(2.0, abs=1e-9)


def sl2z_rep():
    """The README's rank-2 action on the hyperbolic plane."""
    return Representation(
        HyperbolicPlane(),
        [
            HyperbolicIsometry([[2.0, 1.0], [1.0, 1.0]]),
            HyperbolicIsometry([[5.0, 2.0], [2.0, 1.0]]),
        ],
        check_samples=10,
    )


def cycle_graph(size):
    """A cycle with one edge labelled a and one labelled b, the rest unlabelled."""
    labels = {size - 1: (1,), size // 2 - 1: (2,)}
    edges = [Edge(i, (i + 1) % size, 1.0, labels.get(i, ())) for i in range(size)]
    return FundamentalGraph(list(range(size)), edges)


def tripod_rep():
    """The tripod of the acceptance suite under its 3-cycle and one swap of legs."""
    tripod = MetricTree(["c", "p", "q", "r"], [("c", "p", 1.0), ("c", "q", 1.0), ("c", "r", 1.0)])
    gens = [
        TreeAutomorphism(tripod, {"c": "c", "p": "q", "q": "r", "r": "p"}),
        TreeAutomorphism(tripod, {"c": "c", "p": "q", "q": "p", "r": "r"}),
    ]
    return Representation(tripod, gens, check_samples=10)


def twenty_edge_rep():
    """The acceptance suite's heap-shaped 20-edge tree under two identity generators."""
    tree = MetricTree(list(range(21)), [(i, (i - 1) // 2, 0.5 + 0.35 * (i % 5)) for i in range(1, 21)])
    return Representation(tree, [TreeAutomorphism.identity(tree)] * 2, check_samples=10)


def euclidean_rep():
    c, s = math.cos(0.7), math.sin(0.7)
    gens = [EuclideanIsometry([[c, -s], [s, c]], [1.0, 0.5]), EuclideanIsometry(np.eye(2), [0.0, 1.0])]
    return Representation(EuclideanSpace(2), gens, check_samples=10)


def free_rank2_rep():
    return Representation.free_on_cayley_tree(2)


def seeded_cycle_map(rho, size):
    rng = np.random.default_rng(size)
    return EquivariantMap(cycle_graph(size), rho, {v: rho.space.random_point(rng) for v in range(size)})


def theta_graph():
    """Two vertices joined by three edges: three point terms at each vertex."""
    return FundamentalGraph([0, 1], [Edge(0, 1, 1.0, ()), Edge(0, 1, 1.0, (1,)), Edge(1, 0, 1.0, (2,))])


def looped_digon():
    """Two vertices joined by two edges, and a loop at vertex 0: two point terms each, and a loop term at 0."""
    return FundamentalGraph([0, 1], [Edge(0, 1, 1.0, ()), Edge(1, 0, 1.0, (1,)), Edge(0, 0, 1.0, (2,))])


def referee_relax(u0, cfg):
    """relax with every update by the model's local_min, as before two-term updates had a closed form."""
    space = u0.space
    table = harmonic._term_table(u0)
    images = dict(u0.images)
    trace = [energy(u0)]
    for _ in range(cfg.max_iterations):
        max_disp = 0.0
        for v, terms in table.items():
            point_terms, iso_terms = harmonic._local_terms(terms, images)
            y_old = images[v]
            y_new = space.local_min(y_old, point_terms, iso_terms)
            if space.local_value(y_new, point_terms, iso_terms) > space.local_value(y_old, point_terms, iso_terms):
                y_new = y_old
            max_disp = max(max_disp, space._dist(y_old, y_new))
            images[v] = y_new
        trace.append(energy(u0.with_images(images)))
        if max_disp < cfg.displacement_tolerance:
            break
    return trace


MODELS = all_model_spaces()


def relax_vertex_zero(space, y0, p1, p2, w1, w2):
    """One sweep of relax on a 3-cycle of unlabelled edges: vertex 0's point terms and its new image.

    Vertex 0 is updated first.  Its terms are (w1, p1) and (w2, p2) up to the rounding of 1 / (1 / w) and of the
    identity labels.  with_images places the points, as validate_point refuses far hyperbolic ones (ROADMAP item 11)."""
    rho = Representation(space, [FAMILIES[space.model].identity(space)], check_samples=0)
    graph = FundamentalGraph([0, 1, 2], [Edge(0, 1, 1.0 / w1, ()), Edge(1, 2, 1.0, ()), Edge(2, 0, 1.0 / w2, ())])
    u0 = EquivariantMap(graph, rho, dict.fromkeys(range(3), y0)).with_images({0: y0, 1: p1, 2: p2})
    terms, iso_terms = harmonic._local_terms(harmonic._term_table(u0)[0], u0.images)
    assert iso_terms == []
    return terms, relax(u0, RelaxationConfig(max_iterations=1)).map.images[0]


def precise_value(space, y, terms):
    """F(y) over point terms, in 50-digit decimals on the hyperbolic plane and by ``local_value`` elsewhere.

    The float hyperbolic distance cancels terms of size e^r, so float F rounds by up to 2e-9 relative for the
    pairs drawn below (d = 10.5), far above the 1e-12 that the referees allow; on the other models it rounds by
    less than 1e-15.  Each point is scaled onto the sheet, and d = acosh <p, q>."""
    if not isinstance(space, HyperbolicPlane):
        return space.local_value(y, terms, [])
    with localcontext() as ctx:
        ctx.prec = 50

        def on_sheet(p):
            x0, x1, x2 = (Decimal(float(c)) for c in p)
            n = (x0 * x0 - x1 * x1 - x2 * x2).sqrt()
            return x0 / n, x1 / n, x2 / n

        y0, y1, y2 = on_sheet(y)
        total = Decimal(0)
        for w, p in terms:
            p0, p1, p2 = on_sheet(p)
            c = max(Decimal(1), y0 * p0 - y1 * p1 - y2 * p2)
            total += Decimal(w) * (c + (c * c - 1).sqrt()).ln() ** 2
        return float(total)


class TestTwoTermUpdate:
    """Two point terms and no loop term: the point at w2 / (w1 + w2) of [p1, p2] minimises F."""

    @staticmethod
    def assert_least(space, terms, y, rng):
        f = precise_value(space, y, terms)
        slack = 1e-12 * max(1.0, f)
        assert f <= precise_value(space, space.local_min(terms[0][1], terms, []), terms) + slack
        for _ in range(8):
            nearby = space._geodesic_point(y, space.random_point(rng), float(rng.uniform(1e-4, 1e-2)))
            assert f <= precise_value(space, nearby, terms) + slack

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(sorted(MODELS)),
        seed=st.integers(0, 2**32 - 1),
        w1=st.floats(0.1, 10.0),
        w2=st.floats(0.1, 10.0),
        same=st.booleans(),
    )
    def test_no_nearby_point_and_no_local_min_is_lower(self, name, seed, w1, w2, same):
        space = MODELS[name]
        rng = np.random.default_rng(seed)
        p1 = space.random_point(rng)
        p2 = p1 if same else space.random_point(rng)
        terms, y = relax_vertex_zero(space, p1, p1, p2, w1, w2)
        self.assert_least(space, terms, y, rng)

    @pytest.mark.parametrize("w1, w2", [(1.0, 1.0), (0.3, 7.0), (7.0, 0.3)])
    @pytest.mark.parametrize(
        "name, ends",
        [
            ("tripod", lambda t: (t.vertex_point("p"), t.vertex_point("q"))),
            ("tripod", lambda t: (t.edge_point(0, 0.4), t.edge_point(2, 0.9))),
            ("cayley2", lambda t: (t.vertex_point((1,)), t.edge_point((2,), 1, 0.5))),
        ],
        ids=["leaves", "legs", "cayley"],
    )
    def test_tree_pairs_that_meet_at_a_vertex(self, name, ends, w1, w2):
        space = MODELS[name]
        p1, p2 = ends(space)
        terms, y = relax_vertex_zero(space, p1, p1, p2, w1, w2)
        (w1, _), (w2, _) = terms
        d = space._dist(p1, p2)
        assert space._dist(p1, y) == pytest.approx(w2 / (w1 + w2) * d, abs=1e-12)
        assert space._dist(y, p2) == pytest.approx(w1 / (w1 + w2) * d, abs=1e-12)
        self.assert_least(space, terms, y, np.random.default_rng(3))

    def test_far_hyperbolic_pair_falls_back_to_local_min(self):
        # d(p, q) = 39.65: the geodesic point at t = 1/64 rounds off the sheet and raises
        space = HyperbolicPlane()
        p, q, y0 = space.from_polar(20.0, 0.0), space.from_polar(20.0, 2.0), space.point([1.0, 0.0, 0.0])
        terms, y = relax_vertex_zero(space, y0, p, q, 63.0, 1.0)
        (w1, p1), (w2, p2) = terms
        assert w2 / (w1 + w2) == 1.0 / 64.0
        with pytest.raises(InvalidPointError):
            space._geodesic_point(p1, p2, 1.0 / 64.0)
        expected = space.local_min(y0, terms, [])
        assert space.local_value(expected, terms, []) < space.local_value(y0, terms, [])
        assert np.array_equal(y, expected)


class TestRelaxCycles:
    @pytest.mark.parametrize(
        "rep",
        [readme_rep, parabolic_rep, free_rank2_rep, tripod_rep, twenty_edge_rep],
        ids=["readme", "parabolic", "free2", "tripod", "tree20"],
    )
    def test_no_higher_than_local_min_everywhere(self, rep):
        u0 = seeded_cycle_map(rep(), 8)
        cfg = RelaxationConfig()
        r = relax(u0, cfg)
        referee = referee_relax(u0, cfg)
        assert r.converged
        assert r.e_star <= referee[-1] + 1e-12 * max(1.0, r.e_star)
        trace = r.energy_trace
        assert all(b <= a + 1e-12 * max(1.0, a) for a, b in zip(trace, trace[1:]))


#: a cycle or theta graph on each of these reaches every model's local_min
WORK_REPS, WORK_IDS = [readme_rep, free_rank2_rep, tripod_rep, euclidean_rep], ["readme", "free2", "tripod", "euclid2"]


class TestRelaxWork:
    @pytest.mark.parametrize("size", [8, 32])
    def test_sweeps_are_linear_in_edges(self, monkeypatch, size):
        # the start map evaluates each label once; relax reuses its isometries
        # and moves it to each sweep's images: E evaluations and one
        # constructed map, whatever the number of sweeps
        rho = sl2z_rep()
        counts = {"evaluate": 0, "map": 0}
        evaluate, map_init = Representation.evaluate, EquivariantMap.__init__

        def counted_evaluate(self, g):
            counts["evaluate"] += 1
            return evaluate(self, g)

        def counted_map_init(self, *args):
            counts["map"] += 1
            map_init(self, *args)

        monkeypatch.setattr(Representation, "evaluate", counted_evaluate)
        monkeypatch.setattr(EquivariantMap, "__init__", counted_map_init)
        for sweeps in (1, 2, 5):
            counts.update(evaluate=0, map=0)
            rng = np.random.default_rng(size)
            u0 = EquivariantMap(cycle_graph(size), rho, {v: rho.space.random_point(rng) for v in range(size)})
            r = relax(u0, RelaxationConfig(max_iterations=sweeps))
            assert r.iterations == sweeps
            assert counts == {"evaluate": len(u0.graph.edges), "map": 1}

    @staticmethod
    def count_local_min(monkeypatch):
        calls = []
        for cls in (EuclideanSpace, HyperbolicPlane, MetricTree, CayleyTree):

            def counted(self, y0, point_terms, iso_terms, _local_min=cls.local_min):
                calls.append(self.model)
                return _local_min(self, y0, point_terms, iso_terms)

            monkeypatch.setattr(cls, "local_min", counted)
        return calls

    @pytest.mark.parametrize("rep", WORK_REPS, ids=WORK_IDS)
    def test_cycles_never_call_local_min(self, monkeypatch, rep):
        calls = self.count_local_min(monkeypatch)
        r = relax(seeded_cycle_map(rep(), 8), RelaxationConfig(max_iterations=20))
        assert r.iterations > 1
        assert calls == []

    @pytest.mark.parametrize("graph, per_sweep", [(theta_graph, 2), (looped_digon, 1)], ids=["theta", "loop"])
    @pytest.mark.parametrize("rep", WORK_REPS, ids=WORK_IDS)
    def test_loops_and_three_edges_call_local_min_every_sweep(self, monkeypatch, rep, graph, per_sweep):
        # the theta graph's two vertices have three edges each; the digon's vertex 0 has a loop
        calls = self.count_local_min(monkeypatch)
        rho = rep()
        rng = np.random.default_rng(4)
        u0 = EquivariantMap(graph(), rho, {0: rho.space.random_point(rng), 1: rho.space.random_point(rng)})
        r = relax(u0, RelaxationConfig(max_iterations=20))
        assert calls == [rho.space.model] * (per_sweep * r.iterations)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-10, float("nan")])
    def test_config_refuses_a_tolerance_that_is_not_positive(self, tolerance):
        with pytest.raises(DomainError):
            RelaxationConfig(displacement_tolerance=tolerance)

    @pytest.mark.parametrize("rep", WORK_REPS, ids=WORK_IDS)
    def test_empty_labels_apply_no_isometry(self, rep):
        # rho(()) is the identity: an unlabelled edge's far end and relaxation terms are the neighbour's image itself
        u = seeded_cycle_map(rep(), 8)
        assert [u._far[k] is u.images[e.tgt] for k, e in enumerate(u.graph.edges)] == [not e.label for e in u.graph.edges]
        for point_terms, _ in harmonic._term_table(u).values():
            points, _ = harmonic._local_terms((point_terms, []), u.images)
            assert [p is u.images[n] for (_, p), (_, g, n) in zip(points, point_terms)] == [g is None for _, g, _ in point_terms]


class TestHarmonicHomotopy:
    def test_energy_constant_between_minimizers(self):
        rho = hyperbolic_axial_rep()
        space = rho.space
        r1 = relax(build_bouquet_map(rho, space.from_polar(1.0, 0.4)))
        r2 = relax(build_bouquet_map(rho, space.from_polar(2.0, -1.1)))
        rows = verify_harmonic_homotopy(r1, r2, [i / 10 for i in range(11)])
        assert len(rows) == 11
        for _, e_s in rows:
            assert e_s == pytest.approx(4.0, abs=1e-5)
        assert verify_harmonic_homotopy(r1, r2, (i / 10 for i in range(11))) == rows

    def test_requires_convergence(self):
        rho = hyperbolic_axial_rep()
        cfg = RelaxationConfig(max_iterations=1)
        r1 = relax(build_bouquet_map(rho, rho.space.from_polar(2.5, 1.2)), cfg)
        r2 = relax(build_bouquet_map(rho, rho.space.from_polar(1.0, 0.0)))
        if not r1.converged:
            with pytest.raises(PreconditionError):
                verify_harmonic_homotopy(r1, r2, [0.5])

    def test_d_infinity(self):
        rho = hyperbolic_axial_rep()
        space = rho.space
        u = build_bouquet_map(rho, space.point([1.0, 0.0, 0.0]))
        v = build_bouquet_map(rho, space.from_polar(1.0, 0.0))
        assert d_infinity(u, v) == pytest.approx(1.0, abs=1e-12)


class TestMainLemmaRatio:
    def test_none_at_minimizer(self):
        rho = hyperbolic_axial_rep()
        r = relax(build_bouquet_map(rho, rho.space.from_polar(1.0, 0.9)))
        assert main_lemma_ratio(r.map, r) is None

    def test_finite_off_minimizer(self):
        rho = hyperbolic_axial_rep()
        space = rho.space
        r = relax(build_bouquet_map(rho, space.from_polar(1.0, 0.9)))
        u = build_bouquet_map(rho, space.from_polar(0.8, 1.3))
        ratio = main_lemma_ratio(u, r)
        assert ratio is not None
        assert math.isfinite(ratio)
        assert ratio > 0.0


class TestBoundaryChecks:
    def test_free_rank2_passes(self):
        check_not_boundary_fixing(Representation.free_on_cayley_tree(2))

    def test_cyclic_cayley_group_refused(self):
        with pytest.raises(PreconditionError):
            check_not_boundary_fixing(Representation.free_on_cayley_tree(1))

    def test_hyperbolic_pair_passes(self):
        check_not_boundary_fixing(readme_rep())

    def test_parabolic_pair_passes(self):
        check_not_boundary_fixing(parabolic_rep())

    @pytest.mark.parametrize(
        "matrices",
        # the affine pair's axes differ, but both fix inf: tr[g, h] = 2
        [AFFINE_PAIR, ([[2, 1], [1, 1]], [[5, 3], [3, 2]])],
        ids=["affine", "commuting"],
    )
    def test_pair_with_a_common_fixed_end_refused(self, matrices):
        rho = Representation(HyperbolicPlane(), [HyperbolicIsometry(m) for m in matrices], check_samples=10)
        with pytest.raises(PreconditionError):
            check_not_boundary_fixing(rho)

    def test_conjugated_float_axis_refused(self):
        # the powers of one non-integral matrix round apart, by more than ulps of Fricke's terms
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = rng.standard_normal((2, 2))
            if np.linalg.det(p) < 0.0:
                p = p[::-1]
            g = HyperbolicIsometry(p @ np.diag([math.e, 1.0 / math.e]) @ np.linalg.inv(p))
            with pytest.raises(PreconditionError):
                check_not_boundary_fixing(Representation(HyperbolicPlane(), [g], check_samples=0))

    def test_affine_pair_file_exits_66(self, tmp_path, capsys):
        path = tmp_path / "affine.json"
        generators = [{"matrix": m} for m in AFFINE_PAIR]
        path.write_text(json.dumps({"space": {"model": "hyperbolic"}, "generators": generators}))
        code = main(["estimate-cstar", "--rep", str(path), "--trials", "10"])
        out, err = capsys.readouterr()
        assert (code, out) == (66, "")
        assert "common fixed end" in err

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.sampled_from(["free", "powers", "parabolic"]),
        p=st.lists(st.integers(0, 4), max_size=4),
        q=st.lists(st.integers(0, 4), max_size=4),
        j=st.integers(-2, 2),
        k=st.integers(-2, 2),
    )
    def test_shares_fixed_end_is_the_exact_commutator_trace(self, shape, p, q, j, k):
        # entries stay small enough that every term of Fricke's identity is an exact float
        if shape == "free":  # two words, which rarely share an end
            g, h = _int_word(p), _int_word(q)
        elif shape == "powers":  # powers of one word commute
            g, h = _int_power(_int_word(p), j), _int_power(_int_word(p), k)
        else:  # conjugates of powers of T by one word fix its image of inf
            c = _int_word(p)
            g = _int_mul(_int_mul(c, _int_power(SL2Z_LETTERS[0], j)), _int_inverse(c))
            h = _int_mul(_int_mul(c, _int_power(SL2Z_LETTERS[0], k)), _int_inverse(c))
        commutator = _int_mul(_int_mul(g, h), _int_mul(_int_inverse(g), _int_inverse(h)))
        exact = commutator[0][0] + commutator[1][1] == 2
        assert HyperbolicIsometry(g).shares_fixed_end(HyperbolicIsometry(h)) == exact

    def test_single_axis_refused(self):
        rho = hyperbolic_axial_rep()
        with pytest.raises(PreconditionError):
            check_not_boundary_fixing(rho)

    def test_trivial_finite_tree_refused(self):
        tree = MetricTree(["a", "b"], [("a", "b", 1.0)])
        rho = Representation(
            tree, [TreeAutomorphism.identity(tree)], check_samples=5
        )
        with pytest.raises(PreconditionError):
            check_not_boundary_fixing(rho)

    def test_euclidean_unsupported(self):
        rho = Representation(
            EuclideanSpace(2),
            [EuclideanIsometry(np.eye(2), [1.0, 0.0])],
            check_samples=5,
        )
        with pytest.raises(CapabilityError):
            check_not_boundary_fixing(rho)


class TestWidthConstant:
    def test_free_rank2_bounds_and_determinism(self):
        rho = Representation.free_on_cayley_tree(2)
        est1 = estimate_width_constant(rho, trials=50, seed=3)
        est2 = estimate_width_constant(rho, trials=50, seed=3)
        assert est1.c_hat == est2.c_hat
        assert 0.0 < est1.c_hat <= 0.5 + 1e-12
        assert len(est1.samples) == 50

    def test_readme_values_bit_for_bit(self):
        # the two C-hat values the README reports, 1000 trials at seed 2026
        hyperbolic = Representation(
            HyperbolicPlane(),
            [HyperbolicIsometry([[2.0, 1.0], [1.0, 1.0]]), HyperbolicIsometry([[5.0, 2.0], [2.0, 1.0]])],
            check_samples=10,
        )
        free = Representation.free_on_cayley_tree(2)
        assert estimate_width_constant(free, trials=1000, seed=2026).c_hat == 0.38270895264273447
        assert estimate_width_constant(hyperbolic, trials=1000, seed=2026).c_hat == 0.3280105115419912

    def test_precondition_enforced(self):
        with pytest.raises(PreconditionError):
            estimate_width_constant(Representation.free_on_cayley_tree(1), trials=5)
