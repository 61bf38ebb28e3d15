"""Property tests over every model space: JSON round trips, geodesic splits, map edge data, the trusted kernels
and their batched geodesic and track kernels, the comparison sweep, and the float hyperbolic solver."""

import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geowidth import spaces
from geowidth.equivariant import Edge, EquivariantMap, FundamentalGraph
from geowidth.errors import InvalidPointError, ModelMismatchError
from geowidth.isometries import (
    CayleyTranslation,
    EuclideanIsometry,
    HyperbolicIsometry,
    Representation,
    TreeAutomorphism,
)
from geowidth.spaces import (
    ARMIJO_BACKTRACK,
    ARMIJO_SLOPE,
    INNER_TOLERANCE,
    MAX_INNER_ITERATIONS,
    HyperbolicPlane,
    MetricTree,
    space_from_json,
)

from conftest import all_model_spaces

SPACES = all_model_spaces()
seeds = st.integers(0, 2**32 - 1)
#: words of up to 6 letters in two generators
short_words = st.lists(st.sampled_from([1, 2, -1, -2]), max_size=6).map(tuple)


def endpoints(space, seed, vertices):
    """Two seeded points; on a finite tree, vertices where ``vertices`` says so."""
    rng = np.random.default_rng(seed)
    pts = [space.random_point(rng) for _ in range(2)]
    if isinstance(space, MetricTree):
        for i in range(2):
            if vertices[i]:
                pts[i] = space.vertex_point(space.vertices[int(rng.integers(len(space.vertices)))])
    return pts


@pytest.mark.parametrize("name", list(SPACES))
@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_json_round_trip(name, seed):
    space = SPACES[name]
    rebuilt = space_from_json(json.loads(json.dumps(space.to_json())))
    assert rebuilt.to_json() == space.to_json()
    p = space.random_point(np.random.default_rng(seed))
    q = rebuilt.point_from_json(json.loads(json.dumps(space.point_to_json(p))))
    assert space.dist(p, q) <= 1e-12


def hyperbolic_round_trip(space, p):
    return space.point_from_json(json.loads(json.dumps(space.point_to_json(p))))


def test_hyperbolic_points_load_exactly():
    space = SPACES["hyperbolic"]
    for seed in range(20_000):
        p = space.random_point(np.random.default_rng(seed))
        assert hyperbolic_round_trip(space, p).tolist() == p.tolist(), seed
    # the image of a seeded point under a 10-letter word of the README
    # representation sits 4e-9 off the sheet in x0^2 - x1^2 - x2^2
    y = ACTIONS["hyperbolic"].evaluate((1, 2, -1, -2) * 2 + (1, 2)).apply(space.random_point(np.random.default_rng(5)))
    assert hyperbolic_round_trip(space, y).tolist() == y.tolist()


def test_hyperbolic_loading_refuses_or_renormalises_the_rest():
    space = SPACES["hyperbolic"]
    refused = [([math.nan, 0.0, 0.0], InvalidPointError), ([-1.0, 0.0, 0.0], InvalidPointError), ([1.0, 0.0], ModelMismatchError)]
    for coords, error in refused:
        with pytest.raises(error):
            space.point_from_json({"model": "hyperbolic", "coords": coords})
    far = space.point_from_json({"model": "hyperbolic", "coords": [2.0, 1.0, 0.0]})
    assert far.tolist() == space.point([2.0, 1.0, 0.0]).tolist()
    assert space.minkowski(far, far) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("name", list(SPACES))
@settings(max_examples=80, deadline=None)
@given(seed=seeds, vertices=st.tuples(st.booleans(), st.booleans()), n=st.integers(1, 24), data=st.data())
def test_geodesic_point_splits_distance(name, seed, vertices, n, data):
    # grid values k/n put t * d(p, q) on the breakpoints of tree geodesics
    t = data.draw(st.integers(0, n)) / n
    space = SPACES[name]
    p, q = endpoints(space, seed, vertices)
    d = space.dist(p, q)
    x = space.geodesic_point(p, q, t)
    tol = 1e-9 * max(1.0, d)
    assert space.dist(p, x) == pytest.approx(t * d, abs=tol)
    assert space.dist(x, q) == pytest.approx((1.0 - t) * d, abs=tol)


def rank2_actions():
    """A two-generator action on each model space."""
    tripod, caterpillar, deep, cayley = (SPACES[name] for name in ("tripod", "caterpillar", "deep-tree", "cayley2"))
    generators = {
        "euclid2": [EuclideanIsometry([[0.0, -1.0], [1.0, 0.0]], [1.0, 0.0]), EuclideanIsometry(np.eye(2), [0.0, 2.0])],
        "euclid5": [EuclideanIsometry(np.roll(np.eye(5), 1, axis=0), np.arange(5.0)), EuclideanIsometry(np.eye(5), np.ones(5))],
        "hyperbolic": [HyperbolicIsometry([[2.0, 1.0], [1.0, 1.0]]), HyperbolicIsometry([[5.0, 2.0], [2.0, 1.0]])],
        "tripod": [TreeAutomorphism(tripod, {"c": "c", "p": "q", "q": "r", "r": "p"}), TreeAutomorphism.identity(tripod)],
        "caterpillar": [TreeAutomorphism.identity(caterpillar)] * 2,
        "deep-tree": [TreeAutomorphism.identity(deep)] * 2,
        "cayley2": [CayleyTranslation(cayley, (1,)), CayleyTranslation(cayley, (2, 1))],
    }
    return {name: Representation(SPACES[name], gens, check_samples=5) for name, gens in generators.items()}


ACTIONS = rank2_actions()
# a theta graph with a loop, mixed edge lengths and labels
GRAPH = FundamentalGraph(
    [0, 1], [Edge(0, 1, 1.0, ()), Edge(0, 1, 0.5, (1,)), Edge(1, 0, 2.0, (2, -1)), Edge(0, 0, 1.5, (2,))]
)


def bits(p):
    return repr(p.tolist()) if isinstance(p, np.ndarray) else repr(p)


@pytest.mark.parametrize("name", list(SPACES))
@settings(max_examples=40, deadline=None)
@given(seed=seeds, vertices=st.tuples(st.booleans(), st.booleans()))
def test_with_images_matches_construction(name, seed, vertices):
    rho = ACTIONS[name]
    start, images = (dict(enumerate(endpoints(rho.space, seed + i, vertices))) for i in (0, 1))
    moved = EquivariantMap(GRAPH, rho, start).with_images(images)
    built = EquivariantMap(GRAPH, rho, images)
    assert [bits(p) for p in moved._far] == [bits(p) for p in built._far]
    assert [bits(d) for d in moved.edge_lengths] == [bits(d) for d in built.edge_lengths]


# ---------------------------------------------------------------------------
# the trusted kernels against the formulas they replace, bit for bit


def reference_dist(space, p, q):
    """The numpy-vector distance formula that the model's kernel replaces (None: none replaced)."""
    if space.model == "euclidean":
        return float(np.linalg.norm(p - q))
    if space.model == "hyperbolic":
        v = p - q
        s = v[1] * v[1] + v[2] * v[2] - v[0] * v[0]
        return 0.0 if s <= 0.0 else 2.0 * math.asinh(0.5 * math.sqrt(s))
    return None


def reference_geodesic_point(space, p, q, t):
    """The numpy-vector hyperboloid geodesic that the hyperbolic kernel replaces."""
    if t == 0.0:
        return p
    if t == 1.0:
        return q
    d = reference_dist(space, p, q)
    if d == 0.0:
        return p
    s = math.sinh(d)
    return reference_normalize((math.sinh((1.0 - t) * d) / s) * p + (math.sinh(t * d) / s) * q)


def reference_normalize(x):
    """The numpy-vector scaling onto the hyperboloid sheet that ``spaces._sheet`` replaces."""
    return x / math.sqrt(float(x[0] * x[0] - x[1] * x[1] - x[2] * x[2]))


def kernel_pair(space, seed, near, scale):
    """Two seeded points; near-coincident when ``near``, hyperbolic ones out to radius 10."""
    rng = np.random.default_rng(seed)
    if space.model == "hyperbolic":
        r, a = float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.0, 2.0 * math.pi))
        p = space.from_polar(r, a)
        if near:
            return p, space.from_polar(r + scale * float(rng.uniform(-1.0, 1.0)), a + scale * float(rng.uniform(-1.0, 1.0)))
        return p, space.from_polar(float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.0, 2.0 * math.pi)))
    p, q = space.random_point(rng), space.random_point(rng)
    if near:
        q = p + scale * rng.standard_normal(p.shape) if space.model == "euclidean" else space.geodesic_point(p, q, scale)
    return p, q


@pytest.mark.parametrize("name", list(SPACES))
@settings(max_examples=80, deadline=None)
@given(
    seed=seeds,
    near=st.booleans(),
    scale=st.sampled_from([1e-15, 1e-12, 1e-9, 1e-6, 1e-3]),
    t=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
)
def test_kernels_match_reference_and_public_calls(name, seed, near, scale, t):
    space = SPACES[name]
    p, q = kernel_pair(space, seed, near, scale)
    d = space._dist(p, q)
    x = space._geodesic_point(p, q, t)
    assert bits(space.dist(p, q)) == bits(d)
    assert bits(space.geodesic_point(p, q, t)) == bits(x)
    if reference_dist(space, p, q) is not None:
        assert bits(d) == bits(reference_dist(space, p, q))
    if space.model == "hyperbolic":
        assert bits(x) == bits(reference_geodesic_point(space, p, q, t))


def exactly(x):
    """A point's type and bits, -0.0 and dtype included; a tree point's np.float64 fields read as floats."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, repr(x.tolist())
    return type(x).__name__, tuple(float.hex(v) if isinstance(v, float) else v for v in dataclasses.astuple(x))


def batch_points(space, p, q, vertex, coincident, dtype):
    """p and q as the batch test takes them: tree points moved to a vertex, q = p, Euclidean points cast."""
    if space.model in ("tree", "cayley"):
        # the vertex at the anchor of the point's edge
        snap = (lambda x: space.vertex_point(x.word)) if space.model == "cayley" else (
            lambda x: x if x.edge is None else space.vertex_point(space.edges[x.edge][0])
        )
        p, q = (snap(x) if v else x for x, v in zip((p, q), vertex))
    if coincident:
        q = p.copy() if isinstance(p, np.ndarray) else p
    if space.model == "euclidean" and dtype != "float64":
        p, q = ((4.0 * x).astype(dtype) for x in (p, q))
    return p, q


@pytest.mark.parametrize("name", list(SPACES))
@settings(max_examples=200, deadline=None)
@given(
    seed=seeds,
    near=st.booleans(),
    scale=st.sampled_from([1e-15, 1e-9, 1e-3]),
    vertex=st.tuples(st.booleans(), st.booleans()),
    coincident=st.booleans(),
    dtype=st.sampled_from(["float64", "float32", "int64"]),
    # fractions k/n put t * d(p, q) on the vertices of tree geodesics, where the snap decides
    ts=st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), st.fractions(0, 1, max_denominator=24).map(float)),
        max_size=12,
    ),
    form=st.sampled_from(["floats", "float64s", "array"]),
)
# the floats next to the endpoints, where an endpoint rule that snaps would show
@example(
    seed=0, near=False, scale=1e-3, vertex=(False, False), coincident=False, dtype="float32",
    ts=[math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)], form="floats",
)
@example(
    seed=0, near=False, scale=1e-3, vertex=(False, False), coincident=False, dtype="float64",
    ts=[math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)], form="array",
)
def test_geodesic_points_match_point_by_point(name, seed, near, scale, vertex, coincident, dtype, ts, form):
    space = SPACES[name]
    p, q = batch_points(space, *kernel_pair(space, seed, near, scale), vertex, coincident, dtype)
    ts = [0.0, *ts, 1.0]
    ts = {"floats": ts, "float64s": [np.float64(t) for t in ts], "array": np.array(ts)}[form]
    expected = [exactly(space._geodesic_point(p, q, t)) for t in ts]
    assert [exactly(x) for x in space._geodesic_points(p, q, ts)] == expected


@pytest.mark.parametrize("name", list(SPACES))
@settings(max_examples=60, deadline=None)
@given(
    seed=seeds,
    # point k is a copy of point same[k] <= k: every pattern of coincident points
    same=st.tuples(st.just(0), st.integers(0, 1), st.integers(0, 2), st.integers(0, 3)),
    lam=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    grid=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), max_size=4),
)
def test_comparison_sweep_matches_the_per_call_defects(name, seed, same, lam, grid):
    space = SPACES[name]
    rng = np.random.default_rng(seed)
    pts = [space.random_point(rng) for _ in range(4)]
    pts = [pts[k] for k in same]
    grid = [0.0, *grid, 1.0]
    sweep = spaces.comparison_sweep(space, *pts, lam, grid)
    assert bits(sweep.triangle) == bits(spaces.triangle_defect(space, *pts[:3], lam))
    quad = [spaces.quadrilateral_defect(space, *pts, t, alpha) for t in grid for alpha in grid]
    assert list(map(bits, sweep.quadrilateral)) == list(map(bits, quad))
    assert list(map(bits, sweep.convexity)) == [bits(spaces.convexity_defect(space, *pts, t)) for t in grid]
    assert sweep.sides == tuple(space.dist(p, q) for k, p in enumerate(pts) for q in pts[k + 1:])
    assert repr(spaces.comparison_sweep(space, *pts, lam, iter(grid))) == repr(sweep)


@pytest.mark.parametrize("name", list(SPACES))
@settings(max_examples=100, deadline=None)
@given(
    seed=seeds,
    # ends moved onto vertices, so that tree geodesics turn at a vertex and samples k/n land on one
    vertex=st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()),
    pattern=st.sampled_from(["apart", "a = b", "c = d", "same"]),
    ts=st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), st.fractions(0, 1, max_denominator=24).map(float)),
        max_size=12,
    ),
)
def test_track_lengths_match_the_distances_of_geodesic_points(name, seed, vertex, pattern, ts):
    space = SPACES[name]
    a, b = endpoints(space, seed, vertex[:2])
    c, d = endpoints(space, seed + 1, vertex[2:])
    b = a if pattern == "a = b" else b
    c, d = (a, b) if pattern == "same" else (c, c) if pattern == "c = d" else (c, d)
    ts = [0.0, *ts, 1.0]
    got = space._track_lengths(a, b, c, d, ts)
    expected = [space._dist(space._geodesic_point(a, b, t), space._geodesic_point(c, d, t)) for t in ts]
    assert all(type(x) is float for x in got)
    if space.model == "hyperbolic":  # the kernel runs _geodesic_point's arithmetic on floats
        assert got == expected
    assert np.all(np.abs(np.array(got) - expected) <= 1e-12 * np.maximum(1.0, expected))
    if pattern == "same":
        assert got == [0.0] * len(ts)


@settings(max_examples=100, deadline=None)
@given(
    seed=seeds,
    word=short_words,
    ts=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), max_size=12),
)
def test_hyperbolic_edge_track_lengths_apply_the_isometry_to_each_point(seed, word, ts):
    # the kernel applies g from its entries; the public apply of each geodesic point is the referee, bit for bit
    space, g = SPACES["hyperbolic"], ACTIONS["hyperbolic"].evaluate(word)
    a, b = endpoints(space, seed, (False, False))
    c, d = endpoints(space, seed + 1, (False, False))
    ts = [0.0, *ts, 1.0]
    got = space._edge_track_lengths(a, b, c, d, g, (g.apply(c), g.apply(d)), ts)
    assert got == [space._dist(space._geodesic_point(a, b, t), g.apply(space._geodesic_point(c, d, t))) for t in ts]
    assert space._edge_track_lengths(a, b, c, d, None, (c, d), ts) == space._track_lengths(a, b, c, d, ts)


@pytest.mark.parametrize(
    "name, ends",
    [
        ("tripod", lambda t: (t.vertex_point("p"), t.vertex_point("q"), t.vertex_point("r"))),
        ("cayley2", lambda t: (t.vertex_point((1,)), t.vertex_point((2,)), t.vertex_point((-1,)))),
    ],
)
def test_track_lengths_along_a_geodesic_that_turns_at_a_vertex(name, ends):
    # p -> q turns at the centre at t = 1/2; from a third leaf r the track is 2 - 2t, then 2t
    space = SPACES[name]
    p, q, r = ends(space)
    ts = [k / 8 for k in range(9)]
    assert space._track_lengths(p, q, r, r, ts) == [2.0 - 2.0 * t if t <= 0.5 else 2.0 * t for t in ts]


def outcome(kernel):
    """The point a kernel call returns, as ``exactly`` reads it, or the error it raises."""
    try:
        return exactly(kernel())
    except InvalidPointError as e:
        return repr(e)


def test_far_apart_hyperbolic_batch_matches_point_by_point():
    # the largest finite distance is 2 asinh(sqrt(max float) / 2) = 709.78, below sinh's overflow at 710.47
    space = SPACES["hyperbolic"]
    p, q = space.from_polar(354.0, 0.0), space.from_polar(354.0, math.pi)
    assert space._dist(p, q) == pytest.approx(708.0)
    for t in [k / 64 for k in range(1, 64)] + [1e-3, 1.0 - 1e-3]:
        scalar = outcome(lambda: space._geodesic_point(p, q, t))
        assert outcome(lambda: space._geodesic_points(p, q, [0.0, t, 1.0])[1]) == scalar
    assert space.dist(space._geodesic_point(p, q, 0.5), space.from_polar(0.0, 0.0)) <= 1e-9


def test_infinitely_far_hyperbolic_pair_keeps_its_endpoints():
    space = SPACES["hyperbolic"]
    p, q = space.from_polar(355.0, 0.0), space.from_polar(355.0, math.pi)
    assert space._dist(p, q) == math.inf
    assert [exactly(x) for x in space._geodesic_points(p, q, [0.0, 1.0])] == [exactly(p), exactly(q)]
    assert space._geodesic_point(p, q, 0.0) is p and space._geodesic_point(p, q, 1.0) is q
    with pytest.raises(InvalidPointError):
        space._geodesic_point(p, q, 0.5)
    with pytest.raises(InvalidPointError):
        space._geodesic_points(p, q, [0.0, 0.5, 1.0])


# ---------------------------------------------------------------------------
# hyperbolic isometries on the float entries of their matrices


def numpy_apply(g, p):
    """A S A^T as numpy 2x2 products, S = [[x0 + x1, x2], [x2, x0 - x1]]: the referee of the float ``apply``."""
    a = g.matrix
    x = a @ np.array([[p[0] + p[1], p[2]], [p[2], p[0] - p[1]]]) @ a.T
    return np.array([0.5 * (x[0, 0] + x[1, 1]), 0.5 * (x[0, 0] - x[1, 1]), x[0, 1]])


def seeded_isometries(rng, count):
    """Isometries of seeded real matrices, with entries of sizes 1e-1 to 1e1."""
    gens = []
    for _ in range(count):
        m = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-1.0, 1.0, size=(2, 2))
        gens.append(HyperbolicIsometry(m if np.linalg.det(m) > 0.0 else m[::-1]))
    return gens


def size(g):
    """The sum of the absolute entries of g's matrix."""
    return sum(map(abs, g.entries))


@settings(max_examples=300, deadline=None)
@given(seed=seeds, word=short_words, radius=st.floats(0.0, 12.0))
def test_float_apply_matches_the_numpy_product(seed, word, radius):
    rng = np.random.default_rng(seed)
    g = Representation(SPACES["hyperbolic"], seeded_isometries(rng, 2), check_samples=0).evaluate(word)
    p = SPACES["hyperbolic"].from_polar(radius, float(rng.uniform(0.0, 2.0 * math.pi)))
    got = g.apply(p)
    assert got.dtype == np.float64 and got.shape == (3,)
    # each coordinate sums products of two entries and one of x0 +- x1, x2: a few ulps of their absolute sum
    assert np.all(np.abs(got - numpy_apply(g, p)) <= 4 * 2.0**-52 * size(g) ** 2 * np.abs(p).sum())


@settings(max_examples=300, deadline=None)
@given(seed=seeds, u=short_words, w=short_words, radius=st.floats(0.0, 8.0))
def test_float_isometries_compose_and_preserve_distances(seed, u, w, radius):
    space = SPACES["hyperbolic"]
    rng = np.random.default_rng(seed)
    rho = Representation(space, seeded_isometries(rng, 2), check_samples=0)
    g, h = rho.evaluate(u), rho.evaluate(w)
    p, q = (space.from_polar(radius * float(rng.uniform()), float(rng.uniform(0.0, 2.0 * math.pi))) for _ in range(2))
    eps = 2.0**-52
    composed, stepwise = g.compose(h).apply(p), g.apply(h.apply(p))
    assert np.all(np.abs(composed - stepwise) <= 8 * eps * (size(g) * size(h)) ** 2 * np.abs(p).sum())
    # d = 2 asinh(|x - y|_M / 2) rounds as eps times the squared coordinate size, over d near 0
    gp, gq, d = g.apply(p), g.apply(q), space._dist(p, q)
    scale = max(np.abs(x).max() for x in (p, q, gp, gq)) ** 2
    assert abs(space._dist(gp, gq) - d) <= 32 * eps * scale / min(1.0, max(d, 1e-3))


def h_exp(p, v):
    """exp_p(v) as an array, from the float kernel ``spaces._h_exp``."""
    return np.array(spaces._h_exp(p.tolist(), v.tolist()))


@settings(max_examples=200, deadline=None)
@given(
    seed=seeds,
    scale=st.floats(1e-6, 1e6),
    tangent=st.floats(0.0, 5.0),
)
def test_normalize_and_exp_match_reference(seed, scale, tangent):
    space = SPACES["hyperbolic"]
    rng = np.random.default_rng(seed)
    p = space.from_polar(float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.0, 2.0 * math.pi)))
    assert bits(space.normalize(scale * p)) == bits(reference_normalize(scale * p))
    # a tangent vector at p (<p, v> = 0) of length ``tangent``
    w = rng.standard_normal(3)
    w = w - space.minkowski(p, w) * p
    v = (tangent / math.sqrt(-space.minkowski(w, w))) * w
    nrm2 = -space.minkowski(v, v)
    ref = p if nrm2 <= 0.0 else reference_normalize(
        math.cosh(math.sqrt(nrm2)) * p + (math.sinh(math.sqrt(nrm2)) / math.sqrt(nrm2)) * v
    )
    assert bits(h_exp(p, v)) == bits(ref)


# ---------------------------------------------------------------------------
# the float hyperbolic solver against the numpy solver it replaces

J = np.diag([1.0, -1.0, -1.0])
LOOPS = [
    HyperbolicIsometry(m)
    for m in ([[1.0, 2.0], [0.0, 1.0]], [[3.0, 0.0], [0.0, 1.0 / 3.0]], [[12.0, 5.0], [7.0, 3.0]], [[0.6, -0.8], [0.8, 0.6]])
]


def so21(a):
    """The 3x3 matrix of a's action on hyperboloid coordinates, from three public ``apply`` calls."""
    return np.column_stack([a.apply(basis) for basis in np.eye(3)])


def loop_terms(iso_terms):
    """Loop terms as the float solver takes them: (w, A's entries, A^-1's entries)."""
    return [(w, a.entries, a.inverse().entries) for w, a in iso_terms]


def reference_grad(space, y, point_terms, iso_mats):
    """The numpy Riemannian gradient that ``spaces._h_grad`` replaces."""
    ambient = np.zeros(3)
    for w, p in point_terms:
        h = space.minkowski(y, p)
        ambient += w * 2.0 * spaces._safe_ratio(space._dist(y, p), h) * (J @ p)
    for w, b in iso_mats:
        by = b @ y
        h = space.minkowski(y, by)
        grad_h = J @ by + b.T @ (J @ y)
        ambient += w * 2.0 * spaces._safe_ratio(math.acosh(max(h, 1.0)), h) * grad_h
    return -(J @ ambient) + float(y @ ambient) * y


def reference_local_min(space, y0, point_terms, iso_terms):
    """The numpy solver that the float ``HyperbolicPlane.local_min`` replaces, with its off-sheet rule."""
    iso_mats = [(w, so21(a)) for w, a in iso_terms]
    y, f = y0, space.local_value(y0, point_terms, iso_terms)
    step = 0.25 / max(sum(w for w, _ in point_terms) + sum(w for w, _ in iso_terms), 1e-12)
    for _ in range(MAX_INNER_ITERATIONS):
        g = reference_grad(space, y, point_terms, iso_mats)
        gnorm = math.sqrt(max(-space.minkowski(g, g), 0.0))
        if gnorm < 1e-9:
            break
        t = step * 2.0
        improved = False
        while t * gnorm > 1e-16:
            try:
                y_try = h_exp(y, -t * g)
            except (InvalidPointError, OverflowError):
                t *= ARMIJO_BACKTRACK
                continue
            f_try = space.local_value(y_try, point_terms, iso_terms)
            if f_try <= f - ARMIJO_SLOPE * t * gnorm * gnorm:
                if f - f_try <= INNER_TOLERANCE * max(1.0, abs(f)):
                    break
                y, f = y_try, f_try
                step = t
                improved = True
                break
            t *= ARMIJO_BACKTRACK
        if not improved:
            break
    return y


def local_instance(seed, radius, least_points=0):
    """Seeded point terms (at least ``least_points``) and loop terms, with a start point, out to ``radius``."""
    space = SPACES["hyperbolic"]
    rng = np.random.default_rng(seed)

    def point():
        return space.from_polar(float(rng.uniform(0.0, radius)), float(rng.uniform(0.0, 2.0 * math.pi)))

    point_terms = [(float(rng.uniform(0.2, 2.0)), point()) for _ in range(int(rng.integers(least_points, 4)))]
    iso_terms = [(float(rng.uniform(0.2, 2.0)), LOOPS[int(rng.integers(len(LOOPS)))]) for _ in range(int(rng.integers(0, 3)))]
    if not point_terms and not iso_terms:
        point_terms.append((1.0, point()))
    return point(), point_terms, iso_terms


def near_instance(seed, radius):
    """``local_instance`` with at least one point term, each moved to a distance from 1e-7 to 1e-2 of y."""
    space = SPACES["hyperbolic"]
    y, point_terms, iso_terms = local_instance(seed, radius, least_points=1)
    rng = np.random.default_rng([seed, 2])
    near = []
    for w, _ in point_terms:
        v = rng.standard_normal(3)
        v = v - space.minkowski(y, v) * y
        d = 10.0 ** float(rng.uniform(-7.0, -2.0))
        near.append((w, h_exp(y, (d / math.sqrt(-space.minkowski(v, v))) * v)))
    return y, near, iso_terms


def mpmath_grad(y, points, mats):
    """The formula of ``spaces._h_grad`` in 200-bit arithmetic: the gradient and its ambient sum.  A point term's
    phi / sinh(phi) is its phi / sqrt(h^2 - 1) on the sheet."""
    with mpmath.workprec(200):
        y0, y1, y2 = y = [mpmath.mpf(x) for x in y]

        def ratio(phi, h):
            s2 = h * h - 1
            return 1 if s2 <= 1e-24 else phi / mpmath.sqrt(s2)

        a = [mpmath.mpf(0)] * 3
        for w, p in points:
            v0, v1, v2 = (yi - pi for yi, pi in zip(y, p))
            s = v1 * v1 + v2 * v2 - v0 * v0
            phi = 0 if s <= 0 else 2 * mpmath.asinh(mpmath.sqrt(s) / 2)
            c = w * 2 * (phi / mpmath.sinh(phi) if phi else 1)
            a = [a[0] + c * p[0], a[1] - c * p[1], a[2] - c * p[2]]
        for w, b in mats:
            by0, by1, by2 = (b[3 * i] * y0 + b[3 * i + 1] * y1 + b[3 * i + 2] * y2 for i in range(3))
            h = y0 * by0 - y1 * by1 - y2 * by2
            c = w * 2 * ratio(mpmath.acosh(max(h, 1)), h)
            a[0] += c * (by0 + (b[0] * y0 - b[3] * y1 - b[6] * y2))
            a[1] += c * ((b[1] * y0 - b[4] * y1 - b[7] * y2) - by1)
            a[2] += c * ((b[2] * y0 - b[5] * y1 - b[8] * y2) - by2)
        s = y0 * a[0] + y1 * a[1] + y2 * a[2]
        return [float(g) for g in (s * y0 - a[0], a[1] + s * y1, a[2] + s * y2)], [float(x) for x in a]


@example(seed=7935, near=False)
@example(seed=9820, near=False)
@example(seed=16147, near=False)
@example(seed=2, near=True)
@settings(max_examples=200, deadline=None)
@given(seed=seeds, near=st.booleans())
def test_float_gradient_matches_mpmath_reference(seed, near):
    # projecting the ambient sum a onto T_y cancels terms of size |y|^2 max|a|, which leaves
    # the float kernel (and any float referee) a few ulps of that, as near a lone parabolic loop far out;
    # near-coincident point terms need phi / sinh(phi), as phi / sqrt(h^2 - 1) amplifies h's rounding
    y, point_terms, iso_terms = (near_instance if near else local_instance)(seed, 8.0)
    y = tuple(y.tolist())
    points = [(w, tuple(p.tolist())) for w, p in point_terms]
    mats = [(w, tuple(so21(a).ravel().tolist())) for w, a in iso_terms]
    ref, ambient = mpmath_grad(y, points, mats)
    got = spaces._h_grad(y, points, loop_terms(iso_terms))
    bound = 1e-9 * max(map(abs, ref)) + 4 * 2.0**-52 * sum(x * x for x in y) * max(map(abs, ambient))
    assert max(abs(g - r) for g, r in zip(got, ref)) <= bound


def test_float_objective_is_local_value_bit_for_bit():
    # the solver descends the objective that relax's guard compares: both apply each loop through _h_act
    space = SPACES["hyperbolic"]
    for seed in range(3000):
        y, point_terms, _ = local_instance(seed, 8.0)
        rng = np.random.default_rng([seed, 1])
        isos = [LOOPS[int(rng.integers(len(LOOPS)))] if rng.random() < 0.5 else seeded_isometries(rng, 1)[0]
                for _ in range(int(rng.integers(1, 3)))]
        iso_terms = [(float(rng.uniform(0.2, 2.0)), a) for a in isos]
        points = [(w, tuple(p.tolist())) for w, p in point_terms]
        got = spaces._h_value(tuple(y.tolist()), points, loop_terms(iso_terms))
        assert got == space.local_value(y, point_terms, iso_terms), seed


@settings(max_examples=300, deadline=None)
@given(seed=seeds, radius=st.floats(0.0, 10.0), w=st.floats(0.2, 2.0))
def test_loop_gradient_is_that_of_two_point_terms(seed, radius, w):
    # B^T J y = J B^-1 y on SO(2,1), so w d^2(y, A y) adds the ambient terms of point terms at A y and A^-1 y.
    # The point terms take phi from the difference form and h from their own product, which round as eps S^2,
    # S^2 the largest squared norm of y, A y and A^-1 y; sqrt(h^2 - 1) scales that by S^2 / (h^2 - 1).
    rng = np.random.default_rng(seed)
    a = LOOPS[int(rng.integers(len(LOOPS)))] if rng.random() < 0.5 else seeded_isometries(rng, 1)[0]
    y = tuple(SPACES["hyperbolic"].from_polar(radius, float(rng.uniform(0.0, 2.0 * math.pi))).tolist())
    ay, iy = spaces._h_act(a.entries, y), spaces._h_act(a.inverse().entries, y)
    loop = spaces._h_grad(y, [], loop_terms([(w, a)]))
    points = spaces._h_grad(y, [(w, ay), (w, iy)], [])
    h = y[0] * ay[0] - y[1] * ay[1] - y[2] * ay[2]
    ambient = w * 2.0 * spaces._safe_ratio(math.acosh(max(h, 1.0)), h) * max(abs(u + v) for u, v in zip(ay, iy))
    s2 = max(sum(x * x for x in v) for v in (y, ay, iy))
    bound = 16 * 2.0**-52 * s2 * ambient * (1.0 + s2 / max(h * h - 1.0, 1e-300))
    assert max(abs(g - r) for g, r in zip(loop, points)) <= bound


@settings(max_examples=60, deadline=None)
@given(seed=seeds)
def test_float_local_min_matches_numpy_reference(seed):
    # two points give a positive minimum; where the infimum is 0, as for a
    # lone parabolic loop, both solvers stop at values that rounding decides
    space = SPACES["hyperbolic"]
    y0, point_terms, iso_terms = local_instance(seed, 4.0, least_points=2)
    f0 = space.local_value(y0, point_terms, iso_terms)
    f = space.local_value(space.local_min(y0, point_terms, iso_terms), point_terms, iso_terms)
    f_ref = space.local_value(reference_local_min(space, y0, point_terms, iso_terms), point_terms, iso_terms)
    assert f <= f0
    assert abs(f - f_ref) <= 1e-6 * max(abs(f_ref), 1e-12)


class FrozenLoop:
    """A loop isometry that offers only its entries and its inverse."""

    def __init__(self, a):
        self.a, self.entries = a, a.entries

    def inverse(self):
        return FrozenLoop(self.a.inverse())


def test_local_min_runs_on_floats_only(monkeypatch):
    space = SPACES["hyperbolic"]
    y0, point_terms, _ = local_instance(5, 4.0)
    iso_terms = [(1.0, FrozenLoop(LOOPS[2]))]

    def refuse(*args):
        raise AssertionError("local_min left the float path")

    for owner, name in ((HyperbolicPlane, "_dist"), (HyperbolicIsometry, "apply")):
        monkeypatch.setattr(owner, name, refuse)
    y = space.local_min(y0, point_terms, iso_terms)
    assert isinstance(y, np.ndarray) and y is not y0
