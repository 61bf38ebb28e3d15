"""Property tests over every model space: JSON round trips, geodesic splits and map edge data."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geowidth.equivariant import Edge, EquivariantMap, FundamentalGraph
from geowidth.isometries import (
    CayleyTranslation,
    EuclideanIsometry,
    HyperbolicIsometry,
    Representation,
    TreeAutomorphism,
)
from geowidth.spaces import MetricTree, space_from_json

from conftest import all_model_spaces

SPACES = all_model_spaces()
seeds = st.integers(0, 2**32 - 1)


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
