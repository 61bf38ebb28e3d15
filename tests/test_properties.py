"""Property tests over every model space: JSON round trips and geodesic splits."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
