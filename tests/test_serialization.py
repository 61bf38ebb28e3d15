import json
import math

import numpy as np
import pytest

from geowidth.equivariant import Edge, EquivariantMap, FundamentalGraph, build_bouquet_map
from geowidth.errors import DomainError
from geowidth.isometries import (
    EuclideanIsometry,
    HyperbolicIsometry,
    Representation,
    TreeAutomorphism,
)
from geowidth.serialization import load_map, map_from_json, map_to_json, save_map
from geowidth.spaces import CayleyTree, EuclideanSpace, HyperbolicPlane, MetricTree, space_from_json


def spaces():
    return [
        EuclideanSpace(3),
        HyperbolicPlane(),
        MetricTree(["c", "p", "q"], [("c", "p", 1.0), ("c", "q", 2.0)]),
        CayleyTree(2),
    ]


class TestSpaceAndPoint:
    @pytest.mark.parametrize("space", spaces(), ids=lambda s: s.model)
    def test_space_roundtrip(self, space):
        rebuilt = space_from_json(json.loads(json.dumps(space.to_json())))
        assert rebuilt.model == space.model

    @pytest.mark.parametrize("space", spaces(), ids=lambda s: s.model)
    def test_point_roundtrip(self, space):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = space.random_point(rng)
            data = json.loads(json.dumps(space.point_to_json(p)))
            q = space.point_from_json(data)
            assert space.dist(p, q) <= 1e-12

    def test_point_model_guard(self):
        with pytest.raises(DomainError):
            EuclideanSpace(2).point_from_json({"model": "hyperbolic", "coords": [1, 0, 0]})


class TestRepresentation:
    def reps(self):
        tree = MetricTree(["c", "p", "q"], [("c", "p", 1.0), ("c", "q", 1.0)])
        return [
            Representation(
                EuclideanSpace(2),
                [EuclideanIsometry(np.eye(2), [1.0, 0.0])],
                check_samples=5,
            ),
            Representation(
                HyperbolicPlane(),
                [HyperbolicIsometry([[2.0, 1.0], [1.0, 1.0]])],
                check_samples=5,
            ),
            Representation(
                tree,
                [TreeAutomorphism(tree, {"c": "c", "p": "q", "q": "p"})],
                check_samples=5,
            ),
            Representation.free_on_cayley_tree(2),
        ]

    def test_roundtrip_preserves_action(self):
        rng = np.random.default_rng(2)
        for rho in self.reps():
            data = json.loads(json.dumps(rho.to_json()))
            rebuilt = Representation.from_json(data, check_samples=10)
            assert rebuilt.kind == rho.kind
            p = rho.space.random_point(rng)
            for g in [(1,), (-1,)]:
                assert rho.space.dist(rho.act(g, p), rebuilt.act(g, p)) <= 1e-12


class TestMapFiles:
    def test_roundtrip(self, tmp_path):
        rho = Representation(
            HyperbolicPlane(),
            [
                HyperbolicIsometry([[1.0, 2.0], [0.0, 1.0]]),
                HyperbolicIsometry([[1.0, 0.0], [2.0, 1.0]]),
            ],
            check_samples=5,
        )
        space = rho.space
        graph = FundamentalGraph(
            [0, 1],
            [Edge(0, 1, 1.0, ()), Edge(0, 1, 1.0, (1,)), Edge(1, 0, 2.0, (2,))],
        )
        u = EquivariantMap(
            graph, rho, {0: space.point([1.0, 0.0, 0.0]), 1: space.from_polar(0.6, 0.9)}
        )
        path = tmp_path / "map.json"
        save_map(str(path), u)
        v = load_map(str(path))
        assert [e.label for e in v.graph.edges] == [e.label for e in u.graph.edges]
        for w in graph.vertices:
            assert space.dist(u.images[w], v.images[w]) <= 1e-12

    def test_missing_representation(self):
        rho = Representation.free_on_cayley_tree(2)
        u = build_bouquet_map(rho, rho.space.vertex_point(()))
        data = map_to_json(u)
        del data["representation"]
        with pytest.raises(DomainError):
            map_from_json(data)

    def test_shared_representation_override(self, tmp_path):
        rho = Representation.free_on_cayley_tree(2)
        u = build_bouquet_map(rho, rho.space.vertex_point((1,)))
        path = tmp_path / "map.json"
        save_map(str(path), u)
        v = load_map(str(path), rho=rho)
        assert v.rho is rho
