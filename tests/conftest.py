import math

import numpy as np
import pytest

from geowidth.isometries import HyperbolicIsometry, Representation
from geowidth.spaces import CayleyTree, EuclideanSpace, HyperbolicPlane, MetricTree


@pytest.fixture
def euclid2():
    return EuclideanSpace(2)


@pytest.fixture
def hyperbolic():
    return HyperbolicPlane()


@pytest.fixture
def tripod():
    # center c with three unit legs to leaves p, q, r
    return MetricTree(["c", "p", "q", "r"], [("c", "p", 1.0), ("c", "q", 1.0), ("c", "r", 1.0)])


@pytest.fixture
def caterpillar():
    # a path 0-1-2-3 with hairs, mixed edge lengths
    return MetricTree(
        [0, 1, 2, 3, "h1", "h2"],
        [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 1.5), (1, "h1", 0.5), (2, "h2", 2.5)],
    )


@pytest.fixture
def cayley2():
    return CayleyTree(2)


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion, visible in every run."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(RESULTS):
        passed, detail = RESULTS[n]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{status}] criterion {n}: {detail}")


def deep_tree(n: int = 300) -> MetricTree:
    """A seeded tree with long root paths: vertex i hangs off one of the 3 vertices before it."""
    rng = np.random.default_rng(31)
    edges = [(i, int(rng.integers(max(0, i - 3), i)), float(rng.uniform(0.5, 2.0))) for i in range(1, n)]
    return MetricTree(list(range(n)), edges)


def window_tree(n: int, window: int, seed: int) -> MetricTree:
    """A seeded tree where vertex i hangs off one of the ``window`` vertices before it.

    ``window_tree(5000, 2, 3)`` is the tree file of tests/test_cli.py's check-cat0 tests, depth 3,318."""
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(max(0, i - window), i)), i, float(rng.uniform(0.5, 2.0))) for i in range(1, n)]
    return MetricTree(list(range(n)), edges)


def all_model_spaces():
    """One instance of each model, for parametrized property suites."""
    return {
        "euclid2": EuclideanSpace(2),
        "euclid5": EuclideanSpace(5),
        "hyperbolic": HyperbolicPlane(),
        "tripod": MetricTree(
            ["c", "p", "q", "r"], [("c", "p", 1.0), ("c", "q", 1.0), ("c", "r", 1.0)]
        ),
        "caterpillar": MetricTree(
            [0, 1, 2, 3, "h1", "h2"],
            [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 1.5), (1, "h1", 0.5), (2, "h2", 2.5)],
        ),
        "deep-tree": deep_tree(),
        "cayley2": CayleyTree(2),
    }


def readme_rep() -> Representation:
    """The README's rank-2 representation on the hyperbolic plane."""
    gens = [HyperbolicIsometry([[2.0, 1.0], [1.0, 1.0]]), HyperbolicIsometry([[5.0, 2.0], [2.0, 1.0]])]
    return Representation(HyperbolicPlane(), gens, check_samples=50)


def parabolic_rep() -> Representation:
    """Two parabolic generators of a free subgroup of SL(2, Z)."""
    gens = [HyperbolicIsometry([[1.0, 2.0], [0.0, 1.0]]), HyperbolicIsometry([[1.0, 0.0], [2.0, 1.0]])]
    return Representation(HyperbolicPlane(), gens, check_samples=50)
