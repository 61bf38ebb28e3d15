"""The conjugacy workload's instances have the least conjugator it expects."""

import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from geowidth import words  # noqa: E402
from gwbench import workloads  # noqa: E402


def test_unrank_follows_shortlex_order():
    for rank in (2, 3):
        for length in range(4):
            level = [w for w in words.enumerate_ball(rank, length) if len(w) == length]
            assert len(level) == workloads.level_count(rank, length)
            assert [workloads.unrank(rank, length, i) for i in range(len(level))] == level


def test_expected_conjugator_is_the_shortlex_least():
    rng = np.random.default_rng(7)
    for trial in range(60):
        rank = 2 + trial % 2
        length = trial % 4
        index = int(rng.integers(workloads.level_count(rank, length)))
        size = 1 + trial % 3
        spread = [float(x) for x in rng.uniform(size=size) * 0.1]
        g, a_list, b_list = workloads.conjugacy_instance(
            rng, rank, length, index, heavy=False, centralizer=trial % 4 == 3, spread=spread
        )
        least = next(
            h
            for h in words.enumerate_ball(rank, length)
            if all(words.conjugate(h, a) == b for a, b in zip(a_list, b_list))
        )
        assert least == g == workloads.unrank(rank, length, index)
