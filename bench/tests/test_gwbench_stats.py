"""The tail-percentile rule: a reported tail percentile has at least ten
samples beyond it, counted by the nearest-rank rule."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from gwbench.stats import TAIL_MIN_BEYOND, beyond, percentile, rank  # noqa: E402


def test_boundary_counts_are_exact():
    # p99 of 1000 samples is the 990th smallest: exactly 10 beyond it
    assert rank(1000, "99") == 990
    assert beyond(1000, "99") == TAIL_MIN_BEYOND
    assert beyond(999, "99") == TAIL_MIN_BEYOND - 1
    # p75 needs 40 samples, p90 100
    assert beyond(40, "75") == TAIL_MIN_BEYOND
    assert beyond(39, "75") < TAIL_MIN_BEYOND
    assert beyond(100, "90") == TAIL_MIN_BEYOND
    # percentiles are compared exactly, not in binary floating point
    assert rank(10_000, "99.9") == 9990


def test_samples_beyond_are_those_above_the_percentile():
    for n in range(1, 3000, 7):
        for q in ("50", "75", "90", "99"):
            values = list(range(n))
            cut = percentile(values, q)
            assert beyond(n, q) == sum(v > cut for v in values)


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))[::-1]
    assert percentile(values, "99") == 990
    assert percentile(values, "50") == 500
    assert percentile([3.0], "99") == 3.0
