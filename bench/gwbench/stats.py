"""Order statistics used by every workload."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

#: samples that must lie beyond a reported tail percentile
TAIL_MIN_BEYOND = 10


def rank(n: int, q: str) -> int:
    """1-based nearest rank of percentile q among n sorted samples."""
    return max(1, math.ceil(Fraction(q) * n / 100))


def beyond(n: int, q: str) -> int:
    """Samples above the nearest-rank percentile q of n samples."""
    return n - rank(n, q)


def percentile(values, q: str) -> float:
    """Nearest-rank percentile q of a non-empty sample."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def median(values) -> float:
    return float(statistics.median(values))
