"""Self time of nested spans, and the accounting it guarantees."""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from gwbench.tracing import Tracer, self_times, summarize  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 3]; root > c [7, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 7.0]
    end = [10.0, 6.0, 3.0, 9.0]
    assert list(self_times(parent, start, end)) == [10 - 5 - 2, 5 - 1, 1, 2]


def test_overlapping_children_are_counted_once():
    # children recorded by another process may overlap; their union counts
    parent = [-1, 0, 0, 0]
    start = [0.0, 1.0, 2.0, 8.0]
    end = [10.0, 4.0, 5.0, 12.0]
    # union inside the parent: [1, 5] and [8, 10]
    assert self_times(parent, start, end)[0] == 10 - 4 - 2


def test_self_times_of_a_traced_tree_add_up_to_the_root():
    tracer = Tracer()

    def leaf():
        with tracer.span("words.multiply"):
            sum(range(200))

    with tracer.span("bench.run"):
        for _ in range(5):
            with tracer.span("conjugacy.solve"):
                leaf()
                with tracer.span("conjugacy.verify"):
                    leaf()
                    leaf()
    s = summarize(tracer)
    assert s["calls"] == {"bench.run": 1, "conjugacy.solve": 5, "conjugacy.verify": 5, "words.multiply": 15}
    total_self = sum(s["self_s"].values())
    assert math.isclose(total_self, s["total_s"]["bench.run"], rel_tol=1e-9)
    assert all(t >= 0.0 for t in self_times(tracer.parent, tracer.start, tracer.end))


def test_saved_spans_round_trip_under_a_new_parent(tmp_path):
    child = Tracer()
    with child.span("cli.main"):
        with child.span("serialization.load"):
            pass
    child.save(tmp_path / "child.npz")
    tracer = Tracer()
    with tracer.span("cli.width") as op:
        pass
    tracer.adopt(op, tmp_path / "child.npz")
    assert list(tracer.parent) == [-1, 0, 1]
    assert [tracer.names[n] for n in tracer.name] == ["cli.width", "cli.main", "serialization.load"]
    assert list(tracer.start[1:]) == list(child.start)
