"""BENCHMARK.json names exactly the metrics the harness reports."""

import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from gwbench import metrics  # noqa: E402

DOC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_lists_match_the_harness():
    assert [(m["name"], m["unit"], m["better"]) for m in DOC["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in DOC["per_layer"]] == list(metrics.PER_LAYER)


def test_names_units_and_bounds_are_well_formed():
    names = [w["name"] for w in DOC["workloads"]] + [m["name"] for m in DOC["end_to_end"] + DOC["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(m["name"] for m in DOC["end_to_end"] + DOC["per_layer"])) == len(DOC["end_to_end"]) + len(DOC["per_layer"])
    assert all(UNIT.match(m["unit"]) for m in DOC["end_to_end"] + DOC["per_layer"])
    bounds = {m["name"]: m["bound"] for m in DOC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in DOC["workloads"])


def test_workloads_are_the_harness_workloads():
    sys.path.insert(0, str(BENCH))
    import run

    assert tuple(w["name"] for w in DOC["workloads"]) == run.WORKLOADS
    assert DOC["command"] == ["python3", "bench/run.py"] and DOC["paths"] == ["bench"]
