"""How the op loop counts failures, known library defects and repeats."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from geowidth.errors import DomainError  # noqa: E402
from gwbench.worker import run_ops, window_rates  # noqa: E402
from gwbench.workloads import Op  # noqa: E402

KNOWN = {"determinant": (DomainError, "matrix must have positive determinant")}


def raises(error):
    def run():
        raise error

    return run


def test_known_defects_are_not_failures():
    ops = [
        Op("ok", lambda: 1, lambda out: out),
        Op("defect", raises(DomainError("matrix must have positive determinant")), lambda out: out),
        Op("other", raises(DomainError("edge parameter outside [0, 1]")), lambda out: out),
        Op("bug", raises(KeyError("x")), lambda out: out),
    ]
    loop = run_ops(ops, passes=2, known_defects=KNOWN)
    assert loop["attempted"] == 8
    assert loop["known_defects"] == {"determinant": 2}
    assert loop["failures"] == {"DomainError": 2, "KeyError": 2}
    assert loop["failed"] == 4
    assert loop["check_failures"] == 0


def test_a_repeated_op_must_end_the_same_way():
    outcomes = iter([1, DomainError("matrix must have positive determinant"), 1])

    def flaky():
        out = next(outcomes)
        if isinstance(out, Exception):
            raise out
        return out

    loop = run_ops([Op("flaky", flaky, lambda out: out)], passes=3, known_defects=KNOWN)
    # one outcome per op: the repeat that raised is a check failure only
    assert loop["known_defects"] == {}
    assert loop["failures"] == {"check:flaky": 1}
    assert loop["check_failures"] == 1


def test_timed_loop_starts_at_its_slot():
    ops = [Op(str(i), lambda: 0, lambda out: out) for i in range(5)]
    loop = run_ops(ops, passes=1, start=3)
    assert loop["kinds"] == ["3", "4", "0", "1", "2"]


def test_window_rates_use_whole_windows_only():
    ends = [0.5, 1.0, 2.0, 2.5, 3.0, 3.5, 3.6]
    assert window_rates(ends, 3.6, 3) == [3 / 2.0, 3 / 1.5]
    assert window_rates(ends, 3.6, None) == [7 / 3.6]
    assert window_rates(ends[:2], 1.0, 3) == [2 / 1.0]
