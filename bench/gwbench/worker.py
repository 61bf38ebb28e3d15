"""One workload in one process: set-up, then a timed loop or a fixed pass.

Run by ``bench/run.py``; prints one JSON object on its last stdout line.

Modes:
  timed  -- set up, warm up, cycle through the op pool for --seconds from
            the slot where part --part of --parts starts, run the gates;
  pass   -- set up a smaller pool from the same seed and run it once, untraced;
  trace  -- like pass, with every geowidth layer wrapped in spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = ROOT / "bench" / "out"
#: passes over the pool in the pass and trace modes; the CLI pool has only
#: two invocations of each subcommand
PASSES = {"cli": 3}
#: a timed loop runs at least this many ops
MIN_TIMED_OPS = 10
#: untimed ops run before a timed loop, for this long, from its first slot
WARMUP_S = 0.5


def _build(name: str, seed: int, pool: str, env: dict, launcher):
    from gwbench import workloads

    if name == "cli":
        return workloads.Cli(seed, OUT_DIR, env, launcher)
    return {"comparison": workloads.Comparison, "maps": workloads.Maps, "conjugacy": workloads.Conjugacy}[name](seed, pool)


def warm_up(ops, start: int, seconds: float) -> None:
    """Run ops from ``start`` for ``seconds``, untimed and unchecked, so that
    lazy imports, caches and allocator pools fill before the clock starts."""
    deadline = perf_counter() + seconds
    i = 0
    while i < len(ops) and perf_counter() < deadline:
        try:
            ops[(start + i) % len(ops)].run()
        except Exception:  # the timed loop meets the same op and counts it
            pass
        i += 1


def run_ops(ops, seconds=None, passes=None, tracer=None, start=0, known_defects=None) -> dict:
    """Closed loop over the pool: the next op starts when the previous returns.

    Starts at slot ``start``; stops after ``seconds`` of wall time, but not
    before MIN_TIMED_OPS ops, or after ``passes`` full passes.
    Exceptions are caught per op and counted by type; check failures are
    counted by op kind.  An exception that ``known_defects`` names (a known
    defect of the library, see ``workloads.Workload.known_defects``) is
    counted as that defect instead: the op did not succeed, but the
    benchmark saw what it expected of the library as it stands.  A repeated
    op must end the same way each time.
    """
    from gwbench.workloads import CheckFailed

    known_defects = known_defects or {}
    op_nid = tracer.intern("bench.op") if tracer is not None else None
    latencies = []
    kinds = []
    failures = Counter()
    defects = Counter()
    first_error = {}
    check_failures = 0
    fingerprints = {}
    ends = []
    total = len(ops) * passes if passes is not None else None
    i = 0
    t_start = perf_counter()
    deadline = t_start + seconds if seconds is not None else None
    while True:
        if total is not None and i >= total:
            break
        if deadline is not None and i >= MIN_TIMED_OPS and perf_counter() >= deadline:
            break
        slot = (start + i) % len(ops)
        op = ops[slot]
        span = tracer.open(op_nid) if tracer is not None else None
        inner = tracer.open(tracer.intern(op.span)) if tracer is not None and op.span else None
        t0 = perf_counter_ns()
        try:
            result = op.run()
            error = None
        except Exception as e:  # an op boundary: record the failure and keep going
            error = e
        t1 = perf_counter_ns()
        if inner is not None:
            tracer.close(inner)
        defect = None
        try:
            if error is None:
                fp = op.check(result)
            else:
                defect = next(
                    (name for name, (exc, msg) in known_defects.items() if type(error) is exc and str(error) == msg),
                    None,
                )
                fp = ("raised", defect or type(error).__name__)
            if fingerprints.setdefault(slot, fp) != fp:
                raise CheckFailed("repeated op ended differently")
        except CheckFailed as e:
            key = f"check:{op.kind}"
            failures[key] += 1
            check_failures += 1
            first_error.setdefault(key, str(e))
        else:
            if defect is not None:
                defects[defect] += 1
            elif error is not None:
                key = type(error).__name__
                failures[key] += 1
                first_error.setdefault(key, "".join(traceback.format_exception_only(type(error), error)).strip())
        if span is not None:
            tracer.close(span)
        latencies.append((t1 - t0) / 1e6)
        kinds.append(op.kind)
        ends.append(perf_counter() - t_start)
        i += 1
    wall = perf_counter() - t_start
    return {
        "attempted": i,
        "failed": sum(failures.values()),
        "check_failures": check_failures,
        "failures": dict(failures),
        "known_defects": dict(defects),
        "first_error": first_error,
        "wall_s": wall,
        "latencies_ms": latencies,
        "kinds": kinds,
        "ends_s": ends,
    }


def window_rates(ends, wall: float, window_ops) -> list:
    """Ops per second in consecutive windows of ``window_ops`` ops, each
    timed from the end of the op before it; a partial last window is
    dropped.  With no window size, or fewer ops than one window, the whole
    loop is one window."""
    if not window_ops or len(ends) < window_ops:
        return [len(ends) / wall]
    bounds = [0.0] + ends
    return [
        window_ops / (bounds[k + window_ops] - bounds[k]) for k in range(0, len(ends) - window_ops + 1, window_ops)
    ]


def reference_loop_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: the speed of the machine at
    the time of the run, recorded next to the metrics and not used by them."""
    from gwbench.stats import median

    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((perf_counter() - t0) * 1e3)
    return median(times)


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _tree_peak_mb(tracer) -> float:
    """Peak Python allocation while building the largest tree of the run again."""
    import tracemalloc

    from geowidth import spaces

    if tracer.largest_tree is None:
        return 0.0
    build = spaces.MetricTree.__init__.__wrapped_original__
    vertices, edges = tracer.largest_tree
    tracemalloc.start()
    try:
        build(object.__new__(spaces.MetricTree), vertices, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _cli_floors(env: dict, repeats: int = 5) -> dict:
    """Bare interpreter start-up and the import of geowidth.cli, in fresh processes."""
    import subprocess

    from gwbench.stats import median

    python, imports = [], []
    code = "import time; t = time.perf_counter(); import geowidth.cli; print(time.perf_counter() - t)"
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        python.append(perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
        imports.append(float(out.stdout))
    return {"cli.python_s": median(python), "cli.import_s": median(imports)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["timed", "pass", "trace"], required=True)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--part", type=int, default=0)
    p.add_argument("--parts", type=int, default=1)
    ns = p.parse_args(argv)

    env = dict(os.environ)
    tracer = None
    spans_dir = None
    if ns.mode == "trace":
        from gwbench.tracing import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
        root_span = tracer.open(tracer.intern("bench.run"))

    def launcher(cli_argv):
        if tracer is None:
            return [sys.executable, "-m", "geowidth", *cli_argv]
        return [sys.executable, "-m", "gwbench.cli_shim", str(spans_dir), *cli_argv]

    # set-up: importing geowidth and building every input before the first op
    t0 = perf_counter()
    setup_span = tracer.open(tracer.intern("bench.setup")) if tracer is not None else None
    import geowidth

    src = (ROOT / "src" / "geowidth").resolve()
    if Path(geowidth.__file__).resolve().parent != src:
        sys.stderr.write(f"geowidth imported from {geowidth.__file__}, not from {src}\n")
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if ns.workload == "cli" and tracer is not None:
        import tempfile

        spans_dir = Path(tempfile.mkdtemp(prefix="spans-", dir=OUT_DIR))
    # the traced pass runs a smaller pool built the same way from the same seed
    pool = "trace" if ns.mode in ("pass", "trace") else "timed"
    workload = _build(ns.workload, ns.seed, pool, env, launcher)
    if setup_span is not None:
        tracer.close(setup_span)
    setup_s = perf_counter() - t0
    try:
        passes = PASSES.get(ns.workload, 1)
        known = workload.known_defects
        if tracer is not None:
            with tracer.span("bench.pass"):
                loop = run_ops(workload.ops, passes=passes, tracer=tracer, known_defects=known)
        elif ns.mode == "pass":
            loop = run_ops(workload.ops, passes=passes, known_defects=known)
        else:
            # the parts of a run start at evenly spaced slots of the pool
            start = ns.part * len(workload.ops) // ns.parts
            warm_up(workload.ops, start, WARMUP_S)
            before = reference_loop_ms()
            loop = run_ops(workload.ops, seconds=ns.seconds, start=start, known_defects=known)
            loop["reference_loop_ms"] = [before, reference_loop_ms()]
            loop["window_rates"] = window_rates(loop["ends_s"], loop["wall_s"], workload.window_ops)
        del loop["ends_s"]
        with tracer.span("bench.gates") if tracer is not None else nullcontext():
            gates = workload.gates()
        result = {
            "setup_s": setup_s,
            "pool_size": len(workload.ops),
            "tail_q": workload.tail_q,
            "gates": gates,
            "peak_rss_mb": _peak_rss_mb(children=ns.workload == "cli"),
            **loop,
        }
        if tracer is not None:
            tracer.close(root_span)
            result.update(_finish_trace(tracer, ns.workload, spans_dir, env))
        print(json.dumps(result))
        return 0
    finally:
        workload.close()
        if spans_dir is not None:
            import shutil

            shutil.rmtree(spans_dir, ignore_errors=True)


def _finish_trace(tracer, workload: str, spans_dir, env: dict) -> dict:
    """Per-layer metrics of a traced run; writes its spans out once."""
    from gwbench.metrics import layer_metrics

    if spans_dir is not None:
        _adopt_cli_spans(tracer, spans_dir)
    layers = layer_metrics(tracer)
    layers["spaces.tree_build.peak_mb"] = _tree_peak_mb(tracer)
    if workload == "cli":
        layers.update(_cli_floors(env))
    spans_path = OUT_DIR / f"spans-{workload}.npz"
    tracer.save(spans_path)
    return {"layers": layers, "spans_file": str(spans_path.relative_to(ROOT))}


def _adopt_cli_spans(tracer, spans_dir: Path) -> None:
    """Hang each CLI child's spans under the op span that ran the child.

    perf_counter is CLOCK_MONOTONIC on Linux, shared by all processes, so a
    child's spans fall inside the parent's span around the subprocess.
    """
    ops = [i for i, nid in enumerate(tracer.name) if tracer.names[nid].startswith("cli.")]
    import numpy as np

    for path in sorted(spans_dir.glob("*.npz")):
        with np.load(path) as spans:
            if not len(spans["start"]):
                continue
            first = float(spans["start"].min())
        owner = next((i for i in ops if tracer.start[i] <= first <= tracer.end[i]), None)
        if owner is None:
            raise RuntimeError(f"CLI spans in {path.name} fall outside every op span")
        tracer.adopt(owner, path)


if __name__ == "__main__":
    sys.exit(main())
