#!/usr/bin/env python3
"""geowidth benchmark: four seeded workloads against the library and its CLI.

    python3 bench/run.py [--workload comparison|maps|conjugacy|cli|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; geowidth is imported from its
``src/`` directory, nothing is installed.  Each workload runs in its own
process as a single-threaded closed loop with one client, with BLAS thread
counts pinned to 1.

--trace 0 prints the end-to-end metrics: throughput (the median over
windows of whole schedule cycles), median and tail op latency, set-up
time, peak resident set and the share of ops that succeeded.  The
--seconds are split over three fresh worker processes, each of which sets
up, warms up and then times its share from its own slot of the op pool;
set-up time is the median of the three set-ups.  --trace 1 runs the op pool
once untraced and once with every geowidth layer wrapped in spans, and
prints the per-layer metrics with the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The full record (machine, per-op failures, gates,
latencies) is written to bench/out/.  See bench/BASELINE.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"

sys.path.insert(0, str(BENCH))

from gwbench import metrics, stats  # noqa: E402

WORKLOADS = ("comparison", "maps", "conjugacy", "cli")
#: worker processes per metric run
PARTS = 3
#: a worker takes 10-30 s; three in a row must end within a run's 180 s
WORKER_TIMEOUT_S = 55
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(BENCH)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def build() -> None:
    """Byte-compile the library and the harness, so no set-up pays for it."""
    import compileall

    for directory in (ROOT / "src", BENCH / "gwbench"):
        if not compileall.compile_dir(str(directory), quiet=1):
            raise WorkerError(f"byte-compiling {directory} failed")


def run_worker(env, workload, seed, mode, seconds=None, part=0) -> dict:
    cmd = [sys.executable, "-m", "gwbench.worker", "--workload", workload, "--seed", str(seed), "--mode", mode]
    if seconds is not None:
        cmd += ["--seconds", str(seconds), "--part", str(part), "--parts", str(PARTS)]
    # its own session, so that a timeout also stops the CLI children it runs
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker ({mode}) exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def machine_record(env) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "geowidth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {var: env[var] for var in BLAS_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(env, workload, seed, seconds) -> dict:
    runs = [run_worker(env, workload, seed, "timed", seconds / PARTS, part) for part in range(PARTS)]
    lat = [x for run in runs for x in run["latencies_ms"]]
    tail_q = runs[0]["tail_q"]
    if stats.beyond(len(lat), tail_q) < stats.TAIL_MIN_BEYOND:
        raise WorkerError(
            f"{workload}: {len(lat)} ops leave fewer than {stats.TAIL_MIN_BEYOND} beyond p{tail_q}; "
            f"run for more than {seconds} seconds"
        )
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    known_defects = sum((Counter(run["known_defects"]) for run in runs), Counter())
    values = {
        "throughput_ops_s": stats.median([r for run in runs for r in run["window_rates"]]),
        "op_p50_ms": stats.median(lat),
        "op_tail_ms": stats.percentile(lat, tail_q),
        "setup_s": stats.median([run["setup_s"] for run in runs]),
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
        "ok_ratio": (attempted - failed - sum(known_defects.values())) / attempted,
    }
    units = {name: unit for name, unit, _ in metrics.END_TO_END}
    gates_ok = all(g["ok"] for run in runs for g in run["gates"].values())
    return {
        "correct": gates_ok and all(run["check_failures"] == 0 for run in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: _metric(values[name], units[name]) for name, _, _ in metrics.END_TO_END},
        "detail": {
            "samples": len(lat),
            "op_tail_percentile": tail_q,
            "setup_samples_s": [run["setup_s"] for run in runs],
            "pool_size": runs[0]["pool_size"],
            "wall_s": [run["wall_s"] for run in runs],
            "throughput_windows": sum(len(run["window_rates"]) for run in runs),
            "mean_throughput_ops_s": attempted / sum(run["wall_s"] for run in runs),
            "reference_loop_ms": [run["reference_loop_ms"] for run in runs],
            "failures": dict(sum((Counter(run["failures"]) for run in runs), Counter())),
            "known_defects": dict(known_defects),
            "first_error": {k: v for run in runs for k, v in run["first_error"].items()},
            "gates": runs[-1]["gates"],
            "latencies_ms": lat,
            "kinds": [k for run in runs for k in run["kinds"]],
        },
    }


def per_layer(env, workload, seed) -> dict:
    plain = run_worker(env, workload, seed, "pass")
    traced = run_worker(env, workload, seed, "trace")
    layers = traced["layers"]
    layers["trace.untraced_throughput_ops_s"] = plain["attempted"] / plain["wall_s"]
    layers["trace.traced_throughput_ops_s"] = traced["attempted"] / traced["wall_s"]
    layers["trace.throughput_ratio"] = layers["trace.traced_throughput_ops_s"] / layers["trace.untraced_throughput_ops_s"]
    account = metrics.accounting(layers)
    gates_ok = all(g["ok"] for run in (plain, traced) for g in run["gates"].values())
    checks_ok = plain["check_failures"] == 0 and traced["check_failures"] == 0
    units = {name: unit for name, unit, _ in metrics.PER_LAYER}
    return {
        "correct": gates_ok and checks_ok and account["ok"],
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "metrics": {name: _metric(layers[name], units[name]) for name, _, _ in metrics.PER_LAYER},
        "detail": {
            "accounting": account,
            "pool_size": traced["pool_size"],
            "failures": traced["failures"],
            "known_defects": traced["known_defects"],
            "first_error": traced["first_error"],
            "gates": traced["gates"],
            "spans_file": traced["spans_file"],
        },
    }


def print_table(workload, result) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:<11} {name:<38} {m['value']:>16.6g} {m['unit']}")
    detail = result["detail"]
    if "op_tail_percentile" in detail:
        print(
            f"{workload:<11} op_tail_ms is p{detail['op_tail_percentile']} of {detail['samples']} ops; "
            f"failures {detail['failures'] or 'none'}; known library defects {detail['known_defects'] or 'none'}"
        )
    else:
        ratio = result["metrics"]["trace.throughput_ratio"]["value"]
        print(f"{workload:<11} tracing overhead: traced throughput is {ratio:.3f} of untraced")
    for name, gate in detail["gates"].items():
        print(f"{workload:<11} gate {name}: {'ok' if gate['ok'] else 'DRIFTED'} ({gate['got']!r})")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=24)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ns = p.parse_args(argv)
    if ns.seconds < 1:
        p.error("--seconds must be at least 1")

    for needed in (ROOT / "src" / "geowidth" / "__init__.py", ROOT / "src" / "geowidth" / "cli.py"):
        if not needed.is_file():
            sys.stderr.write(f"geowidth sources not found at {needed.parent}; run from a checkout\n")
            return 2
    env = child_env()
    try:
        build()
        OUT_DIR.mkdir(exist_ok=True)
        machine = machine_record(env)
        print(json.dumps({"machine": machine}))
        selected = WORKLOADS if ns.workload == "all" else (ns.workload,)
        results = {}
        for workload in selected:
            if ns.trace:
                result = per_layer(env, workload, ns.seed)
            else:
                result = end_to_end(env, workload, ns.seed, ns.seconds)
            results[workload] = result
            record = {"machine": machine, "workload": workload, "seed": ns.seed, "seconds": ns.seconds, **result}
            path = OUT_DIR / f"result-{workload}-seed{ns.seed}-trace{ns.trace}.json"
            path.write_text(json.dumps(record, indent=1))
            print_table(workload, result)
    except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as e:
        sys.stderr.write(f"benchmark failed: {e}\n")
        return 1

    if len(results) == 1:
        (result,) = results.values()
        final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
