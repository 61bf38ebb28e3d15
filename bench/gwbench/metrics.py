"""Metric names, units and directions, and the per-layer metrics of a trace.

Imports neither numpy nor geowidth, so the launcher can use it.
"""

from __future__ import annotations

from gwbench.stats import median

#: (name, unit, better) reported by every untraced run
END_TO_END = (
    ("throughput_ops_s", "ops/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
)

MODELS = ("euclidean", "hyperbolic", "tree", "cayley")
LAYERS = ("spaces", "isometries", "equivariant", "harmonic", "words", "conjugacy", "cli", "serialization")
CLI_SUBCOMMANDS = (
    "check-cat0", "width", "convexity", "harmonic", "estimate-cstar", "conjugacy-solve", "orbit-report",
)


def _per_layer() -> tuple:
    out = []
    for m in MODELS:
        for fn in ("dist", "geodesic_point"):
            out += [(f"spaces.{m}.{fn}.calls", "count", "lower"), (f"spaces.{m}.{fn}.self_s", "s", "lower")]
    out += [
        ("spaces.defects.self_s", "s", "lower"),
        ("spaces.random_point.self_s", "s", "lower"),
        ("spaces.tree_build.s", "s", "lower"),
        ("spaces.tree_build.peak_mb", "MB", "lower"),
    ]
    for m in MODELS:
        out += [(f"isometries.{m}.init.calls", "count", "lower"), (f"isometries.{m}.init.self_s", "s", "lower")]
    out += [
        ("isometries.apply.calls", "count", "lower"),
        ("isometries.apply.self_s", "s", "lower"),
        ("isometries.compose.calls", "count", "lower"),
        ("isometries.compose.self_s", "s", "lower"),
        ("isometries.inverse.calls", "count", "lower"),
        ("isometries.evaluate.calls", "count", "lower"),
        ("isometries.evaluate.self_s", "s", "lower"),
        ("isometries.evaluate.letters", "count", "lower"),
        ("isometries.evaluate.failed", "count", "lower"),
        ("equivariant.map_init.calls", "count", "lower"),
        ("equivariant.map_init.self_s", "s", "lower"),
        ("equivariant.width_inf.self_s", "s", "lower"),
        ("equivariant.width_2.self_s", "s", "lower"),
        ("equivariant.convexity_report.self_s", "s", "lower"),
        ("equivariant.length_energy.self_s", "s", "lower"),
        ("harmonic.relax.calls", "count", "lower"),
        ("harmonic.relax.self_s", "s", "lower"),
        ("harmonic.relax.sweeps", "count", "lower"),
        ("harmonic.relax.sweep_ms", "ms", "lower"),
        ("harmonic.relax.converged_ratio", "ratio", "higher"),
        ("harmonic.estimate.self_s", "s", "lower"),
        ("harmonic.precondition.self_s", "s", "lower"),
        ("words.enumerate_ball.words", "count", "lower"),
        ("words.enumerate_ball.self_s", "s", "lower"),
        ("words.multiply.calls", "count", "lower"),
        ("words.multiply.self_s", "s", "lower"),
        ("words.conjugate.calls", "count", "lower"),
        ("words.conjugate.self_s", "s", "lower"),
        ("conjugacy.solve.calls", "count", "lower"),
        ("conjugacy.solve.self_s", "s", "lower"),
        ("conjugacy.oracle.calls", "count", "lower"),
        ("conjugacy.oracle.self_s", "s", "lower"),
        ("conjugacy.verify.self_s", "s", "lower"),
        ("conjugacy.enumerated", "count", "lower"),
        ("conjugacy.hit_ratio", "ratio", "higher"),
        ("cli.python_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
    ]
    out += [(f"cli.{sub}.wall_s", "s", "lower") for sub in CLI_SUBCOMMANDS]
    out += [("serialization.load.self_s", "s", "lower")]
    out += [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [
        ("trace.wall_s", "s", "lower"),
        ("trace.bench_self_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.untraced_throughput_ops_s", "ops/s", "higher"),
        ("trace.traced_throughput_ops_s", "ops/s", "higher"),
        ("trace.throughput_ratio", "ratio", "higher"),
    ]
    return tuple(out)


#: (name, unit, better) reported by every traced run
PER_LAYER = _per_layer()


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of one traced run, from its spans and counters.

    Metrics that need more than the spans (the tree's peak allocation, the
    CLI floors, the untraced throughput) are filled in by the caller; they
    start at 0, as do the metrics of layers the workload does not use.
    """
    from gwbench.tracing import durations, layer_of, summarize

    s = summarize(tracer)
    calls, self_s, total_s = s["calls"], s["self_s"], s["total_s"]
    counters = tracer.counters
    out = {name: 0.0 for name, _, _ in PER_LAYER}

    def both(metric, span):
        out[f"{metric}.calls"] = calls[span]
        out[f"{metric}.self_s"] = self_s[span]

    for m in MODELS:
        both(f"spaces.{m}.dist", f"spaces.{m}.dist")
        both(f"spaces.{m}.geodesic_point", f"spaces.{m}.geodesic_point")
        both(f"isometries.{m}.init", f"isometries.{m}.init")
    out["spaces.defects.self_s"] = self_s["spaces.defects"]
    out["spaces.random_point.self_s"] = self_s["spaces.random_point"]
    out["spaces.tree_build.s"] = total_s["spaces.tree_build"]
    for fn in ("apply", "compose", "evaluate"):
        both(f"isometries.{fn}", f"isometries.{fn}")
    out["isometries.inverse.calls"] = calls["isometries.inverse"]
    out["isometries.evaluate.letters"] = counters["isometries.evaluate.letters"]
    out["isometries.evaluate.failed"] = counters["isometries.evaluate.failed"]
    both("equivariant.map_init", "equivariant.map_init")
    for fn in ("width_inf", "width_2", "convexity_report", "length_energy"):
        out[f"equivariant.{fn}.self_s"] = self_s[f"equivariant.{fn}"]
    both("harmonic.relax", "harmonic.relax")
    sweeps = counters["harmonic.relax.sweeps"]
    out["harmonic.relax.sweeps"] = sweeps
    out["harmonic.relax.sweep_ms"] = 1e3 * total_s["harmonic.relax"] / sweeps if sweeps else 0.0
    relaxed = calls["harmonic.relax"]
    out["harmonic.relax.converged_ratio"] = counters["harmonic.relax.converged"] / relaxed if relaxed else 0.0
    out["harmonic.estimate.self_s"] = self_s["harmonic.estimate"]
    out["harmonic.precondition.self_s"] = self_s["harmonic.precondition"]
    out["words.enumerate_ball.words"] = counters["words.enumerate_ball.words"]
    out["words.enumerate_ball.self_s"] = self_s["words.enumerate_ball"]
    both("words.multiply", "words.multiply")
    both("words.conjugate", "words.conjugate")
    both("conjugacy.solve", "conjugacy.solve")
    both("conjugacy.oracle", "conjugacy.oracle")
    out["conjugacy.verify.self_s"] = self_s["conjugacy.verify"]
    enumerated = counters["conjugacy.enumerated"]
    out["conjugacy.enumerated"] = enumerated
    out["conjugacy.hit_ratio"] = counters["conjugacy.solved_conjugate"] / enumerated if enumerated else 0.0
    for sub in CLI_SUBCOMMANDS:
        walls = durations(tracer, f"cli.{sub}")
        out[f"cli.{sub}.wall_s"] = median(walls) if walls else 0.0
    out["serialization.load.self_s"] = self_s["serialization.load"]
    for name, t in self_s.items():
        layer = layer_of(name)
        if layer in LAYERS:
            out[f"layer.{layer}.self_s"] += t
    out["trace.wall_s"] = total_s["bench.run"]
    out["trace.bench_self_s"] = sum(t for name, t in self_s.items() if layer_of(name) == "bench")
    out["trace.spans"] = len(tracer.start)
    return out


def accounting(layers: dict) -> dict:
    """Layer self times plus the benchmark's own time against the traced wall time."""
    accounted = sum(layers[f"layer.{layer}.self_s"] for layer in LAYERS) + layers["trace.bench_self_s"]
    wall = layers["trace.wall_s"]
    return {
        "wall_s": wall,
        "accounted_s": accounted,
        "ok": wall > 0 and abs(accounted - wall) <= 1e-6 * wall,
    }
