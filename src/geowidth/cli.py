"""Command-line entry point.

One binary, seven subcommands::

    geowidth check-cat0      comparison-inequality property suite per model
    geowidth width           W-infinity and W2 widths of a geodesic homotopy
    geowidth convexity       length/energy convexity report along a homotopy
    geowidth harmonic        energy relaxation of a map file
    geowidth estimate-cstar  empirical width-inequality constant
    geowidth conjugacy       list-conjugacy solver (subcommand: solve)
    geowidth orbit-report    orbit-metric sums for a conjugacy instance

Reports go to stdout in json (canonical), csv, or human format; progress
goes to stderr.  Identical argv and seed produce byte-identical stdout.

Exit codes: 0 success / conjugate; 2 property violation; 3 not conjugate;
4 not conjugate up to the searched radius; 64 usage error; 65 bad config;
66 failed precondition; 70 internal error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from . import __version__, words
from .conjugacy import (
    ConjugacyInstance,
    OrbitBoundReport,
    orbit_bound_report,
    solve,
)
from .equivariant import (
    GeodesicHomotopy,
    convexity_report,
    energy,
    homotopy_width_2_detailed,
    homotopy_width_inf,
    length,
)
from .errors import ConfigError, DomainError, GeowidthError, PreconditionError
from .harmonic import RelaxationConfig, estimate_width_constant, relax
from .serialization import load_map, load_representation, map_to_json
from .spaces import convexity_defect, quadrilateral_defect, space_from_json, triangle_defect

DEFAULT_SEED = 0xCA70  # fixed so bare invocations reproduce

EXIT_OK = 0
EXIT_PROPERTY_VIOLATION = 2
EXIT_NOT_CONJUGATE = 3
EXIT_NOT_CONJUGATE_UP_TO = 4
EXIT_USAGE = 64
EXIT_CONFIG = 65
EXIT_PRECONDITION = 66
EXIT_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    elif fmt == "csv":
        _emit_csv(report)
    else:
        _emit_human(report)


def _emit_csv(report: dict) -> None:
    out = sys.stdout
    table = report.pop("table", None)
    for key in sorted(report):
        out.write(f"# {key}={json.dumps(report[key], sort_keys=True)}\n")
    if table:
        cols = sorted(table[0])
        out.write(",".join(cols) + "\n")
        for row in table:
            out.write(",".join(json.dumps(row.get(c)) for c in cols) + "\n")


def _emit_human(report: dict) -> None:
    out = sys.stdout
    table = report.pop("table", None)
    for key in sorted(report):
        out.write(f"{key}: {json.dumps(report[key], sort_keys=True)}\n")
    if table:
        for row in table:
            out.write("  " + json.dumps(row, sort_keys=True) + "\n")


def _base_report(ns: argparse.Namespace) -> dict:
    echo = {k: v for k, v in sorted(vars(ns).items()) if k != "func"}
    return {"version": __version__, "seed": ns.seed, "config": echo}


def _build_space(ns):
    """The space of --model; a tree file holds the tree's JSON fields."""
    data = {"dim": ns.dim}
    if ns.tree_file:
        with open(ns.tree_file) as f:
            data.update(json.load(f))
    elif ns.model == "tree":
        raise ConfigError("--tree-file is required for the tree model")
    return space_from_json({**data, "model": ns.model})


def cmd_check_cat0(ns) -> int:
    space = _build_space(ns)
    rng = np.random.default_rng(ns.seed)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    min_tri = min_quad = min_conv = float("inf")
    for _ in range(ns.trials):
        pts = [space.random_point(rng) for _ in range(4)]
        lam = float(rng.uniform(0.0, 1.0))
        min_tri = min(min_tri, triangle_defect(space, pts[0], pts[1], pts[2], lam))
        for t in grid:
            for alpha in grid:
                min_quad = min(min_quad, quadrilateral_defect(space, *pts, t, alpha))
            min_conv = min(min_conv, convexity_defect(space, *pts, t))
    ok = bool(min(min_tri, min_quad, min_conv) >= -1e-9)
    report = _base_report(ns)
    report.update(
        {
            "model": ns.model,
            "trials": ns.trials,
            "min_triangle_defect": float(min_tri),
            "min_quadrilateral_defect": float(min_quad),
            "min_convexity_defect": float(min_conv),
            "ok": ok,
        }
    )
    _emit(report, ns.format)
    return EXIT_OK if ok else EXIT_PROPERTY_VIOLATION


def cmd_width(ns) -> int:
    u = load_map(ns.u)
    v = load_map(ns.v, rho=u.rho)
    h = GeodesicHomotopy(u, v)
    w_inf = homotopy_width_inf(h)
    w2, w2_err = homotopy_width_2_detailed(h, ns.samples_per_edge)
    report = _base_report(ns)
    report.update(
        {
            "w_inf": w_inf,
            "w2": w2,
            "w2_error_estimate": w2_err,
            "length_u": length(u),
            "length_v": length(v),
            "energy_u": energy(u),
            "energy_v": energy(v),
        }
    )
    _emit(report, ns.format)
    return EXIT_OK


def cmd_convexity(ns) -> int:
    u = load_map(ns.u)
    v = load_map(ns.v, rho=u.rho)
    h = GeodesicHomotopy(u, v)
    s_grid = [i / (ns.grid - 1) for i in range(ns.grid)]
    rows = convexity_report(h, s_grid)
    report = _base_report(ns)
    report["table"] = [{"s": r.s, "length": r.length, "energy": r.energy} for r in rows]
    _emit(report, ns.format)
    return EXIT_OK


def cmd_harmonic(ns) -> int:
    u0 = load_map(ns.map)
    cfg = RelaxationConfig(
        max_iterations=ns.max_iterations, displacement_tolerance=ns.tolerance
    )
    result = relax(u0, cfg)
    report = _base_report(ns)
    report.update(
        {
            "e_star": result.e_star,
            "l_star": result.l_star,
            "iterations": result.iterations,
            "converged": result.converged,
            "energy_trace": result.energy_trace,
            "map": map_to_json(result.map),
        }
    )
    _emit(report, ns.format)
    return EXIT_OK


def cmd_estimate_cstar(ns) -> int:
    rho = load_representation(ns.rep)
    estimate = estimate_width_constant(rho, trials=ns.trials, seed=ns.seed)
    report = _base_report(ns)
    report["c_hat"] = estimate.c_hat
    report["table"] = estimate.samples
    _emit(report, ns.format)
    return EXIT_OK


def _parse_word_list(text: str, alphabet_size: int):
    return tuple(words.parse_word(part, alphabet_size) for part in text.split(","))


def cmd_conjugacy_solve(ns) -> int:
    rep = load_representation(ns.rep) if ns.rep else None
    inst = ConjugacyInstance(
        alphabet_size=ns.alphabet,
        lists_a=_parse_word_list(ns.a, ns.alphabet),
        lists_b=_parse_word_list(ns.b, ns.alphabet),
        rep=rep,
        policy=ns.policy,
        c_star=ns.cstar,
        c=ns.c,
        max_radius=ns.max_radius,
    )
    cert = solve(inst)
    report = _base_report(ns)
    report.update(
        {
            "verdict": cert.verdict,
            "g": None if cert.conjugator is None else words.word_to_str(cert.conjugator),
            "radius_searched": cert.radius_searched,
            "transcript": cert.transcript,
            "stats": {"enumerated": cert.enumerated, "seconds": round(cert.seconds, 6)},
        }
    )
    # timing is not deterministic; byte-stable output zeroes it unless asked
    if not ns.timings:
        report["stats"]["seconds"] = 0.0
    _emit(report, ns.format)
    return cert.exit_code


def cmd_orbit_report(ns) -> int:
    rep = load_representation(ns.rep)
    inst = ConjugacyInstance(
        alphabet_size=rep.alphabet_size,
        lists_a=_parse_word_list(ns.a, rep.alphabet_size),
        lists_b=_parse_word_list(ns.b, rep.alphabet_size),
        rep=rep,
    )
    y = rep.space.point_from_json(json.loads(ns.basepoint))
    g = words.parse_word(ns.g, rep.alphabet_size) if ns.g else None
    rep_report: OrbitBoundReport = orbit_bound_report(inst, y, g)
    report = _base_report(ns)
    report.update(
        {
            "orbit_sum": rep_report.orbit_sum,
            "word_sum": rep_report.word_sum,
            "ratio": rep_report.ratio,
        }
    )
    _emit(report, ns.format)
    return EXIT_OK


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than minimum."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return count


def build_parser() -> _Parser:
    parser = _Parser(prog="geowidth", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--format", choices=["json", "csv", "human"], default="json")

    p = sub.add_parser("check-cat0", help="comparison-inequality property suite")
    common(p)
    p.add_argument("--model", choices=["euclidean", "hyperbolic", "tree"], required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--tree-file")
    p.add_argument("--trials", type=_at_least(1), default=1000)
    p.set_defaults(func=cmd_check_cat0)

    p = sub.add_parser("width", help="widths of the geodesic homotopy between two maps")
    common(p)
    p.add_argument("--u", required=True, help="map file (json)")
    p.add_argument("--v", required=True, help="map file (json)")
    p.add_argument("--samples-per-edge", type=int, default=64)
    p.set_defaults(func=cmd_width)

    p = sub.add_parser("convexity", help="length/energy convexity along a homotopy")
    common(p)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--grid", type=_at_least(2), default=11)
    p.set_defaults(func=cmd_convexity)

    p = sub.add_parser("harmonic", help="relax a map to an energy minimizer")
    common(p)
    p.add_argument("--map", required=True)
    p.add_argument("--max-iterations", type=int, default=2000)
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.set_defaults(func=cmd_harmonic)

    p = sub.add_parser("estimate-cstar", help="empirical width-inequality constant")
    common(p)
    p.add_argument("--rep", required=True, help="representation file (json)")
    p.add_argument("--trials", type=_at_least(1), default=1000)
    p.set_defaults(func=cmd_estimate_cstar)

    p = sub.add_parser("conjugacy", help="list-conjugacy solver")
    conj_sub = p.add_subparsers(dest="conjugacy_command", required=True)
    ps = conj_sub.add_parser("solve")
    common(ps)
    ps.add_argument("--alphabet", type=_at_least(1), required=True)
    ps.add_argument("--a", required=True, help="comma-separated words, e.g. 'xy,yX'")
    ps.add_argument("--b", required=True)
    ps.add_argument("--policy", choices=["incremental", "bound"], default="incremental")
    ps.add_argument("--cstar", type=float)
    ps.add_argument("--c", type=float)
    ps.add_argument("--max-radius", type=int, default=16)
    ps.add_argument("--rep", help="representation file for matrix-group contexts")
    ps.add_argument("--timings", action="store_true", help="include wall-clock seconds")
    ps.set_defaults(func=cmd_conjugacy_solve)

    p = sub.add_parser("orbit-report", help="orbit-metric sums for a conjugacy instance")
    common(p)
    p.add_argument("--rep", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--basepoint", required=True, help="point as json")
    p.add_argument("--g", help="known conjugator word")
    p.set_defaults(func=cmd_orbit_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return ns.func(ns)
    except (ConfigError,) as e:
        sys.stderr.write(f"config error: {e}\n")
        return EXIT_CONFIG
    except PreconditionError as e:
        sys.stderr.write(f"precondition failed: {e}\n")
        return EXIT_PRECONDITION
    except (DomainError, FileNotFoundError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except GeowidthError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
