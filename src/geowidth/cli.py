"""Command-line entry point.

One binary, seven subcommands::

    geowidth check-cat0      comparison-inequality property suite per model
    geowidth width           W-infinity and W2 widths of a geodesic homotopy
    geowidth convexity       length/energy convexity report along a homotopy
    geowidth harmonic        energy relaxation of a map file
    geowidth estimate-cstar  empirical width-inequality constant
    geowidth conjugacy       list-conjugacy solver (subcommand: solve)
    geowidth orbit-report    orbit-metric sums for a conjugacy instance

Reports go to stdout in json (canonical), csv, or human format.  Identical
argv and seed produce byte-identical stdout.  Each subcommand returns its
report fields and exit code; ``main`` adds the version, seed and config
echo, writes the report and maps errors to exit codes.

Exit codes: 0 success / conjugate; 2 property violation; 3 not conjugate;
4 not conjugate up to the searched radius; 64 usage error (a number or size
out of range and an unreadable input path included); 65 bad config (an
operation the model does not support included); 66 failed precondition; 70 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__, words
from .conjugacy import (
    VERDICT_CONJUGATE,
    VERDICT_NOT_CONJUGATE,
    VERDICT_NOT_CONJUGATE_UP_TO,
    ConjugacyInstance,
    orbit_bound_report,
    solve,
    verify,
)
from .equivariant import (
    GeodesicHomotopy,
    convexity_report,
    energy,
    homotopy_width_2_detailed,
    homotopy_width_inf,
    length,
)
from .errors import AlphabetMismatchError, CapabilityError, ConfigError, DomainError, GeowidthError, PreconditionError
from .harmonic import RelaxationConfig, estimate_width_constant, relax
from .serialization import load_map, load_representation, malformed_input, map_to_json, parse_json
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
VERDICT_EXIT = {
    VERDICT_CONJUGATE: EXIT_OK,
    VERDICT_NOT_CONJUGATE: EXIT_NOT_CONJUGATE,
    VERDICT_NOT_CONJUGATE_UP_TO: EXIT_NOT_CONJUGATE_UP_TO,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _emit(report: dict, fmt: str) -> None:
    """Write the report as json, or as its scalar keys and then its table in csv or human form.

    The whole report is serialized before anything is written; NaN and
    Infinity, which strict JSON lacks, are refused as out of range.
    """
    dumps = functools.partial(json.dumps, allow_nan=False)
    try:
        if fmt == "json":
            lines = [dumps(report, indent=2, sort_keys=True)]
        else:
            table = report.pop("table", None) or []
            scalar = "# {}={}" if fmt == "csv" else "{}: {}"
            lines = [scalar.format(key, dumps(report[key], sort_keys=True)) for key in sorted(report)]
            if table and fmt == "csv":
                cols = sorted(table[0])
                lines.append(",".join(cols))
                lines += [",".join(dumps(row.get(c)) for c in cols) for row in table]
            else:
                lines += ["  " + dumps(row, sort_keys=True) for row in table]
    except ValueError as e:
        raise DomainError(f"report holds a number out of range: {e}") from e
    sys.stdout.write("".join(line + "\n" for line in lines))


def _build_space(ns):
    """The space of --model; a tree file holds the tree's JSON fields."""
    if not ns.tree_file:
        if ns.model == "tree":
            raise ConfigError("--tree-file is required for the tree model")
        return space_from_json({"dim": ns.dim, "model": ns.model})
    with open(ns.tree_file) as f, malformed_input(ns.tree_file):
        return space_from_json({"dim": ns.dim, **parse_json(f.read()), "model": ns.model})


def _homotopy(ns) -> GeodesicHomotopy:
    """The geodesic homotopy from the map of --u to the map of --v, read with u's representation."""
    u = load_map(ns.u)
    return GeodesicHomotopy(u, load_map(ns.v, rho=u.rho))


def _instance(ns, alphabet_size: int, rep, **options) -> ConjugacyInstance:
    """The instance of --a and --b, each a comma-separated list of words."""
    lists = (tuple(words.parse_word(part, alphabet_size) for part in text.split(",")) for text in (ns.a, ns.b))
    return ConjugacyInstance(alphabet_size, *lists, rep=rep, **options)


def cmd_check_cat0(ns) -> tuple[dict, int]:
    space = _build_space(ns)
    rng = np.random.default_rng(ns.seed)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    min_tri = min_quad = min_conv = float("inf")
    ok = True
    for _ in range(ns.trials):
        pts = [space.random_point(rng) for _ in range(4)]
        lam = float(rng.uniform(0.0, 1.0))
        tri = triangle_defect(space, pts[0], pts[1], pts[2], lam)
        quad = [quadrilateral_defect(space, *pts, t, alpha) for t in grid for alpha in grid]
        conv = [convexity_defect(space, *pts, t) for t in grid]
        min_tri, min_quad, min_conv = min(min_tri, tri), min(min_quad, *quad), min(min_conv, *conv)
        # a defect is a difference of squared distances, each within a few ulps of D^2
        d = max(space.dist(p, q) for i, p in enumerate(pts) for q in pts[i + 1:])
        ok = ok and min(tri, *quad, *conv) >= -(1e-9 + 16 * 2.0**-52 * d * d)
    fields = {
        "model": ns.model,
        "trials": ns.trials,
        "min_triangle_defect": float(min_tri),
        "min_quadrilateral_defect": float(min_quad),
        "min_convexity_defect": float(min_conv),
        "ok": ok,
    }
    return fields, EXIT_OK if ok else EXIT_PROPERTY_VIOLATION


def cmd_width(ns) -> tuple[dict, int]:
    h = _homotopy(ns)
    w_inf = homotopy_width_inf(h)
    w2, w2_err = homotopy_width_2_detailed(h, ns.samples_per_edge)
    fields = {
        "w_inf": w_inf,
        "w2": w2,
        "w2_error_estimate": w2_err,
        "length_u": length(h.u),
        "length_v": length(h.v),
        "energy_u": energy(h.u),
        "energy_v": energy(h.v),
    }
    return fields, EXIT_OK


def cmd_convexity(ns) -> tuple[dict, int]:
    s_grid = [i / (ns.grid - 1) for i in range(ns.grid)]
    rows = convexity_report(_homotopy(ns), s_grid)
    return {"table": [{"s": r.s, "length": r.length, "energy": r.energy} for r in rows]}, EXIT_OK


def cmd_harmonic(ns) -> tuple[dict, int]:
    u0 = load_map(ns.map)
    result = relax(u0, RelaxationConfig(max_iterations=ns.max_iterations, displacement_tolerance=ns.tolerance))
    fields = {
        "e_star": result.e_star,
        "l_star": result.l_star,
        "iterations": result.iterations,
        "converged": result.converged,
        "energy_trace": result.energy_trace,
        "map": map_to_json(result.map),
    }
    return fields, EXIT_OK


def cmd_estimate_cstar(ns) -> tuple[dict, int]:
    estimate = estimate_width_constant(load_representation(ns.rep), trials=ns.trials, seed=ns.seed)
    return {"c_hat": estimate.c_hat, "table": estimate.samples}, EXIT_OK


def cmd_conjugacy_solve(ns) -> tuple[dict, int]:
    rep = load_representation(ns.rep) if ns.rep else None
    inst = _instance(ns, ns.alphabet, rep, policy=ns.policy, c_star=ns.cstar, c=ns.c, max_radius=ns.max_radius)
    cert = solve(inst)
    fields = {
        "verdict": cert.verdict,
        "g": None if cert.conjugator is None else words.word_to_str(cert.conjugator),
        "radius_searched": cert.radius_searched,
        "transcript": [] if cert.conjugator is None else verify(cert.conjugator, inst)[1],
        # timing is not deterministic; byte-stable output zeroes it unless asked
        "stats": {"enumerated": cert.enumerated, "seconds": round(cert.seconds, 6) if ns.timings else 0.0},
    }
    return fields, VERDICT_EXIT[cert.verdict]


def cmd_orbit_report(ns) -> tuple[dict, int]:
    rep = load_representation(ns.rep)
    inst = _instance(ns, rep.alphabet_size, rep)
    with malformed_input("--basepoint"):
        y = rep.space.point_from_json(parse_json(ns.basepoint))
    g = words.parse_word(ns.g, rep.alphabet_size) if ns.g else None
    bound = orbit_bound_report(inst, y, g)
    return {"orbit_sum": bound.orbit_sum, "word_sum": bound.word_sum, "ratio": bound.ratio}, EXIT_OK


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than minimum."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return count


def finite(text: str) -> float:
    """An argparse type: a finite float."""
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="geowidth", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)
    common.add_argument("--format", choices=["json", "csv", "human"], default="json")

    p = sub.add_parser("check-cat0", parents=[common], help="comparison-inequality property suite")
    p.add_argument("--model", choices=["euclidean", "hyperbolic", "tree"], required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--tree-file")
    p.add_argument("--trials", type=_at_least(1), default=1000)
    p.set_defaults(func=cmd_check_cat0)

    p = sub.add_parser("width", parents=[common], help="widths of the geodesic homotopy between two maps")
    p.add_argument("--u", required=True, help="map file (json)")
    p.add_argument("--v", required=True, help="map file (json)")
    p.add_argument("--samples-per-edge", type=int, default=64)
    p.set_defaults(func=cmd_width)

    p = sub.add_parser("convexity", parents=[common], help="length/energy convexity along a homotopy")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--grid", type=_at_least(2), default=11)
    p.set_defaults(func=cmd_convexity)

    p = sub.add_parser("harmonic", parents=[common], help="relax a map to an energy minimizer")
    p.add_argument("--map", required=True)
    p.add_argument("--max-iterations", type=int, default=2000)
    p.add_argument("--tolerance", type=finite, default=1e-10)
    p.set_defaults(func=cmd_harmonic)

    p = sub.add_parser("estimate-cstar", parents=[common], help="empirical width-inequality constant")
    p.add_argument("--rep", required=True, help="representation file (json)")
    p.add_argument("--trials", type=_at_least(1), default=1000)
    p.set_defaults(func=cmd_estimate_cstar)

    p = sub.add_parser("conjugacy", help="list-conjugacy solver")
    conj_sub = p.add_subparsers(dest="conjugacy_command", required=True)
    ps = conj_sub.add_parser("solve", parents=[common])
    ps.add_argument("--alphabet", type=_at_least(1), required=True)
    ps.add_argument("--a", required=True, help="comma-separated words, e.g. 'xy,yX'")
    ps.add_argument("--b", required=True)
    ps.add_argument("--policy", choices=["incremental", "bound"], default="incremental")
    ps.add_argument("--cstar", type=finite)
    ps.add_argument("--c", type=finite)
    ps.add_argument("--max-radius", type=int, default=16)
    ps.add_argument("--rep", help="representation file for matrix-group contexts")
    ps.add_argument("--timings", action="store_true", help="include wall-clock seconds")
    ps.set_defaults(func=cmd_conjugacy_solve)

    p = sub.add_parser("orbit-report", parents=[common], help="orbit-metric sums for a conjugacy instance")
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
    config = {k: v for k, v in vars(ns).items() if k != "func"}
    try:
        fields, code = ns.func(ns)
        _emit({"version": __version__, "seed": ns.seed, "config": config, **fields}, ns.format)
        return code
    except (ConfigError, CapabilityError) as e:
        sys.stderr.write(f"config error: {e}\n")
        return EXIT_CONFIG
    except PreconditionError as e:
        sys.stderr.write(f"precondition failed: {e}\n")
        return EXIT_PRECONDITION
    except (DomainError, AlphabetMismatchError, OSError) as e:  # OSError: an input path that cannot be read
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except (OverflowError, MemoryError) as e:  # finite input numbers or sizes too large to compute with
        sys.stderr.write(f"error: input too large: {type(e).__name__}: {e}\n")
        return EXIT_USAGE
    except GeowidthError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
