"""End-to-end acceptance checks, one test per numbered criterion.

Each test records a single pass/fail line (also echoed in the terminal
summary) and asserts the criterion at its stated tolerance.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from geowidth.conjugacy import (
    VERDICT_CONJUGATE,
    VERDICT_NOT_CONJUGATE,
    ConjugacyInstance,
    free_group_oracle,
    solve,
    verify,
)
from geowidth.equivariant import (
    Edge,
    EquivariantMap,
    FundamentalGraph,
    GeodesicHomotopy,
    build_bouquet_map,
    convexity_report,
    length,
    per_edge_table,
)
from geowidth.errors import GeowidthError
from geowidth.harmonic import (
    estimate_width_constant,
    main_lemma_ratio,
    relax,
    stationarity_probe,
    verify_harmonic_homotopy,
)
from geowidth.isometries import (
    EuclideanIsometry,
    HyperbolicIsometry,
    Representation,
    TreeAutomorphism,
    orbit_distance,
)
from geowidth.serialization import save_map, save_representation
from geowidth.spaces import (
    CayleyTree,
    EuclideanSpace,
    HyperbolicPlane,
    MetricTree,
    convexity_defect,
    quadrilateral_defect,
    triangle_defect,
)
from geowidth.words import conjugate, enumerate_ball, reduce_word, shortlex_key

RESULTS = {}


def record(n: int, passed: bool, detail: str) -> None:
    RESULTS[n] = (bool(passed), detail)
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {n}: {detail}")


# ---------------------------------------------------------------------------
# fixed model zoo for the property criteria


def tripod_tree() -> MetricTree:
    return MetricTree(
        ["c", "p", "q", "r"], [("c", "p", 1.0), ("c", "q", 1.0), ("c", "r", 1.0)]
    )


def twenty_edge_tree() -> MetricTree:
    # heap-shaped 21-vertex tree with a fixed pattern of mixed edge lengths
    vertices = list(range(21))
    edges = [(i, (i - 1) // 2, 0.5 + 0.35 * (i % 5)) for i in range(1, 21)]
    return MetricTree(vertices, edges)


def property_models() -> dict:
    return {
        "euclidean-2": EuclideanSpace(2),
        "euclidean-5": EuclideanSpace(5),
        "hyperbolic": HyperbolicPlane(),
        "tree-tripod": tripod_tree(),
        "tree-20edge": twenty_edge_tree(),
    }


def hyperbolic_axial_rep() -> Representation:
    return Representation(
        HyperbolicPlane(),
        [HyperbolicIsometry([[math.e, 0.0], [0.0, 1.0 / math.e]])],
        check_samples=50,
    )


def hyperbolic_rank2_rep() -> Representation:
    # two non-commuting hyperbolic elements with integral matrices
    return Representation(
        HyperbolicPlane(),
        [
            HyperbolicIsometry([[2.0, 1.0], [1.0, 1.0]]),
            HyperbolicIsometry([[5.0, 2.0], [2.0, 1.0]]),
        ],
        check_samples=100,
    )


def test_criterion_1_triangle_comparison():
    t0 = time.perf_counter()
    ok = True
    details = []
    for name, space in property_models().items():
        rng = np.random.default_rng(101)
        lowest = math.inf
        largest_abs = 0.0
        for _ in range(10_000):
            p = space.random_point(rng)
            q = space.random_point(rng)
            r = space.random_point(rng)
            lam = float(rng.uniform())
            d = triangle_defect(space, p, q, r, lam)
            lowest = min(lowest, d)
            largest_abs = max(largest_abs, abs(d))
        ok = ok and lowest >= -1e-9
        if name.startswith("euclidean"):
            ok = ok and largest_abs <= 1e-9
        details.append(f"{name} min={lowest:.2e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    record(1, ok, f"5x10^4 triangles, {'; '.join(details)}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_quadrilateral_comparison():
    t0 = time.perf_counter()
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    ok = True
    lowest_quad = math.inf
    lowest_conv = math.inf
    for name, space in property_models().items():
        rng = np.random.default_rng(202)
        for _ in range(10_000):
            p = space.random_point(rng)
            q = space.random_point(rng)
            r = space.random_point(rng)
            s = space.random_point(rng)
            for t in grid:
                for alpha in grid:
                    lowest_quad = min(
                        lowest_quad, quadrilateral_defect(space, p, q, r, s, t, alpha)
                    )
                lowest_conv = min(lowest_conv, convexity_defect(space, p, q, r, s, t))
        ok = ok and lowest_quad >= -1e-9 and lowest_conv >= -1e-9
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    record(
        2,
        ok,
        f"5x10^4 quadruples x 25 grid, min quad={lowest_quad:.2e}, "
        f"min convexity={lowest_conv:.2e}, {elapsed:.1f}s",
    )
    assert ok


def _theta_graph() -> FundamentalGraph:
    return FundamentalGraph(
        [0, 1], [Edge(0, 1, 1.0, ()), Edge(0, 1, 1.0, (1,)), Edge(1, 0, 1.0, (2,))]
    )


def _theta_representations() -> dict:
    reps = {}
    e2 = EuclideanSpace(2)
    c, s = math.cos(0.7), math.sin(0.7)
    reps["euclidean-2"] = Representation(
        e2,
        [
            EuclideanIsometry([[c, -s], [s, c]], [1.0, 0.5]),
            EuclideanIsometry(np.eye(2), [0.0, 1.0]),
        ],
        check_samples=50,
    )
    e5 = EuclideanSpace(5)
    shift = np.roll(np.eye(5), 1, axis=0)
    reps["euclidean-5"] = Representation(
        e5,
        [
            EuclideanIsometry(shift, np.ones(5)),
            EuclideanIsometry(np.eye(5), [1.0, 0.0, -1.0, 0.0, 2.0]),
        ],
        check_samples=50,
    )
    reps["hyperbolic"] = Representation(
        HyperbolicPlane(),
        [
            HyperbolicIsometry([[1.0, 2.0], [0.0, 1.0]]),
            HyperbolicIsometry([[1.0, 0.0], [2.0, 1.0]]),
        ],
        check_samples=50,
    )
    tripod = tripod_tree()
    reps["tree-tripod"] = Representation(
        tripod,
        [
            TreeAutomorphism(tripod, {"c": "c", "p": "q", "q": "r", "r": "p"}),
            TreeAutomorphism(tripod, {"c": "c", "p": "q", "q": "p", "r": "r"}),
        ],
        check_samples=50,
    )
    big = twenty_edge_tree()
    reps["tree-20edge"] = Representation(
        big,
        [TreeAutomorphism.identity(big), TreeAutomorphism.identity(big)],
        check_samples=50,
    )
    return reps


def test_criterion_3_homotopy_convexity():
    graph = _theta_graph()
    s_grid = [i / 10 for i in range(11)]
    ok = True
    violations = 0
    for name, rho in _theta_representations().items():
        space = rho.space
        rng = np.random.default_rng(303)
        for _ in range(1_000):
            u = EquivariantMap(
                graph, rho, {0: space.random_point(rng), 1: space.random_point(rng)}
            )
            v = EquivariantMap(
                graph, rho, {0: space.random_point(rng), 1: space.random_point(rng)}
            )
            try:
                convexity_report(GeodesicHomotopy(u, v), s_grid)
            except GeowidthError:
                violations += 1
                ok = False
    record(
        3,
        ok,
        f"5x10^3 map pairs x 11-point grid, {violations} convexity violations",
    )
    assert ok


def _relax_results_zoo():
    """Relax results across all models, for the stationarity criterion."""
    results = []
    e2 = EuclideanSpace(2)
    rho = Representation(
        e2,
        [
            EuclideanIsometry(np.eye(2), [1.0, 0.0]),
            EuclideanIsometry(np.eye(2), [0.0, 1.0]),
        ],
        check_samples=20,
    )
    results.append(relax(build_bouquet_map(rho, np.array([0.4, -1.2]))))
    rot = Representation(
        e2, [EuclideanIsometry(-np.eye(2), [2.0, 0.0])], check_samples=20
    )
    results.append(relax(build_bouquet_map(rot, np.array([3.0, 4.0]))))
    axial = hyperbolic_axial_rep()
    results.append(relax(build_bouquet_map(axial, axial.space.from_polar(1.5, 0.8))))
    hyp2 = hyperbolic_rank2_rep()
    graph = _theta_graph()
    results.append(
        relax(
            EquivariantMap(
                graph,
                hyp2,
                {0: hyp2.space.point([1.0, 0.0, 0.0]), 1: hyp2.space.from_polar(0.6, 0.3)},
            )
        )
    )
    tripod = tripod_tree()
    swap = Representation(
        tripod,
        [TreeAutomorphism(tripod, {"c": "c", "p": "q", "q": "p", "r": "r"})],
        check_samples=20,
    )
    results.append(relax(build_bouquet_map(swap, tripod.vertex_point("p"))))
    free2 = Representation.free_on_cayley_tree(2)
    results.append(relax(build_bouquet_map(free2, free2.space.vertex_point((1, 2)))))
    return results


def test_criterion_4_relaxation_identities():
    ok = True
    worst_identity = 0.0
    worst_probe = 0.0
    for result in _relax_results_zoo():
        for row in per_edge_table(result.map):
            lhs, rhs = row["L"] ** 2, row["E"] * row["len"]
            rel = abs(lhs - rhs) / max(1.0, abs(lhs))
            worst_identity = max(worst_identity, rel)
        trace = result.energy_trace
        if any(b > a + 1e-12 for a, b in zip(trace, trace[1:])):
            ok = False
        worst_probe = max(
            worst_probe, stationarity_probe(result)
        )
    ok = ok and worst_identity <= 1e-12 and worst_probe <= 1e-10
    record(
        4,
        ok,
        f"6 relax runs: max identity residual {worst_identity:.1e}, "
        f"max probe improvement {worst_probe:.1e}",
    )
    assert ok


def test_criterion_5_axial_harmonic_energy():
    rho = hyperbolic_axial_rep()
    space = rho.space
    rng = np.random.default_rng(505)
    results = []
    for _ in range(2):
        start = space.from_polar(float(rng.uniform(0.5, 2.5)), float(rng.uniform(-3, 3)))
        results.append(relax(build_bouquet_map(rho, start)))
    ok = all(r.converged and abs(r.e_star - 4.0) <= 1e-6 for r in results)
    rows = verify_harmonic_homotopy(results[0], results[1], [i / 10 for i in range(11)])
    worst = max(abs(e - 4.0) for _, e in rows)
    ok = ok and worst <= 1e-6
    record(
        5,
        ok,
        f"two starts reach E*={results[0].e_star:.9f}/{results[1].e_star:.9f}, "
        f"max |E(H_s)-4| = {worst:.1e} on 11-point grid",
    )
    assert ok


WIDTH_CONSTANT_SEED = 2026


def test_criterion_6_width_constant_estimates():
    reps = {
        "cayley-tree": Representation.free_on_cayley_tree(2),
        "hyperbolic": hyperbolic_rank2_rep(),
    }
    ok = True
    summary = []
    for name, rho in reps.items():
        est1 = estimate_width_constant(rho, trials=1_000, seed=WIDTH_CONSTANT_SEED)
        est2 = estimate_width_constant(rho, trials=1_000, seed=WIDTH_CONSTANT_SEED)
        finite = all(math.isfinite(s["ratio"]) for s in est1.samples)
        ok = ok and finite and est1.c_hat == est2.c_hat and est1.c_hat > 0.0
        summary.append(f"{name} C_hat={est1.c_hat!r}")
    record(6, ok, f"10^3 trials each, bit-exact reproducible: {'; '.join(summary)}")
    assert ok


def test_criterion_7_main_lemma_family():
    rho = hyperbolic_axial_rep()
    space = rho.space
    r = relax(build_bouquet_map(rho, space.from_polar(1.0, 0.9)))
    assert r.converged
    ratios = []
    ok = True
    for k in range(1, 21):
        t = 0.05 * k
        y = space.point([math.cosh(t), 0.0, math.sinh(t)])
        u = build_bouquet_map(rho, y)
        ratio = main_lemma_ratio(u, r)
        if ratio is None or not math.isfinite(ratio):
            ok = False
            continue
        ratios.append(ratio)
    ok = ok and len(ratios) == 20 and math.isfinite(max(ratios))
    record(
        7,
        ok,
        f"axis family t in [0.05, 1.0]: ratios in [{min(ratios):.3f}, {max(ratios):.3f}]"
        if ratios
        else "no finite ratios",
    )
    assert ok


# ---------------------------------------------------------------------------
# conjugacy soundness/completeness


def _scan_conjugators(inst: ConjugacyInstance, radius: int = 6):
    """Exhaustive reference: every conjugator of the instance with |g| <= radius."""
    return [
        g
        for g in enumerate_ball(inst.alphabet_size, radius)
        if all(conjugate(g, a) == b for a, b in zip(inst.lists_a, inst.lists_b))
    ]


def _check_against_oracle_and_scan(inst, scan: bool):
    """Returns (solve/oracle verdicts agree and certificates check out)."""
    cert = solve(inst)
    oracle = free_group_oracle(inst)
    if cert.verdict != oracle.verdict:
        return False
    if cert.verdict == VERDICT_CONJUGATE:
        ok1, _ = verify(cert.conjugator, inst)
        ok2, _ = verify(oracle.conjugator, inst)
        if not (ok1 and ok2):
            return False
    if scan:
        found = _scan_conjugators(inst)
        if found:
            # the scan's least conjugator is the global shortlex minimum
            if cert.verdict != VERDICT_CONJUGATE:
                return False
            if shortlex_key(cert.conjugator) != shortlex_key(
                min(found, key=shortlex_key)
            ):
                return False
        elif cert.verdict == VERDICT_CONJUGATE and len(cert.conjugator) <= 6:
            return False
    return True


def _random_reduced_word(rng, max_len: int):
    n = int(rng.integers(0, max_len + 1))
    letters = []
    while len(letters) < n:
        x = int(rng.integers(1, 3)) * (1 if rng.integers(0, 2) else -1)
        if letters and letters[-1] == -x:
            continue
        letters.append(x)
    return tuple(letters)


def test_criterion_8_conjugacy_small_scale():
    t0 = time.perf_counter()
    words3 = list(enumerate_ball(2, 3))
    conjugators = list(enumerate_ball(2, 2))
    failures = 0

    # exhaustive N = 1 family, with the radius-6 scan as independent referee
    for a in words3:
        for g in conjugators:
            inst = ConjugacyInstance(2, (a,), (conjugate(g, a),))
            if not _check_against_oracle_and_scan(inst, scan=True):
                failures += 1

    # exhaustive N = 2 family (scan elided for runtime; the random sample
    # below re-validates the m_max bound against the scan)
    for a1, a2 in itertools.product(words3, words3):
        for g in conjugators:
            inst = ConjugacyInstance(
                2, (a1, a2), (conjugate(g, a1), conjugate(g, a2))
            )
            if not _check_against_oracle_and_scan(inst, scan=False):
                failures += 1

    # seeded random instances, conjugate and (mostly) non-conjugate
    rng = np.random.default_rng(808)
    for _ in range(1_000):
        n = int(rng.integers(1, 3))
        a_list = tuple(_random_reduced_word(rng, 6) for _ in range(n))
        if rng.uniform() < 0.5:
            g = _random_reduced_word(rng, 5)
            b_list = tuple(conjugate(g, a) for a in a_list)
        else:
            b_list = tuple(_random_reduced_word(rng, 6) for _ in range(n))
        inst = ConjugacyInstance(2, a_list, b_list)
        if not _check_against_oracle_and_scan(inst, scan=True):
            failures += 1

    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 300.0
    record(
        8,
        ok,
        f"exhaustive (N<=2, |a|<=3, |g|<=2) + 10^3 random instances, "
        f"{failures} discrepancies, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_9_orbit_metric_identity():
    rho = Representation.free_on_cayley_tree(2)
    e = rho.space.vertex_point(())
    mismatches = [
        g
        for g in enumerate_ball(2, 6)
        if orbit_distance(rho, e, g, ()) != float(len(g))
    ]
    ok = not mismatches
    record(9, ok, f"orbit distance = word length for all {1457} words of length <= 6")
    assert ok


def test_criterion_10_cli_determinism(tmp_path):
    # shared input files
    rho = hyperbolic_rank2_rep()
    space = rho.space
    graph = _theta_graph()
    u = EquivariantMap(
        graph, rho, {0: space.point([1.0, 0.0, 0.0]), 1: space.from_polar(0.5, 0.2)}
    )
    v = EquivariantMap(
        graph, rho, {0: space.from_polar(1.0, 1.0), 1: space.from_polar(0.7, -0.4)}
    )
    u_path, v_path = tmp_path / "u.json", tmp_path / "v.json"
    save_map(str(u_path), u)
    save_map(str(v_path), v)
    axial = hyperbolic_axial_rep()
    m_path = tmp_path / "m.json"
    save_map(str(m_path), build_bouquet_map(axial, axial.space.from_polar(1.0, 0.5)))
    rep_path = tmp_path / "rep.json"
    save_representation(str(rep_path), Representation.free_on_cayley_tree(2))
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(tripod_tree().to_json_dict()))

    commands = [
        ["check-cat0", "--model", "euclidean", "--trials", "200", "--seed", "7"],
        ["check-cat0", "--model", "hyperbolic", "--trials", "200", "--seed", "7"],
        ["check-cat0", "--model", "tree", "--tree-file", str(tree_path), "--trials", "200"],
        ["width", "--u", str(u_path), "--v", str(v_path)],
        ["convexity", "--u", str(u_path), "--v", str(v_path), "--grid", "5"],
        ["harmonic", "--map", str(m_path)],
        ["estimate-cstar", "--rep", str(rep_path), "--trials", "50", "--seed", "7"],
        ["conjugacy", "solve", "--alphabet", "2", "--a", "ab,a", "--b", "ab,a"],
        ["conjugacy", "solve", "--alphabet", "2", "--a", "a", "--b", "b"],
        [
            "orbit-report",
            "--rep",
            str(rep_path),
            "--a",
            "ab",
            "--b",
            "ba",
            "--g",
            "a",
            "--basepoint",
            '{"model": "cayley", "word": "e"}',
        ],
    ]
    ok = True
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "geowidth", *argv], capture_output=True
            )
            for _ in range(2)
        ]
        if runs[0].stdout != runs[1].stdout or runs[0].returncode != runs[1].returncode:
            ok = False
    record(10, ok, f"{len(commands)} CLI invocations byte-identical across reruns")
    assert ok
