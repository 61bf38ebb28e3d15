import json
import random
import re

import numpy as np
import pytest

from geowidth import cli, spaces
from geowidth.cli import _emit, main
from geowidth.errors import DomainError
from geowidth.equivariant import Edge, EquivariantMap, FundamentalGraph, build_bouquet_map
from geowidth.isometries import (
    CayleyTranslation,
    EuclideanIsometry,
    HyperbolicIsometry,
    Representation,
    TreeAutomorphism,
)
from geowidth.serialization import map_to_json, save_map, save_representation
from geowidth.spaces import CayleyTree, EuclideanSpace, HyperbolicPlane, MetricTree

from conftest import readme_rep, window_tree


def euclidean_map_text(matrix=((1, 0), (0, 1)), translation=(1, 0), coords=(0, 0)) -> str:
    """A one-loop map into the plane, its generator and image given as JSON arrays."""
    rep = {"space": {"model": "euclidean", "dim": 2}, "generators": [{"matrix": matrix, "translation": translation}]}
    return json.dumps({
        "graph": {"vertices": [0], "edges": [{"src": 0, "tgt": 0, "len": 1, "label": "a"}]},
        "images": {"0": {"model": "euclidean", "coords": coords}},
        "representation": rep,
    })


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def hyp_map_files(tmp_path):
    rho = Representation(
        HyperbolicPlane(),
        [
            HyperbolicIsometry([[1.0, 2.0], [0.0, 1.0]]),
            HyperbolicIsometry([[1.0, 0.0], [2.0, 1.0]]),
        ],
        check_samples=10,
    )
    space = rho.space
    graph = FundamentalGraph(
        [0, 1], [Edge(0, 1, 1.0, ()), Edge(0, 1, 1.0, (1,)), Edge(1, 0, 1.0, (2,))]
    )
    u = EquivariantMap(
        graph, rho, {0: space.point([1.0, 0.0, 0.0]), 1: space.from_polar(0.5, 0.2)}
    )
    v = EquivariantMap(
        graph, rho, {0: space.from_polar(1.0, 1.0), 1: space.from_polar(0.7, -0.4)}
    )
    up, vp = tmp_path / "u.json", tmp_path / "v.json"
    save_map(str(up), u)
    save_map(str(vp), v)
    return str(up), str(vp)


@pytest.fixture
def hyp_rep_file(tmp_path):
    path = tmp_path / "hyp_rep.json"
    rho = Representation(HyperbolicPlane(), [HyperbolicIsometry([[2.0, 1.0], [1.0, 1.0]])], check_samples=10)
    save_representation(str(path), rho)
    return str(path)


@pytest.fixture
def free_rep_file(tmp_path):
    path = tmp_path / "rep.json"
    save_representation(str(path), Representation.free_on_cayley_tree(2))
    return str(path)


@pytest.fixture
def tree_rep_file(tmp_path):
    """The swap of the two ends of a two-edge path, on that path."""
    path = tmp_path / "tree_rep.json"
    tree = MetricTree(["a", "m", "b"], [("a", "m", 1.0), ("m", "b", 1.0)])
    save_representation(str(path), Representation(tree, [TreeAutomorphism(tree, {"a": "b", "m": "m", "b": "a"})]))
    return str(path)


class TestCheckCat0:
    def test_euclidean_json(self, capsys):
        code, out, _ = run(
            capsys,
            ["check-cat0", "--model", "euclidean", "--dim", "2", "--trials", "50"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert abs(report["min_triangle_defect"]) <= 1e-9

    def test_hyperbolic(self, capsys):
        code, out, _ = run(
            capsys, ["check-cat0", "--model", "hyperbolic", "--trials", "50"]
        )
        assert code == 0
        assert json.loads(out)["min_quadrilateral_defect"] >= -1e-9

    def test_tree_requires_file(self, capsys):
        code, _, err = run(capsys, ["check-cat0", "--model", "tree", "--trials", "5"])
        assert code == 65
        assert "tree-file" in err

    def test_tree_from_file(self, capsys, tmp_path):
        tree = MetricTree(["c", "p", "q", "r"], [("c", "p", 1.0), ("c", "q", 1.0), ("c", "r", 1.0)])
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(tree.to_json_dict()))
        code, out, _ = run(
            capsys,
            ["check-cat0", "--model", "tree", "--tree-file", str(path), "--trials", "50"],
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_large_tree_rounding_is_no_violation(self, capsys, tmp_path):
        # vertex i hangs on one of the two before it: distances reach ~2,000, and
        # differences of squared distances carry rounding of a few 1e-9
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(window_tree(5000, 2, 3).to_json_dict()))
        argv = ["check-cat0", "--model", "tree", "--tree-file", str(path), "--trials", "20", "--seed", "4"]
        code, out, _ = run(capsys, argv)
        report = json.loads(out)
        assert report["min_quadrilateral_defect"] < -1e-9
        assert (code, report["ok"]) == (0, True)

    def test_violation_beyond_rounding_fails(self, capsys, tmp_path, monkeypatch):
        tree = MetricTree(["c", "p", "q", "r"], [("c", "p", 1.0), ("c", "q", 1.0), ("c", "r", 1.0)])
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(tree.to_json_dict()))
        sweep = spaces.comparison_sweep
        monkeypatch.setattr("geowidth.cli.comparison_sweep", lambda *args: sweep(*args)._replace(triangle=-1e-8))
        code, out, _ = run(capsys, ["check-cat0", "--model", "tree", "--tree-file", str(path), "--trials", "5"])
        assert (code, json.loads(out)["ok"]) == (2, False)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("model", ["euclidean-2", "euclidean-5", "hyperbolic", "tree-tripod", "tree-5000"])
    def test_stdout_matches_the_per_call_loop(self, capsys, tmp_path, monkeypatch, model, seed):
        model, _, shape = model.partition("-")
        argv = ["check-cat0", "--model", model, "--trials", "40", "--seed", str(seed)]
        if model == "euclidean":
            argv += ["--dim", shape]
        if model == "tree":
            tree = window_tree(5000, 2, 3).to_json_dict() if shape == "5000" else MetricTree(
                ["c", "p", "q", "r"], [("c", "p", 1.0), ("c", "q", 1.0), ("c", "r", 1.0)]
            ).to_json_dict()
            path = tmp_path / "tree.json"
            path.write_text(json.dumps(tree))
            argv += ["--tree-file", str(path)]
        swept = run(capsys, argv)
        monkeypatch.setattr(cli, "cmd_check_cat0", per_call_check_cat0)
        assert run(capsys, argv) == swept


def per_call_check_cat0(ns):
    """check-cat0 as it ran before the comparison sweep: 31 defect calls per trial and six public distances."""
    space = cli._build_space(ns)
    rng = np.random.default_rng(ns.seed)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    min_tri = min_quad = min_conv = float("inf")
    ok = True
    for _ in range(ns.trials):
        pts = [space.random_point(rng) for _ in range(4)]
        lam = float(rng.uniform(0.0, 1.0))
        tri = spaces.triangle_defect(space, pts[0], pts[1], pts[2], lam)
        quad = [spaces.quadrilateral_defect(space, *pts, t, alpha) for t in grid for alpha in grid]
        conv = [spaces.convexity_defect(space, *pts, t) for t in grid]
        min_tri, min_quad, min_conv = min(min_tri, tri), min(min_quad, *quad), min(min_conv, *conv)
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
    return fields, cli.EXIT_OK if ok else cli.EXIT_PROPERTY_VIOLATION


class TestWidthAndConvexity:
    def test_width_report(self, capsys, hyp_map_files):
        up, vp = hyp_map_files
        code, out, _ = run(capsys, ["width", "--u", up, "--v", vp])
        assert code == 0
        report = json.loads(out)
        assert report["w_inf"] > 0.0
        assert report["w2"] > 0.0
        assert report["w2_error_estimate"] >= 0.0

    def test_convexity_table(self, capsys, hyp_map_files):
        up, vp = hyp_map_files
        code, out, _ = run(capsys, ["convexity", "--u", up, "--v", vp, "--grid", "5"])
        assert code == 0
        report = json.loads(out)
        assert len(report["table"]) == 5
        assert report["table"][0]["s"] == 0.0

    def test_csv_format(self, capsys, hyp_map_files):
        up, vp = hyp_map_files
        code, out, _ = run(
            capsys, ["convexity", "--u", up, "--v", vp, "--grid", "3", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "energy,length,s"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["width", "--u", str(tmp_path / "no.json"), "--v", str(tmp_path / "no.json")]
        )
        assert code == 64


class TestHarmonic:
    def test_axial_relaxation(self, capsys, tmp_path):
        import math

        rho = Representation(
            HyperbolicPlane(),
            [HyperbolicIsometry([[math.e, 0.0], [0.0, 1.0 / math.e]])],
            check_samples=10,
        )
        u0 = build_bouquet_map(rho, rho.space.from_polar(1.0, 0.8))
        path = tmp_path / "u0.json"
        save_map(str(path), u0)
        code, out, _ = run(capsys, ["harmonic", "--map", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["converged"] is True
        assert report["e_star"] == pytest.approx(4.0, abs=1e-6)

    def test_line_search_trials_off_the_sheet(self, capsys, tmp_path):
        # from this start, the solver's line search tries steps that rounding carries off the hyperboloid
        space = HyperbolicPlane()
        rho = Representation(space, [HyperbolicIsometry([[1, 2], [0, 1]])], check_samples=10)
        u0 = build_bouquet_map(rho, space.point([1.1075504827464449, -0.05680255588005624, -0.47269603497107515]))
        path = tmp_path / "u0.json"
        save_map(str(path), u0)
        code, out, _ = run(capsys, ["harmonic", "--map", str(path), "--max-iterations", "200"])
        assert code == 0
        report = json.loads(out, parse_constant=_refuse_constant)
        assert all(b <= a for a, b in zip(report["energy_trace"], report["energy_trace"][1:]))


class TestEstimateCstar:
    def test_free_rank2(self, capsys, free_rep_file):
        code, out, _ = run(
            capsys,
            ["estimate-cstar", "--rep", free_rep_file, "--trials", "20", "--seed", "1"],
        )
        assert code == 0
        report = json.loads(out)
        assert 0.0 < report["c_hat"] <= 0.5 + 1e-12
        assert len(report["table"]) == 20

    def test_precondition_exit(self, capsys, tmp_path):
        path = tmp_path / "rep1.json"
        save_representation(str(path), Representation.free_on_cayley_tree(1))
        code, _, err = run(capsys, ["estimate-cstar", "--rep", str(path), "--trials", "5"])
        assert code == 66
        assert "precondition" in err


class TestConjugacy:
    def test_conjugate_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, ["conjugacy", "solve", "--alphabet", "2", "--a", "ab", "--b", "ba"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "Conjugate"
        assert report["g"] == "a"
        assert report["stats"]["seconds"] == 0.0

    def test_not_conjugate_exit_three(self, capsys):
        code, out, _ = run(
            capsys, ["conjugacy", "solve", "--alphabet", "2", "--a", "a", "--b", "b"]
        )
        assert code == 3
        assert json.loads(out)["verdict"] == "NotConjugate"

    def test_list_instance(self, capsys):
        code, out, _ = run(
            capsys,
            ["conjugacy", "solve", "--alphabet", "2", "--a", "ab,a", "--b", "ab,a"],
        )
        assert code == 0
        assert json.loads(out)["g"] == "e"

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, ["conjugacy", "solve", "--alphabet", "2", "--a", "ab"])
        assert code == 64

    def test_free_transcript(self, capsys):
        code, out, _ = run(
            capsys, ["conjugacy", "solve", "--alphabet", "2", "--a", "aab,ba,bb", "--b", "BAaabab,BAbaab,BAbbab"]
        )
        assert code == 0
        expected = "".join(
            f'    {{\n      "conjugated": "{w}",\n      "expected": "{w}",\n      "index": {i},\n      "match": true\n    }}'
            + (",\n" if i < 2 else "\n")
            for i, w in enumerate(["Babab", "BAbaab", "BAbbab"])
        )
        # byte for byte the transcript of the conjugator ab, pretty-printed
        assert '  "transcript": [\n' + expected + "  ],\n" in out

    @pytest.mark.parametrize("context", ["free", "matrix"])
    def test_negative_max_radius_is_a_usage_error(self, capsys, tmp_path, context):
        argv = ["conjugacy", "solve", "--alphabet", "2", "--a", "ab", "--b", "ba", "--max-radius", "-1"]
        if context == "matrix":
            save_representation(str(tmp_path / "rep.json"), readme_rep())
            argv += ["--rep", str(tmp_path / "rep.json")]
        code, out, err = run(capsys, argv)
        assert (code, out) == (64, "")
        assert "max_radius must be >= 0" in err

    def test_matrix_search_past_radius_five(self, capsys, tmp_path):
        path = tmp_path / "readme_rep.json"
        save_representation(str(path), readme_rep())
        argv = ["conjugacy", "solve", "--alphabet", "2", "--a", "ab", "--b", "aab", "--rep", str(path), "--max-radius", "6"]
        code, out, _ = run(capsys, argv)
        assert code == 4
        report = json.loads(out, parse_constant=_refuse_constant)
        assert (report["verdict"], report["radius_searched"], report["transcript"]) == ("NotConjugateUpTo", 6, [])
        assert report["stats"]["enumerated"] == 1457

    @pytest.mark.parametrize(
        "rho, kind",
        [
            (
                Representation(
                    HyperbolicPlane(),
                    [HyperbolicIsometry([[1.0, 0.0], [0.0, 1.0]]), HyperbolicIsometry([[2.0, 1.0], [1.0, 1.0]])],
                    check_samples=10,
                ),
                "free-on-cayley-tree",
            ),
            (Representation.free_on_cayley_tree(2), "matrix-on-H2"),
        ],
        ids=["hyperbolic-labelled-free", "cayley-labelled-matrix"],
    )
    def test_kind_contradicting_space(self, capsys, tmp_path, rho, kind):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({**rho.to_json(), "kind": kind}))
        code, out, err = run(
            capsys,
            ["conjugacy", "solve", "--alphabet", "2", "--a", "a", "--b", "e", "--rep", str(path)],
        )
        assert code == 65
        assert out == ""
        assert "contradicts" in err


class TestMalformedInput:
    @pytest.mark.parametrize("text", ['{"vertices": [0,1', '{"representation": {}}'], ids=["not-json", "missing-key"])
    @pytest.mark.parametrize("entry", ["tree-file", "map", "rep", "basepoint"])
    def test_config_exit(self, capsys, tmp_path, free_rep_file, entry, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = {
            "tree-file": ["check-cat0", "--model", "tree", "--tree-file", str(path), "--trials", "3"],
            "map": ["width", "--u", str(path), "--v", str(path)],
            "rep": ["estimate-cstar", "--rep", str(path), "--trials", "3"],
            "basepoint": ["orbit-report", "--rep", free_rep_file, "--a", "ab", "--b", "ba", "--basepoint", text],
        }[entry]
        code, out, err = run(capsys, argv)
        assert code == 65
        assert out == ""
        assert "Traceback" not in err


class TestExitCodes:
    @pytest.mark.parametrize(
        "rep, argv",
        [
            ("euclidean", ["estimate-cstar", "--trials", "3"]),
            ("euclidean", ["conjugacy", "solve", "--alphabet", "1", "--a", "a", "--b", "a"]),
            ("tripod", ["conjugacy", "solve", "--alphabet", "1", "--a", "a", "--b", "a"]),
        ],
        ids=["estimate-euclidean", "solve-euclidean", "solve-tripod"],
    )
    def test_unsupported_model_is_config_error(self, capsys, tmp_path, rep, argv):
        tripod = MetricTree(["c", "p", "q", "r"], [("c", "p", 1.0), ("c", "q", 1.0), ("c", "r", 1.0)])
        rho = {
            "euclidean": Representation(EuclideanSpace(2), [EuclideanIsometry(np.eye(2), [1.0, 0.0])]),
            "tripod": Representation(tripod, [TreeAutomorphism(tripod, {"c": "c", "p": "q", "q": "r", "r": "p"})]),
        }[rep]
        path = tmp_path / "rep.json"
        save_representation(str(path), rho)
        code, out, err = run(capsys, argv + ["--rep", str(path)])
        assert (code, out) == (65, "")
        assert "Traceback" not in err

    def test_infinite_edge_length_is_usage_error(self, capsys, tmp_path):
        u = map_to_json(build_bouquet_map(Representation.free_on_cayley_tree(2), CayleyTree(2).edge_point((1,), 2, 0.5)))
        path = tmp_path / "u.json"
        path.write_text(json.dumps(u).replace('"len": 1.0', '"len": 1e309', 1))
        code, out, err = run(capsys, ["convexity", "--u", str(path), "--v", str(path), "--grid", "3"])
        assert (code, out) == (64, "")
        assert "positive and finite" in err

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("homotopy_width_2_detailed", ["width", "--u", "U", "--v", "U", "--samples-per-edge", "1000000000000"]),
            ("space_from_json", ["check-cat0", "--model", "euclidean", "--dim", "10000000000000"]),
        ],
        ids=["width-samples", "check-cat0-dim"],
    )
    def test_sizes_too_large_to_allocate_are_usage_errors(self, capsys, monkeypatch, hyp_map_files, name, argv):
        # numpy raises MemoryError on such sizes; raised here without allocating
        def too_large(*args):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(f"geowidth.cli.{name}", too_large)
        code, out, err = run(capsys, [hyp_map_files[0] if a == "U" else a for a in argv])
        assert (code, out) == (64, "")
        assert "MemoryError" in err and "Traceback" not in err

    def test_directory_for_an_input_file_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, ["estimate-cstar", "--rep", str(tmp_path), "--trials", "3"])
        assert (code, out) == (64, "")
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry", ["rep", "basepoint"])
    def test_json_nested_too_deep_is_config_error(self, capsys, tmp_path, free_rep_file, entry):
        text = "[" * 100_000 + "]" * 100_000
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = {
            "rep": ["estimate-cstar", "--rep", str(path), "--trials", "3"],
            "basepoint": ["orbit-report", "--rep", free_rep_file, "--a", "ab", "--b", "ba", "--basepoint", text],
        }[entry]
        code, out, err = run(capsys, argv)
        assert (code, out) == (65, "")
        assert "RecursionError" in err

    @pytest.mark.parametrize("argv", [["harmonic", "--map", "MAP"], ["width", "--u", "MAP", "--v", "MAP"]], ids=["harmonic", "width"])
    def test_map_without_representation_is_config_error(self, capsys, tmp_path, hyp_map_files, argv):
        with open(hyp_map_files[0]) as f:
            u = json.load(f)
        del u["representation"]
        path = tmp_path / "u.json"
        path.write_text(json.dumps(u))
        code, out, err = run(capsys, [str(path) if a == "MAP" else a for a in argv])
        assert (code, out) == (65, "")
        assert "representation" in err


class TestOrbitReport:
    def test_cayley_basepoint(self, capsys, free_rep_file):
        code, out, _ = run(
            capsys,
            [
                "orbit-report",
                "--rep",
                free_rep_file,
                "--a",
                "ab",
                "--b",
                "ba",
                "--g",
                "a",
                "--basepoint",
                json.dumps({"model": "cayley", "word": "e"}),
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["orbit_sum"] == pytest.approx(4.0)
        assert report["word_sum"] == 4
        assert report["ratio"] == pytest.approx(0.25)


class TestDeterminism:
    def test_byte_identical_stdout(self, capsys, free_rep_file, hyp_map_files):
        runs = [
            ["check-cat0", "--model", "hyperbolic", "--trials", "30", "--seed", "9"],
            ["estimate-cstar", "--rep", free_rep_file, "--trials", "10", "--seed", "9"],
            ["conjugacy", "solve", "--alphabet", "2", "--a", "ab", "--b", "ba"],
            ["width", "--u", hyp_map_files[0], "--v", hyp_map_files[1]],
        ]
        for argv in runs:
            code1, out1, _ = run(capsys, argv)
            code2, out2, _ = run(capsys, argv)
            assert code1 == code2
            assert out1 == out2

    def test_seed_echoed(self, capsys):
        _, out, _ = run(
            capsys, ["check-cat0", "--model", "euclidean", "--trials", "5", "--seed", "123"]
        )
        assert json.loads(out)["seed"] == 123


class TestArgumentBounds:
    @pytest.mark.parametrize(
        "argv",
        [
            ["convexity", "--u", "u.json", "--v", "v.json", "--grid", "1"],
            ["check-cat0", "--model", "hyperbolic", "--trials", "0"],
            ["estimate-cstar", "--rep", "rep.json", "--trials", "-2"],
            ["conjugacy", "solve", "--alphabet", "0", "--a", "a", "--b", "a"],
        ],
        ids=["grid-1", "check-cat0-trials-0", "estimate-cstar-trials-negative", "alphabet-0"],
    )
    def test_count_below_minimum(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 64
        assert out == ""
        assert "must be at least" in err


class TestReportAssembly:
    """Every subcommand reports through main: version, seed and config, then its own keys, in every format."""

    CASES = {
        "check-cat0": (
            ["check-cat0", "--model", "hyperbolic", "--trials", "5"],
            0,
            {"model", "trials", "min_triangle_defect", "min_quadrilateral_defect", "min_convexity_defect", "ok"},
        ),
        "width": (
            ["width", "--u", "U", "--v", "V", "--samples-per-edge", "4"],
            0,
            {"w_inf", "w2", "w2_error_estimate", "length_u", "length_v", "energy_u", "energy_v"},
        ),
        "convexity": (["convexity", "--u", "U", "--v", "V", "--grid", "3"], 0, {"table"}),
        "harmonic": (
            ["harmonic", "--map", "U", "--max-iterations", "3"],
            0,
            {"e_star", "l_star", "iterations", "converged", "energy_trace", "map"},
        ),
        "estimate-cstar": (["estimate-cstar", "--rep", "REP", "--trials", "3"], 0, {"c_hat", "table"}),
        "conjugacy-solve": (
            ["conjugacy", "solve", "--alphabet", "2", "--a", "a", "--b", "b"],
            3,
            {"verdict", "g", "radius_searched", "transcript", "stats"},
        ),
        "orbit-report": (
            ["orbit-report", "--rep", "REP", "--a", "ab", "--b", "ba", "--basepoint", '{"model": "cayley", "word": "e"}'],
            0,
            {"orbit_sum", "word_sum", "ratio"},
        ),
    }

    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    @pytest.mark.parametrize("name", list(CASES))
    def test_report_keys_and_exit_code(self, capsys, hyp_map_files, free_rep_file, name, fmt):
        argv, expected_code, keys = self.CASES[name]
        files = {"U": hyp_map_files[0], "V": hyp_map_files[1], "REP": free_rep_file}
        code, out, err = run(capsys, [files.get(a, a) for a in argv] + ["--format", fmt])
        assert (code, err) == (expected_code, "")
        keys = keys | {"version", "seed", "config"}
        if fmt == "json":
            report = json.loads(out, parse_constant=_refuse_constant)
            assert set(report) == keys
            assert report["config"]["format"] == "json" and "func" not in report["config"]
        else:
            # scalar keys come first, one a line; the table follows in its own form
            scalar = r"# (\w+)=" if fmt == "csv" else r"(\w+): "
            found = {m.group(1) for m in map(re.compile(scalar).match, out.splitlines()) if m}
            assert found == keys - {"table"}


class TestTopLevel:
    def test_version(self, capsys):
        code, out, _ = run(capsys, ["--version"])
        assert code == 0

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 64


DOCUMENTED_EXITS = {0, 2, 3, 4, 64, 65, 66, 70}
JSON_TYPES = (
    (type(None), "null"), (bool, "bool"), ((int, float), "number"), (str, "string"), (list, "array"), (dict, "object")
)


def _json_type(value):
    return next(name for types, name in JSON_TYPES if isinstance(value, types))


def _refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def mutants(doc, rng, count):
    """Seeded copies of doc with one key dropped or one value swapped for one of another JSON type."""
    values = [None, True, 3, -1.5, "x", "", [], [1, "a"], {}, {"model": "x"}]
    paths = []

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in items:
            paths.append(path + (key,))
            walk(child, path + (key,))

    walk(doc, ())
    for _ in range(count):
        mutant = json.loads(json.dumps(doc))
        path = paths[rng.randrange(len(paths))]
        parent = mutant
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and rng.random() < 0.3:
            del parent[path[-1]]
        else:
            old = _json_type(parent[path[-1]])
            parent[path[-1]] = rng.choice([v for v in values if _json_type(v) != old])
        yield mutant


class TestFuzz:
    """Malformed and mutated inputs end in a documented exit code, never a traceback."""

    BOUND = ["conjugacy", "solve", "--alphabet", "2", "--a", "ab", "--b", "ba", "--policy", "bound"]

    @pytest.mark.parametrize(
        "flags",
        [
            BOUND + ["--cstar", "nan", "--c", "1"],
            BOUND + ["--cstar", "inf", "--c", "1"],
            BOUND + ["--cstar", "1", "--c=-inf"],
            ["check-cat0", "--model", "euclidean", "--seed", "-1"],
            ["harmonic", "--map", "MAP", "--max-iterations", "3", "--tolerance", "nan"],
            ["conjugacy", "solve", "--alphabet", "2", "--a", "abc", "--b", "ab"],
            ["orbit-report", "--rep", "REP", "--a", "ab", "--b", "ba", "--g", "z", "--basepoint", '{"model": "cayley", "word": "e"}'],
            ["check-cat0", "--model", "tree", "--tree-file", "TREE", "--trials", "3"],
        ],
        ids=["cstar-nan", "cstar-inf", "c-minus-inf", "seed-negative", "tolerance-nan", "word-a", "word-g", "tree-len-1e308"],
    )
    def test_bad_number_is_usage_error(self, capsys, tmp_path, hyp_map_files, free_rep_file, flags):
        tree = tmp_path / "tree.json"
        tree.write_text('{"vertices": ["a", "b", "c"], "edges": [{"a": "a", "b": "b", "len": 1e308}, {"a": "b", "b": "c", "len": 1}]}')
        files = {"MAP": hyp_map_files[0], "REP": free_rep_file, "TREE": str(tree)}
        code, out, err = run(capsys, [files.get(f, f) for f in flags])
        assert code == 64
        assert out == ""
        assert "Traceback" not in err

    def test_tree_without_an_edge_is_usage_error(self, capsys, tmp_path):
        tree = tmp_path / "one.json"
        tree.write_text('{"vertices": [0], "edges": []}')
        code, out, err = run(capsys, ["check-cat0", "--model", "tree", "--tree-file", str(tree)])
        assert (code, out) == (64, "")
        assert "at least one edge" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "entry, text",
        [
            ("tree-file", '{"vertices": ["a", "b"], "edges": [{"a": "a", "b": "b", "len": "x"}]}'),
            ("rep", '{"space": {"model": "hyperbolic"}, "generators": [{"matrix": "abc"}]}'),
            ("rep", '{"space": {"model": "hyperbolic"}, "generators": [{"matrix": [[1, 2], [3]]}]}'),
            ("rep", '{"space": {"model": "euclidean", "dim": "x"}, "generators": []}'),
            ("rep", '{"space": {"model": "cayley", "rank": 2}, "generators": [{"word": 7}]}'),
            ("basepoint", '{"model": "cayley", "word": 5}'),
            ("basepoint", '{"model": "cayley", "word": "a", "letter": "b", "t": "x"}'),
            ("tree-file", '{"vertices": ["a", "b"], "edges": [{"a": "a", "b": "b", "len": NaN}]}'),
            ("rep", '{"space": {"model": "cayley", "rank": -Infinity}, "generators": [{"word": "a"}]}'),
            ("basepoint", '{"model": "cayley", "word": "z"}'),
            ("hyperbolic-basepoint", '{"model": "hyperbolic", "coords": [0, 1, 0]}'),
            ("basepoint", '{"model": "cayley", "word": "e", "letter": "", "t": 0.5}'),
            ("basepoint", '{"model": "cayley", "word": "e", "letter": "e", "t": 0.5}'),
            ("basepoint", '{"model": "cayley", "word": "e", "letter": "ab", "t": 0.5}'),
            ("rep", '{"space": {"model": "euclidean", "dim": 2.5}, "generators": []}'),
            ("rep", '{"space": {"model": "euclidean", "dim": true}, "generators": []}'),
            ("rep", '{"space": {"model": "euclidean", "dim": "3"}, "generators": []}'),
            ("rep", '{"space": {"model": "cayley", "rank": 2.7}, "generators": [{"word": "a"}, {"word": "b"}]}'),
            ("rep", '{"space": {"model": "cayley", "rank": true}, "generators": [{"word": "a"}]}'),
            ("rep", '{"space": {"model": "cayley", "rank": "2"}, "generators": [{"word": "a"}, {"word": "b"}]}'),
            ("tree-basepoint", '{"model": "tree", "edge": 1.7, "offset": 0.5}'),
            ("tree-basepoint", '{"model": "tree", "edge": true, "offset": 0.5}'),
            ("tree-basepoint", '{"model": "tree", "edge": "1", "offset": 0.5}'),
            ("tree-basepoint", '{"model": "tree", "edge": 1, "offset": "0.5"}'),
            ("tree-file", '{"vertices": ["a", "b"], "edges": [{"a": "a", "b": "b", "len": "1"}]}'),
            ("tree-file", '{"vertices": ["a", "b"], "edges": [{"a": "a", "b": "b", "len": true}]}'),
            ("map", '{"graph": {"vertices": [0], "edges": [{"src": 0, "tgt": 0, "len": "1", "label": "a"}]}, '
                    '"images": {"0": {"model": "cayley", "word": "e"}}, '
                    '"representation": {"space": {"model": "cayley", "rank": 1}, "generators": [{"word": "a"}]}}'),
            ("basepoint", '{"model": "cayley", "word": "a", "letter": "b", "t": "0.5"}'),
            ("basepoint", '{"model": "cayley", "word": "a", "letter": "b", "t": true}'),
            ("rep", '{"space": {"model": "hyperbolic"}, "generators": [{"matrix": [["2", 1], [1, 1]]}]}'),
            ("rep", '{"space": {"model": "hyperbolic"}, "generators": [{"matrix": [[2, 1], [1, true]]}]}'),
            ("hyperbolic-basepoint", '{"model": "hyperbolic", "coords": ["1", 0, 0]}'),
            ("hyperbolic-basepoint", '{"model": "hyperbolic", "coords": [1, 0, false]}'),
            ("map", euclidean_map_text(matrix=[["1", 0], [0, 1]])),
            ("map", euclidean_map_text(translation=[True, 0])),
            ("map", euclidean_map_text(coords=["1", 0])),
        ],
        ids=[
            "tree-len", "matrix-string", "matrix-ragged", "dim-string", "word-number", "basepoint-word", "basepoint-t",
            "len-nan", "rank-infinity", "basepoint-beyond-alphabet", "basepoint-off-sheet",
            "letter-empty", "letter-identity", "letter-two",
            "dim-fraction", "dim-bool", "dim-digits", "rank-fraction", "rank-bool", "rank-digits",
            "edge-fraction", "edge-bool", "edge-digits", "offset-digits", "tree-len-digits", "tree-len-bool",
            "map-len-digits", "basepoint-t-digits", "basepoint-t-bool",
            "matrix-entry-digits", "matrix-entry-bool", "coords-digits", "coords-bool",
            "euclidean-matrix-digits", "euclidean-translation-bool", "euclidean-coords-digits",
        ],
    )
    def test_wrongly_typed_json_is_config_error(
        self, capsys, tmp_path, free_rep_file, hyp_rep_file, tree_rep_file, entry, text
    ):
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = {
            "tree-file": ["check-cat0", "--model", "tree", "--tree-file", str(path), "--trials", "3"],
            "rep": ["estimate-cstar", "--rep", str(path), "--trials", "3"],
            "basepoint": ["orbit-report", "--rep", free_rep_file, "--a", "ab", "--b", "ba", "--basepoint", text],
            "hyperbolic-basepoint": ["orbit-report", "--rep", hyp_rep_file, "--a", "a", "--b", "a", "--basepoint", text],
            "tree-basepoint": ["orbit-report", "--rep", tree_rep_file, "--a", "a", "--b", "a", "--basepoint", text],
            "map": ["width", "--u", str(path), "--v", str(path)],
        }[entry]
        code, out, err = run(capsys, argv)
        assert code == 65
        assert out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "space, generator, message",
        [
            ({"model": "euclidean", "dim": 2}, {"matrix": [[1, 0], [0, 1]], "translation": 3}, "dimension mismatch"),
            ({"model": "euclidean", "dim": 2}, {"matrix": [[1, 0], [0, 1]], "translation": [None, 0]}, "must be finite"),
            ({"model": "hyperbolic"}, {"matrix": [[2, None], [1, 1]]}, "positive determinant"),
        ],
        ids=["translation-scalar", "translation-null", "matrix-null"],
    )
    def test_misshapen_or_null_numbers_are_usage_errors(self, capsys, tmp_path, space, generator, message):
        # numpy reads a JSON null in a number array as NaN, which passes any check written as x <= bound
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({"space": space, "generators": [generator]}))
        code, out, err = run(capsys, ["estimate-cstar", "--rep", str(path), "--trials", "3"])
        assert (code, out) == (64, "")
        assert message in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    def test_non_finite_report_is_refused_before_output(self, capsys, fmt):
        report = {"c_hat": 0.5, "table": [{"ratio": 0.5}, {"ratio": float("nan")}]}
        with pytest.raises(DomainError, match="out of range"):
            _emit(report, fmt)
        assert capsys.readouterr().out == ""

    def test_null_coordinate_is_usage_error(self, capsys, tmp_path):
        rep = Representation(EuclideanSpace(2), [EuclideanIsometry(np.eye(2), [1.0, 0.0])], check_samples=5)
        u = map_to_json(build_bouquet_map(rep, np.zeros(2)))
        u["images"]["v"]["coords"] = [None, 0.0]
        path = tmp_path / "u.json"
        path.write_text(json.dumps(u))
        code, out, err = run(capsys, ["harmonic", "--map", str(path)])
        assert (code, out) == (64, "")
        assert "coordinates must be finite" in err

    def test_seeded_mutants(self, capsys, tmp_path, hyp_map_files, free_rep_file):
        tripod = MetricTree(["c", "p", "q", "r"], [("c", "p", 1.0), ("c", "q", 1.0), ("c", "r", 1.0)])
        cayley = CayleyTree(2)
        free = Representation(cayley, [CayleyTranslation(cayley, (1,)), CayleyTranslation(cayley, (2, 1))])
        tree_rep = Representation(tripod, [TreeAutomorphism(tripod, {"c": "c", "p": "q", "q": "r", "r": "p"})])
        euclidean = Representation(EuclideanSpace(2), [EuclideanIsometry([[0.0, -1.0], [1.0, 0.0]], [1.0, 0.0])])
        with open(hyp_map_files[0]) as f:
            hyp_map = json.load(f)
        maps = [
            hyp_map,
            map_to_json(build_bouquet_map(tree_rep, tripod.edge_point(0, 0.5))),
            map_to_json(build_bouquet_map(free, cayley.edge_point((1,), 2, 0.25))),
        ]
        path = tmp_path / "doc.json"
        relax = ["harmonic", "--map", str(path), "--max-iterations", "2"]
        width = ["width", "--u", str(path), "--v", str(path), "--samples-per-edge", "4"]
        estimate = ["estimate-cstar", "--rep", str(path), "--trials", "2"]
        reps = (tree_rep.to_json(), free.to_json(), euclidean.to_json(), hyp_map["representation"])
        cases = [(m, relax) for m in maps] + [(m, width) for m in maps] + [(rep, estimate) for rep in reps]
        cases.append((tripod.to_json_dict(), ["check-cat0", "--model", "tree", "--tree-file", str(path), "--trials", "2"]))
        orbit = ["orbit-report", "--rep", free_rep_file, "--a", "ab", "--b", "ba", "--basepoint"]
        points = ({"model": "cayley", "word": "ab", "letter": "a", "t": 0.5}, {"model": "cayley", "word": "B"})
        cases += [(point, orbit) for point in points]
        rng = random.Random(2026)
        for doc, argv in cases:
            for mutant in mutants(doc, rng, 12):
                text = json.dumps(mutant)
                path.write_text(text)
                # the basepoint is given inline, every other document as a file
                argv_run = argv + [text] if argv is orbit else argv
                try:
                    code = main(argv_run)
                except Exception as e:
                    pytest.fail(f"{type(e).__name__}: {e} escaped main() on {text}")
                out, err = capsys.readouterr()
                assert code in DOCUMENTED_EXITS, (code, text, err)
                assert "Traceback" not in err, text
                if code == 0:
                    json.loads(out, parse_constant=_refuse_constant)
