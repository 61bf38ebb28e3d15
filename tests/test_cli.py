import json

import numpy as np
import pytest

from geowidth.cli import main
from geowidth.equivariant import Edge, EquivariantMap, FundamentalGraph, build_bouquet_map
from geowidth.isometries import HyperbolicIsometry, Representation
from geowidth.serialization import save_map, save_representation
from geowidth.spaces import HyperbolicPlane, MetricTree


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
def free_rep_file(tmp_path):
    path = tmp_path / "rep.json"
    save_representation(str(path), Representation.free_on_cayley_tree(2))
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


class TestTopLevel:
    def test_version(self, capsys):
        code, out, _ = run(capsys, ["--version"])
        assert code == 0

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 64
