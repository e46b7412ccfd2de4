import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tubemeasure import cli
from tubemeasure.cli import main
from tubemeasure.geometry import CONTAINS_TOL, FRAME_ORTHO_TOL
from tubemeasure.proof import AGREEMENT_TOL

BALL3 = {"dim": 3, "kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}
CUBE3 = {
    "dim": 3,
    "kind": "cuboid",
    "center": [0.5, 0.5, 0.5],
    "half_lengths": [0.5, 0.5, 0.5],
    "frame": {
        "axis": [0.0, 0.0, 1.0],
        "cross": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    },
}
SQUARE2 = {
    "dim": 2,
    "kind": "polytope",
    "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
}
TRIANGLE2 = {
    "dim": 2,
    "kind": "polytope",
    "vertices": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8660254037844386]],
}
CLOUD3 = {
    "dim": 3,
    "kind": "cloud",
    "points": [[0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [2.0, 4.0, 4.0]],
}


def shape_file(tmp_path, doc, name="shape.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, f"exit {code}, stderr: {err}"
    return json.loads(out)


class TestBounds:
    def test_ball_report(self, tmp_path, capsys):
        path = shape_file(tmp_path, BALL3)
        report = run_json(
            capsys, ["bounds", "--shape", path, "--samples", "2000", "--seed", "3"]
        )
        assert report["command"] == "bounds"
        assert report["config"]["seed"] == 3
        assert report["config"]["mc_samples"] == 2000
        assert report["config"]["grid_points"] == 2048
        result = report["result"]
        assert result["upper"] == pytest.approx(math.pi, abs=1e-12)
        assert result["lower"] == pytest.approx(2 * math.pi / 3, abs=1e-12)
        assert len(result["witness_direction"]) == 3

    def test_builtin_tetrahedron(self, capsys):
        report = run_json(
            capsys,
            ["bounds", "--shape", "tetrahedron", "--samples", "2000", "--grid-points", "128"],
        )
        result = report["result"]
        assert 0.0 < result["lower"] <= result["upper"]

    def test_product_shape_rejected(self, tmp_path, capsys):
        doc = {"dim": 3, "kind": "product", "base": {"dim": 2, "kind": "ball", "center": [0.0, 0.0], "radius": 1.0}, "axis": [0.0, 0.0, 1.0]}
        code, out, err = run(capsys, ["bounds", "--shape", shape_file(tmp_path, doc)])
        assert code == 2
        assert err.startswith("input error:")

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["bounds", "--shape", str(path)])
        assert code == 2 and "input error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["bounds", "--shape", "/nonexistent/shape.json"])
        assert code == 2 and "input error" in err

    def test_sample_floor(self, tmp_path, capsys):
        path = shape_file(tmp_path, BALL3)
        code, _, err = run(capsys, ["bounds", "--shape", path, "--samples", "999"])
        assert code == 2 and "input error" in err

    @pytest.mark.parametrize("depth, expected", [(20, 0), (400, 0), (5000, 2)])
    def test_deeply_nested_shape_is_an_input_error(self, tmp_path, capsys, depth, expected):
        path = tmp_path / "deep.json"
        path.write_text(
            '{"dim": 3, "kind": "union", "members": [' * depth + json.dumps(BALL3) + "]}" * depth
        )
        code, _, err = run(capsys, ["bounds", "--shape", str(path), "--samples", "1000"])
        assert code == expected, err
        if expected:
            assert err.startswith("input error:")

    def test_recursion_past_loading_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        def too_deep(doc):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "shape_from_json", too_deep)
        code, out, err = run(capsys, ["bounds", "--shape", shape_file(tmp_path, BALL3)])
        assert code == 2 and out == ""
        assert err == "input error: maximum recursion depth exceeded\n"


class TestPlank:
    def test_square_width(self, tmp_path, capsys):
        report = run_json(capsys, ["plank", "--shape", shape_file(tmp_path, SQUARE2)])
        assert report["result"]["width"] == pytest.approx(1.0, abs=1e-12)
        assert "calipers" in report["result"]["method"]

    def test_triangle_width(self, tmp_path, capsys):
        report = run_json(capsys, ["plank", "--shape", shape_file(tmp_path, TRIANGLE2)])
        assert report["result"]["width"] == pytest.approx(
            math.sqrt(3.0) / 2.0, abs=1e-9
        )

    def test_wrong_dimension_exits_2(self, capsys):
        code, _, err = run(capsys, ["plank", "--shape", "tetrahedron"])
        assert code == 2 and "input error" in err

    def test_segment_exits_2(self, tmp_path, capsys):
        doc = {"dim": 1, "kind": "cuboid", "center": [0.5], "half_lengths": [0.5]}
        code, _, err = run(capsys, ["plank", "--shape", shape_file(tmp_path, doc)])
        assert code == 2 and "input error" in err

    def test_collinear_vertices_exit_2(self, tmp_path, capsys):
        doc = {
            "dim": 2,
            "kind": "polytope",
            "vertices": [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],
        }
        code, _, err = run(capsys, ["plank", "--shape", shape_file(tmp_path, doc)])
        assert code == 2 and "input error" in err


class TestCover:
    def test_parallel_grid_on_cube(self, tmp_path, capsys):
        path = shape_file(tmp_path, CUBE3)
        report = run_json(
            capsys,
            ["cover", "--shape", path, "--parallel", "0,0,1", "1/4", "--samples", "50000"],
        )
        result = report["result"]
        assert result["source"] == "parallel"
        assert result["tubes"] == 16
        assert result["cost"] == 1.0
        assert result["covered"] is True
        assert result["worst_point"] is None
        assert result["shadow_area"] == pytest.approx(1.0, abs=1e-12)
        assert result["slack"] == pytest.approx(0.0, abs=1e-12)
        assert len(result["cover"]) == 16

    def test_emitted_cover_reloads(self, tmp_path, capsys):
        path = shape_file(tmp_path, CUBE3)
        report = run_json(
            capsys,
            ["cover", "--shape", path, "--parallel", "0,0,1", "1/4", "--samples", "50000"],
        )
        cover_path = tmp_path / "cover.json"
        cover_path.write_text(json.dumps(report["result"]["cover"]))
        second = run_json(
            capsys,
            ["cover", "--shape", path, "--cover", str(cover_path), "--samples", "50000"],
        )
        result = second["result"]
        assert result["source"] == "file"
        assert result["cost"] == 1.0
        assert result["covered"] is True
        assert "cover" not in result  # file input is not echoed back

    def test_insufficient_cover_reports_witness(self, tmp_path, capsys):
        ball_path = shape_file(tmp_path, BALL3)
        thin = [
            {
                "kind": "round",
                "point": [0.0, 0.0, 0.0],
                "axis": [0.0, 0.0, 1.0],
                "r": 0.25,
            }
        ]
        cover_path = tmp_path / "thin.json"
        cover_path.write_text(json.dumps(thin))
        report = run_json(
            capsys,
            ["cover", "--shape", ball_path, "--cover", str(cover_path), "--samples", "20000"],
        )
        result = report["result"]
        assert result["covered"] is False
        witness = np.array(result["worst_point"])
        assert np.linalg.norm(witness) <= 1.0 + 1e-9

    def test_search_on_cloud(self, tmp_path, capsys):
        path = shape_file(tmp_path, CLOUD3)
        report = run_json(capsys, ["cover", "--shape", path, "--search"])
        result = report["result"]
        assert result["source"] == "search"
        assert result["covered"] is True
        # three collinear points admit a near-free tube
        assert result["cost"] < 1e-12

    @pytest.mark.parametrize("step", ["1e-300", "1/100000000000000000000"])
    def test_tiny_grid_step_is_refused(self, capsys, step):
        code, out, err = run(
            capsys, ["cover", "--shape", "tetrahedron", "--parallel", "0,0,1", step]
        )
        assert code == 2 and out == ""
        assert "choose a coarser grid" in err

    @pytest.mark.parametrize("exponent", [400, 200])
    def test_huge_square_tube_is_an_input_error(self, tmp_path, capsys, exponent):
        # 10**400 has no float; 10**200 has one, but its cost (2 delta)^2 has none
        square = {
            "kind": "square",
            "anchor": [0.0, 0.0, 0.0],
            "frame": {"axis": [0.0, 0.0, 1.0], "cross": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
            "delta": {"num": 10 ** exponent, "den": 1},
        }
        cover_path = tmp_path / "huge.json"
        cover_path.write_text(json.dumps([square]))
        code, out, err = run(
            capsys, ["cover", "--shape", "tetrahedron", "--cover", str(cover_path)]
        )
        assert code == 2 and out == ""
        assert err.startswith("input error:") and "too large" in err

    def test_huge_round_tube_is_an_input_error(self, tmp_path, capsys):
        # the radius has a float, but its cost gamma_2 r^2 has none
        thick = {"kind": "round", "point": [0.0, 0.0, 0.0], "axis": [0.0, 0.0, 1.0], "r": 1e200}
        cover_path = tmp_path / "huge.json"
        cover_path.write_text(json.dumps([thick]))
        code, out, err = run(
            capsys, ["cover", "--shape", "tetrahedron", "--cover", str(cover_path)]
        )
        assert code == 2 and out == ""
        assert err.startswith("input error:") and "too large" in err

    def test_mode_is_required(self, tmp_path, capsys):
        path = shape_file(tmp_path, CUBE3)
        code, _, err = run(capsys, ["cover", "--shape", path])
        assert code == 2 and "input error" in err


class TestPack:
    def test_disk_depth_two(self, capsys):
        report = run_json(capsys, ["pack", "--dim", "2", "--depth", "2"])
        result = report["result"]
        assert result["depth_counts"] == {"2": 4}
        assert result["n_squares"] == 4
        assert result["covered_fraction"] == pytest.approx(1.0 / math.pi, abs=1e-12)
        centers = set()
        for sq in result["squares"]:
            assert sq["half_width"] == {"num": 1, "den": 4}
            centers.add(tuple((c["num"], c["den"]) for c in sq["center"]))
        assert centers == {
            ((1, 4), (1, 4)),
            ((1, 4), (-1, 4)),
            ((-1, 4), (1, 4)),
            ((-1, 4), (-1, 4)),
        }

    def test_depth_out_of_range(self, capsys):
        code, _, err = run(capsys, ["pack", "--dim", "2", "--depth", "25"])
        assert code == 2 and "input error" in err

    def test_infeasible_combination(self, capsys):
        code, _, err = run(capsys, ["pack", "--dim", "7", "--depth", "8"])
        assert code == 2 and "input error" in err


class TestRefine:
    def test_stated_example(self, capsys):
        report = run_json(capsys, ["refine", "--widths", "3/4", "5/6"])
        result = report["result"]
        assert result["delta"] == {"num": 1, "den": 12}
        assert result["count_a"] == 9 and result["count_b"] == 10

    def test_bad_rational(self, capsys):
        code, _, err = run(capsys, ["refine", "--widths", "3/4", "abc"])
        assert code == 2 and "input error" in err

    def test_zero_width(self, capsys):
        code, _, err = run(capsys, ["refine", "--widths", "0", "1/2"])
        assert code == 2 and "input error" in err


class TestProof:
    def test_planar_walkthrough(self, capsys):
        report = run_json(capsys, ["proof", "--dim", "2", "--depth", "4"])
        result = report["result"]
        assert result["all_passed"] is True
        assert [s["name"] for s in result["steps"]][0] == "subdivide_tubes"
        assert result["steps"][-1]["name"] == "final_inequality"
        assert result["steps"][-1]["outputs"]["rhs"] > 1.0

    def test_byte_identical_repeat(self, capsys):
        code1, out1, _ = run(capsys, ["proof", "--dim", "3", "--depth", "5", "--seed", "11"])
        code2, out2, _ = run(capsys, ["proof", "--dim", "3", "--depth", "5", "--seed", "11"])
        assert code1 == 0 and code2 == 0
        assert out1 == out2

    def test_dimension_cap(self, capsys):
        code, out, err = run(capsys, ["proof", "--dim", "9", "--depth", "3"])
        assert code == 2
        assert out == ""
        assert err.startswith("input error:")

    def test_depth_guard(self, capsys):
        # too deep to fit in memory, or too shallow for any dyadic cell to
        # fit inside the ball (4^(depth-1) < n-1)
        for dim, depth in (("5", "9"), ("3", "1"), ("6", "2"), ("8", "2")):
            code, _, err = run(capsys, ["proof", "--dim", dim, "--depth", depth])
            assert code == 2 and "input error" in err, f"--dim {dim} --depth {depth}"

    def test_shallowest_fitting_depths_pass(self, capsys):
        # the cell (1,1,1,1) / 2 touches the unit sphere, so n = 5 fits at depth 2
        for dim, depth in (("5", "2"), ("2", "1")):
            report = run_json(capsys, ["proof", "--dim", dim, "--depth", depth])
            assert report["result"]["all_passed"] is True
        # pack takes the cross-section dimension m = n-1 of the depths proof
        # rejects, and an empty packing is a correct answer
        for m, depth in (("2", "1"), ("5", "2"), ("7", "2")):
            result = run_json(capsys, ["pack", "--dim", m, "--depth", depth])["result"]
            assert result["n_squares"] == 0

    def test_csv_format_parses(self, capsys):
        code, out, _ = run(
            capsys, ["proof", "--dim", "2", "--depth", "3", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["key", "value"]
        keys = {row[0] for row in rows[1:]}
        assert "command" in keys
        assert "result.all_passed" in keys
        assert any(k.startswith("result.steps[0].") for k in keys)


class TestConfigEcho:
    def test_tolerances_echoed(self, tmp_path, capsys):
        path = shape_file(tmp_path, BALL3)
        report = run_json(capsys, ["bounds", "--shape", path, "--samples", "2000"])
        tol = report["config"]["tolerances"]
        assert tol == {
            "contains": 1e-9,
            "frame_orthonormality": 1e-10,
            "algebraic_agreement": 1e-12,
        }

    @pytest.mark.parametrize(
        "argv, options",
        [
            (["bounds", "--shape", "tetrahedron", "--samples", "2000"],
             ["seed", "mc_samples", "grid_points"]),
            (["plank", "--shape", "SQUARE2"], []),
            (["cover", "--shape", "tetrahedron", "--parallel", "0,0,1", "1/4"],
             ["seed", "mc_samples"]),
            (["pack", "--dim", "2", "--depth", "2"], []),
            (["refine", "--widths", "3/4", "5/6"], []),
            (["proof", "--dim", "2", "--depth", "3"], ["seed"]),
        ],
    )
    def test_echo_lists_only_accepted_options(self, tmp_path, capsys, argv, options):
        argv = [shape_file(tmp_path, SQUARE2) if a == "SQUARE2" else a for a in argv]
        config = run_json(capsys, argv)["config"]
        assert list(config) == [*options, "tolerances", "output_format"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["plank", "--shape", "tetrahedron", "--seed", "1"],
            ["pack", "--dim", "2", "--depth", "2", "--samples", "5000"],
            ["refine", "--widths", "3/4", "5/6", "--seed", "1"],
            ["proof", "--dim", "2", "--depth", "3", "--samples", "5000"],
            ["cover", "--shape", "tetrahedron", "--search", "--budget", "64"],
        ],
    )
    def test_options_nothing_reads_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_tolerances_are_the_compared_constants(self, capsys):
        report = run_json(capsys, ["refine", "--widths", "3/4", "5/6"])
        assert report["config"]["tolerances"] == {
            "contains": CONTAINS_TOL,
            "frame_orthonormality": FRAME_ORTHO_TOL,
            "algebraic_agreement": AGREEMENT_TOL,
        }


def test_import_leaves_out_heavy_scipy_modules():
    # the command line must not pay for scipy.optimize or scipy.stats
    probe = (
        "import sys, tubemeasure.cli; "
        "print([m for m in ('scipy.optimize', 'scipy.stats') if m in sys.modules])"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
