import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tubemeasure import cli, cover_from_json
from tubemeasure import proof as proof_module
from tubemeasure.cli import main
from tubemeasure.covers import parallel_cover_from_projection
from tubemeasure.errors import InvariantError, NoWitnessError
from tubemeasure.geometry import CONTAINS_TOL, FRAME_ORTHO_TOL, regular_tetrahedron
from tubemeasure.proof import ball_square_packing
from tubemeasure.serialization import Listing, cover_to_json

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
        result = report["result"]
        assert result["upper"] == pytest.approx(math.pi, abs=1e-12)
        assert result["lower"] == pytest.approx(2 * math.pi / 3, abs=1e-12)
        assert len(result["witness_direction"]) == 3

    def test_builtin_tetrahedron(self, capsys):
        report = run_json(
            capsys,
            ["bounds", "--shape", "tetrahedron", "--samples", "2000"],
        )
        result = report["result"]
        assert 0.0 < result["lower"] <= result["upper"]

    def test_product_shape_rejected(self, tmp_path, capsys):
        doc = {"dim": 3, "kind": "product", "base": {"dim": 2, "kind": "ball", "center": [0.0, 0.0], "radius": 1.0}, "axis": [0.0, 0.0, 1.0]}
        code, out, err = run(capsys, ["bounds", "--shape", shape_file(tmp_path, doc)])
        assert code == 2
        assert err.startswith("input error:")

    @pytest.mark.parametrize("in_union", [False, True], ids=["bare", "in a union"])
    @pytest.mark.parametrize("how", [["bounds"], ["cover", "--search"], ["cover", "--parallel", "0,0,1", "1/4"],
                                     ["cover", "--cover", "round.json"], ["plank"]],
                             ids=["bounds", "cover --search", "cover --parallel", "cover --cover", "plank"])
    def test_every_bounded_command_refuses_a_product_the_same_way(self, tmp_path, capsys, monkeypatch, how, in_union):
        monkeypatch.chdir(tmp_path)
        shape_file(tmp_path, [{"kind": "round", "point": [0, 0, 0], "axis": [0, 0, 1], "r": 0.5}], "round.json")
        if how == ["plank"]:
            n, base = 2, {"dim": 1, "kind": "cuboid", "center": [0.0], "half_lengths": [0.5]}
        else:
            n, base = 3, {"dim": 2, "kind": "ball", "center": [0.0, 0.0], "radius": 1.0}
        doc = {"dim": n, "kind": "product", "base": base, "axis": [0.0] * (n - 1) + [1.0]}
        if in_union:
            ball = {"dim": n, "kind": "ball", "center": [0.0] * n, "radius": 1.0}
            doc = {"dim": n, "kind": "union", "members": [ball, doc]}
        argv = [how[0], "--shape", shape_file(tmp_path, doc), *how[1:]]
        assert run(capsys, argv) == (2, "", "input error: product set is unbounded along its axis\n")

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

    def test_one_point_cloud_has_zero_lower_bound(self, tmp_path, capsys):
        doc = {"dim": 3, "kind": "cloud", "points": [[0.5, -1.0, 2.0]]}
        result = run_json(capsys, ["bounds", "--shape", shape_file(tmp_path, doc)])["result"]
        assert result["lower"] == 0.0 and result["lower_std_error"] == 0.0
        assert "lower: degenerate shape, 0" in result["method"]

    def test_recursion_past_loading_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        def too_deep(doc):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "shape_from_json", too_deep)
        code, out, err = run(capsys, ["bounds", "--shape", shape_file(tmp_path, BALL3)])
        assert code == 2 and out == ""
        assert err == "input error: maximum recursion depth exceeded\n"

    @pytest.mark.parametrize(
        "doc, command",
        [
            # the volume is inf, the diameter too: the report read NaN and Infinity
            (dict(CUBE3, half_lengths=[1e200] * 3), ["bounds"]),
            # gamma_2 r^2 raised OverflowError in the ball's Cauchy terms
            (dict(BALL3, radius=1e200), ["bounds"]),
            (dict(BALL3, radius=1e200), ["cover", "--search"]),
            # the shadow pi r^2 is a float, the volume 4/3 pi r^3 is not
            (dict(BALL3, radius=1e120), ["bounds"]),
        ],
        ids=["cuboid-bounds", "ball-bounds", "ball-search", "ball-volume-only"],
    )
    def test_shape_whose_measures_overflow_is_an_input_error(self, tmp_path, capsys, doc, command):
        argv = [command[0], "--shape", shape_file(tmp_path, doc), *command[1:]]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("input error:") and "too large" in err and "overflows a float" in err


    def test_coordinates_whose_squares_overflow_give_a_finite_lower(self, tmp_path, capsys):
        # the diameter squared differences near 1e160: an overflow warning, and "lower": 0.0
        doc = {"dim": 2, "kind": "cuboid", "center": [0.0, 0.0],
               "frame": {"axis": [0.0, 1.0], "cross": [[1.0, 0.0]]}, "half_lengths": [1e160, 1e-160]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["bounds", "--shape", shape_file(tmp_path, doc)])
        assert code == 0 and err == ""
        lower = json.loads(out)["result"]["lower"]
        assert math.isfinite(lower) and lower > 0.0


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

    def test_disk_width_is_closed_form(self, tmp_path, capsys):
        disk = {"dim": 2, "kind": "ball", "center": [0.5, -1.0], "radius": 0.75}
        result = run_json(capsys, ["plank", "--shape", shape_file(tmp_path, disk)])["result"]
        assert result["width"] == 1.5
        assert result["method"] == "closed form"

    def test_rectangle_cuboid_width(self, tmp_path, capsys):
        # the 1 x 2 rectangle as a cuboid, whose upper bound bounds reports as 1.0
        rect = {"dim": 2, "kind": "cuboid", "center": [0.0, 0.0], "half_lengths": [0.5, 1.0],
                "frame": {"axis": [0.0, 1.0], "cross": [[1.0, 0.0]]}}
        path = shape_file(tmp_path, rect)
        result = run_json(capsys, ["plank", "--shape", path])["result"]
        assert result["width"] == 1.0 == run_json(capsys, ["bounds", "--shape", path])["result"]["upper"]
        assert result["method"] == "closed form"

    def test_one_member_union_reads_its_member(self, tmp_path, capsys):
        disk = {"dim": 2, "kind": "ball", "center": [0.5, -1.0], "radius": 0.75}
        union = {"dim": 2, "kind": "union", "members": [disk]}
        result = run_json(capsys, ["plank", "--shape", shape_file(tmp_path, union)])["result"]
        assert result["width"] == 1.5
        assert result["method"] == "closed form"
        union["members"] = [SQUARE2]
        result = run_json(capsys, ["plank", "--shape", shape_file(tmp_path, union)])["result"]
        assert result["width"] == pytest.approx(1.0, abs=1e-12)
        assert "calipers" in result["method"]

    def test_two_member_union_exits_2(self, tmp_path, capsys):
        disk = {"dim": 2, "kind": "ball", "center": [0.0, 0.0], "radius": 0.5}
        union = {"dim": 2, "kind": "union", "members": [disk, SQUARE2]}
        code, _, err = run(capsys, ["plank", "--shape", shape_file(tmp_path, union)])
        assert code == 2 and "input error" in err

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
        assert result["check"] == "lattice certificate"
        assert result["shadow_area"] == pytest.approx(1.0, abs=1e-12)
        assert result["slack"] == pytest.approx(0.0, abs=1e-12)
        assert len(result["cover"]) == 16

    @pytest.mark.parametrize("how, hulls", [(["--parallel", "0.3,0.5,0.8", "1/32"], 2), (["--search"], 2)])
    def test_a_built_cover_projects_its_hull_once(self, how, hulls, capsys, monkeypatch):
        # the tetrahedron's own hull and one hull of its shadow, which the
        # shadow area and the lattice certificate reuse
        from tubemeasure import geometry, projection

        built = []

        def counted(points, hull=geometry.ConvexHull):
            built.append(len(points))
            return hull(points)

        monkeypatch.setattr(geometry, "ConvexHull", counted)
        monkeypatch.setattr(projection, "ConvexHull", counted)
        result = run_json(capsys, ["cover", "--shape", "tetrahedron", *how])["result"]
        assert result["check"] == "lattice certificate"
        assert len(built) == hulls

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
        assert result["check"] == "sampled 20000 points"
        witness = np.array(result["worst_point"])
        assert np.linalg.norm(witness) <= 1.0 + 1e-9

    def test_projection_covers_recheck_and_miss_a_dropped_tube(self, tmp_path, capsys):
        # a rotated 4-D cuboid and a 5-D polytope: each cover built by
        # --parallel reads back certified; without its tube nearest the
        # shape's centre the certificate is refused, the sampler finds the
        # gap, and the witness lies in that tube
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        box = {"dim": 4, "kind": "cuboid", "center": [0.1, -0.2, 0.3, 0.0],
               "frame": {"axis": q[3].tolist(), "cross": q[:3].tolist()},
               "half_lengths": [0.5, 0.6, 0.7, 0.8]}
        v = rng.standard_normal((12, 5))
        poly = {"dim": 5, "kind": "polytope", "vertices": (v / np.linalg.norm(v, axis=1)[:, None]).tolist()}
        for doc, direction, step, centre in (
            (box, "0.3,-0.5,0.6,0.55", "1/5", box["center"]),
            (poly, "0.5,0.1,-0.4,0.7,0.3", "1/3", np.mean(poly["vertices"], axis=0)),
        ):
            path = shape_file(tmp_path, doc, f"shape{doc['dim']}.json")
            check = ["cover", "--shape", path, "--samples", "20000"]
            built = run_json(capsys, check + ["--parallel", direction, step])["result"]
            assert built["covered"] is True and built["tubes"] > 100
            assert built["check"] == "lattice certificate"
            cover = built["cover"]
            cover_path = tmp_path / "cover.json"
            cover_path.write_text(json.dumps(cover))
            reread = run_json(capsys, check + ["--cover", str(cover_path)])["result"]
            assert reread["covered"] is True and reread["check"] == "lattice certificate"
            (grid,) = cover_from_json(cover).tubes
            assert len(grid) == len(cover)
            drop = int(np.argmin(np.abs((centre - grid.anchors) @ grid.frame.cross.T).max(axis=1)))
            cover_path.write_text(json.dumps(cover[:drop] + cover[drop + 1:]))
            missed = run_json(capsys, check + ["--cover", str(cover_path)])["result"]
            assert missed["covered"] is False and missed["check"] == "sampled 20000 points"
            tube = cover_from_json([cover[drop]]).tubes[0]
            assert tube.contains(np.array([missed["worst_point"]]))[0]

    def test_search_on_cloud(self, tmp_path, capsys):
        path = shape_file(tmp_path, CLOUD3)
        report = run_json(capsys, ["cover", "--shape", path, "--search"])
        result = report["result"]
        assert result["source"] == "search"
        assert result["covered"] is True and result["check"] == "cloud points"
        # three collinear points admit a near-free tube
        assert result["cost"] < 1e-12

    def test_search_past_the_grid_guard(self, tmp_path, capsys):
        # diam / 16 splits the shadow of a unit ball in R^7 into 16^6 cells
        ball7 = {"dim": 7, "kind": "ball", "center": [0.0] * 7, "radius": 1.0}
        code, out, err = run(capsys, ["cover", "--shape", shape_file(tmp_path, ball7), "--search"])
        assert code == 2 and out == ""
        for part in ("diam/16 = 0.125", "MAX_GRID_CELLS = 2000000", "--parallel DIRECTION STEP"):
            assert part in err
        # a cloud falls back to tubes through its points
        points = np.random.default_rng(5).uniform(0.0, 1.0, (6, 8)).tolist()
        cloud8 = shape_file(tmp_path, {"dim": 8, "kind": "cloud", "points": points}, "cloud.json")
        result = run_json(capsys, ["cover", "--shape", cloud8, "--search"])["result"]
        assert result["tubes"] == 3 and result["covered"] is True and result["check"] == "cloud points"

    @pytest.mark.parametrize("step", ["1e-300", "1/100000000000000000000"])
    def test_tiny_grid_step_is_refused(self, capsys, step):
        code, out, err = run(
            capsys, ["cover", "--shape", "tetrahedron", "--parallel", "0,0,1", step]
        )
        assert code == 2 and out == ""
        assert "choose a coarser grid" in err

    def test_grid_step_without_a_float_is_refused(self, capsys):
        # float(Fraction("1e400")) raised OverflowError, with a traceback and exit 1
        code, out, err = run(
            capsys, ["cover", "--shape", "tetrahedron", "--parallel", "0,0,1", "1e400"]
        )
        assert code == 2 and out == ""
        assert err == "input error: grid step 1e400 overflows a float\n"

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

    def test_total_cost_overflow_is_an_input_error(self, tmp_path, capsys):
        # each tube's cost (2 delta)^2 = 1.44e308 is a float, their sum is not
        square = {
            "kind": "square",
            "anchor": [0.0, 0.0, 0.0],
            "frame": {"axis": [0.0, 0.0, 1.0], "cross": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
            "delta": {"num": 6 * 10 ** 153, "den": 1},
        }
        cover_path = tmp_path / "costly.json"
        cover_path.write_text(json.dumps([square, dict(square, anchor=[1.0, 0.0, 0.0])]))
        code, out, err = run(
            capsys, ["cover", "--shape", "tetrahedron", "--cover", str(cover_path)]
        )
        assert code == 2 and out == ""
        assert err.startswith("input error:") and "overflows a float" in err

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

    @pytest.mark.parametrize(
        "direction, message",
        [("x,1,0", "comma-separated numbers"), ("1", "at least two components")],
    )
    def test_bad_direction_is_an_input_error(self, capsys, direction, message):
        argv = ["cover", "--shape", "tetrahedron", "--parallel", direction, "1/4"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("input error:") and message in err

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

    def test_failed_step_prints_the_partial_report(self, capsys, monkeypatch):
        def missing(*args):
            raise NoWitnessError("synthetic shares kept missing the mass precondition")

        monkeypatch.setattr(proof_module, "_stream_pigeonhole", missing)
        code, out, err = run(capsys, ["proof", "--dim", "3", "--depth", "4"])
        assert code == 1
        report = json.loads(out)
        assert report["command"] == "proof" and report["result"]["all_passed"] is False
        last = report["result"]["steps"][-1]
        assert last["name"] == "select_square_tube" and last["passed"] is False
        assert err == (
            "step 'select_square_tube' failed: "
            "synthetic shares kept missing the mass precondition\n"
        )

    def test_invariant_failure_exits_1(self, capsys, monkeypatch):
        def disagree(params):
            raise InvariantError("final inequality forms disagree")

        monkeypatch.setattr(proof_module, "contradiction_check", disagree)
        code, out, err = run(capsys, ["proof", "--dim", "3", "--depth", "4"])
        assert code == 1 and out == ""
        assert err == "failure: final inequality forms disagree\n"

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
        assert tol == {"contains": 1e-9, "frame_orthonormality": 1e-10}
        report = run_json(capsys, ["proof", "--dim", "2", "--depth", "3"])
        assert report["config"]["tolerances"] == {"frame_orthonormality": 1e-10}

    @pytest.mark.parametrize(
        "argv, options",
        [
            (["bounds", "--shape", "tetrahedron", "--samples", "2000"],
             ["seed", "mc_samples"]),
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
            ["bounds", "--shape", "tetrahedron", "--grid-points", "128"],
        ],
    )
    def test_options_nothing_reads_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_tolerances_are_the_compared_constants(self, tmp_path, capsys):
        # refine and pack compare no tolerance; plank and proof test no
        # membership against a hull; bounds and cover compare both
        for argv in (["refine", "--widths", "3/4", "5/6"], ["pack", "--dim", "2", "--depth", "2"]):
            assert run_json(capsys, argv)["config"]["tolerances"] == {}
        for argv in (["plank", "--shape", shape_file(tmp_path, SQUARE2)], ["proof", "--dim", "2", "--depth", "3"]):
            assert run_json(capsys, argv)["config"]["tolerances"] == {"frame_orthonormality": FRAME_ORTHO_TOL}
        for argv in (["bounds", "--shape", "tetrahedron", "--samples", "2000"],
                     ["cover", "--shape", "tetrahedron", "--parallel", "0,0,1", "1/4"]):
            assert run_json(capsys, argv)["config"]["tolerances"] == {
                "contains": CONTAINS_TOL,
                "frame_orthonormality": FRAME_ORTHO_TOL,
            }


class TestReportLayout:
    """A report is json.dumps(report, indent=2) plus a newline, whether it is
    short or long, and --format csv flattens the same report."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--shape", "tetrahedron", "--samples", "2000"],
            ["plank", "--shape", "SQUARE2"],
            ["cover", "--shape", "tetrahedron", "--parallel", "0,0,1", "1/8", "--samples", "2000"],
            ["cover", "--shape", "CLOUD3", "--search"],
            ["cover", "--shape", "tetrahedron", "--cover", "COVER", "--samples", "2000"],
            ["pack", "--dim", "2", "--depth", "6", "--radius", "0.7"],
            ["refine", "--widths", "3/4", "5/6"],
            ["proof", "--dim", "3", "--depth", "4"],
        ],
        ids=lambda argv: " ".join(argv[:4]),
    )
    def test_indent2_layout_and_csv(self, tmp_path, capsys, argv):
        files = {
            "SQUARE2": shape_file(tmp_path, SQUARE2, "square.json"),
            "CLOUD3": shape_file(tmp_path, CLOUD3, "cloud.json"),
            "COVER": shape_file(
                tmp_path,
                [{"kind": "round", "point": [0.0, 0.0, 0.0], "axis": [0.0, 0.0, 1.0], "r": 2.0}],
                "cover.json",
            ),
        }
        argv = [files.get(a, a) for a in argv]
        code, out, err = run(capsys, argv)
        assert code == 0, err
        report = json.loads(out)
        same = out == json.dumps(report, indent=2) + "\n"  # a bool, not pytest's diff of a megabyte
        assert same
        code, csv_out, err = run(capsys, [*argv, "--format", "csv"])
        assert code == 0, err
        report["config"]["output_format"] = "csv"
        same = csv_out == cli._emit(report, "csv")
        assert same

    @pytest.mark.parametrize(
        "argv",
        [
            ["pack", "--dim", "3", "--depth", "4", "--radius", "0.7"],
            ["cover", "--shape", "tetrahedron", "--parallel", "0,0,1", "1/8", "--samples", "2000"],
        ],
        ids=["pack", "cover"],
    )
    def test_csv_flattens_the_expanded_listing(self, capsys, monkeypatch, argv):
        # the listing reaches the CSV writer as plain lists, never as a Listing
        flatten, seen = cli._flatten, []

        def spy(obj, prefix=""):
            seen.append(obj)
            return flatten(obj, prefix)

        _, out, _ = run(capsys, argv)
        expanded = json.loads(out)
        expanded["config"]["output_format"] = "csv"
        if argv[0] == "pack":
            expanded["result"] = ball_square_packing(3, 0.7, 4).to_dict()
        else:
            tetrahedron, d = regular_tetrahedron(), np.array([0.0, 0.0, 1.0])
            expanded["result"]["cover"] = cover_to_json(parallel_cover_from_projection(tetrahedron, d, 1 / 8))
        monkeypatch.setattr(cli, "_flatten", spy)
        code, csv_out, err = run(capsys, [*argv, "--format", "csv"])
        assert code == 0, err
        assert seen and not any(isinstance(obj, Listing) for obj in seen)
        rows = io.StringIO()
        csv.writer(rows, lineterminator="\n").writerows([("key", "value"), *flatten(expanded)])
        assert csv_out == rows.getvalue()

    def test_csv_bytes(self, capsys):
        _, out, _ = run(capsys, ["refine", "--widths", "3/4", "5/6", "--format", "csv"])
        assert out == (
            "key,value\n"
            "command,refine\n"
            "config.output_format,csv\n"
            "result.width_a.num,3\nresult.width_a.den,4\n"
            "result.width_b.num,5\nresult.width_b.den,6\n"
            "result.delta.num,1\nresult.delta.den,12\n"
            "result.count_a,9\nresult.count_b,10\n"
        )


def test_two_calls_build_one_parser(capsys, monkeypatch):
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting)
    for argv in (["refine", "--widths", "3/4", "5/6"], ["pack", "--dim", "2", "--depth", "3"]):
        run_json(capsys, argv)
    # none when an earlier call in this process built them, else each parser once
    assert built.count("tubemeasure") <= 1 and len(built) == len(set(built))


def test_module_entry_point_runs():
    # the console script's check, through ``python -m tubemeasure``
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-m", "tubemeasure", "refine", "--widths", "3/4", "5/6"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["result"]["delta"] == {"num": 1, "den": 12}


def test_import_leaves_out_heavy_scipy_modules():
    # the command line must not pay for scipy.optimize or scipy.stats, and
    # scipy.spatial and scipy.special load only when a hull or a distance
    # matrix is needed, which a walkthrough never is
    probe = "\n".join([
        "import contextlib, io, sys",
        "import tubemeasure.cli",
        "heavy = ('scipy.optimize', 'scipy.stats', 'scipy.spatial', 'scipy.special')",
        "after_import = [m for m in heavy if m in sys.modules]",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = tubemeasure.cli.main(['proof', '--dim', '3', '--depth', '4'])",
        "print(code, after_import, [m for m in heavy if m in sys.modules])",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0 [] []"
