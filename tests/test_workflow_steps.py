"""Tier-1 twins of the CI workflow steps that no other test repeats.

Each test runs the commands of one named step of
``.github/workflows/tests.yml`` through ``tubemeasure.cli.main`` (the
benchmark self-tests through a subprocess) and checks what the step
checks.
"""

import importlib
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tubemeasure.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out, json.loads(captured.out)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_benchmark_oracle_and_checker_self_tests():
    # step "Benchmark oracle and checker self-tests"
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr


@pytest.mark.parametrize("name", ["bounds", "covers", "proof"])
def test_each_benchmark_workload_runs_and_passes_its_checks(name, tmp_path, monkeypatch, capsys):
    # step "Each benchmark workload runs and passes its checks": one untimed
    # round at seed 1, run and checked as bench/run.py and bench/worker.py do
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads, checks = importlib.import_module("workloads"), importlib.import_module("checks")
    monkeypatch.chdir(tmp_path)
    results = []
    for i, op in enumerate(workloads.build(name, 1, tmp_path / "work", tmp_path)):
        _, report = run_json(capsys, op["argv"])
        results.append(report["result"])
        save = op["facts"].get("save_cover")
        if save:
            Path(save).write_text(json.dumps(report["result"]["cover"]))
        context = {"rng": np.random.default_rng([1, 7, i]), "argv": op["argv"], "results": results}
        status, message, _ = checks.check(op, results[-1], context)
        assert status == "ok", (op["argv"], message)


# one cover command under the benchmark's tracer, in a fresh interpreter,
# since installing the tracer rebinds the package's functions for good
TRACED_COVER = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
from tracing import Tracer
from tubemeasure import cli
tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["cover", "--shape", "tetrahedron", "--search"])
print(json.dumps([code, tracer.inclusive_s["covers.cover_check"], tracer.counts["covers.searches"]]))
"""


def test_a_traced_cover_run_shows_its_covers_layer():
    # step "A traced cover run shows its covers layer": the tracer wraps
    # public functions only, so the cover command must call them
    out = subprocess.run(
        [sys.executable, "-c", TRACED_COVER, str(ROOT / "src"), str(ROOT / "bench")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    code, check_s, searches = json.loads(out.stdout)
    assert code == 0
    assert check_s > 0
    assert searches == 1


CLOUD = {"dim": 3, "kind": "cloud",
         "points": [[1.2, 1.2, 0.1], [-0.9, -1.8, -0.5], [-0.4, -1.8, -1.8], [2.0, 0.6, -1.1]]}


@pytest.mark.parametrize(
    "argv",
    [
        ["pack", "--dim", "2", "--depth", "10", "--radius", "0.7"],
        ["pack", "--dim", "5", "--depth", "3"],
        ["pack", "--dim", "2", "--depth", "1"],
        ["cover", "--shape", "tetrahedron", "--parallel", "0,0,1", "1/32"],
        ["cover", "--shape", "CLOUD", "--search"],
    ],
    ids=["pack", "pack_depths", "pack_empty", "cover", "round"],
)
def test_reports_keep_the_indent2_layout(tmp_path, capsys, argv):
    # step "Reports keep the indent=2 layout"
    argv = [write(tmp_path, "cloud.json", CLOUD) if a == "CLOUD" else a for a in argv]
    out, report = run_json(capsys, argv)
    same = out == json.dumps(report, indent=2) + "\n"  # a bool, not pytest's diff of a megabyte
    assert same


def test_saved_grid_cover_rechecks_from_its_file(tmp_path, capsys):
    # step "Re-check a saved grid cover read back from its file"
    _, built = run_json(capsys, ["cover", "--shape", "tetrahedron", "--parallel", "0,0,1", "1/64"])
    grid = write(tmp_path, "grid.json", built["result"]["cover"])
    _, reread = run_json(capsys, ["cover", "--shape", "tetrahedron", "--cover", grid])
    for report in (built, reread):
        assert report["result"]["covered"] is True
        assert report["result"]["check"] == "lattice certificate"
    assert reread["result"]["tubes"] == built["result"]["tubes"]
    assert reread["result"]["cost"] == built["result"]["cost"]


def test_two_ball_union_upper_bound_is_an_exact_shadow_at_the_larger_disk(tmp_path, capsys):
    # step "Two-ball union upper bound is an exact shadow, never below the larger disk"
    for centre, radius in (([1.5, 0, 0], 0.7), ([0, 1.2, 0], 0.5)):
        union = write(tmp_path, "union.json", {"dim": 3, "kind": "union", "members": [
            {"dim": 3, "kind": "ball", "center": [0, 0, 0], "radius": 1.0},
            {"dim": 3, "kind": "ball", "center": centre, "radius": radius}]})
        result = run_json(capsys, ["bounds", "--shape", union, "--seed", "1"])[1]["result"]
        assert result["upper"] == math.pi
        assert "exact" in result["method"] and "floor" in result["method"]


def test_three_separated_unit_balls_are_bounded_by_two_disks(tmp_path, capsys):
    # step "Three separated unit balls are bounded by two disks"
    union = write(tmp_path, "three_balls.json", {"dim": 3, "kind": "union", "members": [
        {"dim": 3, "kind": "ball", "center": centre, "radius": 1.0} for centre in ([0, 0, 0], [5, 0, 0], [0, 5, 0])]})
    result = run_json(capsys, ["bounds", "--shape", union])[1]["result"]
    assert abs(result["upper"] - 2 * math.pi) <= 4 * math.ulp(2 * math.pi)


def test_a_two_ball_union_gets_its_lower_bound_without_sampling(tmp_path, capsys, monkeypatch):
    # step "A two-ball union gets its lower bound without sampling"
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    oracles = importlib.import_module("oracles")
    union = write(tmp_path, "union.json", {"dim": 3, "kind": "union", "members": [
        {"dim": 3, "kind": "ball", "center": [0, 0, 0], "radius": 1.0},
        {"dim": 3, "kind": "ball", "center": [1.5, 0, 0], "radius": 0.7}]})
    r1, r2 = (run_json(capsys, ["bounds", "--shape", union, "--seed", seed])[1]["result"] for seed in ("1", "2"))
    balls = ((0, 0, 0), 1.0, (1.5, 0, 0), 0.7)
    expected = oracles.two_ball_union_volume(*balls) / oracles.two_ball_union_diameter(*balls)
    assert r1 == r2
    assert "(sliced, quadrature error)" in r1["method"]
    assert r1["lower_std_error"] > 0
    assert abs(r1["lower"] - expected) <= 5 * r1["lower_std_error"]


# s of p = 2 s / (k + s^2) and q = (k - s^2) / (k + s^2), k = n - 1
ELLIPSE_S = {2: Fraction(3, 13), 3: Fraction(5, 16), 4: Fraction(2, 5), 5: Fraction(5, 11),
             6: Fraction(1, 2), 7: Fraction(5, 9), 8: Fraction(3, 5)}


@pytest.mark.parametrize("n", sorted(ELLIPSE_S))
def test_the_walkthrough_s_parameters_are_rational_points_of_the_ellipse(capsys, n):
    # step "The walkthrough's parameters are rational points of the ellipse"
    s, k = ELLIPSE_S[n], n - 1
    p, q = 2 * s / (k + s * s), (k - s * s) / (k + s * s)
    assert k * p * p + q * q == 1
    result = run_json(capsys, ["proof", "--dim", str(n), "--depth", "3", "--seed", "0"])[1]["result"]
    steps = {step["name"]: step for step in result["steps"]}
    target = float(q + Fraction(1, 2))
    assert result["all_passed"] is True
    assert steps["choose_parameters"]["outputs"]["p"] == float(p)
    assert abs(steps["final_inequality"]["outputs"]["rhs"] - target) <= 4 * math.ulp(target)


def test_cloud_members_of_a_union_are_covered_and_checked(tmp_path, capsys):
    # step "Cloud members of a union are covered and checked"
    cloud = {"dim": 3, "kind": "cloud",
             "points": [[1.2, 1.2, 0.1], [-0.9, -1.8, -0.5], [-0.4, -1.8, -1.8], [2.0, 0.6, -1.1]]}
    ball_cloud = write(tmp_path, "ball_cloud.json", {"dim": 3, "kind": "union", "members": [
        {"dim": 3, "kind": "ball", "center": [0, 0, 0], "radius": 0.5}, cloud]})
    argv = ["cover", "--shape", ball_cloud, "--parallel", "1.0,-1.6,-0.2", "1/4", "--samples", "20000"]
    _, built = run_json(capsys, argv)
    cover = write(tmp_path, "ball_cloud_cover.json", built["result"]["cover"])
    argv = ["cover", "--shape", write(tmp_path, "cloud.json", cloud), "--cover", cover]
    assert run_json(capsys, argv)[1]["result"]["covered"] is True
    two_clouds = write(tmp_path, "two_clouds.json", {"dim": 3, "kind": "union", "members": [
        {"dim": 3, "kind": "cloud", "points": [[0, 0, 0], [1, 2, 2], [0.5, -1, 0.3]]},
        {"dim": 3, "kind": "cloud", "points": [[2, 0, 1], [-1, 1, 0.5]]}]})
    assert run_json(capsys, ["cover", "--shape", two_clouds, "--search"])[1]["result"]["covered"] is True



def test_frame_off_orthonormal_by_more_than_the_tolerance_is_an_input_error(tmp_path, capsys):
    # step "A frame off orthonormal by more than 1e-10 is an input error"
    s = 1.000001
    path = write(tmp_path, "off_frame.json", {
        "dim": 3, "kind": "cuboid", "center": [0, 0, 0], "half_lengths": [0.5, 0.5, 0.5],
        "frame": {"axis": [0, 0, s], "cross": [[s, 0, 0], [0, s, 0]]}})
    assert main(["bounds", "--shape", path]) == 2
    assert capsys.readouterr().err == "input error: frame rows are not orthonormal\n"
