"""Tier-1 twins of the CI workflow steps that no other test repeats.

Each test runs the commands of one named step of
``.github/workflows/tests.yml`` through ``tubemeasure.cli.main`` (the
benchmark self-tests through a subprocess) and checks what the step
checks.
"""

import importlib
import json
import subprocess
import sys
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


@pytest.mark.parametrize(
    "argv",
    [
        ["pack", "--dim", "2", "--depth", "10", "--radius", "0.7"],
        ["cover", "--shape", "tetrahedron", "--parallel", "0,0,1", "1/32"],
    ],
    ids=["pack", "cover"],
)
def test_reports_keep_the_indent2_layout(capsys, argv):
    # step "Reports keep the indent=2 layout"
    out, report = run_json(capsys, argv)
    assert out == json.dumps(report, indent=2) + "\n"


def test_saved_grid_cover_rechecks_from_its_file(tmp_path, capsys):
    # step "Re-check a saved grid cover read back from its file"
    _, built = run_json(capsys, ["cover", "--shape", "tetrahedron", "--parallel", "0,0,1", "1/64"])
    grid = write(tmp_path, "grid.json", built["result"]["cover"])
    _, reread = run_json(capsys, ["cover", "--shape", "tetrahedron", "--cover", grid])
    for report in (built, reread):
        assert report["result"]["covered"] is True
        assert report["result"]["check"] == "lattice certificate"
    assert reread["result"]["tubes"] == built["result"]["tubes"]


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
