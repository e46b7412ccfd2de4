"""Benchmark of the tubemeasure command line: bounds, covers and the walkthrough.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
      one run of one workload; the last line of output is its JSON result
  python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]
      every workload, each in its own run, with a table of all metrics
  python3 bench/run.py --runs K [--workload NAME] [--seed N] --record FILE
      K runs per workload on seeds N .. N+K-1, results appended to FILE
  python3 bench/run.py --compare OLD [NEW]
      medians, quartiles and bounds of recorded runs, side by side

Run from anywhere; the program is taken from ``src/`` of the checkout
this file sits in, which must not be installed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_REPEATS = 5
# Median time of the worker's reference_kernel on the reference host
# (README.md); the run's timings are scaled to a host of this speed.
REFERENCE_KERNEL_S = 0.0045
WORKER_TIMEOUT_S = 150
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import tubemeasure, tubemeasure.cli\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds() -> float:
    """Time a fresh interpreter takes to import the package and its CLI."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout.strip())


def scipy_import_seconds() -> dict:
    """Cumulative import time of scipy.optimize and scipy.stats (-X importtime)."""
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import tubemeasure.cli"
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", probe, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    found = {}
    for line in out.stderr.splitlines():
        parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
        if len(parts) == 3 and parts[2] in ("scipy.optimize", "scipy.stats"):
            found[parts[2]] = int(parts[1]) / 1e6
    return {
        "setup.scipy_optimize_s": found.get("scipy.optimize", 0.0),
        "setup.scipy_stats_s": found.get("scipy.stats", 0.0),
    }


def geometric_mean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """One run: set up, time the operations in a worker, check the answers.

    Returns the result object and a summary of the run for people: its
    rounds, and each operation that did not pass with the reason.
    """
    if not (SRC / "tubemeasure" / "cli.py").is_file():
        raise SystemExit(f"no program to measure: {SRC / 'tubemeasure'} is missing")
    work = WORK / f"{name}-{seed}-{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    ops = workloads.build(name, seed, work, ROOT)

    plan, result_path = work / "plan.json", work / "result.json"
    plan.write_text(json.dumps({"src": str(SRC), "ops": ops, "seconds": seconds,
                                "trace": trace, "trace_file": str(work / "trace.jsonl")}))
    worker = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(plan), str(result_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if worker.returncode != 0:
        raise SystemExit(f"worker failed ({worker.returncode}):\n{worker.stderr[-4000:]}")
    res = json.loads(result_path.read_text())

    statuses, ratios, parsed = [], [], []
    for i, (op, ref) in enumerate(zip(ops, res["reference"])):
        context = {"rng": np.random.default_rng([seed, 7, i]), "argv": op["argv"],
                   "results": parsed}
        if ref["code"] != 0:
            parsed.append(None)
            statuses.append(("wrong", f"exit code {ref['code']}: {ref['stderr'].strip()}"))
            continue
        parsed.append(json.loads(ref["stdout"])["result"])
        status, message, ratio = checks.check(op, parsed[-1], context)
        if status == "ok" and res["differ"][i]:
            status, message = "wrong", f"output changed on {res['differ'][i]} reruns"
        statuses.append((status, message))
        if ratio is not None:
            ratios.append(ratio)

    rounds = res["rounds"]
    repeats = [op["repeat"] for op in ops]
    attempted = rounds * sum(repeats)
    failed = sum(rounds * k for k, (status, _) in zip(repeats, statuses) if status != "ok")
    # > 1 when the host ran this process slower than the reference host
    slowdown = statistics.median(res["kernel_s"]) / REFERENCE_KERNEL_S
    busy_s = sum(map(sum, res["latencies"]))
    geomean_s = geometric_mean(statistics.median(t) for t in res["latencies"])
    correct = all(status != "wrong" for status, _ in statuses)

    if trace:
        layers = dict(res["layers"])
        layers["cli.output_bytes"] = res["output_bytes"] / rounds
        layers.update(scipy_import_seconds())
        units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
    else:
        if not ratios:
            raise SystemExit(f"no operation gave a checked answer: {statuses[:3]}")
        values = {
            "setup_s": statistics.median(import_seconds() for _ in range(SETUP_REPEATS)),
            "ops_per_s": attempted / busy_s * slowdown,
            "op_geomean_ms": geomean_s / slowdown * 1000.0,
            "peak_rss_mb": res["peak_rss_mb"],
            "answer_ratio": geometric_mean(ratios),
        }
        units = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    summary = {
        "rounds": rounds,
        "ops_per_round": sum(repeats),
        "wall_s": res["wall_s"],
        "slowdown": slowdown,
        "measured": {"ops_per_s": attempted / busy_s, "op_geomean_ms": geomean_s * 1000.0},
        "problems": [(op["argv"], status, message)
                     for op, (status, message) in zip(ops, statuses) if status != "ok"],
    }
    return (
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics},
        summary,
    )


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def print_report(name: str, result: dict, summary: dict):
    print(f"workload {name}: {summary['rounds']} timed rounds of {summary['ops_per_round']} "
          f"operations in {summary['wall_s']:.1f} s")
    for argv, status, message in summary["problems"]:
        print(f"  {status}: {' '.join(argv)}: {message}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    print(f"  host slowdown {summary['slowdown']:.4f} (reference kernel median ÷ "
          f"{REFERENCE_KERNEL_S * 1000:g} ms); unscaled: "
          + ", ".join(f"{k} {v:.6g}" for k, v in summary["measured"].items()))
    for key, metric in result["metrics"].items():
        print(f"  {key:32s} {metric['value']:14.6g} {metric['unit']}")


def run_in_child(name: str, seed: int, seconds: int, trace: int) -> dict:
    """One run in a fresh interpreter; its printed report passes through."""
    command = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    child = subprocess.run(command, capture_output=True, text=True, timeout=175)
    lines = child.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if child.returncode != 0 or not lines:
        raise SystemExit(f"run of {name} failed ({child.returncode}):\n{child.stderr[-4000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, help="runs per workload, on consecutive seeds")
    parser.add_argument("--record", help="append each run's result to this JSON-lines file")
    parser.add_argument("--compare", nargs="+", metavar="FILE", help="recorded runs to compare")
    args = parser.parse_args(argv)

    if args.compare:
        import compare

        compare.report(args.compare, benchmark_spec())
        return 0
    seconds = args.seconds or benchmark_spec()["run_seconds"]
    names = [args.workload] if args.workload else list(workloads.NAMES)

    if args.workload and not args.runs:
        result, summary = run_workload(args.workload, args.seed, seconds, bool(args.trace))
        print_report(args.workload, result, summary)
        print(json.dumps(result))
        return 0

    summary = {}
    for k in range(args.runs or 1):
        for name in names:
            seed = args.seed + k
            result = run_in_child(name, seed, seconds, args.trace)
            summary[name] = result
            if args.record:
                record = {"workload": name, "seed": seed, "trace": args.trace, **result}
                with open(args.record, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
