"""Side-by-side summary of recorded runs (``run.py --compare OLD [NEW]``).

Each file holds JSON lines written by ``run.py --record``.  For every
workload and end-to-end metric this prints each side's median and
quartiles over its untraced runs, the spread (quartile distance over
median) against the metric's bound, and, with two sides, whether the
second median is worse than the first by more than the bound.  Each
side's attempted and failed counts close every workload's block.
"""

from __future__ import annotations

import json
import statistics


def load(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if not record["trace"]:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def report(paths: list[str], spec: dict):
    sides = [load(p) for p in paths]
    for workload in (w["name"] for w in spec["workloads"]):
        if not all(workload in side for side in sides):
            continue
        print(f"{workload}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = []
            medians = []
            for side in sides:
                values = [r["metrics"][name]["value"] for r in side[workload]]
                median, q1, q3 = summary(values)
                spread = (q3 - q1) / median
                medians.append(median)
                flag = "" if spread <= bound / 3 else (" (over bound/3)" if spread <= bound
                                                        else " (OVER BOUND)")
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.1%}{flag}")
            line = f"  {name:13s} {metric['unit']:6s} " + " | ".join(cells)
            if len(medians) == 2:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if metric["better"] == "lower" else -change
                verdict = "within bound" if worse <= bound else "WORSE than bound"
                line += f" | change {change:+.1%}, {verdict} {bound:.0%}"
            print(line)
        for path, side in zip(paths, sides):
            runs = side[workload]
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            correct = all(r["correct"] for r in runs)
            print(f"  {path}: {len(runs)} runs, attempted {attempted}, failed {failed} "
                  f"({failed / attempted:.4%}), all correct: {str(correct).lower()}")
