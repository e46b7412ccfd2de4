"""Run one workload's operations in this interpreter and record them.

Usage: python3 worker.py PLAN RESULT

PLAN (JSON) names the source directory, the operations of one round,
the run length and, for a traced run, the file that receives the spans
(one JSON list per line: id, parent id, name, start, end, in seconds
from the start of the timed rounds).  The worker imports the program,
runs a first round that is not timed (it fills caches, writes the cover
files later operations read, and gives the reference outputs), then
repeats whole timed rounds in a closed loop, ending at the round
boundary nearest the run length.  An operation is
``tubemeasure.cli.main(argv)`` with standard output and error captured;
its output is compared with the reference round's outside the timed
span.  An operation with ``repeat`` k runs k times in a row in every
round.  Checking the answers is left to the caller, so this process
holds only the program and its outputs.

Before each timed operation the worker also times ``reference_kernel``,
a fixed piece of work that does not touch the program.  How long it
takes tracks how fast the shared host runs this process at that moment;
the caller uses the median to scale the run's timings to a host of
reference speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import zlib
from pathlib import Path
from time import perf_counter

import numpy as np

KERNEL_ARRAY = np.arange(100_000, dtype=np.int64)
KERNEL_BUFFER = np.empty_like(KERNEL_ARRAY)


def reference_kernel() -> int:
    """About 5 ms of work, split evenly between the interpreter (a loop,
    a dictionary, JSON) and numpy (integer arithmetic and a sort).  Its
    time follows the host's speed about as the program's operations do;
    a kernel weighted to either side tracked them less well.  It makes no
    large allocation and almost no objects the garbage collector tracks,
    so the state the program leaves in the allocator and the collector
    does not change its time."""
    total, table = 0, {}
    for i in range(16000):
        total += i * i % 7
        table[i % 97] = total
    text = json.dumps(table)
    a = KERNEL_BUFFER
    for _ in range(2):
        np.multiply(KERNEL_ARRAY, 3, out=a)
        np.add(a, 1, out=a)
        np.remainder(a, 1_000_003, out=a)
        a.sort()
    return total + zlib.crc32(text.encode()) + int(a[-1])


def call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def run(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    from tubemeasure import cli

    tracer = None
    if plan["trace"]:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

    ops = plan["ops"]
    reference = []
    for op in ops:
        code, out, err = call(cli.main, op["argv"])
        reference.append({"code": code, "stdout": out, "stderr": err})
        save = op["facts"].get("save_cover")
        if save and code == 0:
            Path(save).write_text(json.dumps(json.loads(out)["result"]["cover"]))
    if tracer is not None:
        tracer.reset()

    latencies = [[] for _ in ops]
    kernel_s = []
    differ = [0] * len(ops)
    output_bytes = 0
    rounds = 0
    start = perf_counter()
    while True:
        for i, op in enumerate(ops):
            for _ in range(op["repeat"]):
                t = perf_counter()
                reference_kernel()
                kernel_s.append(perf_counter() - t)
                t = perf_counter()
                code, out, err = call(cli.main, op["argv"])
                latencies[i].append(perf_counter() - t)
                output_bytes += len(out)
                if code != reference[i]["code"] or out != reference[i]["stdout"]:
                    differ[i] += 1
        rounds += 1
        # stop where the run's length comes closest to the planned seconds
        elapsed = perf_counter() - start
        if elapsed * (1.0 + 0.5 / rounds) >= plan["seconds"]:
            break
    wall = perf_counter() - start

    result = {
        "reference": reference,
        "latencies": latencies,
        "kernel_s": kernel_s,
        "differ": differ,
        "rounds": rounds,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output_bytes": output_bytes,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, rounds)
        with open(plan["trace_file"], "w", encoding="utf-8") as fh:
            for i, parent, name, s, e in tracer.spans:
                fh.write(json.dumps([i, parent, name, s - start, e - start]) + "\n")
    return result


if __name__ == "__main__":
    plan_path, result_path = sys.argv[1], sys.argv[2]
    plan = json.loads(Path(plan_path).read_text())
    Path(result_path).write_text(json.dumps(run(plan)))
