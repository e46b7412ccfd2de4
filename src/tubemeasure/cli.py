"""Command-line front end.

Subcommands: bounds, plank, cover, pack, refine, proof.  Each declares
only the options its computation reads: ``--format`` everywhere,
``--seed`` for bounds, cover and proof, ``--samples`` for bounds and
cover.  Every report carries a ``config`` echo of the settings in effect
for that command: its options (as ``seed``, ``mc_samples``,
``output_format``) and the tolerances that command compares against,
read from the constants the code uses: ``contains`` for ``bounds`` and
``cover`` alone, and none for ``pack`` and ``refine``.  Identical invocations
print byte-identical output: ``json.dumps(report, indent=2)`` and a
newline, with ``pack``'s squares and a built cover's tubes written from
their ``serialization.Listing``, or with ``--format csv`` its flattening.

Exit codes: 0 success, 1 invariant or step failure (the mathematics
went wrong), 2 input error (unparseable files, bad parameters, shapes
out of range or nested too deeply).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

import numpy as np

from .bounds import _plank_2d, compute_bounds
from .covers import CHECK_SAMPLES, cover_check, cover_cost, cover_search, parallel_cover_from_projection
from .errors import ParameterError, SchemaError, StepFailureError
from .geometry import CONTAINS_TOL, FRAME_ORTHO_TOL, regular_tetrahedron, unit_vector
from .montecarlo import MIN_SAMPLES, VOLUME_SAMPLES
from .projection import Shadow
from .proof import ball_square_packing, common_refinement, run_proof_walkthrough
from .serialization import (
    Listing,
    bound_report_to_json,
    cover_from_json,
    cover_listing,
    rational_to_json,
    shape_from_json,
)

# plank and proof test no membership against a hull; pack and refine compare no tolerance
_FRAME_TOLERANCES = {"frame_orthonormality": FRAME_ORTHO_TOL}
_SHAPE_TOLERANCES = {"contains": CONTAINS_TOL, **_FRAME_TOLERANCES}


def _config(args) -> dict:
    """The settings in effect: this subcommand's options and the tolerances it compares against."""
    options = vars(args)
    if options.get("mc_samples", MIN_SAMPLES) < MIN_SAMPLES:
        raise ParameterError(f"mc_samples must be at least {MIN_SAMPLES}")
    config = {key: options[key] for key in ("seed", "mc_samples") if key in options}
    config["tolerances"] = dict(args.tolerances)
    config["output_format"] = args.format
    return config


# ---------------------------------------------------------------------------
# input loading


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path} is nested too deeply: {exc}") from exc


def _load_shape(spec: str):
    if spec == "tetrahedron":
        return regular_tetrahedron()
    return shape_from_json(_load_json_file(spec))


def _parse_direction(text: str) -> np.ndarray:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise SchemaError(f"direction must be comma-separated numbers: {text!r}") from exc
    if len(parts) < 2:
        raise SchemaError("direction needs at least two components")
    return unit_vector(np.array(parts))


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"not a rational number: {text!r}") from exc


# ---------------------------------------------------------------------------
# output emission


def _flatten(obj, prefix: str = ""):
    rows = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            rows.extend(_flatten(v, f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(obj, list):
        if all(not isinstance(v, (dict, list)) for v in obj):
            rows.append((prefix, json.dumps(obj)))
        else:
            for i, v in enumerate(obj):
                rows.extend(_flatten(v, f"{prefix}[{i}]"))
    else:
        rows.append((prefix, obj if isinstance(obj, str) else json.dumps(obj)))
    return rows


# json.dumps of "\0", the stand-in for a listing in a report and for a number in a template
_STAND_IN = '"\\u0000"'


def _json_indent2(report) -> str:
    """``json.dumps(report, indent=2) + "\\n"`` of the report with its
    listings expanded, byte for byte.  The report is encoded with each
    ``Listing`` standing in as "\\0", and each listing is spliced in at the
    indent of its stand-in's line.  Each run of a listing is encoded once as
    a template, its entry function called on a row of "\\0" stand-ins made
    ``%s``, and filled with each row, since ``str`` of an int or of a finite
    float is what ``json`` writes for it."""
    listings = []
    text = json.dumps(report, indent=2, default=lambda listing: listings.append(listing) or "\0")
    head, *tails = text.split(_STAND_IN)
    out = [head]
    for listing, tail in zip(listings, tails):
        line = out[-1][out[-1].rfind("\n") + 1:]
        pad = "\n" + " " * (len(line) - len(line.lstrip(" ")) + 2)
        items = []
        for entry, rows in listing.parts:
            if rows:
                template = json.dumps(entry(["\0"] * len(rows[0])), indent=2).replace("\n", pad).replace(_STAND_IN, "%s")
                items.extend(template % tuple(row) for row in rows)
        out += ["[" + pad + ("," + pad).join(items) + pad[:-2] + "]" if items else "[]", tail]
    return "".join(out) + "\n"


def _emit(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_indent2(report)
    result = {k: v.expand() if isinstance(v, Listing) else v for k, v in report["result"].items()}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in _flatten({**report, "result": result}):
        writer.writerow([key, value])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_bounds(args) -> dict:
    shape = _load_shape(args.shape)
    report = compute_bounds(shape, mc_samples=args.mc_samples, seed=args.seed)
    return bound_report_to_json(report)


def _cmd_plank(args) -> dict:
    width, direction, method = _plank_2d(_load_shape(args.shape))
    return {"width": width, "witness_direction": [float(v) for v in direction], "method": method}


def _cmd_cover(args) -> dict:
    shape = _load_shape(args.shape)
    result: dict = {}
    if args.cover is not None:
        cover = cover_from_json(_load_json_file(args.cover))
        result["source"] = "file"
    elif args.search:
        cover = cover_search(shape)
        result["source"] = "search"
    elif args.parallel is not None:
        direction = _parse_direction(args.parallel[0])
        try:
            grid_step = float(_parse_rational(args.parallel[1]))
        except OverflowError:
            raise ParameterError(f"grid step {args.parallel[1]} overflows a float") from None
        cover = parallel_cover_from_projection(shape, direction, grid_step)
        result["source"] = "parallel"
        area, std_error = Shadow(shape, direction).area(samples=args.mc_samples, seed=args.seed)
        result["shadow_area"] = area
        result["shadow_std_error"] = std_error
    else:
        raise SchemaError("cover needs one of --cover FILE, --search, --parallel D H")

    cost = cover_cost(cover)
    verdict = cover_check(shape, cover, samples=args.mc_samples, seed=args.seed)
    covered, worst = verdict
    result.update(
        {
            "tubes": len(cover),
            "cost": cost,
            "covered": covered,
            "worst_point": None if worst is None else [float(v) for v in worst],
            "check": verdict.check,
        }
    )
    if "shadow_area" in result:
        result["slack"] = cost - result["shadow_area"]
    if result["source"] != "file":
        result["cover"] = cover_listing(cover)
    return result


def _cmd_pack(args) -> dict:
    packing = ball_square_packing(args.dim, args.radius, args.depth)
    return packing.report()


def _cmd_refine(args) -> dict:
    delta_a = _parse_rational(args.widths[0])
    delta_b = _parse_rational(args.widths[1])
    delta, count_a, count_b = common_refinement(delta_a, delta_b)
    return {
        "width_a": rational_to_json(delta_a),
        "width_b": rational_to_json(delta_b),
        "delta": rational_to_json(delta),
        "count_a": count_a,
        "count_b": count_b,
    }


def _cmd_proof(args) -> dict:
    report = run_proof_walkthrough(args.dim, args.depth, seed=args.seed)
    return report.to_dict()


# ---------------------------------------------------------------------------
# parser and entry point


@functools.cache  # built on the first call, once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubemeasure",
        description="Bounds, covers, and constructive checks for the tube measure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=False, samples=None):
        """--format, plus --seed and --samples where the computation reads them."""
        if seed:
            p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
        if samples is not None:
            p.add_argument(
                "--samples", dest="mc_samples", metavar="SAMPLES", type=int, default=samples,
                help="Monte Carlo samples, read only where a value is sampled",
            )
        p.add_argument(
            "--format", choices=("json", "csv"), default="json", help="output format"
        )

    p = sub.add_parser("bounds", help="lower and upper tube-measure bounds of a shape")
    p.add_argument("--shape", required=True, help="shape JSON file or 'tetrahedron'")
    add_common(p, seed=True, samples=VOLUME_SAMPLES)
    p.set_defaults(handler=_cmd_bounds, tolerances=_SHAPE_TOLERANCES)

    p = sub.add_parser("plank", help="exact minimal width of a planar convex body")
    p.add_argument("--shape", required=True, help="2-D shape JSON file")
    add_common(p)
    p.set_defaults(handler=_cmd_plank, tolerances=_FRAME_TOLERANCES)

    p = sub.add_parser("cover", help="evaluate or construct a tube cover")
    p.add_argument("--shape", required=True, help="shape JSON file or 'tetrahedron'")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--cover", help="cover JSON file to evaluate")
    group.add_argument(
        "--search",
        action="store_true",
        help="least-shadow grid cover, or for a cloud thin tubes through its points if cheaper",
    )
    group.add_argument(
        "--parallel",
        nargs=2,
        metavar=("DIRECTION", "STEP"),
        help="parallel grid cover: comma-separated direction and grid step",
    )
    add_common(p, seed=True, samples=CHECK_SAMPLES)
    p.set_defaults(handler=_cmd_cover, tolerances=_SHAPE_TOLERANCES)

    p = sub.add_parser("pack", help="dyadic square packing of a ball")
    p.add_argument("--dim", type=int, required=True, help="cross-section dimension m")
    p.add_argument("--radius", type=float, default=1.0, help="ball radius")
    p.add_argument("--depth", type=int, required=True, help="maximum dyadic depth")
    add_common(p)
    p.set_defaults(handler=_cmd_pack, tolerances={})

    p = sub.add_parser("refine", help="exact common refinement of two rational widths")
    p.add_argument(
        "--widths",
        nargs=2,
        metavar=("A", "B"),
        required=True,
        help="two positive rationals, e.g. 3/4 5/6",
    )
    add_common(p)
    p.set_defaults(handler=_cmd_refine, tolerances={})

    p = sub.add_parser("proof", help="run the constructive proof walkthrough")
    p.add_argument("--dim", type=int, required=True, help="ambient dimension n (2..8)")
    p.add_argument("--depth", type=int, required=True, help="subdivision depth")
    add_common(p, seed=True)
    p.set_defaults(handler=_cmd_proof, tolerances=_FRAME_TOLERANCES)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config(args)
        result = args.handler(args)
        report = {"command": args.command, "config": config, "result": result}
        sys.stdout.write(_emit(report, args.format))
        return 0
    except StepFailureError as exc:
        if exc.report is not None:
            payload = {
                "command": args.command,
                "config": config,
                "result": exc.report.to_dict(),
            }
            sys.stdout.write(_emit(payload, args.format))
        sys.stderr.write(f"{exc}\n")
        return 1
    except (ValueError, RecursionError) as exc:  # only shape nesting recurses deeply
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except RuntimeError as exc:
        sys.stderr.write(f"failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
