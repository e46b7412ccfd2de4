"""Command-line front end.

Subcommands: bounds, plank, cover, pack, refine, proof.  Each declares
only the options its computation reads: ``--format`` everywhere,
``--seed`` for bounds, cover and proof, ``--samples`` for bounds and
cover.  Every report carries a ``config`` echo of the settings in effect
for that command: its options (as ``seed``, ``mc_samples``,
``output_format``) and the comparison tolerances, read from the
constants the code compares against.  Identical invocations
print byte-identical output.

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
from .covers import (
    CHECK_SAMPLES,
    cover_check,
    cover_cost,
    cover_search,
    parallel_cover_from_projection,
)
from .errors import ParameterError, SchemaError, StepFailureError
from .geometry import CONTAINS_TOL, FRAME_ORTHO_TOL, regular_tetrahedron, unit_vector
from .montecarlo import MIN_SAMPLES, VOLUME_SAMPLES
from .projection import Shadow
from .proof import (
    AGREEMENT_TOL,
    ball_square_packing,
    common_refinement,
    run_proof_walkthrough,
)
from .serialization import (
    bound_report_to_json,
    cover_from_json,
    cover_to_json,
    rational_to_json,
    shape_from_json,
)

_TOLERANCES = {
    "contains": CONTAINS_TOL,
    "frame_orthonormality": FRAME_ORTHO_TOL,
    "algebraic_agreement": AGREEMENT_TOL,
}


def _config(args) -> dict:
    """The settings in effect: this subcommand's options and the tolerances."""
    options = vars(args)
    if options.get("mc_samples", MIN_SAMPLES) < MIN_SAMPLES:
        raise ParameterError(f"mc_samples must be at least {MIN_SAMPLES}")
    config = {key: options[key] for key in ("seed", "mc_samples") if key in options}
    config["tolerances"] = dict(_TOLERANCES)
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


# Compact reports shorter than this are faster through the stdlib's
# indent=2 encoder than through the C encoder plus a re-indent; the two
# cost the same near 1,000 characters.
_REINDENT_MIN_CHARS = 1024

# class of each byte of compact JSON: 1 comma, 2 opener, 3 closer, 4 quote
_CHAR_CLASS = np.zeros(256, np.int8)
_CHAR_CLASS[[ord(c) for c in ',[{]}"']] = [1, 2, 2, 3, 3, 4]
_IS_MARK = (_CHAR_CLASS != 0).tobytes()  # bytes.translate table: 1 where classed


def _json_indent2(report) -> str:
    """``json.dumps(report, indent=2) + "\\n"``, byte for byte.

    A long report is encoded by the C encoder with the item and key
    separators of ``indent=2`` and no whitespace, and each newline plus
    indent is then inserted in one pass over the structural characters:
    after every comma and every bracket that does not open an empty
    container, before every bracket that does not close one.  The
    indent is the nesting depth after that character.  Escaped
    backslashes, then escaped quotes, are blanked out first, so the
    quotes left are string delimiters, and a structural character lies
    inside a string when an odd number of them precedes it.
    """
    text = json.dumps(report, separators=(",", ": "))
    if len(text) < _REINDENT_MIN_CHARS:
        return json.dumps(report, indent=2) + "\n"
    raw = text.encode("ascii")  # ensure_ascii leaves no other character
    masked = raw.replace(b"\\\\", b"__").replace(b'\\"', b"__")
    pos = np.flatnonzero(np.frombuffer(masked.translate(_IS_MARK), np.bool_)).astype(np.int32)
    kind = _CHAR_CLASS[np.frombuffer(masked, np.uint8)[pos]]
    del masked
    quote = kind == 4
    keep = ~(np.logical_xor.accumulate(quote) | quote)
    pos, kind = pos[keep], kind[keep]
    depth = np.cumsum(np.array([0, 0, 1, -1], np.int32)[kind], dtype=np.int32)
    empty = (kind[:-1] == 2) & (kind[1:] == 3) & (np.diff(pos) == 1)
    run = np.ones(len(pos), np.bool_)
    run[:-1] &= ~empty
    run[1:] &= ~empty
    at = pos[run] + (kind[run] != 3)  # after a comma or an opener, before a closer
    width = 1 + 2 * depth[run]
    # the output alternates copied stretches of the text with inserted runs
    stretch = np.empty(2 * len(at) + 1, np.int64)
    stretch[0::2] = np.diff(at, prepend=0, append=len(raw))
    stretch[1::2] = width
    copied = np.repeat(np.resize(np.array([True, False]), len(stretch)), stretch)
    out = np.full(len(copied) + 1, ord(" "), np.uint8)
    out[:-1][copied] = np.frombuffer(raw, np.uint8)
    del copied, raw
    out[at + np.cumsum(width, dtype=np.int64) - width] = ord("\n")
    out[-1] = ord("\n")
    return str(out, "ascii")


def _emit(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_indent2(report)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in _flatten(report):
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
        result["cover"] = cover_to_json(cover)
    return result


def _cmd_pack(args) -> dict:
    packing = ball_square_packing(args.dim, args.radius, args.depth)
    return packing.to_dict()


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
                help="Monte-Carlo samples",
            )
        p.add_argument(
            "--format", choices=("json", "csv"), default="json", help="output format"
        )

    p = sub.add_parser("bounds", help="lower and upper tube-measure bounds of a shape")
    p.add_argument("--shape", required=True, help="shape JSON file or 'tetrahedron'")
    add_common(p, seed=True, samples=VOLUME_SAMPLES)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("plank", help="exact minimal width of a planar convex body")
    p.add_argument("--shape", required=True, help="2-D shape JSON file")
    add_common(p)
    p.set_defaults(handler=_cmd_plank)

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
    p.set_defaults(handler=_cmd_cover)

    p = sub.add_parser("pack", help="dyadic square packing of a ball")
    p.add_argument("--dim", type=int, required=True, help="cross-section dimension m")
    p.add_argument("--radius", type=float, default=1.0, help="ball radius")
    p.add_argument("--depth", type=int, required=True, help="maximum dyadic depth")
    add_common(p)
    p.set_defaults(handler=_cmd_pack)

    p = sub.add_parser("refine", help="exact common refinement of two rational widths")
    p.add_argument(
        "--widths",
        nargs=2,
        metavar=("A", "B"),
        required=True,
        help="two positive rationals, e.g. 3/4 5/6",
    )
    add_common(p)
    p.set_defaults(handler=_cmd_refine)

    p = sub.add_parser("proof", help="run the constructive proof walkthrough")
    p.add_argument("--dim", type=int, required=True, help="ambient dimension n (2..8)")
    p.add_argument("--depth", type=int, required=True, help="subdivision depth")
    add_common(p, seed=True)
    p.set_defaults(handler=_cmd_proof)

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
