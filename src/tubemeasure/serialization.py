"""Strict JSON encoding of shapes, covers, and bound reports.

Shape documents are objects {"dim": n, "kind": ..., ...}; the kinds are
ball, cuboid, polytope, product, union, cloud.  Cover documents are
top-level lists of tubes, each {"kind": "round", ...} or
{"kind": "square", ...}.  Rationals ride as {"num": int, "den": int} in
lowest terms with a positive denominator.

Parsing is strict: unknown fields, missing fields, wrong types, and
malformed vectors all raise SchemaError rather than being guessed at.
Geometric validity (unit axes, orthonormal frames, dimension caps) is
still the constructors' job; this module only guards the wire format.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np

from .bounds import BoundReport
from .covers import TubeCover
from .errors import SchemaError
from .geometry import (
    Ball,
    ConvexPolytope,
    Cuboid,
    Frame,
    PointCloud,
    ProductSet,
    Shape,
    SquareTube,
    Tube,
    UnionShape,
)

__all__ = [
    "rational_to_json",
    "rational_from_json",
    "shape_to_json",
    "shape_from_json",
    "cover_to_json",
    "cover_from_json",
    "bound_report_to_json",
]


# ---------------------------------------------------------------------------
# primitives


def _require_dict(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _check_fields(obj: dict, what: str, required: tuple, optional: tuple = ()):
    keys = set(obj)
    missing = set(required) - keys
    if missing:
        raise SchemaError(f"{what} is missing fields: {sorted(missing)}")
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"{what} has unknown fields: {sorted(unknown)}")


def _number(x, what: str) -> float:
    # bool is an int subclass; reject it explicitly
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError(f"{what} must be a number")
    try:
        return float(x)
    except OverflowError:  # an integer too large for a float
        raise SchemaError(f"{what} is out of range") from None


def _integer(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaError(f"{what} must be an integer")
    return x


def _vector(x, what: str, dim: int | None = None) -> np.ndarray:
    if not isinstance(x, list) or len(x) == 0:
        raise SchemaError(f"{what} must be a nonempty list of numbers")
    vals = [_number(v, f"{what}[{i}]") for i, v in enumerate(x)]
    if dim is not None and len(vals) != dim:
        raise SchemaError(f"{what} must have length {dim}, got {len(vals)}")
    return np.array(vals)


def _matrix(x, what: str, rows: int, cols: int) -> np.ndarray:
    if not isinstance(x, list) or len(x) != rows:
        raise SchemaError(f"{what} must be a list of {rows} vectors")
    return np.array([_vector(r, f"{what}[{i}]", cols) for i, r in enumerate(x)])


def _jsonable(x):
    """JSON-ready copy of x; the one place a rational becomes {"num", "den"}."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, np.ndarray):
        return [float(v) for v in x.ravel()]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, str) or x is None:
        return x
    return repr(x)


def rational_to_json(q: Fraction) -> dict:
    return _jsonable(Fraction(q))


def rational_from_json(obj, what: str = "rational") -> Fraction:
    obj = _require_dict(obj, what)
    _check_fields(obj, what, ("num", "den"))
    num = _integer(obj["num"], f"{what}.num")
    den = _integer(obj["den"], f"{what}.den")
    if den <= 0:
        raise SchemaError(f"{what}.den must be positive")
    return Fraction(num, den)


def _frame_to_json(frame: Frame) -> dict:
    return {"axis": _jsonable(frame.axis), "cross": [_jsonable(row) for row in frame.cross]}


def _frame_from_json(obj, what: str, dim: int, frames: dict | None = None) -> Frame:
    """Decode a frame; with ``frames``, equal rows decode to one shared
    Frame, built and validated once and memoized by their float bytes."""
    obj = _require_dict(obj, what)
    _check_fields(obj, what, ("axis", "cross"))
    axis = _vector(obj["axis"], f"{what}.axis", dim)
    cross = _matrix(obj["cross"], f"{what}.cross", dim - 1, dim)
    if frames is None:
        return Frame(axis=axis, cross=cross)
    key = (axis.tobytes(), cross.tobytes())
    if key not in frames:
        frames[key] = Frame(axis=axis, cross=cross)
    return frames[key]


# ---------------------------------------------------------------------------
# shapes


def shape_to_json(s: Shape) -> dict:
    if isinstance(s, Ball):
        return {
            "dim": s.dim,
            "kind": "ball",
            "center": _jsonable(s.center),
            "radius": s.radius,
        }
    if isinstance(s, Cuboid):
        out = {
            "dim": s.dim,
            "kind": "cuboid",
            "center": _jsonable(s.center),
            "half_lengths": _jsonable(s.half_lengths),
        }
        if s.frame is not None:
            out["frame"] = _frame_to_json(s.frame)
        return out
    if isinstance(s, ConvexPolytope):
        return {
            "dim": s.dim,
            "kind": "polytope",
            "vertices": [_jsonable(row) for row in s.vertices],
        }
    if isinstance(s, PointCloud):
        return {
            "dim": s.dim,
            "kind": "cloud",
            "points": [_jsonable(row) for row in s.points],
        }
    if isinstance(s, ProductSet):
        return {
            "dim": s.dim,
            "kind": "product",
            "base": shape_to_json(s.base),
            "axis": _jsonable(s.axis),
        }
    if isinstance(s, UnionShape):
        return {
            "dim": s.dim,
            "kind": "union",
            "members": [shape_to_json(member) for member in s.members],
        }
    raise SchemaError(f"cannot serialize shape of type {type(s).__name__}")


def shape_from_json(obj) -> Shape:
    obj = _require_dict(obj, "shape")
    if "kind" not in obj or "dim" not in obj:
        raise SchemaError("shape needs 'kind' and 'dim' fields")
    kind = obj["kind"]
    dim = _integer(obj["dim"], "shape.dim")
    if dim < 1:
        raise SchemaError("shape.dim must be a positive integer")

    if kind == "ball":
        _check_fields(obj, "ball", ("dim", "kind", "center", "radius"))
        return Ball(
            center=_vector(obj["center"], "ball.center", dim),
            radius=_number(obj["radius"], "ball.radius"),
        )
    if kind == "cuboid":
        required = ("dim", "kind", "center", "half_lengths")
        _check_fields(obj, "cuboid", required, optional=("frame",))
        frame = None
        if dim == 1:
            if "frame" in obj:
                raise SchemaError("cuboid in dimension 1 must not carry a frame")
        else:
            if "frame" not in obj:
                raise SchemaError("cuboid needs a frame in dimension >= 2")
            frame = _frame_from_json(obj["frame"], "cuboid.frame", dim)
        return Cuboid(
            center=_vector(obj["center"], "cuboid.center", dim),
            frame=frame,
            half_lengths=_vector(obj["half_lengths"], "cuboid.half_lengths", dim),
        )
    if kind == "polytope":
        _check_fields(obj, "polytope", ("dim", "kind", "vertices"))
        verts = obj["vertices"]
        if not isinstance(verts, list) or len(verts) == 0:
            raise SchemaError("polytope.vertices must be a nonempty list")
        return ConvexPolytope(
            vertices=np.array(
                [_vector(v, f"polytope.vertices[{i}]", dim) for i, v in enumerate(verts)]
            )
        )
    if kind == "cloud":
        _check_fields(obj, "cloud", ("dim", "kind", "points"))
        pts = obj["points"]
        if not isinstance(pts, list) or len(pts) == 0:
            raise SchemaError("cloud.points must be a nonempty list")
        return PointCloud(
            points=np.array(
                [_vector(v, f"cloud.points[{i}]", dim) for i, v in enumerate(pts)]
            )
        )
    if kind == "product":
        _check_fields(obj, "product", ("dim", "kind", "base", "axis"))
        base = shape_from_json(obj["base"])
        return ProductSet(base=base, axis=_vector(obj["axis"], "product.axis", dim))
    if kind == "union":
        _check_fields(obj, "union", ("dim", "kind", "members"))
        members = obj["members"]
        if not isinstance(members, list):
            raise SchemaError("union.members must be a list")
        return UnionShape(
            members=tuple(shape_from_json(member) for member in members),
            dim_hint=dim,
        )
    raise SchemaError(f"unknown shape kind {kind!r}")


# ---------------------------------------------------------------------------
# covers


def cover_to_json(cover: TubeCover) -> list:
    out = []
    for tube in cover.tubes:
        if isinstance(tube, Tube):
            out.append(
                {
                    "kind": "round",
                    "point": _jsonable(tube.point),
                    "axis": _jsonable(tube.axis),
                    "r": tube.radius,
                }
            )
        else:  # a square tube; TubeCover admits no other kind
            out.append(
                {
                    "kind": "square",
                    "anchor": _jsonable(tube.anchor),
                    "frame": _frame_to_json(tube.frame),
                    "delta": rational_to_json(tube.half_width),
                }
            )
    return out


def cover_from_json(obj) -> TubeCover:
    if not isinstance(obj, list):
        raise SchemaError("a cover document must be a top-level list of tubes")
    tubes = []
    frames = {}
    for i, entry in enumerate(obj):
        what = f"cover[{i}]"
        entry = _require_dict(entry, what)
        if "kind" not in entry:
            raise SchemaError(f"{what} needs a 'kind' field")
        kind = entry["kind"]
        if kind == "round":
            _check_fields(entry, what, ("kind", "point", "axis", "r"))
            point = _vector(entry["point"], f"{what}.point")
            axis = _vector(entry["axis"], f"{what}.axis", len(point))
            tubes.append(
                Tube(point=point, axis=axis, radius=_number(entry["r"], f"{what}.r"))
            )
        elif kind == "square":
            _check_fields(entry, what, ("kind", "anchor", "frame", "delta"))
            anchor = _vector(entry["anchor"], f"{what}.anchor")
            frame = _frame_from_json(entry["frame"], f"{what}.frame", len(anchor), frames)
            tubes.append(
                SquareTube(
                    frame=frame,
                    anchor=anchor,
                    half_width=rational_from_json(entry["delta"], f"{what}.delta"),
                )
            )
        else:
            raise SchemaError(f"{what} has unknown tube kind {kind!r}")
    return TubeCover(tubes=tuple(tubes))


# ---------------------------------------------------------------------------
# reports


def bound_report_to_json(report: BoundReport) -> dict:
    return _jsonable(dataclasses.asdict(report))
