"""Strict JSON encoding of shapes, covers, and bound reports.

Shape documents are objects {"dim": n, "kind": ..., ...}; ``_KINDS`` lists
each kind (ball, cuboid, polytope, cloud, product, union) with its class
and its fields, and both directions are read from it.  Cover documents are
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
    SquareTubes,
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


def _check_fields(obj: dict, what: str, required: tuple):
    keys = set(obj)
    missing = set(required) - keys
    if missing:
        raise SchemaError(f"{what} is missing fields: {sorted(missing)}")
    unknown = keys - set(required)
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
    # JSON decodes every number written with a point or exponent to a float,
    # so a vector of them needs no per-entry check
    if all(type(v) is float for v in x):
        vals = x
    else:
        vals = [_number(v, f"{what}[{i}]") for i, v in enumerate(x)]
    if dim is not None and len(vals) != dim:
        raise SchemaError(f"{what} must have length {dim}, got {len(vals)}")
    return np.array(vals)


def _rows(x, what: str, dim: int, count: int | None = None) -> np.ndarray:
    """A list of vectors of length ``dim``: ``count`` of them, or at least one."""
    wanted = "one or more" if count is None else count
    if not isinstance(x, list) or (len(x) != count if count is not None else not x):
        raise SchemaError(f"{what} must be a list of {wanted} vectors")
    return np.array([_vector(r, f"{what}[{i}]", dim) for i, r in enumerate(x)])


def _jsonable(x):
    """JSON-ready copy of x, a rational as {"num", "den"} in lowest terms;
    ``SquarePacking.to_dict`` writes its reduced pairs itself, with no gcd."""
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
    return {"axis": frame.axis.tolist(), "cross": frame.cross.tolist()}


def _frame_from_json(obj, what: str, dim: int, frames: dict | None = None) -> Frame:
    """Decode a frame; given ``frames``, equal rows decode to one shared
    Frame, built and validated once and memoized there by their float bytes."""
    frames = {} if frames is None else frames
    obj = _require_dict(obj, what)
    _check_fields(obj, what, ("axis", "cross"))
    axis = _vector(obj["axis"], f"{what}.axis", dim)
    cross = _rows(obj["cross"], f"{what}.cross", dim, dim - 1)
    key = (axis.tobytes(), cross.tobytes())
    if key not in frames:
        frames[key] = Frame(axis=axis, cross=cross)
    return frames[key]


# ---------------------------------------------------------------------------
# shapes


def _scalar(x, what: str, dim: int) -> float:
    return _number(x, what)


def _shape(x, what: str, dim: int) -> Shape:
    return shape_from_json(x)


def _shapes(x, what: str, dim: int) -> tuple:
    if not isinstance(x, list):
        raise SchemaError(f"{what} must be a list")
    return tuple(map(shape_from_json, x))  # map adds no Python frame per nesting level


# Each shape kind: its class, and its fields in document order after "dim"
# and "kind", each with the decoder of its type, called as (value, what,
# dim).  A cuboid carries its frame from dimension 2 on, and none in
# dimension 1.
_KINDS = {
    "ball": (Ball, {"center": _vector, "radius": _scalar}),
    "cuboid": (Cuboid, {"center": _vector, "half_lengths": _vector, "frame": _frame_from_json}),
    "polytope": (ConvexPolytope, {"vertices": _rows}),
    "cloud": (PointCloud, {"points": _rows}),
    "product": (ProductSet, {"base": _shape, "axis": _vector}),
    "union": (UnionShape, {"members": _shapes}),
}


def shape_to_json(s: Shape) -> dict:
    kind = next((k for k, (cls, _) in _KINDS.items() if isinstance(s, cls)), None)
    if kind is None:
        raise SchemaError(f"cannot serialize shape of type {type(s).__name__}")
    out = {"dim": s.dim, "kind": kind}
    for name in _KINDS[kind][1]:
        value = getattr(s, name)
        if isinstance(value, np.ndarray):  # a vector or a row list
            out[name] = value.tolist()
        elif isinstance(value, Frame):
            out[name] = _frame_to_json(value)
        elif isinstance(value, tuple):  # a union's members
            out[name] = list(map(shape_to_json, value))
        elif isinstance(value, float):
            out[name] = value
        elif value is not None:  # a product's base; a segment has no frame
            out[name] = shape_to_json(value)
    return out


def shape_from_json(obj) -> Shape:
    obj = _require_dict(obj, "shape")
    if "kind" not in obj or "dim" not in obj:
        raise SchemaError("shape needs 'kind' and 'dim' fields")
    kind = obj["kind"]
    dim = _integer(obj["dim"], "shape.dim")
    if dim < 1:
        raise SchemaError("shape.dim must be a positive integer")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SchemaError(f"unknown shape kind {kind!r}")
    cls, fields = _KINDS[kind]
    args = {"dim_hint": dim} if cls is UnionShape else {}
    if cls is Cuboid and dim == 1:
        args["frame"] = None
        fields = {name: fields[name] for name in ("center", "half_lengths")}
    _check_fields(obj, kind, ("dim", "kind", *fields))
    for name, decode in fields.items():
        args[name] = decode(obj[name], f"{kind}.{name}", dim)
    return cls(**args)


# ---------------------------------------------------------------------------
# covers


def cover_to_json(cover: TubeCover) -> list:
    """The cover as a list of tube dicts, one per tube; the tubes of one
    group share one frame dict and one delta dict, each encoded once."""
    out = []
    for part in cover.tubes:
        if isinstance(part, Tube):
            point, axis = _jsonable(part.point), _jsonable(part.axis)
            out.append({"kind": "round", "point": point, "axis": axis, "r": part.radius})
        else:  # a group of square tubes; TubeCover admits no other kind
            frame = _frame_to_json(part.frame)
            delta = rational_to_json(part.half_width)
            out.extend(
                {"kind": "square", "anchor": anchor, "frame": frame, "delta": delta}
                for anchor in part.anchors.tolist()
            )
    return out


def cover_from_json(obj) -> TubeCover:
    """Read a cover document entry by entry; consecutive square entries
    with one frame and one delta read back as one group of square tubes."""
    if not isinstance(obj, list):
        raise SchemaError("a cover document must be a top-level list of tubes")
    parts = []  # round Tubes and [frame, delta, anchors] runs of square entries
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
            parts.append(Tube(point=point, axis=axis, radius=_number(entry["r"], f"{what}.r")))
        elif kind == "square":
            _check_fields(entry, what, ("kind", "anchor", "frame", "delta"))
            anchor = _vector(entry["anchor"], f"{what}.anchor")
            frame = _frame_from_json(entry["frame"], f"{what}.frame", len(anchor), frames)
            delta = rational_from_json(entry["delta"], f"{what}.delta")
            run = parts[-1] if parts else None
            if isinstance(run, list) and run[0] is frame and run[1] == delta:
                run[2].append(anchor)
            else:
                parts.append([frame, delta, [anchor]])
        else:
            raise SchemaError(f"{what} has unknown tube kind {kind!r}")
    return TubeCover(tubes=tuple(
        p if isinstance(p, Tube) else SquareTubes(frame=p[0], anchors=np.array(p[2]), half_width=p[1])
        for p in parts
    ))


# ---------------------------------------------------------------------------
# reports


def bound_report_to_json(report: BoundReport) -> dict:
    return _jsonable(dataclasses.asdict(report))
