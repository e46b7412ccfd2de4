"""Property and fuzz tests of the JSON readers and the report emitter,
with hypothesis.

Every test runs derandomized, so each run checks the same instances.
"""

import contextlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from conftest import read_by_entry
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tubemeasure import cli
from tubemeasure import (
    Ball,
    ConvexPolytope,
    Cuboid,
    PointCloud,
    ProductSet,
    SquareTubes,
    Tube,
    TubeCover,
    TubeMeasureError,
    UnionShape,
    ball_square_packing,
    cover_from_json,
    cover_to_json,
    orthonormal_frame,
    shape_from_json,
    shape_to_json,
)
from tubemeasure.errors import SchemaError
from tubemeasure.serialization import cover_listing

PROPERTY = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)

# --- arbitrary and near-valid documents -----------------------------------

SHAPE_KINDS = ("ball", "cuboid", "polytope", "cloud", "product", "union")
SHAPE_FIELDS = ("center", "radius", "half_lengths", "frame", "vertices", "points", "base",
                "axis", "members")
TUBE_FIELDS = ("point", "axis", "r", "anchor", "frame", "delta")
# object keys are mostly field names the readers know, so nesting gets read
keys = st.sampled_from(SHAPE_FIELDS + TUBE_FIELDS + ("dim", "kind", "cross", "num", "den"))
keys = keys | st.text("ab", max_size=3)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and both infinities included
    | st.text("ab ", max_size=4)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4),
    max_leaves=8,
)
numbers = st.integers(-3, 3) | st.floats()
vectors = st.lists(numbers, max_size=4)
matrices = st.lists(vectors, max_size=4)
frames = st.fixed_dictionaries({"axis": vectors, "cross": matrices})


def _shape_docs(children):
    field = children | st.lists(children, max_size=3) | numbers | vectors | matrices | frames
    return st.fixed_dictionaries(
        {"dim": st.integers(-1, 4) | scalars, "kind": st.sampled_from(SHAPE_KINDS) | scalars},
        optional={name: field | json_values for name in SHAPE_FIELDS},
    )


shape_docs = st.recursive(_shape_docs(json_values), _shape_docs, max_leaves=6)
rationals = st.fixed_dictionaries(
    {"num": st.integers() | scalars, "den": st.integers(-2, 5) | scalars}
)
tube_docs = st.fixed_dictionaries(
    {"kind": st.sampled_from(("round", "square")) | scalars},
    optional={
        "point": vectors, "axis": vectors, "r": numbers, "anchor": vectors,
        "frame": frames, "delta": rationals,
    },
)
cover_docs = st.lists(tube_docs | json_values, max_size=3)


@PROPERTY
@given(json_values | shape_docs)
@example({"dim": 1, "kind": "ball", "center": [10 ** 400], "radius": 1})
def test_shape_reader_raises_only_package_errors(doc):
    try:
        shape_from_json(doc)
    except TubeMeasureError:
        pass


@PROPERTY
@given(json_values | cover_docs)
def test_cover_reader_raises_only_package_errors(doc):
    try:
        cover_from_json(doc)
    except TubeMeasureError:
        pass


# --- valid objects ---------------------------------------------------------

coords = st.floats(-5.0, 5.0)
lengths = st.floats(0.1, 3.0)


def vector(n):
    return st.lists(coords, min_size=n, max_size=n).map(np.array)


def direction(n):
    return vector(n).filter(lambda v: np.linalg.norm(v) > 0.1)


@st.composite
def leaves(draw, n):
    kinds = ("ball", "cuboid", "cloud") + (("polytope",) if n >= 2 else ())
    kind = draw(st.sampled_from(kinds))
    if kind == "ball":
        return Ball(center=draw(vector(n)), radius=draw(lengths))
    if kind == "cloud":
        return PointCloud(points=np.array(draw(st.lists(vector(n), min_size=1, max_size=4))))
    frame = orthonormal_frame(draw(direction(n))) if n >= 2 else None
    box = Cuboid(
        center=draw(vector(n)),
        frame=frame,
        half_lengths=np.array(draw(st.lists(lengths, min_size=n, max_size=n))),
    )
    return box if kind == "cuboid" else ConvexPolytope(vertices=box.vertices)


@st.composite
def shapes(draw, n=None, depth=2):
    n = draw(st.integers(2, 4)) if n is None else n
    kind = draw(st.sampled_from(("leaf", "product", "union") if depth else ("leaf",)))
    if kind == "product":
        return ProductSet(base=draw(leaves(n - 1)), axis=draw(direction(n)))
    if kind == "union":
        members = draw(st.lists(shapes(n, depth - 1), max_size=3))
        return UnionShape(members=tuple(members), dim_hint=n)
    return draw(leaves(n))


@st.composite
def covers(draw):
    n = draw(st.integers(2, 4))
    shared = orthonormal_frame(draw(direction(n)))  # one frame for several tubes, as a grid has
    tubes = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            tubes.append(Tube(point=draw(vector(n)), axis=draw(direction(n)), radius=draw(lengths)))
        else:
            tubes.append(
                SquareTubes(
                    frame=draw(st.just(shared) | direction(n).map(orthonormal_frame)),
                    anchors=np.array(draw(st.lists(vector(n), min_size=1, max_size=3))),
                    half_width=draw(st.fractions(min_value=0.001, max_value=3)),
                )
            )
    return TubeCover(tubes=tuple(tubes))


def wire(doc):
    return json.loads(json.dumps(doc))


def assert_same_document(again, doc):
    """Equal to the last bit, axes included: ``unit_vector`` keeps a unit axis as given."""
    if isinstance(doc, dict):
        assert again.keys() == doc.keys()
        for key in doc:
            assert_same_document(again[key], doc[key])
    elif isinstance(doc, list):
        assert len(again) == len(doc)
        for x, y in zip(again, doc):
            assert_same_document(x, y)
    else:
        assert type(again) is type(doc) and again == doc


@PROPERTY
@given(shapes())
def test_shape_documents_are_fixed_points(shape):
    doc = shape_to_json(shape)
    assert_same_document(shape_to_json(shape_from_json(wire(doc))), doc)


@PROPERTY
@given(covers())
def test_cover_documents_are_fixed_points(cover):
    doc = cover_to_json(cover)
    assert_same_document(cover_to_json(cover_from_json(wire(doc))), doc)


# --- the cover reader against the entry-by-entry read ----------------------


@st.composite
def square_runs(draw):
    """A wired cover document of runs of square entries and round tubes: two
    frames equal but for the sign of their zeros, one with integer
    coordinates, one turned; deltas 2/4, 1/2 and 1/3, the first two equal
    but written apart; some coordinates integers; a round tube anywhere,
    in the middle of a run too."""
    n = draw(st.integers(2, 4))
    eye = np.eye(n)
    plain = {"axis": eye[-1].tolist(), "cross": eye[:-1].tolist()}
    signed = {"axis": [-0.0] * (n - 1) + [1.0], "cross": [[1.0] + [-0.0] * (n - 1)] + eye[1:-1].tolist()}
    whole = {"axis": [0] * (n - 1) + [1], "cross": eye[:-1].astype(int).tolist()}
    turned = orthonormal_frame(draw(direction(n)))
    turned = {"axis": turned.axis.tolist(), "cross": turned.cross.tolist()}
    frames = st.sampled_from([plain, signed, whole, turned])
    deltas = st.sampled_from([{"num": 2, "den": 4}, {"num": 1, "den": 2}, {"num": 1, "den": 3}])
    values = coords | st.integers(-3, 3) | st.just(-0.0)
    doc = []
    for _ in range(draw(st.integers(1, 5))):
        frame, delta = draw(frames), draw(deltas)
        for _ in range(draw(st.integers(1, 6))):
            anchor = draw(st.lists(coords, min_size=n, max_size=n) | st.lists(values, min_size=n, max_size=n))
            doc.append({"kind": "square", "anchor": anchor, "frame": frame, "delta": delta})
    for _ in range(draw(st.integers(0, 2))):
        tube = {"kind": "round", "point": draw(vector(n)).tolist(), "axis": eye[0].tolist(), "r": 0.5}
        doc.insert(draw(st.integers(0, len(doc))), tube)
    return wire(doc)


def frame_owners(cover):
    """For each part, the index of the first part with the same Frame object."""
    frames = [getattr(part, "frame", part) for part in cover.tubes]
    return [next(j for j, other in enumerate(frames) if other is frame) for frame in frames]


def assert_same_cover(a, b):
    assert [type(p) for p in a.tubes] == [type(p) for p in b.tubes]
    assert [len(p) if isinstance(p, SquareTubes) else 1 for p in a.tubes] == [
        len(p) if isinstance(p, SquareTubes) else 1 for p in b.tubes]
    assert frame_owners(a) == frame_owners(b)
    for p, q in zip(a.tubes, b.tubes):
        if isinstance(p, Tube):
            assert (p.point.tobytes(), p.axis.tobytes(), p.radius) == (q.point.tobytes(), q.axis.tobytes(), q.radius)
        else:
            assert p.anchors.tobytes() == q.anchors.tobytes() and p.half_width == q.half_width
            assert (p.frame.axis.tobytes(), p.frame.cross.tobytes()) == (q.frame.axis.tobytes(), q.frame.cross.tobytes())


def outcome(read, doc):
    """The cover read from doc, or the class and message of its package error."""
    try:
        return read(doc)
    except TubeMeasureError as exc:
        return type(exc), str(exc)


@PROPERTY
@given(square_runs())
def test_reader_matches_the_per_entry_reader(doc):
    assert_same_cover(cover_from_json(doc), read_by_entry(doc))


def retyped(x):
    """A value equal to x of another JSON type, which only the per-entry
    checks tell apart: a bool for 0 or 1, a float for another int, an int
    for another whole float."""
    if x in (0, 1) and type(x) is not bool:
        return bool(x)
    return float(x) if type(x) is int else int(x) if x.is_integer() else x


BAD = [True, "0.5", 10**400, [0.5], float("nan"), float("inf"), -float("inf"), retyped]


@st.composite
def mutated_runs(draw):
    """A square_runs document with one entry of a run made bad, often one
    after the run's first: a number of its anchor, frame or delta replaced,
    by one of BAD or by an equal number of another type, its whole anchor
    replaced, a cross row cut short, an empty anchor, or at the run's last
    entry a field dropped or added."""
    doc = draw(square_runs())
    squares = [i for i, entry in enumerate(doc) if entry["kind"] == "square"]
    later = [i for i in squares if i - 1 in squares and doc[i - 1]["frame"] == doc[i]["frame"]]
    i = draw(st.sampled_from(later) | st.sampled_from(squares) if later else st.sampled_from(squares))
    entry = doc[i]  # wired: no other entry shares its lists and dicts
    how = draw(st.sampled_from(["anchor", "axis", "cross", "delta", "whole", "ragged", "empty", "missing",
                                "extra"]))
    bad = draw(st.sampled_from(BAD))
    if how == "whole":
        entry["anchor"] = bad(0.5) if bad is retyped else bad
    elif how in ("anchor", "axis", "cross", "delta"):
        numbers = {"anchor": entry["anchor"], "axis": entry["frame"]["axis"], "delta": entry["delta"],
                   "cross": draw(st.sampled_from(entry["frame"]["cross"]))}[how]
        at = draw(st.sampled_from(list(numbers) if how == "delta" else range(len(numbers))))
        numbers[at] = bad(numbers[at]) if bad is retyped else bad
    elif how == "ragged":
        draw(st.sampled_from(entry["frame"]["cross"])).pop()
    elif how == "empty":
        entry["anchor"] = []
    else:
        while i + 1 < len(doc) and doc[i + 1]["kind"] == "square" and doc[i + 1]["frame"] == entry["frame"]:
            i += 1  # the last entry of the run
        if how == "missing":
            del doc[i][draw(st.sampled_from(["anchor", "frame", "delta"]))]
        else:
            doc[i]["label"] = "x"
    return doc


@settings(PROPERTY, max_examples=400)
@given(mutated_runs())
def test_reader_fails_as_the_per_entry_reader(doc):
    got, want = outcome(cover_from_json, doc), outcome(read_by_entry, doc)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_cover(got, want)


def test_schema_error_of_a_later_entry_comes_before_a_nan_anchor():
    entry = {"kind": "square", "anchor": [0.5, 0.5, 0.5], "frame": {"axis": [0.0, 0.0, 1.0],
             "cross": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}, "delta": {"num": 1, "den": 4}}
    doc = wire([entry] * 401)
    doc[0]["anchor"][0] = float("nan")
    doc[400]["label"] = "x"
    for read in (cover_from_json, read_by_entry):
        with pytest.raises(SchemaError) as info:
            read(doc)
        assert str(info.value) == "cover[400] has unknown fields: ['label']"


def test_an_array_in_a_document_built_in_python_is_refused_by_name():
    entry = {"kind": "square", "anchor": [0.5, 0.5, 0.5], "frame": {"axis": [0.0, 0.0, 1.0],
             "cross": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}, "delta": {"num": 1, "den": 4}}
    doc = wire([entry] * 3)
    doc[1]["frame"]["axis"] = np.array([0.0, 0.0, 1.0])
    with pytest.raises(SchemaError, match=r"^cover\[1\]\.frame\.axis must be a nonempty list"):
        cover_from_json(doc)


def test_signed_zero_frame_past_the_first_chunk_starts_its_own_group():
    entry = {"kind": "square", "anchor": [0.5, 0.5, 0.5], "frame": {"axis": [0.0, 0.0, 1.0],
             "cross": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}, "delta": {"num": 1, "den": 4}}
    doc = wire([entry] * 1500)
    doc[1300]["frame"]["cross"][0][1] = -0.0
    cover = cover_from_json(doc)
    assert [len(part) for part in cover.tubes] == [1300, 1, 199]
    assert_same_cover(cover, read_by_entry(doc))


# --- the report emitter ----------------------------------------------------

# a packing lists its squares up to this depth for each cross dimension m
PACK_DEPTHS = {1: 12, 2: 10, 3: 6, 4: 4, 5: 3}
radii = st.floats(2.0 ** -40, 1024.0) | st.sampled_from([1.0, 1024.0, 2.0 ** -40, 0.7049123008575975])


@settings(PROPERTY, max_examples=40)
@given(st.integers(1, 5).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, PACK_DEPTHS[m]))), radii)
@example((2, 1), 1.0)  # lists no square
@example((5, 3), 1024.0)
@example((3, 6), 2.0 ** -40)
def test_pack_stdout_is_the_stdlib_layout_of_the_expanded_report(m_depth, radius):
    m, depth = m_depth
    argv = ["pack", "--dim", str(m), "--depth", str(depth), "--radius", repr(radius)]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    packing = ball_square_packing(m, radius, depth)
    config = cli._config(cli._build_parser().parse_args(argv))
    expanded = {"command": "pack", "config": config, "result": packing.to_dict()}
    same = out.getvalue() == json.dumps(expanded, indent=2) + "\n"
    assert same  # a diff of texts this long would take minutes


# anchors whose text is hardest to match: a signed zero, the least subnormal
# and the largest magnitudes
anchor_coords = coords | st.sampled_from([-0.0, 5e-324, 1e308, -1e308])


@st.composite
def listed_covers(draw):
    """Round tubes mixed with several groups of square tubes, two of which share a frame."""
    n = draw(st.integers(2, 4))
    shared = orthonormal_frame(draw(direction(n)))
    frames = [shared, shared] + draw(st.lists(direction(n).map(orthonormal_frame), max_size=2))
    parts = [
        SquareTubes(
            frame=frame,
            anchors=np.array(draw(st.lists(st.lists(anchor_coords, min_size=n, max_size=n),
                                           min_size=1, max_size=4))),
            half_width=draw(st.fractions(min_value=0.001, max_value=3)),
        )
        for frame in frames
    ]
    parts += [Tube(point=draw(vector(n)), axis=draw(direction(n)), radius=draw(lengths))
              for _ in range(draw(st.integers(1, 3)))]
    return TubeCover(tubes=tuple(draw(st.permutations(parts))))


SHARED = orthonormal_frame(np.array([0.0, 0.6, 0.8]))
EXTREMES = TubeCover(tubes=(
    SquareTubes(frame=SHARED, anchors=np.array([[-0.0, 5e-324, 1e308], [-1e308, 0.0, 1.0]]),
                half_width=Fraction(1, 3)),
    Tube(point=np.array([-0.0, 5e-324, 1e308]), axis=np.array([0.0, 0.0, 1.0]), radius=0.25),
    SquareTubes(frame=SHARED, anchors=np.array([0.5, -0.0, -1e308]), half_width=Fraction(1, 2)),
))


@settings(PROPERTY, max_examples=100)
@given(listed_covers())
@example(EXTREMES)
def test_cover_report_is_the_stdlib_layout_of_the_expanded_report(cover):
    config = {"seed": 0, "output_format": "json"}
    result = {"source": "search", "tubes": len(cover), "cover": cover_listing(cover)}
    expanded = {"command": "cover", "config": config, "result": {**result, "cover": cover_to_json(cover)}}
    report = {"command": "cover", "config": config, "result": result}
    same = cli._emit(report, "json") == json.dumps(expanded, indent=2) + "\n"
    assert same
