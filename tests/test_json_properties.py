"""Property and fuzz tests of the JSON readers and the report emitter,
with hypothesis.

Every test runs derandomized, so each run checks the same instances.
"""

import contextlib
import io
import json
from fractions import Fraction

import numpy as np
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
    """Equal to the last bit, except round-tube and product axes: their
    constructors normalize the axis again, which can move its last bits."""
    if isinstance(doc, dict):
        assert again.keys() == doc.keys()
        for key in doc:
            if key == "axis" and doc.get("kind") in ("round", "product"):
                np.testing.assert_allclose(again[key], doc[key], rtol=0, atol=1e-15)
            else:
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
