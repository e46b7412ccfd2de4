import json
import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_rotation, read_by_entry

from tubemeasure import (
    Ball,
    DegenerateShapeError,
    ConvexPolytope,
    Cuboid,
    Frame,
    GeometryError,
    PointCloud,
    ProductSet,
    SchemaError,
    SquareTubes,
    Tube,
    TubeCover,
    UnionShape,
    axis_aligned_cuboid,
    ball_square_packing,
    bound_report_to_json,
    compute_bounds,
    cover_from_json,
    cover_to_json,
    parallel_cover_from_projection,
    regular_tetrahedron,
    rational_from_json,
    rational_to_json,
    shape_from_json,
    shape_to_json,
)


def roundtrip(shape):
    # through the actual wire format, so floats must survive text round-trip
    return shape_from_json(json.loads(json.dumps(shape_to_json(shape))))


def assert_same_shape(a, b):
    assert type(a) is type(b)
    if isinstance(a, Ball):
        assert np.array_equal(a.center, b.center) and a.radius == b.radius
    elif isinstance(a, Cuboid):
        assert np.array_equal(a.center, b.center)
        assert np.array_equal(a.half_lengths, b.half_lengths)
        if a.frame is None:
            assert b.frame is None
        else:
            assert np.array_equal(a.frame.axis, b.frame.axis)
            assert np.array_equal(a.frame.cross, b.frame.cross)
    elif isinstance(a, ConvexPolytope):
        assert np.array_equal(a.vertices, b.vertices)
    elif isinstance(a, PointCloud):
        assert np.array_equal(a.points, b.points)
    elif isinstance(a, ProductSet):
        assert np.array_equal(a.axis, b.axis)
        assert_same_shape(a.base, b.base)
    elif isinstance(a, UnionShape):
        assert len(a.members) == len(b.members)
        for ma, mb in zip(a.members, b.members):
            assert_same_shape(ma, mb)
    else:
        raise AssertionError(f"unhandled type {type(a)}")


class TestShapeRoundTrip:
    def test_ball(self):
        ball = Ball(center=np.array([0.25, -1.5, 3.0]), radius=0.75)
        assert_same_shape(ball, roundtrip(ball))

    def test_rotated_cuboid(self):
        rng = np.random.default_rng(3)
        rot = random_rotation(rng, 3)
        frame = Frame(axis=rot[-1], cross=rot[:-1])
        cuboid = Cuboid(
            center=np.array([1.0, 2.0, 3.0]),
            frame=frame,
            half_lengths=np.array([0.5, 1.5, 2.5]),
        )
        assert_same_shape(cuboid, roundtrip(cuboid))

    def test_segment_has_no_frame(self):
        segment = axis_aligned_cuboid(np.array([0.5]), np.array([0.5]))
        doc = shape_to_json(segment)
        assert "frame" not in doc
        assert_same_shape(segment, roundtrip(segment))

    def test_segment_with_a_frame_is_not_built(self):
        # its frame would be written, and the document then refused on reading
        frame = Frame(axis=np.array([0.0, 1.0]), cross=np.array([[1.0, 0.0]]))
        for bad in (frame, "frame"):
            with pytest.raises(GeometryError, match="1-D cuboid takes no frame"):
                Cuboid(center=np.array([0.5]), frame=bad, half_lengths=np.array([0.5]))
        segment = Cuboid(center=np.array([0.5]), frame=None, half_lengths=np.array([0.5]))
        assert shape_to_json(roundtrip(segment)) == shape_to_json(segment)

    def test_polytope(self):
        tri = ConvexPolytope.hull_of(
            np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        )
        assert_same_shape(tri, roundtrip(tri))

    def test_cloud(self):
        cloud = PointCloud(points=np.array([[0.0, 1.0], [2.0, -3.0], [4.0, 5.0]]))
        assert_same_shape(cloud, roundtrip(cloud))

    def test_product(self):
        prod = ProductSet(
            base=Ball(center=np.zeros(2), radius=1.0),
            axis=np.array([0.0, 0.0, 1.0]),
        )
        assert_same_shape(prod, roundtrip(prod))

    def test_nested_union(self):
        union = UnionShape(
            members=(
                Ball(center=np.zeros(2), radius=1.0),
                UnionShape(
                    members=(Ball(center=np.array([3.0, 0.0]), radius=0.5),)
                ),
            )
        )
        assert_same_shape(union, roundtrip(union))

    def test_empty_union_keeps_dimension(self):
        empty = UnionShape(members=(), dim_hint=3)
        back = roundtrip(empty)
        assert back.dim == 3 and back.members == ()


BOX_FRAME = {"axis": [0.0, 0.0, 1.0], "cross": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]}
# one literal document per kind, keys in the order shape_to_json writes them
LAYOUTS = [
    (
        Ball(center=np.array([0.25, -1.5, 3.0]), radius=0.75),
        {"dim": 3, "kind": "ball", "center": [0.25, -1.5, 3.0], "radius": 0.75},
    ),
    (
        Cuboid(
            center=np.array([1.0, 2.0, 3.0]),
            frame=Frame(axis=np.array(BOX_FRAME["axis"]), cross=np.array(BOX_FRAME["cross"])),
            half_lengths=np.array([0.5, 1.5, 2.5]),
        ),
        {"dim": 3, "kind": "cuboid", "center": [1.0, 2.0, 3.0], "half_lengths": [0.5, 1.5, 2.5],
         "frame": BOX_FRAME},
    ),
    (
        axis_aligned_cuboid(np.array([0.5]), np.array([0.25])),
        {"dim": 1, "kind": "cuboid", "center": [0.5], "half_lengths": [0.25]},
    ),
    (
        ConvexPolytope(vertices=np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])),
        {"dim": 2, "kind": "polytope", "vertices": [[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]},
    ),
    (
        PointCloud(points=np.array([[0.0, 1.0], [2.0, -3.0]])),
        {"dim": 2, "kind": "cloud", "points": [[0.0, 1.0], [2.0, -3.0]]},
    ),
    (
        ProductSet(base=Ball(center=np.zeros(2), radius=1.0), axis=np.array([0.0, 0.0, 1.0])),
        {"dim": 3, "kind": "product",
         "base": {"dim": 2, "kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
         "axis": [0.0, 0.0, 1.0]},
    ),
    (
        UnionShape(members=(
            PointCloud(points=np.array([[1.0, 2.0]])),
            UnionShape(members=(Ball(center=np.array([3.0, 0.0]), radius=0.5),)),
            UnionShape(members=(), dim_hint=2),
        )),
        {"dim": 2, "kind": "union", "members": [
            {"dim": 2, "kind": "cloud", "points": [[1.0, 2.0]]},
            {"dim": 2, "kind": "union", "members": [
                {"dim": 2, "kind": "ball", "center": [3.0, 0.0], "radius": 0.5}]},
            {"dim": 2, "kind": "union", "members": []},
        ]},
    ),
]


@pytest.mark.parametrize(
    "shape, expected", LAYOUTS,
    ids=["ball", "cuboid", "segment", "polytope", "cloud", "product", "nested-union"],
)
def test_document_layout_is_pinned(shape, expected):
    # json.dumps keeps key order, so equal text means equal keys in equal order
    doc = shape_to_json(shape)
    assert json.dumps(doc) == json.dumps(expected)
    assert json.dumps(shape_to_json(shape_from_json(expected))) == json.dumps(expected)


class TestShapeSchemaErrors:
    def base_ball(self):
        return {"dim": 3, "kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}

    def test_not_an_object(self):
        with pytest.raises(SchemaError):
            shape_from_json([1, 2, 3])

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            shape_from_json({"dim": 2, "kind": "simplex", "vertices": [[0.0, 0.0]]})

    @pytest.mark.parametrize("kind", [["ball"], {"ball": 1}, 3, None, True])
    def test_kind_that_is_not_a_string(self, kind):
        doc = self.base_ball()
        doc["kind"] = kind
        with pytest.raises(SchemaError, match="unknown shape kind"):
            shape_from_json(doc)

    def test_missing_field(self):
        doc = self.base_ball()
        del doc["radius"]
        with pytest.raises(SchemaError):
            shape_from_json(doc)

    def test_unknown_field(self):
        doc = self.base_ball()
        doc["color"] = "red"
        with pytest.raises(SchemaError):
            shape_from_json(doc)

    def test_wrong_vector_length(self):
        doc = self.base_ball()
        doc["center"] = [0.0, 0.0]
        with pytest.raises(SchemaError):
            shape_from_json(doc)

    def test_bool_is_not_a_number(self):
        doc = self.base_ball()
        doc["radius"] = True
        with pytest.raises(SchemaError):
            shape_from_json(doc)

    def test_dim_must_be_positive_integer(self):
        doc = self.base_ball()
        doc["dim"] = 0
        with pytest.raises(SchemaError):
            shape_from_json(doc)
        doc["dim"] = 3.0
        with pytest.raises(SchemaError):
            shape_from_json(doc)

    def test_segment_with_frame_rejected(self):
        with pytest.raises(SchemaError):
            shape_from_json(
                {
                    "dim": 1,
                    "kind": "cuboid",
                    "center": [0.0],
                    "half_lengths": [1.0],
                    "frame": {"axis": [1.0], "cross": []},
                }
            )

    def test_cuboid_without_frame_rejected(self):
        with pytest.raises(SchemaError):
            shape_from_json(
                {
                    "dim": 2,
                    "kind": "cuboid",
                    "center": [0.0, 0.0],
                    "half_lengths": [1.0, 1.0],
                }
            )

    def test_geometric_validity_is_not_schema(self):
        # well-formed documents with bad geometry fail in the constructors
        doc = self.base_ball()
        doc["radius"] = -1.0
        with pytest.raises(DegenerateShapeError):
            shape_from_json(doc)
        with pytest.raises(GeometryError):
            shape_from_json(
                {
                    "dim": 2,
                    "kind": "cuboid",
                    "center": [0.0, 0.0],
                    "half_lengths": [1.0, 1.0],
                    "frame": {"axis": [1.0, 0.0], "cross": [[1.0, 0.0]]},
                }
            )


class TestRationals:
    def test_lowest_terms_out(self):
        assert rational_to_json(Fraction(6, 8)) == {"num": 3, "den": 4}
        assert rational_to_json(Fraction(-2, 6)) == {"num": -1, "den": 3}

    def test_normalizes_on_read(self):
        assert rational_from_json({"num": 2, "den": 4}) == Fraction(1, 2)

    def test_rejects_nonpositive_denominator(self):
        for den in (0, -3):
            with pytest.raises(SchemaError):
                rational_from_json({"num": 1, "den": den})

    def test_rejects_float_and_bool_parts(self):
        with pytest.raises(SchemaError):
            rational_from_json({"num": 1.0, "den": 2})
        with pytest.raises(SchemaError):
            rational_from_json({"num": True, "den": 2})

    def test_rejects_extra_or_missing_fields(self):
        with pytest.raises(SchemaError):
            rational_from_json({"num": 1})
        with pytest.raises(SchemaError):
            rational_from_json({"num": 1, "den": 2, "sign": 1})


class TestCoverDocuments:
    def mixed_cover(self):
        cube = axis_aligned_cuboid(np.full(3, 0.5), np.full(3, 0.5))
        square_part = parallel_cover_from_projection(
            cube, np.array([0.0, 0.0, 1.0]), 0.5
        )
        round_tube = Tube(
            point=np.array([0.1, -0.2, 0.3]),
            axis=np.array([0.0, 1.0, 0.0]),
            radius=0.4,
        )
        return TubeCover(tubes=square_part.tubes + (round_tube,))

    def test_round_trip_preserves_tubes(self):
        cover = self.mixed_cover()
        doc = json.loads(json.dumps(cover_to_json(cover)))
        assert isinstance(doc, list)
        back = cover_from_json(doc)
        assert len(back) == len(cover)
        for a, b in zip(cover.tubes, back.tubes):
            assert type(a) is type(b)
            if isinstance(a, Tube):
                assert np.array_equal(a.point, b.point)
                assert np.array_equal(a.axis, b.axis)
                assert a.radius == b.radius
            else:
                assert np.array_equal(a.anchors, b.anchors)
                assert a.half_width == b.half_width
                assert np.array_equal(a.frame.axis, b.frame.axis)
                assert np.array_equal(a.frame.cross, b.frame.cross)

    def test_grid_cover_reads_back_as_one_group(self):
        cover = parallel_cover_from_projection(regular_tetrahedron(), (0, 0, 1), 1 / 32)
        (grid,) = cover.tubes
        assert isinstance(grid, SquareTubes) and len(grid) == len(cover) == 529
        doc = json.loads(json.dumps(cover_to_json(cover)))
        assert len(doc) == len(cover)
        (back,) = cover_from_json(doc).tubes
        assert isinstance(back, SquareTubes) and len(back) == len(grid)
        assert back.anchors.tobytes() == grid.anchors.tobytes()
        assert back.half_width == grid.half_width

    def test_interleaved_entries_read_back_part_for_part(self):
        # square A, round, square A: only consecutive square entries merge
        frame = Frame(axis=np.array([0.0, 0.0, 1.0]), cross=np.eye(3)[:2])
        square_a = SquareTubes(frame=frame, anchors=np.zeros((2, 3)) + [[0.0], [1.0]], half_width=Fraction(1, 4))
        round_tube = Tube(point=np.array([0.1, -0.2, 0.3]), axis=np.array([0.0, 1.0, 0.0]), radius=0.4)
        doc = json.loads(json.dumps(cover_to_json(TubeCover(tubes=(square_a, round_tube, square_a)))))
        assert [entry["kind"] for entry in doc] == ["square", "square", "round", "square", "square"]
        back = cover_from_json(doc)
        assert [type(part) for part in back.tubes] == [SquareTubes, Tube, SquareTubes]
        assert len(back) == 5
        assert json.loads(json.dumps(cover_to_json(back))) == doc

    def test_a_frame_equal_but_for_a_zero_s_sign_splits_the_run(self):
        # the three frames are == equal, but the third holds -0.0 where the
        # others hold 0.0: it is read in full, and its frame starts a part
        frame = {"axis": [0.0, 0.0, 1.0], "cross": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}
        signed = {"axis": [0.0, -0.0, 1.0], "cross": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}
        delta = {"num": 1, "den": 4}
        doc = [{"kind": "square", "anchor": [x, 0.5, 0.0], "frame": f, "delta": delta}
               for x, f in ((0.5, frame), (1.0, frame), (1.5, signed))]
        back = cover_from_json(doc)
        by_entry = read_by_entry(doc)
        assert [len(part) for part in back.tubes] == [len(part) for part in by_entry.tubes] == [2, 1]
        for a, b in zip(back.tubes, by_entry.tubes):
            assert a.anchors.tobytes() == b.anchors.tobytes() and a.half_width == b.half_width
            assert np.vstack([a.frame.axis, a.frame.cross]).tobytes() == np.vstack([b.frame.axis, b.frame.cross]).tobytes()
        assert math.copysign(1.0, back.tubes[1].frame.axis[1]) == -1.0

    def test_expanded_entries_share_only_their_group_dicts(self):
        # a group's tubes share one frame and one delta dict, a depth's squares
        # one half_width dict; every entry and anchor or centre is its own
        frame = Frame(axis=np.array([0.0, 0.0, 1.0]), cross=np.eye(3)[:2])
        group_a = SquareTubes(frame=frame, anchors=np.zeros((3, 3)) + [[0.0], [1.0], [2.0]], half_width=Fraction(1, 4))
        group_b = SquareTubes(frame=frame, anchors=np.ones((2, 3)), half_width=Fraction(1, 8))
        round_tube = Tube(point=np.array([0.1, -0.2, 0.3]), axis=np.array([0.0, 1.0, 0.0]), radius=0.4)
        doc = cover_to_json(TubeCover(tubes=(group_a, round_tube, group_b)))
        a, b = doc[:3], doc[4:]
        for group in (a, b):
            assert all(t["frame"] is group[0]["frame"] and t["delta"] is group[0]["delta"] for t in group)
        squares = a + b
        assert len({id(t) for t in squares}) == len({id(t["anchor"]) for t in squares}) == 5
        before = json.loads(json.dumps(doc))
        squares[0]["anchor"][0] = 9.0
        assert json.loads(json.dumps(doc))[1:] == before[1:]

        listed = ball_square_packing(2, 1.0, 4).to_dict()["squares"]
        by_depth = {}
        for square in listed:
            by_depth.setdefault(square["half_width"]["den"], []).append(square)
        assert len(by_depth) > 1
        for same in by_depth.values():
            assert all(sq["half_width"] is same[0]["half_width"] for sq in same)
        centres = [c for sq in listed for c in sq["center"]]
        assert len({id(sq) for sq in listed}) == len(listed)
        assert len({id(c) for c in centres}) == len(centres) == 2 * len(listed)

    def test_top_level_dict_rejected(self):
        with pytest.raises(SchemaError):
            cover_from_json({"tubes": []})

    def test_unknown_tube_kind(self):
        with pytest.raises(SchemaError):
            cover_from_json([{"kind": "hexagonal", "point": [0.0, 0.0]}])

    def test_missing_and_extra_fields(self):
        good = cover_to_json(self.mixed_cover())
        missing = json.loads(json.dumps(good))
        del missing[0]["delta"]
        with pytest.raises(SchemaError):
            cover_from_json(missing)
        extra = json.loads(json.dumps(good))
        extra[-1]["label"] = "x"
        with pytest.raises(SchemaError):
            cover_from_json(extra)

    @pytest.mark.parametrize(
        "bad, message",
        [(True, "must be a number"), ("0.5", "must be a number"),
         (10**400, "is out of range"), ([0.5], "must be a number")],
    )
    @pytest.mark.parametrize("where", ["anchor", "frame"])
    def test_non_float_entry_among_floats_keeps_its_message(self, bad, message, where):
        # a vector of floats alone is read whole; any other entry sends it
        # through the per-entry checks, which name the entry
        doc = json.loads(json.dumps(cover_to_json(self.mixed_cover())))
        if where == "anchor":
            doc[0]["anchor"][1] = bad
            name = "cover[0].anchor[1]"
        else:
            doc[0]["frame"]["cross"][1][2] = bad
            name = "cover[0].frame.cross[1][2]"
        with pytest.raises(SchemaError) as info:
            cover_from_json(doc)
        assert str(info.value) == f"{name} {message}"

    def test_square_delta_must_be_rational_object(self):
        doc = cover_to_json(self.mixed_cover())
        doc[0]["delta"] = 0.25
        with pytest.raises(SchemaError):
            cover_from_json(doc)


class TestBoundReportDocument:
    def test_exactly_five_fields(self):
        report = compute_bounds(Ball(center=np.zeros(3), radius=1.0), mc_samples=2000)
        doc = bound_report_to_json(report)
        assert set(doc) == {
            "lower",
            "lower_std_error",
            "upper",
            "witness_direction",
            "method",
        }
        assert doc["upper"] == pytest.approx(math.pi, abs=1e-12)
        assert doc["lower"] == pytest.approx((4 * math.pi / 3) / 2, abs=1e-12)
        assert isinstance(doc["witness_direction"], list)
        assert isinstance(doc["method"], str)
        json.dumps(doc)  # JSON-ready as-is
