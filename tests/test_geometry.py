import math

import numpy as np
import pytest
from conftest import random_cuboid, random_direction, random_polytope, random_rotation, random_shape
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from tubemeasure import (
    Ball,
    ConvexPolytope,
    Cuboid,
    DegenerateShapeError,
    DimensionError,
    Frame,
    GeometryError,
    ParameterError,
    PointCloud,
    ProductSet,
    SquareTubes,
    Tube,
    UnboundedShapeError,
    UnionShape,
    axis_aligned_cuboid,
    bounding_box,
    diameter,
    identity_frame,
    orthonormal_frame,
    regular_tetrahedron,
    unit_ball_volume,
    volume_exact,
)
from tubemeasure.geometry import CONTAINS_TOL, _rows_all
from tubemeasure.montecarlo import BATCH, TAG_POINTS, batch_rng, sample_points
from tubemeasure.projection import _BoxOracle, _HullOracle
from fractions import Fraction


class TestUnitBallVolume:
    def test_closed_forms_match_gamma_function(self):
        for m in range(0, 9):
            oracle = math.pi ** (m / 2) / math.gamma(m / 2 + 1)
            assert abs(unit_ball_volume(m) - oracle) <= 1e-10

    def test_small_values(self):
        assert unit_ball_volume(0) == 1.0
        assert unit_ball_volume(1) == 2.0
        assert abs(unit_ball_volume(2) - math.pi) <= 1e-15

    def test_recurrence(self):
        for m in range(1, 9):
            expected = (
                unit_ball_volume(m - 1)
                * math.sqrt(math.pi)
                * math.gamma((m + 1) / 2)
                / math.gamma(m / 2 + 1)
            )
            assert abs(unit_ball_volume(m) - expected) <= 1e-10

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            unit_ball_volume(-1)
        with pytest.raises(DimensionError):
            unit_ball_volume(9)


class TestFrames:
    def test_orthonormal_frame_random_axes(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            axis = random_direction(rng, n)
            frame = orthonormal_frame(axis)
            mat = frame.matrix
            assert np.allclose(mat @ mat.T, np.eye(n), atol=1e-12)
            # axis occupies the last row
            assert np.allclose(mat[-1], axis, atol=1e-12)

    def test_identity_frame(self):
        frame = identity_frame(3)
        assert np.allclose(frame.axis, [0, 0, 1])
        assert np.allclose(frame.cross, np.eye(3)[:2])

    def test_rejects_non_orthonormal(self):
        with pytest.raises(GeometryError):
            Frame(axis=np.array([1.0, 0.0]), cross=np.array([[1.0, 0.0]]))

    @pytest.mark.parametrize("scale, ok", [(1 + 1e-6, False), (1 + 1e-12, True)])
    def test_orthonormality_is_checked_to_the_stated_tolerance(self, scale, ok):
        # max |M M^T - I| <= FRAME_ORTHO_TOL, with no relative slack on the diagonal
        rows = random_rotation(np.random.default_rng(11), 3) * scale
        if ok:
            Frame(axis=rows[-1], cross=rows[:-1])
        else:
            with pytest.raises(GeometryError, match="not orthonormal"):
                Frame(axis=rows[-1], cross=rows[:-1])

    def test_rejects_bad_cross_shape(self):
        with pytest.raises(DimensionError):
            Frame(axis=np.array([0.0, 0.0, 1.0]), cross=np.eye(3))


class TestShapes:
    def test_ball_contains_and_support(self):
        ball = Ball(center=np.array([1.0, 0.0]), radius=2.0)
        assert ball.contains(np.array([2.9, 0.0]))
        assert not ball.contains(np.array([3.1, 0.0]))
        assert abs(ball.support(np.array([1.0, 0.0])) - 3.0) <= 1e-12

    def test_cuboid_vertices_count_and_support(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            frame = orthonormal_frame(random_direction(rng, n))
            cuboid = Cuboid(
                center=rng.uniform(-1, 1, n),
                frame=frame,
                half_lengths=rng.uniform(0.2, 1.0, n),
            )
            verts = cuboid.vertices
            assert verts.shape == (2 ** n, n)
            for d in (random_direction(rng, n), np.eye(n)[0]):
                support = cuboid.support(d)
                assert abs(support - (verts @ d).max()) <= 1e-9

    def test_axis_aligned_cuboid_volume(self):
        cuboid = axis_aligned_cuboid(np.zeros(3), np.array([0.5, 1.0, 2.0]))
        assert volume_exact(cuboid) == pytest.approx(8.0, abs=1e-12)

    def test_polytope_requires_convex_position(self):
        square_plus_center = np.array(
            [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]
        )
        with pytest.raises(GeometryError):
            ConvexPolytope(vertices=square_plus_center)
        # hull_of drops the interior point instead
        hull = ConvexPolytope.hull_of(square_plus_center)
        assert len(hull.vertices) == 4

    def test_polytope_degenerate(self):
        collinear = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(DegenerateShapeError):
            ConvexPolytope.hull_of(collinear)

    def test_union_and_empty_union(self):
        a = Ball(center=np.zeros(2), radius=1.0)
        b = Ball(center=np.array([5.0, 0.0]), radius=1.0)
        union = UnionShape(members=(a, b))
        assert union.dim == 2
        assert union.contains(np.array([5.5, 0.0]))
        empty = UnionShape(members=(), dim_hint=3)
        for e in (empty, UnionShape(members=(empty,))):
            assert e.dim == 3
            assert volume_exact(e) == 0.0
            assert all(np.array_equal(b, np.zeros(3)) for b in bounding_box(e))

    def test_union_dimension_mismatch(self):
        a = Ball(center=np.zeros(2), radius=1.0)
        b = Ball(center=np.zeros(3), radius=1.0)
        with pytest.raises(DimensionError):
            UnionShape(members=(a, b))

    def test_product_membership(self):
        base = Ball(center=np.zeros(2), radius=1.0)
        prod = ProductSet(base=base, axis=np.array([0.0, 0.0, 1.0]))
        assert prod.contains(np.array([0.5, 0.0, 123.0]))
        assert not prod.contains(np.array([1.5, 0.0, 0.0]))

    def test_dimension_cap(self):
        with pytest.raises(DimensionError):
            Ball(center=np.zeros(9), radius=1.0)


def broadcast_contains(points, pts):
    """Reference PointCloud.contains: each query against every cloud point."""
    pts = np.atleast_2d(pts)
    return (pts[:, None, :] == points[None, :, :]).all(axis=2).any(axis=1)


@st.composite
def clouds_and_queries(draw):
    """A cloud with repeated points and signed zeros, and queries drawn
    from it (with the signs of their zeros flipped too) and from outside,
    as floats or as integers."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5]), min_size=n, max_size=n)
    points = draw(st.lists(row, min_size=1, max_size=8))
    points += draw(st.lists(st.sampled_from(points), max_size=3))
    queries = draw(st.lists(st.one_of(st.sampled_from(points), row), min_size=1, max_size=12))
    queries += [[-x if x == 0.0 else x for x in q] for q in draw(st.lists(st.sampled_from(points), max_size=3))]
    queries = np.array(queries)
    if draw(st.booleans()):
        queries = np.trunc(queries).astype(np.int64)
    return np.array(points), queries


class TestPointCloudMembership:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(clouds_and_queries())
    def test_matches_broadcast_oracle(self, case):
        points, queries = case
        found = PointCloud(points=points).contains(queries)
        assert found.tolist() == broadcast_contains(points, queries).tolist()

    def test_query_of_another_dimension(self):
        # a width-1 query used to broadcast against the 3-D point
        cloud = PointCloud(points=np.array([[1.0, 1.0, 1.0]]))
        for bad in ([[1.0]], [[1.0, 1.0]], np.ones((2, 4))):
            with pytest.raises(DimensionError):
                cloud.contains(bad)


class TestDiameter:
    def test_ball(self):
        assert diameter(Ball(center=np.zeros(3), radius=1.0)) == pytest.approx(2.0)

    def test_cloud_345(self):
        cloud = PointCloud(points=np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert diameter(cloud) == pytest.approx(5.0, abs=1e-12)

    def test_eccentric_cuboid_diameter_is_ball_diameter(self):
        # long half-edge set by Pythagoras from cross width 0.5 in a unit ball
        n, eta = 3, 0.5
        long_edge = math.sqrt(4.0 - (n - 1) * eta * eta)
        assert long_edge == pytest.approx(1.8708287, abs=1e-7)
        half = np.array([eta / 2, eta / 2, long_edge / 2])
        cuboid = Cuboid(center=np.zeros(n), frame=identity_frame(n), half_lengths=half)
        oracle = math.sqrt((n - 1) * eta ** 2 + long_edge ** 2)
        assert oracle == pytest.approx(2.0, abs=1e-12)
        assert diameter(cuboid) == pytest.approx(2.0, abs=1e-12)

    def test_cuboid_space_diagonal_property(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            frame = orthonormal_frame(random_direction(rng, n))
            half = rng.uniform(0.1, 2.0, n)
            cuboid = Cuboid(center=rng.uniform(-1, 1, n), frame=frame, half_lengths=half)
            assert abs(
                diameter(cuboid) - math.sqrt(np.sum((2 * half) ** 2))
            ) <= 1e-12

    def test_union_pools_members(self):
        a = Ball(center=np.zeros(2), radius=1.0)
        b = Ball(center=np.array([10.0, 0.0]), radius=2.0)
        assert diameter(UnionShape(members=(a, b))) == pytest.approx(13.0, abs=1e-12)
        # mixed kinds pool their witnesses: a ball's center with its radius,
        # a cloud's points and a cube's vertices with radius 0
        ball = Ball(center=np.zeros(3), radius=1.0)
        cube = axis_aligned_cuboid(np.full(3, 0.5), np.full(3, 0.5))
        for members, expected in (
            ((ball, PointCloud(points=np.array([[3.0, 4.0, 0.0]]))), 6.0),
            ((cube, PointCloud(points=np.array([[-1.0, 0.0, 0.0]]))), math.sqrt(6.0)),
        ):
            assert diameter(UnionShape(members=members)) == pytest.approx(expected, abs=1e-12)

    def test_matches_cdist_bit_for_bit(self):
        # the last set spans two blocks of rows
        rng = np.random.default_rng(4)
        for count in [*rng.integers(1, 40, 200), 1500]:
            n = int(rng.integers(1, 9))
            pts = rng.standard_normal((int(count), n)) * 10.0 ** rng.integers(-6, 7)
            assert diameter(PointCloud(points=pts)) == float(cdist(pts, pts).max())

    def test_product_unbounded(self):
        prod = ProductSet(
            base=Ball(center=np.zeros(2), radius=1.0), axis=np.array([0.0, 0.0, 1.0])
        )
        ball = Ball(center=np.zeros(3), radius=1.0)
        for shape in (prod, UnionShape(members=(ball, prod))):
            with pytest.raises(UnboundedShapeError):
                diameter(shape)
            with pytest.raises(UnboundedShapeError):
                volume_exact(shape)


class TestTubes:
    def test_point_on_axis(self):
        tube = Tube(point=np.zeros(3), axis=np.array([0.0, 0.0, 1.0]), radius=1.0)
        assert tube.contains(np.array([0.0, 0.0, 17.0])[None])[0]

    def test_boundary_is_closed(self):
        tube = Tube(point=np.zeros(3), axis=np.array([0.0, 0.0, 1.0]), radius=1.0)
        assert tube.contains(np.array([1.0, 0.0, -4.0])[None])[0]

    def test_outside(self):
        tube = Tube(point=np.zeros(3), axis=np.array([0.0, 0.0, 1.0]), radius=1.0)
        assert not tube.contains(np.array([0.0, 2.0, 0.0])[None])[0]

    def test_radius_positive(self):
        with pytest.raises(ParameterError):
            Tube(point=np.zeros(2), axis=np.array([0.0, 1.0]), radius=0.0)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(5)
        trials = 0
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            tube = Tube(
                point=rng.uniform(-2, 2, n),
                axis=random_direction(rng, n),
                radius=float(rng.uniform(0.2, 2.0)),
            )
            p = rng.uniform(-3, 3, n)
            rot = random_rotation(rng, n)
            shift = rng.uniform(-5, 5, n)
            moved_tube = Tube(
                point=rot @ tube.point + shift, axis=rot @ tube.axis, radius=tube.radius
            )
            # membership can flip only within 1e-9 of the boundary
            dist = tube.distance_to_axis(p)
            if abs(dist - tube.radius) < 1e-9:
                continue
            assert tube.contains(p[None])[0] == moved_tube.contains((rot @ p + shift)[None])[0]
            trials += 1
        assert trials > 900

    def test_square_tube_membership(self):
        st = SquareTubes(
            frame=identity_frame(3), anchors=np.zeros((1, 3)), half_width=Fraction(1, 2)
        )
        assert len(st) == 1
        assert st.contains(np.zeros(3)[None])[0]
        assert st.contains(np.array([0.5, 0.5, 9.0])[None])[0]  # closed boundary
        assert not st.contains(np.array([0.6, 0.0, 0.0])[None])[0]

    def test_square_tube_width_positive(self):
        with pytest.raises(ParameterError):
            SquareTubes(frame=identity_frame(2), anchors=np.zeros((1, 2)), half_width=0)

    def test_square_tubes_hold_the_union_of_their_tubes(self):
        # one cost per tube, and a point is inside the group when it is
        # inside any one of its tubes
        anchors = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 5.0], [0.0, 3.0, -1.0]])
        group = SquareTubes(frame=identity_frame(3), anchors=anchors, half_width=Fraction(1, 2))
        assert len(group) == 3 and group._cost == 1.0
        pts = np.array([[0.1, 0.2, 7.0], [2.5, -0.5, 0.0], [0.0, 3.5, 2.0], [1.0, 0.0, 0.0], [0.0, 1.6, 0.0]])
        alone = [
            SquareTubes(frame=group.frame, anchors=a[None], half_width=group.half_width).contains(pts)
            for a in anchors
        ]
        assert group.contains(pts).tolist() == np.any(alone, axis=0).tolist() == [True] * 3 + [False] * 2

    def test_square_tubes_need_anchor_rows_of_the_frame_dimension(self):
        frame = identity_frame(3)
        for anchors in (np.zeros((0, 3)), np.zeros((2, 2)), np.zeros((1, 2, 3))):
            with pytest.raises(DimensionError):
                SquareTubes(frame=frame, anchors=anchors, half_width=Fraction(1, 2))
        with pytest.raises(GeometryError):
            SquareTubes(frame=frame, anchors=np.array([[0.0, math.nan, 0.0]]), half_width=1)


class TestBuiltins:
    def test_regular_tetrahedron_edges(self):
        tet = regular_tetrahedron()
        verts = tet.vertices
        assert verts.shape == (4, 3)
        from scipy.spatial.distance import pdist

        assert np.allclose(pdist(verts), 1.0, atol=1e-12)

    def test_volume_exact_values(self):
        assert volume_exact(Ball(center=np.zeros(3), radius=1.0)) == pytest.approx(
            4 * math.pi / 3, abs=1e-12
        )
        cube = axis_aligned_cuboid(np.zeros(3), np.array([0.5, 0.5, 0.5]))
        assert volume_exact(cube) == pytest.approx(1.0, abs=1e-12)
        square = ConvexPolytope.hull_of(
            np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        )
        assert volume_exact(square) == pytest.approx(1.0, abs=1e-12)
        cloud = PointCloud(points=np.array([[0.0, 0.0]]))
        assert volume_exact(cloud) == 0.0

    def test_bounding_box_ball(self):
        lo, hi = bounding_box(Ball(center=np.array([1.0, -1.0]), radius=0.5))
        assert np.allclose(lo, [0.5, -1.5], atol=1e-12)
        assert np.allclose(hi, [1.5, -0.5], atol=1e-12)

    def test_contains_matches_support_for_random_shapes(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            shape = random_shape(rng, n)
            d = random_direction(rng, n)
            support = shape.support(d)
            # a point just beyond the support plane cannot be inside
            lo, hi = bounding_box(shape)
            probe = (lo + hi) / 2 + d * (support - ((lo + hi) / 2) @ d + 0.05)
            assert not shape.contains(probe)


class TestColumnwiseMembership:
    """Membership tests reduce their comparisons column by column; the
    slow np.all expressions they replaced stay here as their oracle."""

    @staticmethod
    def old_below_facets(pts, equations):
        return np.all(pts @ equations[:, :-1].T + equations[:, -1] <= CONTAINS_TOL, axis=1)

    @staticmethod
    def facet_points(rng, hull, count):
        """Points on the hull's facets, and pushed to within a rounding of
        +/- CONTAINS_TOL outside them along each facet's normal."""
        facet = rng.integers(len(hull.simplices), size=count)
        weights = rng.dirichlet(np.ones(hull.simplices.shape[1]), size=count)
        on = np.einsum("ij,ijk->ik", weights, hull.points[hull.simplices[facet]])
        push = rng.choice([-1.0, 1.0], count)[:, None] * CONTAINS_TOL * (
            1.0 + rng.choice([-1e-6, 0.0, 1e-6], count)[:, None]
        )
        return np.vstack([on, on + push * hull.equations[facet, :-1]])

    def test_polytope_and_hull_oracle_match_all_facets(self):
        rng = np.random.default_rng(19)
        facets = []
        for n in range(2, 9):
            for _ in range(3):
                poly = random_polytope(rng, n)
                oracle = _HullOracle(poly.vertices)
                lo, hi = bounding_box(poly)
                pts = np.vstack([
                    rng.uniform(lo - 0.5, hi + 0.5, (500, n)),
                    self.facet_points(rng, poly._hull, 500),
                ])
                for eq, contains in ((poly._hull.equations, poly.contains),
                                     (oracle.equations, oracle.contains)):
                    expected = self.old_below_facets(pts, eq)
                    assert contains(pts).tolist() == expected.tolist()
                    assert expected.any() and not expected.all()
                    facets.append(len(eq))
        assert min(facets) <= 8 and max(facets) > 32  # narrow and wide masks ran

    def test_rows_all_matches_np_all_at_every_width(self):
        rng = np.random.default_rng(23)
        for width in (0, 1, 2, 3, 8, 33, 100):
            mask = rng.random((777, width)) < 0.97
            assert _rows_all(mask).tolist() == np.all(mask, axis=1).tolist()
            assert _rows_all(mask[::2]).tolist() == np.all(mask[::2], axis=1).tolist()

    def test_cuboid_and_square_tube_match_all_faces(self):
        rng = np.random.default_rng(20)
        for n in range(2, 9):
            for _ in range(3):
                box = random_cuboid(rng, n)
                h = box.half_lengths
                y = rng.uniform(-1.2, 1.2, (1000, n)) * h
                face = rng.integers(n, size=1000)
                y[np.arange(1000), face] = rng.choice([-1.0, 1.0], 1000) * h[face] * (
                    1.0 + rng.choice([-1e-15, 0.0, 0.0, 1e-15], 1000)
                )
                pts = box.center + y @ box.axes
                expected = np.all(np.abs((pts - box.center) @ box.axes.T) <= h, axis=1)
                assert box.contains(pts).tolist() == expected.tolist()
                assert expected.any() and not expected.all()
                tube = SquareTubes(frame=box.frame, anchors=box.center[None], half_width=Fraction(h[0]))
                rel = np.abs((pts - box.center) @ tube.frame.cross.T)
                assert tube.contains(pts).tolist() == np.all(rel <= h[0], axis=1).tolist()

    def test_box_oracle_matches_both_bounds(self):
        rng = np.random.default_rng(21)
        for m in range(1, 8):
            lo = rng.uniform(-2.0, 0.0, m)
            hi = lo + rng.uniform(0.1, 2.0, m)
            box = _BoxOracle(lo, hi, measure_zero=False)
            y = rng.uniform(lo - 0.3, hi + 0.3, (1000, m))
            face = rng.integers(m, size=1000)
            y[np.arange(1000), face] = np.where(rng.random(1000) < 0.5, lo[face], hi[face])
            expected = np.all(y >= lo, axis=1) & np.all(y <= hi, axis=1)
            assert box.contains(y).tolist() == expected.tolist()

    def test_sample_points_match_the_old_draw(self):
        # the old draw was lo + r * span, then the np.all membership tests;
        # random polytopes fill too little of their box to sample past R^5
        rng = np.random.default_rng(22)
        shapes = [random_cuboid(rng, n) for n in range(2, 9)]
        shapes += [random_polytope(rng, n) for n in range(2, 6)]
        for s in shapes:
            lo, hi = bounding_box(s)
            if isinstance(s, Cuboid):
                old = lambda p: np.all(np.abs((p - s.center) @ s.axes.T) <= s.half_lengths, axis=1)
            else:
                old = lambda p: self.old_below_facets(p, s._hull.equations)
            out, got, index = [], 0, 0
            while got < 3000:
                pts = lo + batch_rng(5, TAG_POINTS, index).random((BATCH, s.dim)) * (hi - lo)
                out.append(pts[old(pts)])
                got += len(out[-1])
                index += 1
            expected = np.vstack(out)[:3000]
            assert sample_points(s, 3000, seed=5).tobytes() == expected.tobytes()
