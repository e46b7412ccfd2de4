import math

import numpy as np
import pytest
from conftest import random_direction, random_rotation, random_shape

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
    SquareTube,
    Tube,
    UnboundedShapeError,
    UnionShape,
    axis_aligned_cuboid,
    bounding_box,
    diameter,
    identity_frame,
    orthonormal_frame,
    point_in_tube,
    regular_tetrahedron,
    unit_ball_volume,
    volume_exact,
)
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
        assert point_in_tube(np.array([0.0, 0.0, 17.0]), tube)

    def test_boundary_is_closed(self):
        tube = Tube(point=np.zeros(3), axis=np.array([0.0, 0.0, 1.0]), radius=1.0)
        assert point_in_tube(np.array([1.0, 0.0, -4.0]), tube)

    def test_outside(self):
        tube = Tube(point=np.zeros(3), axis=np.array([0.0, 0.0, 1.0]), radius=1.0)
        assert not point_in_tube(np.array([0.0, 2.0, 0.0]), tube)

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
            assert point_in_tube(p, tube) == point_in_tube(rot @ p + shift, moved_tube)
            trials += 1
        assert trials > 900

    def test_square_tube_membership(self):
        st = SquareTube(
            frame=identity_frame(3), anchor=np.zeros(3), half_width=Fraction(1, 2)
        )
        assert point_in_tube(np.zeros(3), st)
        assert point_in_tube(np.array([0.5, 0.5, 9.0]), st)  # closed boundary
        assert not point_in_tube(np.array([0.6, 0.0, 0.0]), st)

    def test_square_tube_width_positive(self):
        with pytest.raises(ParameterError):
            SquareTube(frame=identity_frame(2), anchor=np.zeros(2), half_width=0)


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
