import math

import numpy as np
import pytest
from conftest import random_shape

from tubemeasure import (
    Ball,
    DegenerateShapeError,
    ParameterError,
    PointCloud,
    UnionShape,
    axis_aligned_cuboid,
    mc_intersection_volume,
    mc_volume,
    sample_points,
    Tube,
)


class TestMcVolume:
    def test_ball_within_three_sigma(self):
        # the ball has a closed form, so force the sampling path via a union
        ball = Ball(center=np.zeros(3), radius=1.0)
        shifted = Ball(center=np.array([0.5, 0.0, 0.0]), radius=0.5)  # inside ball
        union = UnionShape(members=(ball, shifted))
        est, se = mc_volume(union, samples=1_000_000, seed=0)
        assert se > 0
        assert abs(est - 4 * math.pi / 3) <= 3 * se

    def test_cuboid_closed_form_bypasses_sampling(self):
        cube = axis_aligned_cuboid(np.zeros(3), np.array([1.0, 1.0, 1.0]))
        est, se = mc_volume(cube, samples=2000, seed=0)
        assert est == 8.0
        assert se == 0.0

    def test_disjoint_union_additivity(self):
        a = Ball(center=np.zeros(2), radius=1.0)
        b = Ball(center=np.array([4.0, 0.0]), radius=1.0)
        est, se = mc_volume(UnionShape(members=(a, b)), samples=400_000, seed=1)
        assert abs(est - 2 * math.pi) <= 3 * se

    def test_seed_determinism(self):
        union = UnionShape(
            members=(
                Ball(center=np.zeros(2), radius=1.0),
                Ball(center=np.array([1.0, 0.0]), radius=1.0),
            )
        )
        first = mc_volume(union, samples=50_000, seed=42)
        second = mc_volume(union, samples=50_000, seed=42)
        assert first == second
        third = mc_volume(union, samples=50_000, seed=43)
        assert third != first

    def test_sample_floor(self):
        with pytest.raises(ParameterError):
            mc_volume(Ball(center=np.zeros(2), radius=1.0), samples=999)

    def test_cloud_volume_zero(self):
        cloud = PointCloud(points=np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert mc_volume(cloud, samples=2000, seed=0) == (0.0, 0.0)


class TestSamplePoints:
    def test_points_lie_inside(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            shape = random_shape(rng, n)
            pts = sample_points(shape, 200, seed=int(rng.integers(1 << 32)))
            assert pts.shape == (200, n)
            for p in pts[:20]:
                assert shape.contains(p)

    def test_cloud_returns_points_verbatim(self):
        cloud = PointCloud(points=np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]]))
        pts = sample_points(cloud, 2, seed=0)
        assert pts.shape == (2, 2)
        assert np.array_equal(pts, cloud.points[:2])

    @pytest.mark.parametrize("count", [0, -1, -3])
    def test_count_below_one_is_refused(self, count):
        # a negative count once sliced the points from the far end
        cloud = PointCloud(points=np.eye(4))
        for shape in (Ball(center=np.zeros(3), radius=1.0), cloud):
            with pytest.raises(ParameterError, match=f"^count must be at least 1, got {count}$"):
                sample_points(shape, count)

    def test_degenerate_raises(self):
        for cloud_like in (
            UnionShape(members=(), dim_hint=2),
            UnionShape(members=(UnionShape(members=(), dim_hint=2),)),
        ):
            with pytest.raises(DegenerateShapeError):
                sample_points(cloud_like, 10, seed=0)


class TestIntersectionVolume:
    def test_full_containment(self):
        ball = Ball(center=np.zeros(3), radius=0.5)
        fat = Tube(point=np.zeros(3), axis=np.array([0.0, 0.0, 1.0]), radius=2.0)
        est, se = mc_intersection_volume(ball, fat, samples=200_000, seed=0)
        assert abs(est - 4 * math.pi / 3 * 0.125) <= 3 * se + 1e-12

    def test_disjoint_is_zero(self):
        ball = Ball(center=np.zeros(2), radius=0.5)
        far = Tube(point=np.array([10.0, 0.0]), axis=np.array([0.0, 1.0]), radius=1.0)
        est, se = mc_intersection_volume(ball, far, samples=10_000, seed=0)
        assert est == 0.0
