import math

import numpy as np
import pytest
from conftest import random_direction, random_shape

from tubemeasure import (
    Ball,
    PointCloud,
    ProductSet,
    Shadow,
    UnboundedShapeError,
    UnionShape,
    axis_aligned_cuboid,
    mc_volume,
    shadow_area,
)
from tubemeasure.montecarlo import BATCH, TAG_SHADOW, batch_rng
from tubemeasure.projection import shadow_values_batch


def unit_cube():
    return axis_aligned_cuboid(np.full(3, 0.5), np.full(3, 0.5))


class TestExactShadows:
    def test_cube_axis_direction(self):
        assert shadow_area(unit_cube(), np.array([0.0, 0.0, 1.0])) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_cube_diagonal_direction(self):
        d = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
        # facet-sum oracle: half the total |d . n_F| weighted by face area;
        # the unit cube has six unit-area faces with axis normals
        oracle = 0.5 * sum(abs(d[i]) * 1.0 * 2 for i in range(3))
        assert oracle == pytest.approx(math.sqrt(3), abs=1e-12)
        assert shadow_area(unit_cube(), d) == pytest.approx(oracle, abs=1e-9)

    def test_ball_any_direction(self):
        rng = np.random.default_rng(2)
        ball = Ball(center=rng.uniform(-1, 1, 3), radius=1.0)
        for _ in range(5):
            assert shadow_area(ball, random_direction(rng, 3)) == pytest.approx(
                math.pi, abs=1e-12
            )

    def test_disjoint_intervals_exact_in_plane(self):
        disks = UnionShape(
            members=(
                Ball(center=np.array([0.0, 0.0]), radius=0.5),
                Ball(center=np.array([3.0, 0.0]), radius=0.5),
            )
        )
        area, err = Shadow(disks, np.array([0.0, 1.0])).area()
        assert err == 0.0
        assert area == pytest.approx(2.0, abs=1e-12)

    def test_overlapping_intervals_merge(self):
        disks = UnionShape(
            members=(
                Ball(center=np.array([0.0, 0.0]), radius=1.0),
                Ball(center=np.array([1.0, 0.0]), radius=1.0),
            )
        )
        area, err = Shadow(disks, np.array([0.0, 1.0])).area()
        assert err == 0.0
        assert area == pytest.approx(3.0, abs=1e-12)

    def test_cloud_shadow_zero(self):
        cloud = PointCloud(points=np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]))
        assert shadow_area(cloud, np.array([0.0, 0.0, 1.0])) == 0.0

    def test_product_rejected(self):
        prod = ProductSet(
            base=Ball(center=np.zeros(2), radius=1.0), axis=np.array([0.0, 0.0, 1.0])
        )
        with pytest.raises(UnboundedShapeError):
            shadow_area(prod, np.array([0.0, 0.0, 1.0]))


class TestMonteCarloShadows:
    def test_union_shadow_matches_exact_disk(self):
        # duplicated ball forces the sampling path; truth is one disk
        ball = Ball(center=np.zeros(3), radius=1.0)
        union = UnionShape(members=(ball, ball))
        d = np.array([0.0, 0.0, 1.0])
        area, err = Shadow(union, d).area(samples=400_000, seed=3)
        assert err > 0
        assert abs(area - math.pi) <= 4 * err

    @pytest.mark.parametrize("seed", [0, 5])
    def test_union_shadow_matches_inline_sampler(self, seed):
        # the box sampler written out batch by batch is the oracle;
        # 70,000 samples leave a partial last batch
        union = UnionShape(
            members=(
                Ball(center=np.zeros(3), radius=1.0),
                Ball(center=np.array([1.5, 0.0, 0.0]), radius=0.7),
            )
        )
        shadow = Shadow(union, np.array([0.3, 0.4, 0.5]))
        assert shadow.exact_area is None
        samples = 70_000
        lo, hi = shadow.bbox(include_measure_zero=False)
        hits, index, done = 0, 0, 0
        while done < samples:
            count = min(BATCH, samples - done)
            rng = batch_rng(seed, TAG_SHADOW, index)
            y = lo + rng.random((count, shadow.m)) * (hi - lo)
            hits += int(np.count_nonzero(shadow.contains(y)))
            index, done = index + 1, done + count
        assert samples % BATCH != 0
        p = hits / samples
        box = float(np.prod(hi - lo))
        se = math.sqrt(p * (1.0 - p) / samples)
        assert shadow.area(samples=samples, seed=seed) == (box * p, box * se)

    def test_fubini_lower_bound(self):
        # shadow * extent >= volume, within combined Monte-Carlo error
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            shape = random_shape(rng, n)
            d = random_direction(rng, n)
            area, a_err = Shadow(shape, d).area(samples=50_000, seed=1)
            vol, v_err = mc_volume(shape, samples=50_000, seed=2)
            extent = shape.support(d) + shape.support(-d)
            assert extent > 0
            combined = 3 * (a_err + v_err / extent)
            assert area >= vol / extent - combined - 1e-9


class TestShadowObject:
    def test_anchor_projects_back(self):
        rng = np.random.default_rng(4)
        shape = random_shape(rng, 3)
        d = random_direction(rng, 3)
        shadow = Shadow(shape, d)
        lo, hi = shadow.bbox()
        y = (lo + hi) / 2
        anchor = shadow.anchor_for(y)
        # anchor must project exactly onto y in the cross frame
        assert np.allclose(shadow.frame.cross @ anchor, y, atol=1e-9)
        assert abs(anchor @ d) <= 1e-9

    def test_bbox_matches_support_function(self):
        # projection extents equal the shape's support along cross rows
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            shape = random_shape(rng, n)
            d = random_direction(rng, n)
            shadow = Shadow(shape, d)
            lo, hi = shadow.bbox()
            for i, row in enumerate(shadow.frame.cross):
                assert hi[i] == pytest.approx(shape.support(row), abs=1e-9)
                assert lo[i] == pytest.approx(-shape.support(-row), abs=1e-9)


class TestBatchValues:
    def test_batch_matches_scalar_for_exact_shapes(self):
        rng = np.random.default_rng(8)
        dirs = np.array([random_direction(rng, 3) for _ in range(32)])
        for shape in (
            unit_cube(),
            Ball(center=np.zeros(3), radius=0.7),
            PointCloud(points=rng.uniform(-1, 1, (5, 3))),
        ):
            batch = shadow_values_batch(shape, dirs)
            assert batch is not None
            for d, val in zip(dirs, batch):
                assert val == pytest.approx(shadow_area(shape, d), abs=1e-9)

    def test_batch_none_for_general_union(self):
        union = UnionShape(
            members=(
                Ball(center=np.zeros(3), radius=1.0),
                Ball(center=np.array([0.5, 0.0, 0.0]), radius=1.0),
            )
        )
        dirs = np.eye(3)
        assert shadow_values_batch(union, dirs) is None
