import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    random_convex_polygon,
    random_cuboid,
    random_direction,
    random_shape,
    random_tube,
)

from tubemeasure import (
    Ball,
    BoundReport,
    ConvexPolytope,
    DegenerateShapeError,
    DimensionError,
    InvariantError,
    ParameterError,
    PointCloud,
    SquareTube,
    Tube,
    UnionShape,
    axis_aligned_cuboid,
    compute_bounds,
    diameter,
    identity_frame,
    lower_bound_volume_diam,
    mc_intersection_volume,
    plank_value_2d,
    product_measure,
    regular_tetrahedron,
    sphere_directions,
    square_tube_exact_measure,
    truncated_product_lower,
    tube_exact_measure,
    upper_bound_min_projection,
)
from tubemeasure import bounds
from tubemeasure.projection import shadow_values_batch


def unit_cube():
    return axis_aligned_cuboid(np.full(3, 0.5), np.full(3, 0.5))


def axis_tube(n, radius):
    axis = np.zeros(n)
    axis[-1] = 1.0
    return Tube(point=np.zeros(n), axis=axis, radius=radius)


class TestExactTubeCosts:
    def test_round_halfwidth_tube(self):
        assert tube_exact_measure(axis_tube(3, 0.5)) == pytest.approx(
            math.pi / 4, abs=1e-12
        )

    def test_round_planar_tube(self):
        # n = 2: a tube is a strip, cost 2r
        assert tube_exact_measure(axis_tube(2, 1.0)) == 2.0

    def test_round_tube_dim_four(self):
        r = 0.7
        gamma3 = math.pi ** 1.5 / math.gamma(2.5)
        assert tube_exact_measure(axis_tube(4, r)) == pytest.approx(
            gamma3 * r ** 3, abs=1e-12
        )

    def test_square_tube_costs(self):
        cases = [
            (3, Fraction(1, 2), 1.0),
            (2, Fraction(3, 4), 1.5),
            (4, Fraction(1, 3), float(Fraction(8, 27))),
        ]
        for n, delta, expected in cases:
            tube = SquareTube(
                frame=identity_frame(n), anchor=np.zeros(n), half_width=delta
            )
            assert square_tube_exact_measure(tube) == expected


class TestUpperBound:
    def test_ball_shadow_is_disk(self):
        value, d = upper_bound_min_projection(Ball(center=np.zeros(3), radius=1.0))
        assert value == pytest.approx(math.pi, abs=1e-12)
        assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)

    def test_cube_min_shadow_at_axis(self):
        value, d = upper_bound_min_projection(unit_cube())
        # grid-scan oracle over many directions never beats the axis value
        dirs = sphere_directions(3, 100_000)
        scan = float(shadow_values_batch(unit_cube(), dirs).min())
        assert value <= scan + 1e-12
        assert value == pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(d)) == pytest.approx(1.0, abs=1e-3)

    def test_disk_min_shadow_is_width(self):
        value, _ = upper_bound_min_projection(Ball(center=np.zeros(2), radius=1.0))
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_cloud_shadow_zero(self):
        value, d = upper_bound_min_projection(
            PointCloud(points=np.array([[0.0, 1.0], [2.0, 3.0]]))
        )
        assert value == 0.0
        assert d.size == 2

    def test_dim_one_rejected(self):
        segment = axis_aligned_cuboid(np.zeros(1), np.ones(1))
        with pytest.raises(DimensionError):
            upper_bound_min_projection(segment)


class TestUnionShadowGrid:
    def test_planar_union_takes_exact_shadows(self):
        union = UnionShape(
            members=(
                Ball(center=np.zeros(2), radius=1.0),
                Ball(center=np.zeros(2), radius=0.5),
            )
        )
        report = compute_bounds(union, mc_samples=2000)
        assert report.upper == 2.0
        assert "grid 256 of exact shadows" in report.method

    def test_solid_union_takes_monte_carlo_shadows(self):
        # the cube's shadow runs the hull oracle's membership test
        union = UnionShape(
            members=(
                Ball(center=np.zeros(3), radius=1.0),
                axis_aligned_cuboid(np.zeros(3), np.full(3, 0.5)),
            )
        )
        report = compute_bounds(union, mc_samples=2000, seed=1)
        assert "grid 256 of Monte Carlo shadows" in report.method
        assert repr(compute_bounds(union, mc_samples=2000, seed=1)) == repr(report)
        assert abs(report.upper - math.pi) <= 0.05


def arrangement_oracle(poly):
    """Brute-force least shadow: a batched SVD over every (n-1)-subset of
    the raw, unmerged qhull facet normals, each null direction evaluated
    by Cauchy's formula."""
    normals, measures = poly.facet_arrays
    combos = np.array(list(itertools.combinations(range(len(normals)), poly.dim - 1)))
    _, sv, vt = np.linalg.svd(normals[combos])
    d = vt[sv[:, -1] > 1e-9, -1, :]
    return float((0.5 * np.abs(d @ normals.T) @ measures).min())


def small_polytopes(seed):
    """Ten random polytopes with n + 3 points in each dimension 2..5."""
    rng = np.random.default_rng(seed)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            pts = rng.standard_normal((n + 3, n)) * rng.uniform(0.3, 2.0, n)
            yield ConvexPolytope.hull_of(pts @ np.linalg.qr(rng.standard_normal((n, n)))[0])


def grid_minimum(shape):
    return float(shadow_values_batch(shape, sphere_directions(shape.dim, 2048)).min())


class TestExactMinimumShadow:
    def test_matches_arrangement_oracle(self):
        for trial, poly in enumerate(small_polytopes(7)):
            value, d = upper_bound_min_projection(poly)
            want = arrangement_oracle(poly)
            assert value == pytest.approx(want, rel=1e-12, abs=0.0), f"trial {trial}"
            attained = float(shadow_values_batch(poly, d[None, :])[0])
            assert attained == pytest.approx(value, rel=1e-12, abs=0.0), f"trial {trial}"

    def test_never_above_grid(self):
        rng = np.random.default_rng(11)
        shapes = list(small_polytopes(13)) + [random_cuboid(rng, n) for n in (2, 3, 4, 5)]
        for trial, shape in enumerate(shapes):
            value, _ = upper_bound_min_projection(shape)
            assert value <= grid_minimum(shape) * (1.0 + 1e-12), f"trial {trial}"

    def test_cuboid_smallest_face_along_longest_axis(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 4, 5):
            box = random_cuboid(rng, n)
            full = 2.0 * box.half_lengths
            value, d = upper_bound_min_projection(box)
            assert value == pytest.approx(np.prod(full) / full.max(), rel=1e-12)
            longest = box.axes[int(np.argmax(full))]
            assert abs(float(d @ longest)) == pytest.approx(1.0, abs=1e-12)
            assert "closed form" in compute_bounds(box, mc_samples=2000).method

    def test_truncated_budget_returns_witnessed_shadow(self, monkeypatch):
        monkeypatch.setattr(bounds, "_VERTEX_BUDGET", 3)
        for trial, poly in enumerate(small_polytopes(19)):
            if poly.dim < 3:
                continue
            report = compute_bounds(poly, mc_samples=2000, grid_points=256)
            assert "truncated" in report.method, f"trial {trial}"
            d = np.array(report.witness_direction)
            attained = float(shadow_values_batch(poly, d[None, :])[0])
            assert report.upper == pytest.approx(attained, rel=1e-12, abs=0.0)
            assert report.upper >= arrangement_oracle(poly) * (1.0 - 1e-12)

    def test_method_names_exact_path(self):
        report = compute_bounds(regular_tetrahedron(), mc_samples=2000)
        assert "exact arrangement vertices" in report.method
        # the tetrahedron's least shadow is seen along an edge: a triangle
        # with the opposite edge as base and the edges' distance as height
        assert report.upper == pytest.approx(0.5 / math.sqrt(2.0), rel=1e-12)


class TestLowerBound:
    def test_ball_volume_over_diameter(self):
        value, se = lower_bound_volume_diam(Ball(center=np.zeros(3), radius=1.0))
        assert se == 0.0
        assert value == pytest.approx((4 * math.pi / 3) / 2.0, abs=1e-12)

    def test_cube_volume_over_diameter(self):
        value, se = lower_bound_volume_diam(unit_cube())
        assert se == 0.0
        assert value == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)

    def test_point_cloud_degenerate(self):
        cloud = PointCloud(points=np.array([[0.0, 0.0], [1.0, 0.0]]))
        value, se = lower_bound_volume_diam(cloud)
        assert value == 0.0 and se == 0.0

    def test_single_point_rejected(self):
        with pytest.raises(DegenerateShapeError):
            lower_bound_volume_diam(PointCloud(points=np.zeros((1, 2))))


class TestBoundOrdering:
    def test_lower_never_exceeds_upper(self):
        rng = np.random.default_rng(23)
        worst = -math.inf
        for trial in range(1000):
            n = int(rng.integers(2, 6))
            shape = random_shape(rng, n)
            report = compute_bounds(shape, mc_samples=20_000, grid_points=128)
            gap = report.lower - 3 * report.lower_std_error - report.upper
            worst = max(worst, gap)
            assert gap <= 1e-9, f"trial {trial}: ordering violated by {gap}"
        assert worst <= 1e-9

    def test_report_fields(self):
        report = compute_bounds(unit_cube(), mc_samples=2000, grid_points=64)
        assert isinstance(report, BoundReport)
        assert len(report.witness_direction) == 3
        assert "upper" in report.method and "lower" in report.method

    def test_ordering_violation_raises(self):
        with pytest.raises(InvariantError):
            BoundReport(
                lower=2.0, lower_std_error=0.0, upper=1.0,
                witness_direction=(1.0, 0.0), method="synthetic",
            )

    def test_tetrahedron_bracket(self):
        tet = regular_tetrahedron()
        report = compute_bounds(tet, mc_samples=200_000, grid_points=512)
        # volume edge^3 / (6 sqrt 2), diameter = edge
        exact_lower = 1.0 / (6 * math.sqrt(2.0))
        assert report.lower == pytest.approx(exact_lower, abs=1e-9)
        assert report.lower <= report.upper
        # every shadow of the tetrahedron fits in its circumdisk
        circum = math.sqrt(3.0 / 8.0)
        assert report.upper <= math.pi * circum ** 2 + 1e-9


class TestIntersectionInequality:
    def test_tube_slices_bounded_by_diameter(self):
        # |E meet T| <= diam(E) * cost(T), the calibration behind the
        # volume/diameter lower bound
        rng = np.random.default_rng(29)
        for trial in range(500):
            n = int(rng.integers(2, 5))
            shape = random_shape(rng, n)
            tube = random_tube(rng, n)
            inter, se = mc_intersection_volume(shape, tube, samples=20_000, seed=trial)
            budget = diameter(shape) * tube_exact_measure(tube)
            assert inter <= budget + 3 * se + 1e-9, f"trial {trial}"


class TestProductMeasure:
    def test_unit_square_cylinder(self):
        square = axis_aligned_cuboid(np.full(2, 0.5), np.full(2, 0.5))
        assert product_measure(square) == 1.0

    def test_disk_cylinder(self):
        disk = Ball(center=np.zeros(2), radius=1.0)
        assert product_measure(disk) == pytest.approx(math.pi, abs=1e-12)

    def test_empty_base(self):
        empty = UnionShape(members=(), dim_hint=2)
        assert product_measure(empty) == 0.0
        assert product_measure(UnionShape(members=(empty,))) == 0.0

    def test_truncated_approaches_full(self):
        square = axis_aligned_cuboid(np.full(2, 0.5), np.full(2, 0.5))
        assert truncated_product_lower(square, 707.2) >= 0.999

    def test_truncated_monotone_in_length(self):
        disk = Ball(center=np.zeros(2), radius=1.0)
        values = [truncated_product_lower(disk, r) for r in (1.0, 10.0, 100.0, 707.2)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] <= math.pi

    def test_truncated_rejects_nonpositive_length(self):
        disk = Ball(center=np.zeros(2), radius=1.0)
        for bad in (0.0, -1.0):
            with pytest.raises(ParameterError):
                truncated_product_lower(disk, bad)

    def test_truncated_zero_base(self):
        cloud = PointCloud(points=np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert truncated_product_lower(cloud, 5.0) == 0.0


class TestPlankWidth:
    def test_disk_width(self):
        for r in (0.5, 1.0, 2.5):
            value, _ = plank_value_2d(Ball(center=np.zeros(2), radius=r))
            assert value == 2.0 * r

    def test_unit_square_width(self):
        square = ConvexPolytope.hull_of(
            np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        )
        value, d = plank_value_2d(square)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert min(abs(d[0]), abs(d[1])) <= 1e-12

    def test_equilateral_triangle_width(self):
        tri = ConvexPolytope.hull_of(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
        )
        value, _ = plank_value_2d(tri)
        assert value == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-9)
        # dense support-width scan agrees with the calipers result
        theta = np.linspace(0.0, math.pi, 20_000, endpoint=False)
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        widths = [tri.support(d) + tri.support(-d) for d in dirs]
        assert value == pytest.approx(min(widths), abs=1e-5)

    def test_matches_min_projection_on_polygons(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            poly = random_convex_polygon(rng)
            width, d = plank_value_2d(poly)
            upper, _ = upper_bound_min_projection(poly, grid_points=4096)
            assert upper == pytest.approx(width, abs=1e-5)
            # the witness direction attains the width as a shadow
            attained = float(shadow_values_batch(poly, d[None, :])[0])
            assert attained == pytest.approx(width, abs=1e-9)

    def test_rejects_higher_dimension(self):
        with pytest.raises(DimensionError):
            plank_value_2d(Ball(center=np.zeros(3), radius=1.0))

    def test_rejects_cloud(self):
        with pytest.raises(ParameterError):
            plank_value_2d(PointCloud(points=np.array([[0.0, 0.0], [1.0, 1.0]])))
