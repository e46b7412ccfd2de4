import importlib.util
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from conftest import (
    random_ball,
    random_cloud,
    random_convex_polygon,
    random_cuboid,
    random_direction,
    random_polytope,
    random_shape,
    random_tube,
)

from tubemeasure import (
    Ball,
    BoundReport,
    ConvexPolytope,
    Cuboid,
    DegenerateShapeError,
    DimensionError,
    InvariantError,
    ParameterError,
    PointCloud,
    ProductSet,
    SquareTubes,
    Tube,
    UnboundedShapeError,
    UnionShape,
    axis_aligned_cuboid,
    compute_bounds,
    diameter,
    identity_frame,
    lower_bound_volume_diam,
    mc_intersection_volume,
    orthonormal_frame,
    plank_value_2d,
    product_measure,
    regular_tetrahedron,
    sphere_directions,
    square_tube_exact_measure,
    truncated_product_lower,
    tube_exact_measure,
    unit_ball_volume,
    upper_bound_min_projection,
)
from tubemeasure import bounds, projection
from tubemeasure.geometry import _leaves
from tubemeasure.montecarlo import mc_volume
from tubemeasure.projection import Shadow, _union_volume, shadow_values_batch

# the benchmark's closed-form oracles, read from their file
_spec = importlib.util.spec_from_file_location("oracles", Path(__file__).resolve().parents[1] / "bench" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


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
            tube = SquareTubes(
                frame=identity_frame(n), anchors=np.zeros((1, n)), half_width=delta
            )
            assert square_tube_exact_measure(tube) == expected

    def test_costs_match_exact_rationals_bit_for_bit(self):
        # each tube keeps the cost it checks at construction; the formulas
        # that evaluated it on demand stay here as oracles
        rng = np.random.default_rng(37)
        for trial in range(4000):
            m = trial % 7 + 1
            if trial % 2:
                delta = Fraction(float(10.0 ** rng.uniform(-30.0, 30.0)))
            else:
                delta = Fraction(int(rng.integers(1, 10 ** 12)), int(rng.integers(1, 10 ** 12)))
                delta *= Fraction(10) ** int(rng.integers(-30, 31))
            tube = SquareTubes(frame=identity_frame(m + 1), anchors=np.zeros((1, m + 1)), half_width=delta)
            assert square_tube_exact_measure(tube).hex() == float((2 * delta) ** m).hex()
            assert tube._width.hex() == float(delta).hex()
            radius = float(10.0 ** rng.uniform(-30.0, 30.0))
            round_tube = axis_tube(m + 1, radius)
            assert tube_exact_measure(round_tube).hex() == (unit_ball_volume(m) * radius ** m).hex()

    def test_overflow_rule_is_the_float_of_the_cost(self):
        # a square tube is refused exactly when float((2 delta)^m) overflows;
        # half-widths step across the edge where (2 delta)^m reaches the
        # midpoint between the largest float and 2^1024
        edge = 2 ** 1024 - 2 ** 970
        for m in range(1, 8):
            lo, hi = 0, 1 << (edge.bit_length() // m + 61)  # bisect the root of edge * 2^(60 m)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if mid ** m <= edge << (60 * m) else (lo, mid)
            for k in range(-5, 6):
                delta = Fraction(lo + k, 2 ** 61)
                try:
                    cost = float((2 * delta) ** m)
                except OverflowError:
                    cost = None
                frame, anchors = identity_frame(m + 1), np.zeros((1, m + 1))
                if cost is None:
                    with pytest.raises(ParameterError, match="overflows a float"):
                        SquareTubes(frame=frame, anchors=anchors, half_width=delta)
                else:
                    tube = SquareTubes(frame=frame, anchors=anchors, half_width=delta)
                    assert square_tube_exact_measure(tube) == cost


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
        assert "exact union shadow at its floor" in report.method
        assert report.witness_direction == (1.0, 0.0)

    def test_solid_union_takes_exact_shadows(self):
        # the cube lies inside the ball, so every shadow of the union is
        # the ball's disk, and the polygon's boundary drops out exactly
        union = UnionShape(
            members=(
                Ball(center=np.zeros(3), radius=1.0),
                axis_aligned_cuboid(np.zeros(3), np.full(3, 0.5)),
            )
        )
        report = compute_bounds(union, mc_samples=2000, seed=1)
        assert "exact union shadow at its floor" in report.method
        assert report.witness_direction == (1.0, 0.0, 0.0)
        assert repr(compute_bounds(union, mc_samples=2000, seed=1)) == repr(report)
        assert report.upper == math.pi


    def test_two_ball_union_upper_is_the_larger_disk(self):
        # the least of noisy Monte Carlo shadows used to fall below pi here
        union = UnionShape(
            members=(
                Ball(center=np.zeros(3), radius=1.0),
                Ball(center=np.array([1.5, 0.0, 0.0]), radius=0.7),
            )
        )
        for seed in (0, 1, 5, 12):
            report = compute_bounds(union, mc_samples=2000, seed=seed)
            assert report.upper == math.pi, f"seed {seed}"
            assert "exact union shadow at its floor" in report.method
            assert report.witness_direction == (1.0, 0.0, 0.0)  # the centre line


def member_sum(members, directions):
    return sum(shadow_values_batch(m, directions) for m in members)


def union_loop_min_shadow(s, floor=True):
    """(value, direction, method) of a union's least shadow, its members'
    Cauchy terms gathered by a loop over their kinds, as ``_min_shadow``
    gathered them before one table served every kind.  With ``floor`` a
    union in R^2 or R^3 first tries ``bounds._floor_shadow``, as
    ``_min_shadow`` does, and folds its least shadow into the grid's;
    without it the grid alone decides."""
    n = s.dim
    seen = (math.inf, None)
    if floor and n <= 3:
        value, direction, at_floor = bounds._floor_shadow(s, _leaves(s))
        if at_floor:
            return value, direction, "exact union shadow at its floor, the largest member's least shadow"
        seen = (value, direction)
    normals, measures, constant = [np.zeros((0, n))], [np.zeros(0)], 0.0
    for leaf in _leaves(s):
        if isinstance(leaf, Cuboid):
            full = 2.0 * leaf.half_lengths
            normals.append(leaf.axes)
            measures.append(2.0 * np.prod(full) / full)
        elif isinstance(leaf, ConvexPolytope):
            normals.append(leaf.facet_arrays[0])
            measures.append(leaf.facet_arrays[1])
        elif isinstance(leaf, Ball):
            constant += unit_ball_volume(n - 1) * leaf.radius ** (n - 1)
    gens, weights = bounds._generators(np.concatenate(normals), np.concatenate(measures))
    value, direction, path = bounds._cauchy_minimum(gens, weights, constant)
    if n > 3:
        return value, direction, f"sum of member shadows, {path}"
    grid = sphere_directions(n, 256)
    directions = np.vstack([grid, direction])
    values = np.array([Shadow(s, d).exact_area for d in directions])
    best = bounds._least(values, directions, seen)
    return (*best, f"grid {len(grid)} of exact shadows, plus the member-sum minimizer, "
                   "the members' witnesses and their centre lines")


class TestUnionMemberSum:
    def test_matches_the_member_loop_bit_for_bit(self):
        rng = np.random.default_rng(31)
        makers = (random_ball, random_cuboid, random_polytope, random_cloud)
        for trial in range(16):
            n = 2 + trial % 4  # one member of each kind first, in R^2..R^5
            kinds = [0, 1, 2, 3] if trial < 4 else list(rng.integers(0, 4, int(rng.integers(2, 5))))
            union = UnionShape(members=tuple(makers[k](rng, n) for k in kinds))
            value, direction, method = union_loop_min_shadow(union)
            got, witness = upper_bound_min_projection(union)
            assert got.hex() == value.hex(), (trial, kinds)
            assert witness.tobytes() == direction.tobytes(), (trial, kinds)
            assert bounds._min_shadow(union)[2] == method, (trial, kinds)

    def test_ball_and_box_in_r4(self):
        ball = Ball(center=np.zeros(4), radius=1.0)
        box = axis_aligned_cuboid(np.array([3.0, 0.0, 0.0, 0.0]), np.array([0.5, 0.4, 0.3, 0.2]))
        report = compute_bounds(UnionShape(members=(ball, box)), mc_samples=2000)
        assert "upper: min shadow, sum of member shadows, exact arrangement vertices of 4 generators" in report.method
        # the ball's cross-section plus the box's face seen along its longest edge
        assert report.upper == pytest.approx(4.0 * math.pi / 3.0 + 0.8 * 0.6 * 0.4, rel=1e-12)
        assert abs(report.witness_direction[0]) == pytest.approx(1.0, abs=1e-12)

    def test_balls_only_take_any_direction(self):
        balls = (Ball(center=np.zeros(5), radius=1.0), Ball(center=np.full(5, 0.1), radius=0.5))
        value, d = upper_bound_min_projection(UnionShape(members=balls))
        assert value == pytest.approx(float(member_sum(balls, d[None])[0]), rel=1e-15)
        report = compute_bounds(UnionShape(members=balls), mc_samples=2000)
        assert "sum of member shadows, closed form" in report.method

    def test_never_below_a_member_nor_above_the_sum(self):
        # every shadow of a union lies between its largest member's shadow
        # and the sum of its members' shadows; in R^4 and up the sum is the
        # bound, in R^3 the union's own exact shadow along its minimizer
        rng = np.random.default_rng(29)
        for trial in range(24):
            n = 3 + trial % 3
            members = tuple(random_shape(rng, n) for _ in range(int(rng.integers(2, 4))))
            value, d = upper_bound_min_projection(UnionShape(members=members))
            largest = max(upper_bound_min_projection(m)[0] for m in members)
            assert value >= largest * (1.0 - 1e-12), f"trial {trial}"
            at_witness = float(member_sum(members, d[None])[0])
            assert value <= at_witness * (1.0 + 1e-12), f"trial {trial}"
            if n > 3:
                assert value == pytest.approx(at_witness, rel=1e-12), f"trial {trial}"
            else:
                grid = sphere_directions(3, 2048)
                assert value <= member_sum(members, grid).min() * (1.0 + 1e-12), f"trial {trial}"


class TestUnionFloor:
    def test_stops_only_at_the_floor_and_never_above_the_grid(self):
        # no union shadow is below its largest member's least shadow, so a
        # candidate at that floor is a least shadow; any other union reports
        # the least of the grid and the candidates byte for byte, never above
        # the grid alone.  In R^2 a merged interval that one
        # member spans alone reads that member's own shadow, so no grid shadow
        # is below the floor; in R^3 one can read a few ulps below it by
        # rounding, and only such a grid reads below a union stopped at its floor.
        rng = np.random.default_rng(37)
        ulps = 4.0 * np.finfo(float).eps
        makers = (random_ball, random_cuboid, random_polytope)
        reached = set()
        for trial in range(24):
            n = 2 + trial % 2
            kinds = rng.integers(0, 3, int(rng.integers(2, 4)))
            members = [makers[k](rng, n) for k in kinds]
            if trial % 3 == 0:  # a ball that hides the first member along every direction
                members.append(Ball(center=bounds._centre(members[0]), radius=1.1 * diameter(members[0])))
            union = UnionShape(members=tuple(members))
            value, direction, method = bounds._min_shadow(union)
            grid = union_loop_min_shadow(union, floor=False)
            floor = max(bounds._min_shadow(m)[0] for m in union.members)
            assert value >= floor * (1.0 - ulps), (trial, kinds)
            if n == 2:
                assert grid[0] >= floor, (trial, kinds)
            if "floor" in method:
                reached.add((n, trial))
                assert value <= grid[0] or grid[0] >= floor * (1.0 - ulps), (trial, kinds)
                assert value == Shadow(union, direction).exact_area, (trial, kinds)
            else:
                folded = union_loop_min_shadow(union)
                assert value.hex() == folded[0].hex(), (trial, kinds)
                assert direction.tobytes() == folded[1].tobytes(), (trial, kinds)
                assert method == folded[2], (trial, kinds)
                assert value <= grid[0], (trial, kinds)
        assert {n for n, _ in reached} == {2, 3} and len(reached) < 24

    def test_a_candidate_below_the_grid_is_kept(self):
        # three unit balls, two in line along each centre line: those lines
        # show 2 pi, above the floor pi, and the grid alone reads 2.105 pi
        balls = tuple(Ball(center=np.array(c, float), radius=1.0) for c in ((0, 0, 0), (5, 0, 0), (0, 5, 0)))
        union = UnionShape(members=balls)
        value, direction, method = bounds._min_shadow(union)
        assert value == 2 * math.pi
        assert direction.tolist() == [0.0, 1.0, 0.0]  # the least of the tied lines
        assert method.endswith("the members' witnesses and their centre lines")
        assert union_loop_min_shadow(union, floor=False)[0] > 2.1 * math.pi

    def test_concentric_members_have_no_centre_line(self):
        balls = (Ball(center=np.full(3, 0.25), radius=1.0), Ball(center=np.full(3, 0.25), radius=0.5))
        value, direction, method = bounds._min_shadow(UnionShape(members=balls))
        assert value == math.pi and "floor" in method
        assert direction.tolist() == [1.0, 0.0, 0.0]  # the witness of both balls


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
    """Least shadow over 2048 directions: the fixed grid in R^2 and R^3,
    seeded Gaussian unit directions above."""
    n = shape.dim
    if n <= 3:
        dirs = sphere_directions(n, 2048)
    else:
        g = np.random.default_rng(n).standard_normal((2048, n))
        dirs = g / np.linalg.norm(g, axis=1)[:, None]
    return float(shadow_values_batch(shape, dirs).min())


def thin_prism(sides, n):
    """A regular polygon of circumradius 0.01 times a cube of side 10 in
    R^(n-2), with the exact least shadow area(polygon) * 10^(n-3)."""
    t = 2.0 * math.pi * np.arange(sides) / sides
    polygon = 0.01 * np.column_stack([np.cos(t), np.sin(t)])
    corners = np.array(list(itertools.product([0.0, 10.0], repeat=n - 2)))
    points = np.array([np.concatenate([p, c]) for p in polygon for c in corners])
    area = 0.5 * sides * 0.01 ** 2 * math.sin(2.0 * math.pi / sides)
    return ConvexPolytope.hull_of(points), area * 10.0 ** (n - 3)


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
            report = compute_bounds(poly, mc_samples=2000)
            assert "truncated" in report.method, f"trial {trial}"
            d = np.array(report.witness_direction)
            attained = float(shadow_values_batch(poly, d[None, :])[0])
            assert report.upper == pytest.approx(attained, rel=1e-12, abs=0.0)
            assert report.upper >= arrangement_oracle(poly) * (1.0 - 1e-12)

    @pytest.mark.parametrize("sides, n, pool", [(402, 4, "118 of 203"), (202, 5, "53 of 104")])
    def test_truncated_pool_spans_n_minus_1_dimensions(self, sides, n, pool):
        # the heaviest generators are the polygon's edge normals, which span
        # only its plane; the least shadow, seen along a cube edge, is a
        # vertex only once the pool takes in cube normals until it spans
        # n - 1 dimensions
        prism, exact = thin_prism(sides, n)
        report = compute_bounds(prism, mc_samples=1000)
        assert f"truncated arrangement, {pool} generators" in report.method
        assert report.upper == pytest.approx(exact, rel=1e-6)

    def test_sphere_directions_only_in_the_plane_and_space(self):
        with pytest.raises(DimensionError):
            sphere_directions(4, 8)

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


def ball_union(*balls):
    return UnionShape(tuple(Ball(center=np.array(c, dtype=float), radius=r) for c, r in balls))


@st.composite
def ball_unions(draw):
    """2 to 5 balls in R^3, centres in [-1, 1]^3 and radii in [0.3, 1]."""
    count = draw(st.integers(2, 5))
    coords = st.floats(-1.0, 1.0, allow_nan=False)
    return [(draw(st.lists(coords, min_size=3, max_size=3)), draw(st.floats(0.3, 1.0))) for _ in range(count)]


@st.composite
def planar_unions(draw):
    """2 to 4 disks, axis-aligned rectangles and hexagon hulls in the plane."""
    members = []
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(["disk", "rectangle", "polygon"]))
        c = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)))
        if kind == "disk":
            members.append(Ball(center=c, radius=draw(st.floats(0.2, 1.0))))
        elif kind == "rectangle":
            members.append(axis_aligned_cuboid(c, np.array(draw(st.lists(st.floats(0.1, 0.8), min_size=2, max_size=2)))))
        else:
            seed = draw(st.integers(0, 2 ** 32 - 1))
            members.append(ConvexPolytope.hull_of(c + np.random.default_rng(seed).uniform(-0.7, 0.7, (6, 2))))
    return UnionShape(tuple(members))


class TestUnionVolume:
    """Unions that take their volume without sampling: one solid leaf in
    closed form, Green's area in the plane, sliced ball unions in R^3."""

    TWO_BALLS = {
        "disjoint": (((0, 0, 0), 1.0), ((3, 0, 0), 0.7)),
        "externally tangent": (((0, 0, 0), 1.0), ((1.5, 0, 0), 0.5)),
        "overlapping": (((0, 0, 0), 1.0), ((1.5, 0, 0), 0.7)),
        "overlapping oblique": (((0, 0, 0), 1.0), ((0.3, 0.4, 0.5), 0.9)),
        "internally tangent": (((0, 0, 0), 1.0), ((0.5, 0, 0), 0.5)),
        "nested": (((0, 0, 0), 1.0), ((0.1, 0.2, 0), 0.5)),
        "concentric, equal radii": (((0, 0, 0), 1.0), ((0, 0, 0), 1.0)),
        "vertically aligned": (((0, 0, 0), 1.0), ((0, 0, 1.2), 0.7)),
    }

    @pytest.mark.parametrize("name", list(TWO_BALLS))
    def test_two_balls_match_the_lens_formula(self, name):
        (c1, r1), (c2, r2) = self.TWO_BALLS[name]
        union = ball_union((c1, r1), (c2, r2))
        exact = oracles.two_ball_union_volume(c1, r1, c2, r2)
        volume, error, path = _union_volume(_leaves(union))
        assert path == "sliced, quadrature error"
        assert abs(volume - exact) <= error + 1e-12 * volume
        assert 0.0 < error <= 1e-6 * volume
        # the bound errs low
        report = compute_bounds(union)
        assert report.lower <= exact / oracles.two_ball_union_diameter(c1, r1, c2, r2)
        assert report.method.endswith("lower: volume / diameter (sliced, quadrature error)")

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(ball_unions())
    def test_sliced_ball_unions_pass_a_monte_carlo_test(self, balls):
        union = ball_union(*balls)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(projection, "_SLICE_WORK", math.inf)  # slice whatever the work
            volume, error, _ = _union_volume(_leaves(union))
            patch.setattr(projection, "_SLICE_ORDERS", (32, 24))
            reference, _, _ = _union_volume(_leaves(union))
        estimate, se = mc_volume(union, samples=200_000, seed=1)
        assert abs(volume - estimate) <= 4.0 * se
        assert abs(volume - reference) <= error <= 1e-6 * volume

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(planar_unions())
    def test_planar_unions_pass_a_monte_carlo_test(self, union):
        area, error, path = _union_volume(_leaves(union))
        assert (error, path) == (0.0, "exact area")
        estimate, se = mc_volume(union, samples=200_000, seed=1)
        assert abs(area - estimate) <= 4.0 * se
        report = compute_bounds(union, seed=1)
        assert report.lower_std_error == 0.0 and report.method.endswith("(exact area)")

    def test_one_solid_leaf_is_closed_form(self):
        cloud = PointCloud(points=np.array([[3.0, 0.0, 0.0], [4.0, 1.0, 0.0]]))
        for solid in (Ball(center=np.zeros(3), radius=1.0), unit_cube()):
            assert _union_volume(_leaves(UnionShape((solid, cloud)))) == (solid._volume, 0.0, "exact")
        assert _union_volume(_leaves(UnionShape((cloud,)))) == (0.0, 0.0, "exact")

    def test_ball_union_ignores_the_seed(self):
        union = ball_union(((0, 0, 0), 1.0), ((1.5, 0, 0), 0.7))
        reports = [compute_bounds(union, mc_samples=2000, seed=seed) for seed in (0, 1, 2)]
        assert reports[0] == reports[1] == reports[2]

    def test_other_unions_keep_the_monte_carlo_volume(self):
        cases = [
            UnionShape((Ball(center=np.zeros(3), radius=1.0), unit_cube())),
            UnionShape((Ball(center=np.zeros(4), radius=1.0), Ball(center=np.full(4, 0.5), radius=1.0))),
            # six crossing balls plan more slice work than _SLICE_WORK allows
            ball_union(*[((math.cos(k), math.sin(k), 0.3 * k), 1.0) for k in range(6)]),
        ]
        for union in cases:
            assert _union_volume(_leaves(union)) is None
            report = compute_bounds(union, mc_samples=20_000, seed=3)
            lower, se = lower_bound_volume_diam(union, samples=20_000, seed=3)
            assert (report.lower, report.lower_std_error) == (lower, se)
            assert se > 0.0 and report.method.endswith("lower: volume / diameter (mc)")
        # 50 disjoint balls: more pairs to compare than _SLICE_WORK
        assert _union_volume(_leaves(ball_union(*[((3.0 * k, 0, 0), 1.0) for k in range(50)]))) is None
        assert _union_volume(_leaves(ball_union(*[((3.0 * k, 0, 0), 1.0) for k in range(49)]))) is not None

    def test_crossing_pairs_past_the_slice_work_keep_the_monte_carlo_volume(self, monkeypatch):
        # nine unit balls on a helix cross in 36 pairs, and 2 (12 + 8) 36 =
        # 1,440 planned units pass _SLICE_WORK before any triple is sought
        turn = 2 * math.pi / 9
        union = ball_union(*[((0.5 * math.cos(turn * i), 0.5 * math.sin(turn * i), 0.05 * i), 1.0) for i in range(9)])

        def no_triples(*args):
            raise AssertionError("the triples were sought")

        monkeypatch.setattr(projection, "_triple_heights", no_triples)
        assert _union_volume(_leaves(union)) is None
        assert compute_bounds(union, mc_samples=20_000, seed=3).method.endswith("lower: volume / diameter (mc)")

    def test_collinear_centres_have_no_triple_points(self, monkeypatch):
        # three balls of radius 0.6 on the x axis: every pair crosses, and the
        # triple's circles share that axis, so no point lies on all three spheres
        centres, r = (0.0, 0.5, 1.0), 0.6
        heights = []
        triple = projection._triple_heights

        def record(c, radii):
            heights.append(triple(c, radii))
            return heights[-1]

        monkeypatch.setattr(projection, "_triple_heights", record)
        volume, error, path = _union_volume(_leaves(ball_union(*[((x, 0, 0), r) for x in centres])))
        assert heights == [[]] and path == "sliced, quadrature error"

        # a solid of revolution about the x axis: the integral of
        # pi max_i (r^2 - (x - c_i)^2), quadratic between the breakpoints, so
        # Simpson's rule on each piece is exact
        def area(x):
            return math.pi * max(r * r - (x - c) ** 2 for c in centres)

        breaks = (-0.6, 0.25, 0.75, 1.6)
        exact = sum((b - a) / 6.0 * (area(a) + 4.0 * area((a + b) / 2.0) + area(b)) for a, b in zip(breaks, breaks[1:]))
        assert exact == pytest.approx(1.9703021925764, abs=1e-12)
        assert abs(volume - exact) <= error <= 1e-6 * volume

    def test_a_product_member_is_refused_before_the_volume(self):
        # _leaves refuses the unbounded product, so _union_volume never sees one
        product = ProductSet(base=Ball(center=np.zeros(2), radius=0.5), axis=np.array([0.0, 0.0, 1.0]))
        with pytest.raises(UnboundedShapeError):
            lower_bound_volume_diam(UnionShape((Ball(center=np.zeros(3), radius=1.0), product)))


class TestBoundOrdering:
    def test_lower_never_exceeds_upper(self):
        rng = np.random.default_rng(23)
        worst = -math.inf
        for trial in range(1000):
            n = int(rng.integers(2, 6))
            shape = random_shape(rng, n)
            report = compute_bounds(shape, mc_samples=20_000)
            gap = report.lower - 3 * report.lower_std_error - report.upper
            worst = max(worst, gap)
            assert gap <= 1e-9, f"trial {trial}: ordering violated by {gap}"
        assert worst <= 1e-9

    def test_report_fields(self):
        report = compute_bounds(unit_cube(), mc_samples=2000)
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
        report = compute_bounds(tet, mc_samples=200_000)
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
            upper, _ = upper_bound_min_projection(poly)
            assert upper == pytest.approx(width, abs=1e-5)
            # the witness direction attains the width as a shadow
            attained = float(shadow_values_batch(poly, d[None, :])[0])
            assert attained == pytest.approx(width, abs=1e-9)

    def test_rectangle_cuboid_width(self):
        rect = axis_aligned_cuboid(np.zeros(2), np.array([0.5, 1.0]))
        value, d = plank_value_2d(rect)
        assert value == 1.0 == compute_bounds(rect).upper
        assert d.tolist() == [0.0, 1.0]  # along the long edge
        rotated = Cuboid(center=np.ones(2), frame=orthonormal_frame(np.array([0.6, 0.8])),
                         half_lengths=np.array([0.5, 1.0]))
        assert plank_value_2d(rotated)[0] == 1.0

    def test_one_member_union_is_its_member(self):
        disk = Ball(center=np.array([0.5, -1.0]), radius=0.75)
        square = ConvexPolytope.hull_of(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        for leaf in (disk, square, axis_aligned_cuboid(np.zeros(2), np.array([0.5, 1.0]))):
            width, d, method = bounds._plank_2d(leaf)
            for shape in (UnionShape((leaf,)), UnionShape((UnionShape((leaf,)),))):
                got = bounds._plank_2d(shape)
                assert (got[0], got[1].tolist(), got[2]) == (width, d.tolist(), method)

    def test_rejects_several_leaves_and_empty_unions(self):
        disk = Ball(center=np.zeros(2), radius=1.0)
        for shape in (UnionShape((disk, disk)), UnionShape((), dim_hint=2)):
            with pytest.raises(ParameterError):
                plank_value_2d(shape)

    def test_rejects_higher_dimension(self):
        with pytest.raises(DimensionError):
            plank_value_2d(Ball(center=np.zeros(3), radius=1.0))

    def test_rejects_cloud(self):
        with pytest.raises(ParameterError):
            plank_value_2d(PointCloud(points=np.array([[0.0, 0.0], [1.0, 1.0]])))
