import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_direction, random_shape
from hypothesis import HealthCheck, given, settings, strategies as st

from tubemeasure import (
    Ball,
    DimensionError,
    ParameterError,
    PointCloud,
    SquareTube,
    Tube,
    TubeCover,
    axis_aligned_cuboid,
    cover_check,
    cover_cost,
    cover_search,
    identity_frame,
    lower_bound_volume_diam,
    orthonormal_frame,
    parallel_cover_from_projection,
    regular_tetrahedron,
    sample_points,
)


def unit_cube():
    return axis_aligned_cuboid(np.full(3, 0.5), np.full(3, 0.5))


def round_tube(n, radius, point=None):
    axis = np.zeros(n)
    axis[-1] = 1.0
    pt = np.zeros(n) if point is None else np.asarray(point, dtype=float)
    return Tube(point=pt, axis=axis, radius=radius)


def square_tube(n, delta):
    return SquareTube(
        frame=identity_frame(n), anchor=np.zeros(n), half_width=Fraction(delta)
    )


class TestCoverCost:
    def test_single_round_tube(self):
        assert cover_cost(TubeCover(tubes=(round_tube(3, 1.0),))) == pytest.approx(
            math.pi, abs=1e-12
        )

    def test_single_strip(self):
        assert cover_cost(TubeCover(tubes=(round_tube(2, 1.0),))) == 2.0

    def test_mixed_cover(self):
        cover = TubeCover(tubes=(square_tube(3, Fraction(1, 2)), round_tube(3, 1.0)))
        assert cover_cost(cover) == pytest.approx(1.0 + math.pi, abs=1e-12)

    def test_additivity_exact_for_dyadic_square_tubes(self):
        # all costs are dyadic rationals, so fsum concatenation is exact
        a = parallel_cover_from_projection(unit_cube(), np.array([0, 0, 1.0]), 0.25)
        b = TubeCover(tubes=(square_tube(3, Fraction(3, 8)), square_tube(3, Fraction(1, 16))))
        merged = TubeCover(tubes=a.tubes + b.tubes)
        assert cover_cost(merged) == cover_cost(a) + cover_cost(b)

    def test_additivity_within_ulp_for_mixed(self):
        a = TubeCover(tubes=(round_tube(3, 0.7), round_tube(3, 1.3)))
        b = TubeCover(tubes=(square_tube(3, Fraction(2, 7)), round_tube(3, 0.31)))
        merged = TubeCover(tubes=a.tubes + b.tubes)
        total = cover_cost(merged)
        assert abs(total - (cover_cost(a) + cover_cost(b))) <= math.ulp(total)

    def test_validation(self):
        with pytest.raises(ParameterError):
            TubeCover(tubes=())
        with pytest.raises(DimensionError):
            TubeCover(tubes=(round_tube(3, 1.0), round_tube(2, 1.0)))
        with pytest.raises(ParameterError):
            TubeCover(tubes=(round_tube(3, 1.0), "not a tube"))


class TestCoverCheck:
    def test_cloud_miss_is_exact(self):
        cloud = PointCloud(points=np.array([[0.0, 0.0], [10.0, 0.0]]))
        thin = TubeCover(tubes=(Tube(point=np.zeros(2), axis=np.array([0.0, 1.0]), radius=1.0),))
        ok, witness = cover_check(cloud, thin)
        assert not ok
        assert np.array_equal(witness, np.array([10.0, 0.0]))

    def test_cloud_covered(self):
        cloud = PointCloud(points=np.array([[0.0, 0.0], [10.0, 0.0]]))
        fat = TubeCover(tubes=(Tube(point=np.zeros(2), axis=np.array([1.0, 0.0]), radius=0.5),))
        ok, witness = cover_check(cloud, fat)
        assert ok and witness is None

    def test_sampled_miss_reports_point_in_shape(self):
        ball = Ball(center=np.zeros(3), radius=1.0)
        thin = TubeCover(tubes=(round_tube(3, 0.2),))
        ok, witness = cover_check(ball, thin, samples=20_000, seed=5)
        assert not ok
        assert bool(ball.contains(witness[None, :])[0])
        assert not bool(thin.tubes[0].contains(witness[None, :])[0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            cover_check(unit_cube(), TubeCover(tubes=(round_tube(2, 1.0),)))


def all_tubes_check(s, cover, samples=100_000, seed=0):
    """Reference cover_check: every block of points against every tube."""
    pts = s.points if isinstance(s, PointCloud) else sample_points(s, samples, seed)
    chunk = 1 << 14
    for start in range(0, len(pts), chunk):
        block = pts[start : start + chunk]
        covered = np.zeros(len(block), dtype=bool)
        for tube in cover.tubes:
            todo = ~covered
            if not np.any(todo):
                break
            covered[todo] = tube.contains(block[todo])
        if not np.all(covered):
            first = int(np.nonzero(~covered)[0][0])
            return False, block[first].copy()
    return True, None


def assert_same_check(found, expected):
    assert found[0] == expected[0]
    if expected[1] is None:
        assert found[1] is None
    else:
        assert found[1].tobytes() == expected[1].tobytes()


@st.composite
def clouds_and_covers(draw):
    """A cloud and a cover of square tubes in several frames and half-widths,
    some groups larger and some smaller than 3^(n-1), anchors off any
    lattice and several to a cell, round tubes mixed in and random tubes
    dropped.  The cloud mixes points on tube faces (anchor +/- delta along a
    cross row), points inside tubes and points anywhere."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = [orthonormal_frame(random_direction(rng, n)) for _ in range(draw(st.integers(1, 3)))]
    tubes = []
    for frame in frames:
        for den in draw(st.lists(st.sampled_from([10, 16, 27, 64]), min_size=1, max_size=2)):
            delta = Fraction(int(rng.integers(1, 4)), den)
            count = draw(st.integers(1, 40))
            cross = rng.uniform(-1.0, 1.0, (count, n - 1))
            # a share of the anchors within a fraction of delta of another
            close = rng.random(count) < 0.3
            cross[close] = cross[0] + rng.uniform(-0.4, 0.4, (int(close.sum()), n - 1)) * float(delta)
            along = rng.uniform(-1.0, 1.0, count)
            anchors = cross @ frame.cross + np.outer(along, frame.axis)
            tubes += [SquareTube(frame=frame, anchor=a, half_width=delta) for a in anchors]
    for _ in range(draw(st.integers(0, 3))):
        point = rng.uniform(-1.0, 1.0, n)
        tubes.append(Tube(point=point, axis=random_direction(rng, n), radius=float(rng.uniform(0.05, 0.5))))
    drop = draw(st.sampled_from([0.0, 0.02, 0.2]))
    kept = [t for t in tubes if rng.random() >= drop]
    kept = kept or tubes[:1]
    rows = []
    for tube in rng.choice(np.array(kept, dtype=object), int(rng.integers(1, 40))):
        if isinstance(tube, Tube):
            offset = rng.standard_normal(n)
            offset -= (offset @ tube.axis) * tube.axis
            offset *= rng.uniform(0.0, 0.99) * tube.radius / np.linalg.norm(offset)
            rows.append(tube.point + offset + rng.uniform(-2.0, 2.0) * tube.axis)
            continue
        width = float(tube.half_width)
        y = rng.uniform(-width, width, n - 1)
        if rng.random() < 0.5:
            y[int(rng.integers(n - 1))] = width * rng.choice([-1.0, 1.0])
        rows.append(tube.anchor + y @ tube.frame.cross + rng.uniform(-2.0, 2.0) * tube.frame.axis)
    if draw(st.booleans()):
        rows += list(rng.uniform(-1.5, 1.5, (int(rng.integers(1, 20)), n)))
    order = rng.permutation(len(rows))
    return PointCloud(points=np.array(rows)[order]), TubeCover(tubes=tuple(kept))


class TestIndexedCoverCheck:
    @settings(
        derandomize=True,
        database=None,
        deadline=None,
        max_examples=80,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(clouds_and_covers())
    def test_matches_all_tubes_oracle(self, case):
        cloud, cover = case
        assert_same_check(cover_check(cloud, cover), all_tubes_check(cloud, cover))

    def test_face_verdict_does_not_depend_on_batch(self):
        # cover_check groups points otherwise than the all-tubes loop, so
        # the two agree bit for bit only if a point on a face rounds the
        # same alone as in a batch
        rng = np.random.default_rng(11)
        verdicts = []
        for n in (2, 3, 4, 5):
            for _ in range(10):
                frame = orthonormal_frame(random_direction(rng, n))
                tube = SquareTube(frame=frame, anchor=rng.uniform(-1, 1, n), half_width=Fraction(1, 7))
                width = float(tube.half_width)
                y = rng.uniform(-width, width, (40, n - 1))
                y[np.arange(40), rng.integers(n - 1, size=40)] = width * rng.choice([-1.0, 1.0], 40)
                pts = tube.anchor + y @ frame.cross + np.outer(rng.uniform(-2, 2, 40), frame.axis)
                alone = [bool(tube.contains(p[None, :])[0]) for p in pts]
                assert tube.contains(pts).tolist() == alone
                verdicts += alone
        assert any(verdicts) and not all(verdicts)  # faces round both ways

    @pytest.mark.parametrize("drop", [0.0, 0.02])
    def test_tetrahedron_grid_matches_oracle(self, drop):
        # 529 square tubes; sampling spans two blocks of points
        tet = regular_tetrahedron()
        cover = parallel_cover_from_projection(tet, np.array([0.0, 0.0, 1.0]), 1 / 32)
        keep = np.random.default_rng(7).random(len(cover)) >= drop
        cover = TubeCover(tubes=tuple(t for t, k in zip(cover.tubes, keep) if k))
        found = cover_check(tet, cover, samples=20_000, seed=3)
        assert_same_check(found, all_tubes_check(tet, cover, samples=20_000, seed=3))
        assert found[0] == (drop == 0.0)


class TestParallelCover:
    def test_cube_grid_is_exact(self):
        cover = parallel_cover_from_projection(unit_cube(), np.array([0, 0, 1.0]), 0.25)
        assert len(cover) == 16
        assert cover_cost(cover) == 1.0
        ok, _ = cover_check(unit_cube(), cover, samples=100_000)
        assert ok

    def test_ball_cost_shrinks_with_grid(self):
        ball = Ball(center=np.zeros(3), radius=1.0)
        d = np.array([0.0, 0.0, 1.0])
        costs = []
        for h in (0.2, 0.1, 0.05):
            cover = parallel_cover_from_projection(ball, d, h)
            ok, _ = cover_check(ball, cover, samples=50_000)
            assert ok
            costs.append(cover_cost(cover))
        assert costs[0] >= costs[1] >= costs[2]
        assert costs[-1] >= math.pi - 1e-12

    def test_single_point_cloud(self):
        cloud = PointCloud(points=np.array([[0.3, -0.2, 0.9]]))
        cover = parallel_cover_from_projection(cloud, np.array([0, 0, 1.0]), 0.25)
        assert len(cover) == 1
        assert cover_cost(cover) == 1.0 / 16.0
        ok, _ = cover_check(cloud, cover)
        assert ok

    def test_rejects_bad_grid_step(self):
        for bad in (0.0, -0.5, math.inf):
            with pytest.raises(ParameterError):
                parallel_cover_from_projection(unit_cube(), np.array([0, 0, 1.0]), bad)

    def test_rejects_too_fine_grid(self):
        with pytest.raises(ParameterError):
            parallel_cover_from_projection(unit_cube(), np.array([0, 0, 1.0]), 1e-5)


class TestCoverSearch:
    def test_collinear_cloud_gets_thin_tube(self):
        t = np.linspace(0.0, 5.0, 40)
        pts = np.column_stack([t, 2.0 * t, -t])
        cloud = PointCloud(points=pts)
        cover = cover_search(cloud, seed=0)
        assert len(cover) == 1
        assert cover_cost(cover) < 1e-12
        ok, _ = cover_check(cloud, cover)
        assert ok

    def test_never_worse_than_projection_incumbent(self):
        # the search keeps the projection cover as incumbent, and round
        # tubes only pay off on point clouds, so on solids the search
        # returns that cover tube for tube
        from tubemeasure import diameter, upper_bound_min_projection
        from tubemeasure.serialization import cover_to_json

        rng = np.random.default_rng(41)
        shapes = [(unit_cube(), 0)]
        shapes += [(random_shape(rng, int(rng.integers(2, 5))), t) for t in range(10)]
        for shape, seed in shapes:
            _, witness = upper_bound_min_projection(shape, grid_points=256, seed=seed)
            h = max(diameter(shape) / 16.0, 1e-6)
            incumbent = parallel_cover_from_projection(shape, witness, h)
            found = cover_search(shape, seed=seed)
            assert cover_to_json(found) == cover_to_json(incumbent), f"seed {seed}"

    def test_cost_respects_lower_bound(self):
        # any verified cover costs at least the certified lower bound
        rng = np.random.default_rng(41)
        for trial in range(20):
            n = int(rng.integers(2, 4))
            shape = random_shape(rng, n)
            cover = cover_search(shape, seed=trial)
            cost = cover_cost(cover)
            lower, se = lower_bound_volume_diam(shape, samples=20_000, seed=trial)
            assert cost >= lower - 3 * se - 1e-9, f"trial {trial}"

    def test_random_clouds_covered_by_their_own_search(self):
        # extreme points used to sit on the outer cell edges, where the
        # closed tube test failed by rounding; every tube runs through two
        # cloud points, so N points need at most ceil(N / 2) thin tubes
        clouds = [
            (np.random.default_rng(seed).uniform(-2.0, 2.0, (count, n)), 1e-6)
            for count in (40, 200)
            for n in (2, 3, 4)
            for seed in range(10)
        ]
        # the distance from an axis to a point on it rounds at the scale of
        # the coordinates, so the tube radius, and with it the cost of a
        # tube's cross-section, must grow with them
        clouds += [
            (
                np.random.default_rng(seed).uniform(-scale, scale, (40, n)),
                1e-6 * scale ** (n - 1),
            )
            for scale in (1e4, 1e6, 1e8)
            for n in (2, 3, 4)
            for seed in range(10)
        ]
        # repeated points must not give a zero axis
        clouds += [
            (np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), 1e-6),
            (np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]), 1e-6),
            (np.array([[0.5, -1.0, 2.0]]), 1e-6),
        ]
        for points, max_cost in clouds:
            cloud = PointCloud(points=points)
            cover = cover_search(cloud)
            ok, worst = cover_check(cloud, cover)
            scale = float(np.abs(points).max())
            label = f"N={len(points)} n={points.shape[1]} scale={scale:g}"
            assert ok, f"{label}: {worst} uncovered"
            assert all(isinstance(t, Tube) for t in cover.tubes), label
            assert len(cover) <= math.ceil(len(points) / 2), label
            assert cover_cost(cover) < max_cost, label
