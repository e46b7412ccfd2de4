import json
import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_ball, random_cuboid, random_direction, random_polytope, random_shape
from hypothesis import HealthCheck, given, settings, strategies as st
from test_proof import _child_peak_rss_kb

from tubemeasure import (
    Ball,
    Cuboid,
    DimensionError,
    ParameterError,
    PointCloud,
    SquareTubes,
    Tube,
    TubeCover,
    UnionShape,
    axis_aligned_cuboid,
    cover_check,
    cover_from_json,
    cover_cost,
    cover_search,
    diameter,
    identity_frame,
    lower_bound_volume_diam,
    orthonormal_frame,
    parallel_cover_from_projection,
    regular_tetrahedron,
    sample_points,
)
from tubemeasure import covers as covers_module
from tubemeasure import projection
from tubemeasure.projection import _cross_view, _extent, _touch
from tubemeasure.serialization import cover_to_json, shape_from_json, shape_to_json


def unit_cube():
    return axis_aligned_cuboid(np.full(3, 0.5), np.full(3, 0.5))


def round_tube(n, radius, point=None):
    axis = np.zeros(n)
    axis[-1] = 1.0
    pt = np.zeros(n) if point is None else np.asarray(point, dtype=float)
    return Tube(point=pt, axis=axis, radius=radius)


def square_tube(n, delta):
    return SquareTubes(
        frame=identity_frame(n), anchors=np.zeros((1, n)), half_width=Fraction(delta)
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

    @pytest.mark.parametrize("samples", [0, -5, 999])
    def test_too_few_samples_are_refused(self, samples):
        # as mc_volume refuses them: a check of no points would call any cover a cover
        ball = Ball(center=np.zeros(3), radius=1.0)
        far = TubeCover(tubes=(Tube(point=np.full(3, 10.0), axis=np.array([0.0, 0.0, 1.0]), radius=0.5),))
        with pytest.raises(ParameterError, match=f"^samples must be at least 1000, got {samples}$"):
            cover_check(ball, far, samples=samples)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            cover_check(unit_cube(), TubeCover(tubes=(round_tube(2, 1.0),)))


def all_tubes_check(s, cover, samples=100_000, seed=0):
    """Reference cover_check: every block of points against every tube."""
    pts = s.points if isinstance(s, PointCloud) else sample_points(s, samples, seed)
    return all_tubes_verdict(pts, cover)


def sampled_check(s, cover, samples, seed):
    """cover_check with the lattice certificate refused: the sampler's verdict."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(covers_module, "_lattice_certificate", lambda *args: False)
        return cover_check(s, cover, samples, seed)


def all_tubes_verdict(pts, cover):
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
    groups of 1 to 40 tubes, anchors off any
    lattice and several to a cell, round tubes mixed in and random tubes
    dropped.  The cloud mixes points on tube faces (anchor +/- delta along a
    cross row), points inside tubes and points anywhere."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = [orthonormal_frame(random_direction(rng, n)) for _ in range(draw(st.integers(1, 3)))]
    parts = []
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
            parts.append(SquareTubes(frame=frame, anchors=anchors, half_width=delta))
    for _ in range(draw(st.integers(0, 3))):
        point = rng.uniform(-1.0, 1.0, n)
        parts.append(Tube(point=point, axis=random_direction(rng, n), radius=float(rng.uniform(0.05, 0.5))))
    drop = draw(st.sampled_from([0.0, 0.02, 0.2]))
    kept = []  # each group keeps its tubes that survive the drop
    for part in parts:
        if isinstance(part, Tube):
            kept += [part] if rng.random() >= drop else []
            continue
        anchors = part.anchors[rng.random(len(part)) >= drop]
        if len(anchors):
            kept.append(SquareTubes(frame=part.frame, anchors=anchors, half_width=part.half_width))
    kept = kept or parts[:1]
    # (part, anchor row) of every kept tube
    tubes = [(p, a) for p in kept for a in (p.anchors if isinstance(p, SquareTubes) else [None])]
    rows = []
    for i in rng.integers(len(tubes), size=int(rng.integers(1, 40))):
        tube, anchor = tubes[i]
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
        rows.append(anchor + y @ tube.frame.cross + rng.uniform(-2.0, 2.0) * tube.frame.axis)
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
                tube = SquareTubes(frame=frame, anchors=rng.uniform(-1, 1, (1, n)), half_width=Fraction(1, 7))
                width = float(tube.half_width)
                y = rng.uniform(-width, width, (40, n - 1))
                y[np.arange(40), rng.integers(n - 1, size=40)] = width * rng.choice([-1.0, 1.0], 40)
                pts = tube.anchors[0] + y @ frame.cross + np.outer(rng.uniform(-2, 2, 40), frame.axis)
                alone = [bool(tube.contains(p[None, :])[0]) for p in pts]
                assert tube.contains(pts).tolist() == alone
                verdicts += alone
        assert any(verdicts) and not all(verdicts)  # faces round both ways

    @pytest.mark.parametrize("drop", [0.0, 0.02])
    def test_tetrahedron_grid_matches_oracle(self, drop):
        # 529 square tubes; sampling spans two blocks of points
        tet = regular_tetrahedron()
        cover = parallel_cover_from_projection(tet, np.array([0.0, 0.0, 1.0]), 1 / 32)
        (grid,) = cover.tubes
        keep = np.random.default_rng(7).random(len(cover)) >= drop
        cover = TubeCover(tubes=(SquareTubes(frame=grid.frame, anchors=grid.anchors[keep], half_width=grid.half_width),))
        found = sampled_check(tet, cover, 20_000, 3)
        assert_same_check(found, all_tubes_check(tet, cover, samples=20_000, seed=3))
        assert found[0] == (drop == 0.0)
        assert_same_check(cover_check(tet, cover, samples=20_000, seed=3), found)


class TestAnchorCells:
    def test_far_apart_anchors_match_oracle(self):
        # anchor cells 1e9 apart at delta = 1e-6: cell coordinates near
        # 10^13, and a side widened past 2 delta by rounding at that scale
        rng = np.random.default_rng(5)
        delta = Fraction(1, 10**6)
        width = float(delta)
        for trial in range(20):
            n = int(rng.integers(2, 5))
            frame = orthonormal_frame(random_direction(rng, n))
            first = rng.uniform(-1.0, 1.0, n)
            second = first + 1e9 * frame.cross[0]
            tubes = (SquareTubes(frame=frame, anchors=np.array([first, second]), half_width=delta),)
            inside = trial % 2 == 1  # well inside both tubes, or some points outside
            rows = []
            for anchor in (first, second, first, second):
                y = rng.uniform(-1.0, 1.0, (10, n - 1)) * width * (0.25 if inside else 2.5)
                if not inside:
                    y[0, int(rng.integers(n - 1))] = width  # on a face
                rows += list(anchor + y @ frame.cross + np.outer(rng.uniform(-5.0, 5.0, 10), frame.axis))
            cloud = PointCloud(points=np.array(rows))
            cover = TubeCover(tubes=tubes)
            found = cover_check(cloud, cover)
            assert_same_check(found, all_tubes_check(cloud, cover))
            assert found[0] == inside

    def test_cells_widened_past_rounding_hold_their_points(self):
        # delta = 1e-7 at coordinates near 1e9, where one float step (about
        # 1.2e-7) exceeds delta: a point inside a tube can round two cells
        # of side 2 delta away from its anchor's, so cells must widen
        rng = np.random.default_rng(6)
        delta = Fraction(1, 10**7)
        width = float(delta)
        for trial in range(18):
            n = 2 + trial % 3
            frame = orthonormal_frame(random_direction(rng, n))
            anchors = rng.uniform(-1e9, 1e9, (3, n))
            tubes = (SquareTubes(frame=frame, anchors=anchors, half_width=delta),)
            y = rng.uniform(-width, width, (3, 500, n - 1)) @ frame.cross
            along = rng.uniform(-5.0, 5.0, (3, 500, 1)) * frame.axis
            pts = (anchors[:, None] + y + along).reshape(-1, n)
            cloud = PointCloud(points=pts[tubes[0].contains(pts)])
            assert cover_check(cloud, TubeCover(tubes=tubes)) == (True, None)


    @pytest.mark.parametrize("shape", ["tetrahedron", "cuboid4"])
    def test_projection_cover_takes_one_lookup_per_point(self, shape, monkeypatch):
        # cells are centred on an anchor, so a sampled point finds the tube
        # that holds it in its own cell and never visits the cells around it
        rng = np.random.default_rng(12)
        if shape == "tetrahedron":
            s, direction, step = regular_tetrahedron(), random_direction(rng, 3), 1 / 32
        else:
            s = Cuboid(center=rng.uniform(-1, 1, 4), frame=orthonormal_frame(random_direction(rng, 4)),
                       half_lengths=[0.5, 0.6, 0.7, 0.8])
            direction, step = random_direction(rng, 4), 1 / 5
        cover = parallel_cover_from_projection(s, direction, step)
        rows = []
        find_rows = covers_module._find_rows

        def counted(table, query):
            rows.append(len(query))
            return find_rows(table, query)

        monkeypatch.setattr(covers_module, "_find_rows", counted)
        found = sampled_check(s, cover, 20_000, 4)
        assert found == (True, None)
        assert len(cover) > 300 and sum(rows) <= 1.05 * 20_000
        monkeypatch.undo()
        assert_same_check(found, all_tubes_check(s, cover, samples=20_000, seed=4))


@st.composite
def projection_covers(draw):
    """A ball, cuboid, polytope or ball-polytope union in R^2..R^5 and its
    projection cover along a random direction, of at most about 1,000 tubes."""
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ball", "cuboid", "polytope", "union"]))
    if kind == "union":
        s = UnionShape(members=(random_ball(rng, n), random_polytope(rng, n)))
    else:
        s = {"ball": random_ball, "cuboid": random_cuboid, "polytope": random_polytope}[kind](rng, n)
    step = diameter(s) / {2: 24, 3: 12, 4: 6, 5: 4}[n]
    return s, parallel_cover_from_projection(s, random_direction(rng, n), step)


def drop_one_cases():
    """(shape, cover less one tube, that tube's cross centre, half-width) for
    each tube of projection covers in R^2 and R^3 of balls, cuboids,
    polytopes and unions of a ball and a polytope."""
    rng = np.random.default_rng(9)
    for trial in range(24):
        n = 2 + trial % 2
        if trial % 4 >= 2:
            s = UnionShape(members=(random_ball(rng, n), random_polytope(rng, n)))
        else:
            s = random_shape(rng, n)
        cover = parallel_cover_from_projection(s, random_direction(rng, n), diameter(s) / (16 if n == 2 else 8))
        (grid,) = cover.tubes
        for i in range(len(grid)):
            rest = SquareTubes(frame=grid.frame, anchors=np.delete(grid.anchors, i, axis=0), half_width=grid.half_width)
            yield s, TubeCover(tubes=(rest,)), grid.anchors[i] @ grid.frame.cross.T, grid._width


class TestLatticeCertificate:
    @settings(
        derandomize=True,
        database=None,
        deadline=None,
        max_examples=40,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(projection_covers())
    def test_projection_covers_are_certified_and_the_sampler_agrees(self, case):
        s, cover = case
        found = cover_check(s, cover, samples=2_000)
        assert found == (True, None) and found.check == "lattice certificate"
        assert sampled_check(s, cover, 2_000, 0) == (True, None)

    def test_the_build_s_oracles_check_as_fresh_ones(self):
        # the certificate reuses the hulls the build kept on the leaves, but
        # widens a ball's disk by the frame's stretch itself: the verdict is
        # that of a fresh copy of the shape, which keeps no hull
        rng = np.random.default_rng(28)
        for trial in range(16):
            n = 2 + trial % 4
            s = UnionShape(members=(random_ball(rng, n), random_polytope(rng, n), random_cuboid(rng, n)))
            s = s if trial % 2 else random_shape(rng, n)
            step = diameter(s) / {2: 24, 3: 12, 4: 6, 5: 4}[n]
            cover = parallel_cover_from_projection(s, random_direction(rng, n), step)
            found = cover_check(s, cover, samples=2_000)
            fresh = cover_check(shape_from_json(shape_to_json(s)), cover, samples=2_000)
            assert_same_check(found, fresh)
            assert found.check == fresh.check

    @staticmethod
    def counted_hulls(monkeypatch):
        """The list that each hull built from now on appends its point count to."""
        from tubemeasure import geometry

        built = []

        def counted(points, hull=geometry.ConvexHull):
            built.append(len(points))
            return hull(points)

        monkeypatch.setattr(geometry, "ConvexHull", counted)
        monkeypatch.setattr(projection, "ConvexHull", counted)
        return built

    @pytest.mark.parametrize("search", [False, True])
    def test_a_library_cover_projects_its_hull_once(self, search, monkeypatch):
        # the build keeps its projected hull on the leaf, read-only, and the
        # check and the shadow along the same direction reuse it
        tet, d = regular_tetrahedron(), np.array([0.3, 0.5, 0.8])
        built = self.counted_hulls(monkeypatch)
        if search:
            cover = cover_search(tet)
        else:
            cover = parallel_cover_from_projection(tet, d, 1 / 32)
            assert projection.Shadow(tet, d).area()[1] == 0.0
        assert cover_check(tet, cover).check == "lattice certificate"
        assert len(built) == 1
        oracle = projection._leaf_oracle(tet, cover.tubes[0].frame.cross)
        assert not oracle.equations.flags.writeable and not oracle.lo.flags.writeable

    def test_a_kept_hull_answers_only_its_own_cross_rows(self, monkeypatch):
        # build along d1, then d2: the check of the d1 cover projects the hull
        # along d1 again, and gives the verdict of a fresh copy of the shape
        rng = np.random.default_rng(29)
        built = self.counted_hulls(monkeypatch)
        for trial in range(8):
            n = 3 + trial % 3
            s = random_polytope(rng, n) if trial % 2 else random_cuboid(rng, n)
            step = diameter(s) / {3: 12, 4: 6, 5: 4}[n]
            first = parallel_cover_from_projection(s, random_direction(rng, n), step)
            parallel_cover_from_projection(s, random_direction(rng, n), step)
            before = len(built)
            found = cover_check(s, first, samples=2_000)
            assert len(built) == before + 1
            fresh = cover_check(shape_from_json(shape_to_json(s)), first, samples=2_000)
            assert_same_check(found, fresh)
            assert found.check == fresh.check

    def test_drop_one_covers_are_refused_unless_the_cell_only_grazes(self, monkeypatch):
        samples = {}  # every call asks 2,000 points at seed 1: one draw per shape

        def sampled(s, count, seed=0):
            if id(s) not in samples:
                samples[id(s)] = s, sample_points(s, count, seed)
            return samples[id(s)][1]

        monkeypatch.setattr(covers_module, "sample_points", sampled)
        refused = 0
        for s, cover, centre, width in drop_one_cases():
            found = cover_check(s, cover, samples=2_000, seed=1)
            if found.check == "lattice certificate":
                # the dropped cell, shrunk by a millionth, misses the shadow
                _, oracles = _cross_view(s, cover.tubes[0].frame.axis)
                assert not _touch(oracles, (centre - 0.999999 * width)[None], (centre + 0.999999 * width)[None])[0]
                continue
            refused += 1
            assert found.check == "sampled 2000 points"
            assert_same_check(found, all_tubes_verdict(sampled(s, 2_000, 1), cover))
        assert refused > 600

    def test_certified_fine_cover_misses_no_sampled_point(self):
        # 20,164 tubes; the oracle is the sampler at a million points
        tet = regular_tetrahedron()
        cover = parallel_cover_from_projection(tet, np.array([0.0, 0.0, 1.0]), 1 / 200)
        assert cover_check(tet, cover).check == "lattice certificate"
        assert sampled_check(tet, cover, 1_000_000, 0) == (True, None)

    def test_anchor_off_the_lattice_refuses(self):
        tet = regular_tetrahedron()
        (grid,) = parallel_cover_from_projection(tet, np.array([0.0, 0.0, 1.0]), 1 / 32).tubes
        anchors = grid.anchors.copy()
        anchors[5] += 1e-9 * grid.frame.cross[0]
        cover = TubeCover(tubes=(SquareTubes(frame=grid.frame, anchors=anchors, half_width=grid.half_width),))
        found = cover_check(tet, cover, samples=20_000)
        assert found == (True, None) and found.check == "sampled 20000 points"

    def test_more_cells_than_max_grid_cells_refuses(self, monkeypatch):
        # the 1/32 cover lists hundreds of cells over the shadow's box
        tet = regular_tetrahedron()
        cover = parallel_cover_from_projection(tet, np.array([0.0, 0.0, 1.0]), 1 / 32)
        monkeypatch.setattr(covers_module, "MAX_GRID_CELLS", 100)
        found = cover_check(tet, cover, samples=2_000)
        assert found == (True, None) and found.check == "sampled 2000 points"

    def test_half_width_near_the_rounding_refuses(self):
        # delta = 1e-7 at coordinates near 1e9, below eta: cells shrunk by
        # eta would turn inside out and flag nothing
        ball = Ball(center=np.array([1e9, 1e9, 0.0]), radius=1e-6)
        one = SquareTubes(frame=identity_frame(3), anchors=ball.center, half_width=Fraction(1, 10**7))
        found = cover_check(ball, TubeCover(tubes=(one,)), samples=2_000)
        assert not found[0] and found.check == "sampled 2000 points"

    def test_shadow_inside_a_cell_margin_far_from_the_tube_refuses(self):
        # the disk, of radius 1e-15, lies within eta of the boundary between
        # two empty cells, and no cell's core meets it; the tube spans
        # x in [-5.5, -4.5]
        ball = Ball(center=np.array([0.5, 0.0, 0.0]), radius=1e-15)
        one = SquareTubes(frame=identity_frame(3), anchors=np.array([-5.0, 0.0, 0.0]), half_width=Fraction(1, 2))
        found = cover_check(ball, TubeCover(tubes=(one,)), samples=2_000)
        assert not found[0] and found.check == "sampled 2000 points"

    @pytest.mark.parametrize("with_ball", [False, True])
    def test_needle_along_a_cell_boundary_refuses(self, with_ball):
        # a cuboid 2e-15 thick along x = 0.5, inside the tube's x range but
        # running from its cell up through three empty cells; with a ball in
        # the tube's cell, the fat part of the shape is covered
        needle = Cuboid(
            center=np.array([0.5 - 1e-15, 1.5, 0.0]),
            half_lengths=np.array([1e-15, 1.9, 0.1]),
            frame=identity_frame(3),
        )
        s = UnionShape(members=(Ball(center=np.zeros(3), radius=0.3), needle)) if with_ball else needle
        one = SquareTubes(frame=identity_frame(3), anchors=np.zeros(3), half_width=Fraction(1, 2))
        assert not covers_module._lattice_certificate(covers_module._leaves(s), identity_frame(3).cross, 0.5, np.zeros((1, 3)))
        found = cover_check(s, TubeCover(tubes=(one,)), samples=2_000)
        assert found.check == "sampled 2000 points"
        if not with_ball:
            assert not found[0]

    def test_disk_widens_under_a_frame_off_orthonormal(self):
        # cross rows 4e-11 too long (within FRAME_ORTHO_TOL): the ball's
        # shadow reaches past |y_1| = 1, where an orthonormal frame's disk
        # of radius 1 - 1e-11 stops, so the cells beyond must be asked for
        ball = Ball(center=np.zeros(3), radius=1.0 - 1e-11)
        centres = np.array([(x, y) for x in np.arange(-1.25, 1.3, 0.5) for y in np.arange(-1.25, 1.3, 0.5)])
        near = np.linalg.norm(np.clip(0.0, centres - 0.25, centres + 0.25), axis=1)
        centres = centres[near <= 1.0 - 1e-11]
        stretch = 1.0 + 4e-11
        for cross, covered in ((np.eye(3)[:2], True), (stretch * np.eye(3)[:2], False)):
            anchors = np.column_stack([centres / cross[0, 0], np.zeros(len(centres))])
            assert covers_module._lattice_certificate([ball], cross, 0.25, anchors) is covered

    def test_interleaved_frames_check_as_two_groups(self, monkeypatch):
        # the two 1/32 tetrahedron grids along (0, 0, 1) and (0, 1, 1),
        # interleaved entry by entry, read back one part per entry
        tet = regular_tetrahedron()
        grids = [parallel_cover_from_projection(tet, np.array(d), 1 / 32) for d in ([0.0, 0.0, 1.0], [0.0, 1.0, 1.0])]
        a, b = map(cover_to_json, grids)
        doc = [entry for pair in zip(a, b) for entry in pair] + a[len(b):] + b[len(a):]
        cover = cover_from_json(json.loads(json.dumps(doc)))
        assert len(cover.tubes) > 800
        sizes = sorted(len(grid) for grid in grids)
        grids = []  # tubes per _AnchorGrid built

        class CountedGrid(covers_module._AnchorGrid):
            def __init__(self, cross, width, anchors, reach):
                grids.append(len(anchors))
                super().__init__(cross, width, anchors, reach)

        monkeypatch.setattr(covers_module, "_AnchorGrid", CountedGrid)
        found = cover_check(tet, cover, samples=100_000)
        assert found == (True, None) and found.check == "sampled 100000 points"
        assert sorted(grids) == sizes


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

    @pytest.mark.parametrize("kind", ["polytope", "two balls", "ball and cloud"])
    def test_anchors_are_cell_centres_and_no_shadow_is_built(self, kind, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a projection cover builds no Shadow")

        monkeypatch.setattr(projection.Shadow, "__init__", refuse)
        ball = Ball(center=np.zeros(3), radius=1.0)
        s = {
            "polytope": regular_tetrahedron(),
            "two balls": UnionShape(members=(ball, Ball(center=np.array([1.5, 0.0, 0.0]), radius=0.7))),
            "ball and cloud": UnionShape(
                members=(ball, PointCloud(points=np.random.default_rng(12).uniform(-2.0, 2.0, (6, 3))))
            ),
        }[kind]
        d, h = np.array([0.3, 0.5, 0.8]), 1 / 16
        (grid,) = parallel_cover_from_projection(s, d, h).tubes
        frame, oracles = _cross_view(s, d)
        lo, hi = _extent(oracles)
        if kind == "ball and cloud":  # the grid is widened by the cloud's margin
            lo = lo - ((np.floor((hi - lo) / h + 0.5) + 1) * h - (hi - lo)) / 2
        index = np.floor((grid.anchors @ frame.cross.T - lo) / h)
        centres = lo + index * h + 0.5 * h
        assert grid.frame.cross.tobytes() == frame.cross.tobytes()
        assert np.array_equal(grid.anchors, np.array([c @ frame.cross for c in centres]))

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
        cover = cover_search(cloud)
        assert len(cover) == 1
        assert cover_cost(cover) < 1e-12
        ok, _ = cover_check(cloud, cover)
        assert ok

    def test_never_worse_than_projection_incumbent(self):
        # the search keeps the projection cover as incumbent, and round
        # tubes only pay off on point clouds, so on solids the search
        # returns that cover tube for tube
        from tubemeasure import diameter, upper_bound_min_projection
        from tubemeasure.serialization import cover_to_json, shape_from_json, shape_to_json

        rng = np.random.default_rng(41)
        shapes = [unit_cube()] + [random_shape(rng, int(rng.integers(2, 5))) for _ in range(10)]
        for i, shape in enumerate(shapes):
            _, witness = upper_bound_min_projection(shape)
            h = max(diameter(shape) / 16.0, 1e-6)
            incumbent = parallel_cover_from_projection(shape, witness, h)
            found = cover_search(shape)
            assert cover_to_json(found) == cover_to_json(incumbent), f"shape {i}"

    def test_cost_respects_lower_bound(self):
        # any verified cover costs at least the certified lower bound
        rng = np.random.default_rng(41)
        for trial in range(20):
            n = int(rng.integers(2, 4))
            shape = random_shape(rng, n)
            cover = cover_search(shape)
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


# a ball and a cloud whose points reach the outer edges of a grid cover
UNION_CLOUD = [[1.2, 1.2, 0.1], [-0.9, -1.8, -0.5], [-0.4, -1.8, -1.8], [2.0, 0.6, -1.1]]


class TestCloudLeaves:
    """Cloud members of a union are covered and checked like a bare cloud."""

    def union(self):
        cloud = PointCloud(points=np.array(UNION_CLOUD))
        return cloud, UnionShape(members=(Ball(center=np.zeros(3), radius=0.5), cloud))

    def test_union_cover_holds_its_cloud_points(self):
        # without the margin, (-0.4, -1.8, -1.8) fell outside every tube
        cloud, union = self.union()
        cover = parallel_cover_from_projection(union, np.array([1.0, -1.6, -0.2]), 0.25)
        assert cover_check(cloud, cover) == (True, None)
        assert cover_check(union, cover, samples=20_000) == (True, None)

    def test_random_union_covers_hold_their_cloud_points(self):
        # without the margin, 193 of these 300 covers missed a cloud point
        rng = np.random.default_rng(0)
        for trial in range(300):
            n = int(rng.integers(2, 5))
            cloud = PointCloud(points=np.round(rng.uniform(-2.0, 2.0, (4, n)), 1))
            union = UnionShape(members=(Ball(center=np.zeros(n), radius=0.5), cloud))
            cover = parallel_cover_from_projection(union, rng.standard_normal(n), 0.25)
            assert cover_check(cloud, cover)[0], trial

    def test_check_reads_the_cloud_leaves_of_a_union(self):
        # the ball's own cover holds the sampled points but no cloud point;
        # the cloud points follow the sample, in member order
        cloud, union = self.union()
        ball = union.members[0]
        cover = parallel_cover_from_projection(ball, np.array([1.0, -1.6, -0.2]), 0.25)
        assert cover_check(ball, cover, samples=20_000) == (True, None)
        ok, witness = cover_check(union, cover, samples=20_000)
        assert not ok
        assert witness.tolist() == UNION_CLOUD[0]

    def large_cloud_union(self, tmp_path):
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, (2000, 3)).tolist()
        shape = tmp_path / "F.json"
        shape.write_text(json.dumps({"dim": 3, "kind": "union", "members": [
            {"dim": 3, "kind": "ball", "center": [0, 0, 0], "radius": 0.5},
            {"dim": 3, "kind": "cloud", "points": pts},
        ]}))
        return str(shape)

    def test_large_cloud_member_memory(self, tmp_path):
        # comparing each sampled batch with all 2,000 cloud points peaked at 542 MB
        shape = self.large_cloud_union(tmp_path)
        argv = ("cover", "--shape", shape, "--parallel", "0,0,1", "1/8", "--samples", "20000")
        assert _child_peak_rss_kb(*argv) < 150 * 1024

    def test_large_cloud_member_bounds_memory(self, tmp_path):
        # the volume sample compared each batch with every cloud point: 574 MB
        shape = self.large_cloud_union(tmp_path)
        assert _child_peak_rss_kb("bounds", "--shape", shape) < 150 * 1024

    def test_union_of_clouds_is_never_sampled(self, monkeypatch):
        # rejection sampling could not draw from a union of clouds and ran on
        def refuse(*args):
            raise AssertionError("a union of clouds has no volume to sample")

        monkeypatch.setattr(covers_module, "sample_points", refuse)
        first = PointCloud(points=np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [0.5, -1.0, 0.3]]))
        second = PointCloud(points=np.array([[2.0, 0.0, 1.0], [-1.0, 1.0, 0.5]]))
        union = UnionShape(members=(first, second))
        cover = cover_search(union)
        assert cover_check(union, cover) == (True, None)
        lone = TubeCover(tubes=(Tube(point=np.zeros(3), axis=np.array([1.0, 2.0, 2.0]), radius=0.1),))
        ok, witness = cover_check(union, lone)
        assert not ok and witness.tolist() == [0.5, -1.0, 0.3]
