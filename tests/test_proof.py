import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_packing_exact
from hypothesis import HealthCheck, given, settings, strategies as st

from tubemeasure import (
    Ball,
    DimensionError,
    GeometryError,
    InvariantError,
    NoWitnessError,
    ParameterError,
    ProofParameters,
    StepFailureError,
    Tube,
    align_cuboids,
    ball_square_packing,
    choose_parameters,
    common_refinement,
    contradiction_check,
    cover_cost,
    cuboid_in_ball,
    pigeonhole_select,
    run_proof_walkthrough,
    square_tube_exact_measure,
    subdivide_tube,
    unit_ball_volume,
    volume_exact,
)
from tubemeasure import proof as proof_module
from tubemeasure.montecarlo import TAG_PROOF, batch_rng
from tubemeasure.serialization import _jsonable


class TestSquarePacking:
    def test_interval_packing_depth_one(self):
        packing = ball_square_packing(1, 1.0, 1)
        assert packing.depth_counts == {1: 2}
        assert packing.covered_fraction == 1.0
        exact = [packing.square_exact(i) for i in range(2)]
        assert exact[0] == ((Fraction(-1, 2),), Fraction(1, 2))
        assert exact[1] == ((Fraction(1, 2),), Fraction(1, 2))

    def test_disk_packing_depth_two(self):
        packing = ball_square_packing(2, 1.0, 2)
        assert packing.depth_counts == {2: 4}
        h = Fraction(1, 4)
        centers = {packing.square_exact(i)[0] for i in range(4)}
        assert centers == {
            (Fraction(-1, 4), Fraction(-1, 4)),
            (Fraction(-1, 4), Fraction(1, 4)),
            (Fraction(1, 4), Fraction(-1, 4)),
            (Fraction(1, 4), Fraction(1, 4)),
        }
        assert all(packing.square_exact(i)[1] == h for i in range(4))
        assert packing.covered_fraction == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_disk_fraction_converges(self):
        fractions = [
            ball_square_packing(2, 1.0, d).covered_fraction for d in range(1, 11)
        ]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] >= 0.99

    def test_depth_ten_exact_geometry(self):
        assert_packing_exact(ball_square_packing(2, 1.0, 10))

    def test_exact_geometry_other_dims(self):
        for m, depth in ((1, 8), (3, 5), (4, 4)):
            assert_packing_exact(ball_square_packing(m, 1.0, depth))

    def test_total_cost_below_ball_volume(self):
        for m in (1, 2, 3):
            packing = ball_square_packing(m, 1.5, 6)
            total = math.fsum(
                float((2 * hw) ** m) for _, hw in packing.squares
            )
            assert total <= unit_ball_volume(m) * 1.5 ** m + 1e-12
            assert packing.covered_fraction <= 1.0 + 1e-12

    def test_radius_scales_centers(self):
        a = ball_square_packing(2, 1.0, 4)
        b = ball_square_packing(2, 0.5, 4)
        assert a.depth_counts == b.depth_counts  # census is radius-free
        ca, ha = a.square_exact(0)
        cb, hb = b.square_exact(0)
        assert ha == 2 * hb
        assert all(x == 2 * y for x, y in zip(ca, cb))

    def test_argument_validation(self):
        with pytest.raises(DimensionError):
            ball_square_packing(0, 1.0, 3)
        with pytest.raises(DimensionError):
            ball_square_packing(8, 1.0, 3)
        with pytest.raises(ParameterError):
            ball_square_packing(2, 1.0, 0)
        with pytest.raises(ParameterError):
            ball_square_packing(2, 1.0, 21)
        with pytest.raises(ParameterError):
            ball_square_packing(2, -1.0, 3)

    def test_census_matches_recursive_oracle(self):
        # independent recursion over explicit cell bounds, no lattice tricks
        def census(m, max_depth):
            counts = {}

            def recurse(lo, hi, depth):
                far = sum(max(abs(l), abs(h)) ** 2 for l, h in zip(lo, hi))
                if far <= 1.0 + 1e-15:
                    counts[depth] = counts.get(depth, 0) + 1
                    return
                near = sum(
                    l * l if l > 0 else (h * h if h < 0 else 0.0)
                    for l, h in zip(lo, hi)
                )
                if near >= 1.0 - 1e-15 or depth == max_depth:
                    return
                mids = [(l + h) / 2 for l, h in zip(lo, hi)]
                for pick in itertools.product((0, 1), repeat=m):
                    nlo = [mi if p else l for p, l, mi in zip(pick, lo, mids)]
                    nhi = [h if p else mi for p, mi, h in zip(pick, mids, hi)]
                    recurse(nlo, nhi, depth + 1)

            for pick in itertools.product((0, 1), repeat=m):
                recurse(
                    [0.0 if p else -1.0 for p in pick],
                    [1.0 if p else 0.0 for p in pick],
                    1,
                )
            return counts

        for m, max_depth in ((1, 6), (2, 5), (3, 4)):
            packing = ball_square_packing(m, 1.0, max_depth)
            assert packing.depth_counts == census(m, max_depth), f"m={m}"

    def test_square_index_out_of_range(self):
        # an index is a rank in canonical order, so a negative one has no square
        packing = ball_square_packing(2, 1.0, 4)
        last = packing.n_squares - 1
        assert packing.square_exact(last) == ((Fraction(11, 16), Fraction(9, 16)), Fraction(1, 16))
        for index in (-1, -packing.n_squares, packing.n_squares):
            with pytest.raises(ParameterError, match="out of range"):
                packing.square_exact(index)

    def test_listing_takes_no_gcd_per_coordinate(self, monkeypatch):
        # a centre coordinate is k num / den with k odd and den a power of
        # two, so {k num, den} is reduced as it stands; an integer radius
        # gives half-widths with den = 1 at the shallow depths
        packing = ball_square_packing(2, 1024.0, 12)
        packing.cells
        gcd = math.gcd
        calls = []

        def counted(*args):
            calls.append(args)
            return gcd(*args)

        monkeypatch.setattr(math, "gcd", counted)
        squares = packing.to_dict()["squares"]
        assert len(calls) <= 8 * packing.max_depth < len(squares)
        for entry in squares:
            den = entry["half_width"]["den"]
            assert all(c["den"] == den and gcd(c["num"], den) == 1 for c in entry["center"])
            assert all(c["num"] % entry["half_width"]["num"] == 0 for c in entry["center"])

    def test_to_dict_shape(self):
        d = ball_square_packing(2, 1.0, 3).to_dict()
        assert d["depth_counts"] == {"2": 4, "3": 16}
        assert d["n_squares"] == 20
        assert len(d["squares"]) == 20
        first = d["squares"][0]
        assert set(first) == {"center", "half_width"}
        assert first["half_width"] == {"num": 1, "den": 4}

    @settings(
        derandomize=True,
        database=None,
        deadline=None,
        max_examples=60,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        m=st.integers(1, 7),
        depth=st.integers(1, 3),
        radius=st.floats(1e-3, 1e3) | st.integers(-9, 9).map(lambda e: 2.0 ** e),
    )
    def test_listing_matches_square_exact(self, m, depth, radius):
        # the integer pairs of the listing against the Fraction oracle
        packing = ball_square_packing(m, radius, depth)
        squares = packing.to_dict()["squares"]
        assert len(squares) == packing.n_squares
        for i, entry in enumerate(squares):
            center, half_width = packing.square_exact(i)
            assert entry == {"center": _jsonable(center), "half_width": _jsonable(half_width)}


def _scan_census(m, max_depth):
    counts = {}
    for depth, block in proof_module._scan_packing(m, max_depth):
        counts[depth] = counts.get(depth, 0) + len(block)
    return counts


def _scan_cell_by_rank(m, counts, rank):
    seen = 0
    for depth, block in proof_module._scan_packing(m, max(counts)):
        if rank < seen + len(block):
            return depth, block[rank - seen].copy()
        seen += len(block)
    raise ParameterError("cell rank out of range")


class TestLatticeCensus:
    """The walkthrough's lattice census and rank lookup against the scan."""

    def test_isqrt_fixes_float_rounding(self):
        # 2^62 - 1 rounds up to 2^62 as a float, whose root is one too large
        x = np.array([0, 1, 3, 4, 2**62 - 1, 2**62, (2**31 + 1) ** 2], dtype=np.int64)
        rng = np.random.default_rng(11)
        roots = rng.integers(2**20, 3_037_000_499, 20_000)
        x = np.concatenate([x, roots * roots, roots * roots - 1, roots * roots + roots])
        want = [math.isqrt(int(v)) for v in x]
        assert proof_module._isqrt(x).tolist() == want

    @pytest.mark.parametrize("m, cap", [(1, 14), (2, 9), (3, 6), (4, 5), (5, 4), (6, 4), (7, 3)])
    def test_census_matches_scan(self, m, cap):
        for depth in range(1, cap + 1):
            assert proof_module._packing_census(m, depth) == _scan_census(m, depth), depth

    @pytest.mark.parametrize("m, depth", [(1, 6), (2, 6), (2, 9), (3, 5), (4, 4), (6, 3), (7, 3)])
    def test_cell_by_rank_matches_scan(self, m, depth):
        cells = [
            (d, row) for d, block in proof_module._scan_packing(m, depth) for row in block
        ]
        total = len(cells)
        rng = np.random.default_rng([m, depth])
        ranks = {0, 1, total - 1, *rng.integers(0, total, 25).tolist()}
        counts = proof_module._packing_census(m, depth)
        for rank in sorted(r for r in ranks if r < total):
            got_depth, got = proof_module._packing_cell_by_rank(m, counts, rank)
            want_depth, want = cells[rank]
            assert got_depth == want_depth, rank
            assert got.dtype == want.dtype and np.array_equal(got, want), rank
        for rank in (-1, total):
            with pytest.raises(ParameterError):
                proof_module._packing_cell_by_rank(m, counts, rank)

    def test_order_within_a_depth_is_z_order(self):
        # the last depth-6 cell of the disk; a lexicographic order would
        # end on (61, 13) instead
        assert sum(_scan_census(2, 6).values()) == 284
        counts = proof_module._packing_census(2, 6)
        assert _scan_cell_by_rank(2, counts, 283)[1].tolist() == [53, 33]
        depth, cell = proof_module._packing_cell_by_rank(2, counts, 283)
        assert depth == 6 and cell.tolist() == [53, 33]
        last = max(tuple(row) for row in ball_square_packing(2, 1.0, 6).cells[6])
        assert last == (61, 13)

    def test_storage_guard_counts_before_listing(self, monkeypatch):
        # 38.7 M cells; listing them up to the limit took 4.7 GB.  The
        # census is reported; only reading the cells is refused.
        def refuse(*args):
            raise AssertionError("the storage guard must not list cells")

        monkeypatch.setattr(proof_module, "_scan_packing", refuse)
        packing = ball_square_packing(4, 1.0, 8)
        assert packing.n_squares == 38_749_648
        assert "squares" not in packing.to_dict()
        with pytest.raises(ParameterError, match="stored cells"):
            packing.cells

    def test_square_exact_above_the_storage_limit(self, monkeypatch):
        # the last of 38.7 M squares, read by rank without listing any
        def refuse(*args):
            raise AssertionError("a rank lookup must not list cells")

        monkeypatch.setattr(proof_module, "_scan_packing", refuse)
        packing = ball_square_packing(4, 1.0, 8)
        center, hw = packing.square_exact(packing.n_squares - 1)
        assert hw == Fraction(1, 256)
        assert center == tuple(Fraction(k, 256) for k in (161, 129, 129, 73))
        # inside the closed unit ball, while its parent square is not
        assert sum((abs(c) + hw) ** 2 for c in center) <= 1
        rows = [int(c / hw) for c in center]
        parent = [k // 2 if k // 2 % 2 else k // 2 + 1 for k in rows]
        assert sum((abs(p * 2 * hw) + 2 * hw) ** 2 for p in parent) > 1
        with pytest.raises(ParameterError, match="out of range"):
            packing.square_exact(packing.n_squares)

    def test_census_and_rank_never_scan(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the walkthrough helpers must not list cells")

        monkeypatch.setattr(proof_module, "_scan_packing", refuse)
        counts = proof_module._packing_census(4, 7)
        total = sum(counts.values())
        assert total == 4_728_240
        for rank in (0, total // 2, total - 1):
            depth, cell = proof_module._packing_cell_by_rank(4, counts, rank)
            assert cell.shape == (4,) and np.all(cell % 2 == 1)

    def test_packing_reports_its_census_without_listing(self, monkeypatch):
        # above 100,000 squares the report holds the census alone
        def refuse(*args):
            raise AssertionError("a census-only report must not list cells")

        monkeypatch.setattr(proof_module, "_scan_packing", refuse)
        d = ball_square_packing(4, 1.0, 7).to_dict()
        assert "squares" not in d
        assert d["n_squares"] == 4_728_240
        assert d["depth_counts"] == {
            "2": 16, "3": 256, "4": 4672, "5": 54240, "6": 482880, "7": 4186176
        }
        assert d["covered_fraction"] == 0.9480192550751374

    @pytest.mark.parametrize("m, depth", [(1, 20), (2, 14), (3, 10), (4, 8), (5, 6), (7, 4)])
    def test_census_counts_each_depth_once(self, monkeypatch, m, depth):
        calls = []
        count = proof_module._box_lattice_counts

        def counted(*args):
            calls.append(args)
            return count(*args)

        monkeypatch.setattr(proof_module, "_box_lattice_counts", counted)
        proof_module._packing_census(m, depth)
        assert len(calls) <= depth

    @pytest.mark.parametrize(
        "n, depths",
        [(2, (3, 6)), (3, (2, 5)), (4, (2, 4)), (5, (2, 4)), (6, (3, 4)), (7, (3, 4)), (8, (3,))],
    )
    def test_walkthrough_matches_scan_helpers(self, monkeypatch, n, depths):
        # (8, 4) is left out: its scan peaks at 2.65 GB
        for depth in depths:
            for seed in (0, 1, 2):
                fast = run_proof_walkthrough(n, depth, seed).to_dict()
                with monkeypatch.context() as patch:
                    patch.setattr(proof_module, "_packing_census", _scan_census)
                    patch.setattr(proof_module, "_packing_cell_by_rank", _scan_cell_by_rank)
                    slow = run_proof_walkthrough(n, depth, seed).to_dict()
                assert json.dumps(fast) == json.dumps(slow), (depth, seed)

    def test_deep_walkthrough_memory(self):
        # scanning this packing peaked at 2.65 GB
        assert _child_peak_rss_kb("proof", "--dim", "8", "--depth", "4") < 265 * 1024

    def test_census_only_packing_memory(self):
        # 4,728,240 squares; listing them to print the census took 611 MB
        assert _child_peak_rss_kb("pack", "--dim", "4", "--depth", "7") < 150 * 1024


def _child_peak_rss_kb(*argv):
    """Peak RSS of one successful CLI run; the child of an intermediate
    interpreter is measured, so earlier children do not count."""
    root = Path(__file__).resolve().parents[1]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]),
    )
    probe = (
        "import resource, subprocess, sys\n"
        "argv = [sys.executable, '-m', 'tubemeasure', *sys.argv[1:]]\n"
        "code = subprocess.run(argv, stdout=subprocess.DEVNULL).returncode\n"
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    code, max_rss_kb = map(int, out.stdout.split())
    assert code == 0, out.stderr
    return max_rss_kb


class TestSubdivideTube:
    def test_strip_subdivision_is_whole_strip(self):
        tube = Tube(point=np.zeros(2), axis=np.array([0.0, 1.0]), radius=1.0)
        squares = subdivide_tube(tube, 1)
        assert len(squares) == 2
        assert cover_cost(squares) == 2.0  # the strip costs 2r and splits exactly

    def test_round_tube_subdivision_stays_below_cost(self):
        tube = Tube(point=np.zeros(3), axis=np.array([0.0, 0.0, 1.0]), radius=1.0)
        squares = subdivide_tube(tube, 2)
        assert len(squares) == 4
        assert cover_cost(squares) == 1.0
        deep = subdivide_tube(tube, 10)
        # one group of square tubes per depth, each tube costing (2 delta)^2
        assert [sq.half_width for sq in deep.tubes] == [Fraction(1, 2 ** d) for d in range(2, 11)]
        assert cover_cost(deep) == math.fsum(len(sq) * square_tube_exact_measure(sq) for sq in deep.tubes)
        assert 0.99 * math.pi <= cover_cost(deep) <= math.pi

    def test_anchors_on_cross_section(self):
        rng = np.random.default_rng(11)
        axis = rng.standard_normal(3)
        tube = Tube(point=rng.uniform(-1, 1, 3), axis=axis, radius=0.75)
        for sq in subdivide_tube(tube, 3).tubes:
            # anchors sit in the tube: distance to the axis below r
            rel = sq.anchors - tube.point
            along = rel @ tube.axis
            dist = np.linalg.norm(rel - np.outer(along, tube.axis), axis=1)
            assert np.all(dist <= tube.radius + 1e-9)
            assert np.allclose(sq.frame.axis, tube.axis, atol=1e-12)

    def test_depth_without_squares_is_refused(self):
        # no cube of side 1 fits in the unit ball of R^7; the list form was empty
        tube = Tube(point=np.zeros(8), axis=np.eye(8)[-1], radius=1.0)
        with pytest.raises(ParameterError, match="at least one tube"):
            subdivide_tube(tube, 1)

    def test_materialization_guard(self):
        tube = Tube(point=np.zeros(8), axis=np.eye(8)[-1], radius=1.0)
        with pytest.raises(ParameterError):
            subdivide_tube(tube, 6)

    def test_materialization_guard_counts_before_listing(self, monkeypatch):
        # 4,728,240 cells pass the depth guard; listing them took 649 MB
        def refuse(*args):
            raise AssertionError("the subdivision guard must not list cells")

        monkeypatch.setattr(proof_module, "_scan_packing", refuse)
        tube = Tube(point=np.zeros(5), axis=np.eye(5)[-1], radius=1.0)
        with pytest.raises(ParameterError, match="too large to materialize"):
            subdivide_tube(tube, 7)


class TestPigeonhole:
    def test_trivial_instance(self):
        assert pigeonhole_select([1.0, 1.0], [1.0, 1.0], 0.25) == 0

    def test_first_qualifying_index(self):
        assert pigeonhole_select([4.0, 1.0], [3.0, 1.0], 0.2) == 1

    def test_single_cell(self):
        assert pigeonhole_select([1.0], [0.9], 0.2) == 0

    def test_violating_instance(self):
        with pytest.raises(NoWitnessError):
            pigeonhole_select([1.0, 1.0], [0.5, 0.5], 0.2)

    def test_validation(self):
        with pytest.raises(ParameterError):
            pigeonhole_select([], [], 0.2)
        with pytest.raises(ParameterError):
            pigeonhole_select([1.0, 2.0], [1.0], 0.2)
        with pytest.raises(ParameterError):
            pigeonhole_select([1.0], [1.0], 0.0)
        with pytest.raises(ParameterError):
            pigeonhole_select([-1.0], [1.0], 0.2)
        with pytest.raises(ParameterError):
            pigeonhole_select([1.0], [-1.0], 0.2)

    def test_matches_full_scan_on_random_instances(self):
        rng = np.random.default_rng(53)
        qualified = 0
        rejected = 0
        for _ in range(10_000):
            k = int(rng.integers(1, 40))
            masses = rng.uniform(0.1, 5.0, k)
            eps = float(rng.uniform(0.01, 0.5))
            weights = masses * rng.uniform(1.0 - 2.0 * eps, 1.0, k)
            if math.fsum(weights) >= (1.0 - eps) * math.fsum(masses):
                idx = pigeonhole_select(masses, weights, eps)
                scan = np.nonzero(weights >= (1.0 - eps) * masses)[0]
                assert len(scan) > 0  # the pigeonhole guarantee itself
                assert idx == int(scan[0])
                qualified += 1
            else:
                with pytest.raises(NoWitnessError):
                    pigeonhole_select(masses, weights, eps)
                rejected += 1
        assert qualified >= 1000 and rejected >= 1000


def _full_stream(groups, eps, seed, key):
    """The share stream drawn to the end of every try, without the stop."""
    total_mass = math.fsum(count * mass for count, mass in groups)
    threshold = 1.0 - eps
    low = 1.0 - 1.5 * eps
    for retry in range(8):
        first = None
        first_q = 0.0
        acc = 0.0
        base = 0
        bindex = 0
        for count, mass in groups:
            done = 0
            while done < count:
                c = min(proof_module._SHARE_CHUNK, count - done)
                rng = batch_rng(seed, TAG_PROOF, key, retry, bindex)
                q = low + rng.random(c) * (1.0 - low)
                acc += mass * float(q.sum())
                if first is None:
                    hits = np.nonzero(q >= threshold)[0]
                    if hits.size:
                        first = base + done + int(hits[0])
                        first_q = float(q[hits[0]])
                done += c
                bindex += 1
            base += count
        if acc >= threshold * total_mass and first is not None:
            return first, first_q, retry
    raise NoWitnessError("synthetic shares kept missing the mass precondition")


def _stream_groups(n, depth, radius):
    """(count, mass) per depth, as the walkthrough builds them."""
    m = n - 1
    counts = proof_module._packing_census(m, depth)
    return [(counts[d], float((2 * radius / 2 ** d) ** m)) for d in sorted(counts)]


class TestShareStreamStop:
    @pytest.mark.parametrize(
        "n, depths",
        [(2, (3, 10, 20)), (3, (2, 8, 14)), (4, (2, 6, 10)), (5, (2, 5, 7)),
         (6, (3, 4, 5)), (7, (3, 4)), (8, (3, 4))],
    )
    def test_matches_full_stream(self, n, depths):
        eps = float(proof_module._p_q_eps(n)[2])
        for depth in depths:
            for radius in (Fraction(1), Fraction(3, 2), Fraction(1, 2)):
                groups = _stream_groups(n, depth, radius)
                for seed in (0, 1, 7, 335635780):
                    for key in (1, 2):
                        assert proof_module._stream_pigeonhole(groups, eps, seed, key) == (
                            _full_stream(groups, eps, seed, key)
                        ), (depth, radius, seed, key)

    def test_matches_full_stream_on_retries(self):
        retried = 0
        for groups in ([(1, 1.0), (3, 0.25)], [(2, 1.0), (5, 0.1)]):
            for eps in (0.1, 0.2, 0.3):
                for seed in range(40):
                    for key in (1, 2):
                        got = proof_module._stream_pigeonhole(groups, eps, seed, key)
                        assert got == _full_stream(groups, eps, seed, key)
                        retried += got[2] > 0
        assert retried >= 20

    def test_missing_witness_matches_full_stream(self):
        # at this seed all eight tries of the single cell fall short
        for stream in (proof_module._stream_pigeonhole, _full_stream):
            with pytest.raises(NoWitnessError):
                stream([(1, 1.0)], 0.2, 5166, 1)

    def test_no_mass_is_an_invariant_error(self):
        for groups in ([], [(0, 1.0)], [(3, 0.0)]):
            with pytest.raises(InvariantError):
                proof_module._stream_pigeonhole(groups, 0.1, 0, 1)

    def test_stops_before_the_last_chunk(self, monkeypatch):
        # 4.7 M cells, most of them at the deepest depths; the shallow
        # depths carry enough mass to settle the result
        drawn = []

        def counting_rng(*key):
            drawn.append(key)
            return batch_rng(*key)

        monkeypatch.setattr(proof_module, "batch_rng", counting_rng)
        eps = float(proof_module._p_q_eps(5)[2])
        groups = _stream_groups(5, 7, Fraction(1))
        assert sum(count for count, _ in groups) > 4 * proof_module._SHARE_CHUNK
        proof_module._stream_pigeonhole(groups, eps, 7, 1)
        assert 0 < len(drawn) < len(groups)  # one chunk per depth reached

    def test_the_scan_chunk_leaves_every_selection_alone(self, monkeypatch):
        # the shares are drawn in chunks of their own: how many cells the
        # packing scan tests at once moves no walkthrough's selection
        expected = [run_proof_walkthrough(3, 5, seed).to_dict() for seed in range(8)]
        monkeypatch.setattr(proof_module, "_SCAN_CHUNK", 1)
        assert [run_proof_walkthrough(3, 5, seed).to_dict() for seed in range(8)] == expected


class TestCommonRefinement:
    def test_stated_example(self):
        assert common_refinement(Fraction(3, 4), Fraction(5, 6)) == (
            Fraction(1, 12),
            9,
            10,
        )

    def test_equal_widths(self):
        assert common_refinement(Fraction(2, 3), Fraction(2, 3)) == (
            Fraction(2, 3),
            1,
            1,
        )

    def test_integer_ratio(self):
        assert common_refinement(Fraction(1, 2), Fraction(1, 8)) == (
            Fraction(1, 8),
            4,
            1,
        )

    def test_validation(self):
        with pytest.raises(ParameterError):
            common_refinement(Fraction(0), Fraction(1, 2))
        with pytest.raises(ParameterError):
            common_refinement(Fraction(1, 2), Fraction(-1, 3))

    def test_against_integer_gcd_oracle(self):
        rng = np.random.default_rng(59)
        for _ in range(10_000):
            da = Fraction(int(rng.integers(1, 60)), int(rng.integers(1, 60)))
            db = Fraction(int(rng.integers(1, 60)), int(rng.integers(1, 60)))
            g, ca, cb = common_refinement(da, db)
            scale = math.lcm(da.denominator, db.denominator)
            oracle = Fraction(math.gcd(int(da * scale), int(db * scale)), scale)
            assert g == oracle
            assert ca * g == da and cb * g == db
            assert math.gcd(ca, cb) == 1  # g is the coarsest refinement


class TestCuboidInBall:
    def test_pythagoras_oracle(self):
        ball = Ball(center=np.zeros(3), radius=1.0)
        cuboid = cuboid_in_ball(ball, np.array([0.0, 0.0, 1.0]), 0.5)
        long_edge = math.sqrt(4.0 - 2 * 0.25)
        assert long_edge == pytest.approx(1.8708287, abs=1e-7)
        assert 2 * cuboid.half_lengths[-1] == pytest.approx(long_edge, abs=1e-12)
        # Pythagoras oracle eta^2 sqrt(4 d^2 - (n-1) eta^2); 0.4677072
        # is that value printed to seven digits
        assert volume_exact(cuboid) == pytest.approx(0.25 * long_edge, abs=1e-9)
        assert volume_exact(cuboid) == pytest.approx(0.4677072, abs=5e-8)

    def test_diameter_equals_ball_diameter(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            radius = float(rng.uniform(0.3, 2.0))
            eta = float(rng.uniform(0.1, 0.9)) * 2.0 * radius / math.sqrt(n - 1)
            ball = Ball(center=rng.uniform(-1, 1, n), radius=radius)
            cuboid = cuboid_in_ball(ball, rng.standard_normal(n), eta)
            diag = 2.0 * float(np.linalg.norm(cuboid.half_lengths))
            assert diag == pytest.approx(2.0 * radius, abs=1e-12)
            # all vertices on the sphere
            dist = np.linalg.norm(cuboid.vertices - ball.center, axis=1)
            assert np.allclose(dist, radius, atol=1e-9)

    def test_planar_area(self):
        ball = Ball(center=np.zeros(2), radius=1.0)
        cuboid = cuboid_in_ball(ball, np.array([0.0, 1.0]), 1.0)
        assert volume_exact(cuboid) == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_eta_at_feasibility_bound(self):
        ball = Ball(center=np.zeros(3), radius=1.0)
        with pytest.raises(GeometryError):
            cuboid_in_ball(ball, np.array([0.0, 0.0, 1.0]), math.sqrt(2.0))

    def test_eta_validation(self):
        ball = Ball(center=np.zeros(3), radius=1.0)
        for bad in (0.0, -0.5, math.inf):
            with pytest.raises(ParameterError):
                cuboid_in_ball(ball, np.array([0.0, 0.0, 1.0]), bad)


class TestAlignCuboids:
    def test_axis_separated_pair(self):
        b1 = Ball(center=np.zeros(3), radius=1.0)
        b2 = Ball(center=np.array([0.0, 0.0, 4.0]), radius=1.0)
        pair = align_cuboids(b1, b2, 0.5)
        assert np.allclose(pair.first.half_lengths, pair.second.half_lengths)
        assert np.allclose(pair.first.axes, pair.second.axes)
        verts = np.vstack([pair.first.vertices, pair.second.vertices])
        assert verts.shape == (16, 3)
        assert bool(np.all(pair.enclosing.contains(verts)))
        assert pair.enclosing.half_width == Fraction(1, 4)

    def test_overlapping_balls_rejected(self):
        b1 = Ball(center=np.zeros(3), radius=1.0)
        with pytest.raises(ParameterError):
            align_cuboids(b1, Ball(center=np.array([0.0, 0.0, 1.5]), radius=1.0), 0.5)
        with pytest.raises(ParameterError):
            align_cuboids(b1, b1, 0.5)

    def test_unequal_radii_rejected(self):
        b1 = Ball(center=np.zeros(3), radius=1.0)
        b2 = Ball(center=np.array([0.0, 0.0, 5.0]), radius=1.1)
        with pytest.raises(ParameterError):
            align_cuboids(b1, b2, 0.5)

    def test_random_pairs_vertex_exact(self):
        rng = np.random.default_rng(67)
        for trial in range(100):
            n = int(rng.integers(2, 6))
            radius = float(rng.uniform(0.2, 1.5))
            c1 = rng.uniform(-3.0, 3.0, n)
            direction = rng.standard_normal(n)
            direction /= np.linalg.norm(direction)
            gap = float(rng.uniform(2.05, 6.0)) * radius
            c2 = c1 + gap * direction
            eta = float(rng.uniform(0.15, 0.95)) * 2.0 * radius / math.sqrt(n - 1)
            pair = align_cuboids(Ball(center=c1, radius=radius), Ball(center=c2, radius=radius), eta)
            verts = np.vstack([pair.first.vertices, pair.second.vertices])
            assert bool(np.all(pair.enclosing.contains(verts))), f"trial {trial}"
            # nudge stays far below the stated tolerance
            assert float(pair.first.half_lengths[0]) == pytest.approx(eta / 2, abs=1e-9)


class TestParameters:
    def test_choose_parameters_planar(self):
        params = choose_parameters(2, Fraction(1, 2))  # p = 39/89
        assert params.p == pytest.approx(0.43820224719101125, abs=1e-15)
        assert params.eps == pytest.approx(0.08739426840045449, abs=1e-12)
        assert params.eta == pytest.approx(0.43820224719101125, abs=1e-15)

    def test_choose_parameters_three_dims(self):
        params = choose_parameters(3, Fraction(1))  # p = 160/537
        assert params.p == pytest.approx(0.2979516, abs=1e-7)
        assert params.eta == pytest.approx(0.5959032, abs=1e-7)

    def test_root_above_half_for_all_dims(self):
        # p = 2 s / (k + s^2) and the root q = (k - s^2) / (k + s^2), k = n - 1
        table = (Fraction(3, 13), Fraction(5, 16), Fraction(2, 5), Fraction(5, 11),
                 Fraction(1, 2), Fraction(5, 9), Fraction(3, 5))
        for n, s in zip(range(2, 9), table):
            k = n - 1
            params = choose_parameters(n, Fraction(1, 4))
            assert params.p == float(2 * s / (k + s * s))
            root = math.sqrt(1.0 - (n - 1) * params.p ** 2)
            assert root == pytest.approx(float((k - s * s) / (k + s * s)), abs=1e-12)
            assert root > 0.5

    def test_structural_validation(self):
        with pytest.raises(DimensionError):
            choose_parameters(1, Fraction(1))
        with pytest.raises(DimensionError):
            choose_parameters(9, Fraction(1))
        with pytest.raises(ParameterError):
            choose_parameters(3, Fraction(0))
        with pytest.raises(ParameterError):
            ProofParameters(n=3, p=0.62, eps=0.1, delta=Fraction(1), eta=1.24)
        with pytest.raises(ParameterError):
            ProofParameters(n=3, p=-0.1, eps=0.1, delta=Fraction(1), eta=-0.2)
        with pytest.raises(ParameterError):
            ProofParameters(n=3, p=0.3, eps=0.0, delta=Fraction(1), eta=0.6)
        with pytest.raises(ParameterError):
            ProofParameters(n=3, p=0.3, eps=0.1, delta=Fraction(1), eta=0.7)

    def test_large_eps_allowed_at_construction(self):
        # the smallness inequality is evaluated, not enforced
        params = ProofParameters(n=3, p=0.6, eps=0.3, delta=Fraction(1), eta=1.2)
        assert params.eps == 0.3


class TestContradiction:
    def test_value_is_q_plus_half(self):
        # q + 1/2 for q = 80/89, 487/537, 71/79, 459/509, 19/21, 461/511 and 83/92
        values = (Fraction(249, 178), Fraction(1511, 1074), Fraction(221, 158), Fraction(1427, 1018),
                  Fraction(59, 42), Fraction(1433, 1022), Fraction(129, 92))
        for n, value in zip(range(2, 9), values):
            rhs, ok = contradiction_check(choose_parameters(n, Fraction(1, 2)))
            assert ok
            assert rhs == pytest.approx(float(value), abs=1e-15)
            assert rhs > 1.0 + 1e-6

    def test_stated_failure_example(self):
        params = ProofParameters(n=3, p=0.6, eps=0.3, delta=Fraction(1), eta=1.2)
        rhs, ok = contradiction_check(params)
        assert not ok
        assert rhs == pytest.approx(-0.6083661422408304, abs=1e-9)


class TestWalkthrough:
    EXPECTED_STEPS = [
        "subdivide_tubes",
        "partial_sums",
        "select_square_tube",
        "select_square_tube_complement",
        "refine_widths",
        "place_balls",
        "choose_parameters",
        "build_cuboids",
        "final_inequality",
    ]

    def test_planar_walkthrough_passes(self):
        report = run_proof_walkthrough(2, 4)
        assert report.all_passed
        assert [s.name for s in report.steps] == self.EXPECTED_STEPS
        final = report.steps[-1]
        assert final.outputs["rhs"] > 1.0

    def test_depths_across_dimensions(self):
        for n, depth in ((3, 6), (5, 4), (8, 3)):
            report = run_proof_walkthrough(n, depth, seed=n)
            assert report.all_passed, f"n={n}"

    def test_report_dict_is_json_ready(self):
        report = run_proof_walkthrough(3, 4, seed=7)
        payload = report.to_dict()
        text = json.dumps(payload)  # must not raise
        assert payload["all_passed"] is True
        assert payload["n"] == 3 and payload["depth"] == 4 and payload["seed"] == 7
        for step in payload["steps"]:
            assert set(step) == {"name", "passed", "inputs", "outputs"}

    def test_same_seed_same_report(self):
        a = run_proof_walkthrough(3, 4, seed=7).to_dict()
        b = run_proof_walkthrough(3, 4, seed=7).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_different_seeds_differ(self):
        a = run_proof_walkthrough(3, 4, seed=7).to_dict()
        b = run_proof_walkthrough(3, 4, seed=8).to_dict()
        assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)

    def test_place_balls_picks_the_centre_of_the_full_scan(self):
        # the step tries 0, then +1, then -1 steps of 4 delta along the
        # second axis; the scan over 0, +-1, ..., +-64 steps that it
        # replaced picks the same centre, bit for bit
        def scanned(anchor, centre, axis, delta):
            for k in range(0, 65):
                for sign in (1, -1) if k else (1,):
                    cand = anchor + sign * k * 4.0 * delta * axis
                    if float(np.linalg.norm(cand - centre)) > 2.0 * delta * (1.0 + 1e-9):
                        return cand
            return None

        moved = 0
        for n in range(2, 9):
            for seed in range(200):
                report = run_proof_walkthrough(n, 2 if n <= 5 else 3, seed=seed)
                steps = {s.name: s for s in report.steps}
                place = steps["place_balls"]
                anchor = steps["select_square_tube_complement"].outputs["anchor"]
                axis = steps["subdivide_tubes"].inputs["axis_second"]
                expected = scanned(anchor, place.outputs["center_first"], axis, float(place.inputs["radius"]))
                assert place.outputs["center_second"].tobytes() == expected.tobytes(), (n, seed)
                moved += expected.tobytes() != anchor.tobytes()
        assert moved > 0

    @pytest.mark.parametrize(
        "key, name", [(1, "select_square_tube"), (2, "select_square_tube_complement")]
    )
    def test_missing_witness_fails_its_selection(self, monkeypatch, key, name):
        stream = proof_module._stream_pigeonhole
        missing = NoWitnessError("synthetic shares kept missing the mass precondition")

        def miss_one(groups, eps, seed, k):
            if k == key:
                raise missing
            return stream(groups, eps, seed, k)

        monkeypatch.setattr(proof_module, "_stream_pigeonhole", miss_one)
        with pytest.raises(StepFailureError) as excinfo:
            run_proof_walkthrough(2, 3, seed=1)
        exc = excinfo.value
        assert exc.step == name
        assert exc.__cause__ is missing
        assert exc.report is not None
        assert not exc.report.all_passed
        last = exc.report.steps[-1]
        assert last.name == name and last.passed is False
        assert last.outputs == {"error": str(missing)}
        assert [s.name for s in exc.report.steps] == self.EXPECTED_STEPS[: 2 + key]

    @pytest.mark.parametrize(
        "n, depth, first, second",
        [
            (2, 6, (1, 1, Fraction(1), 0.9430272796250568, 0),
             (0, 1, Fraction(5, 8), 0.915589069424054, 0)),
            (3, 5, (1, 2, Fraction(1, 2), 0.9882260399010239, 0),
             (0, 2, Fraction(5, 16), 0.9825556701175931, 0)),
            (8, 3, (1, 3, Fraction(1, 4), 0.9999995984941025, 0),
             (0, 3, Fraction(5, 32), 0.9999994051278187, 0)),
        ],
    )
    def test_streamed_selections_are_pinned(self, n, depth, first, second):
        # (selected_index, cell_depth, half_width, share, retries) at seed 7
        keys = ("selected_index", "cell_depth", "half_width", "share", "retries")
        report = run_proof_walkthrough(n, depth, seed=7)
        selections = report.steps[2:4]
        assert [tuple(s.outputs[k] for k in keys) for s in selections] == [first, second]
        assert all(s.inputs["synthetic"] is True for s in selections)

    @pytest.mark.parametrize(
        "n, depth, first, second",
        [
            (4, 10, (1, 2, Fraction(1, 2), 0.9978911475924777, 0),
             (0, 2, Fraction(5, 16), 0.9968755187922433, 0)),
            (5, 7, (1, 2, Fraction(1, 2), 0.9997143533392503, 0),
             (0, 2, Fraction(5, 16), 0.999576785165056, 0)),
            (6, 5, (1, 3, Fraction(1, 4), 0.9999669206380476, 0),
             (0, 3, Fraction(5, 32), 0.9999509895313603, 0)),
            (7, 4, (1, 3, Fraction(1, 4), 0.9999960873176427, 0),
             (0, 3, Fraction(5, 32), 0.9999942029596506, 0)),
        ],
    )
    def test_stopped_selections_are_pinned(self, n, depth, first, second):
        # seed 7 at depths where the share stream stops early; the values
        # are those of the stream drawn to the end
        keys = ("selected_index", "cell_depth", "half_width", "share", "retries")
        report = run_proof_walkthrough(n, depth, seed=7)
        selections = report.steps[2:4]
        assert [tuple(s.outputs[k] for k in keys) for s in selections] == [first, second]

    @pytest.mark.parametrize(
        "n, depth, seed", [(8, 3, 335635780), (3, 2, 283), (4, 2, 151), (5, 2, 17)]
    )
    def test_cuboids_fit_far_from_origin(self, n, depth, seed):
        # cross coordinates round at the scale of the world coordinates,
        # which nudges at the scale of the tube's half-width never cross
        report = run_proof_walkthrough(n, depth, seed=seed)
        assert report.all_passed
        build = next(s for s in report.steps if s.name == "build_cuboids")
        assert build.outputs["vertices_contained"] is True

    @pytest.mark.parametrize(
        "n, depth", [(2, 20), (3, 20), (4, 11), (5, 8), (6, 6), (7, 5), (8, 4)]
    )
    def test_deepest_admitted_walkthroughs_pass(self, n, depth):
        assert run_proof_walkthrough(n, depth, seed=3).all_passed
        with pytest.raises(ParameterError):
            run_proof_walkthrough(n, depth + 1, seed=3)

    def test_cell_masses_are_floats_of_exact_rationals(self, monkeypatch):
        # a selection weighs the cells of depth d by (2 r / 2^d)^m, rounded
        # once from the exact rational, for every walkthrough radius r
        class Stop(Exception):
            pass

        seen = []

        def record(groups, *args):
            seen.append([mass.hex() for _, mass in groups])
            raise Stop

        monkeypatch.setattr(proof_module, "_stream_pigeonhole", record)
        counts = {d: 1 for d in range(1, 21)}
        for r in proof_module._RADII_FIRST + proof_module._RADII_SECOND:
            for m in range(1, 8):
                tube = Tube(point=np.zeros(m + 1), axis=np.eye(m + 1)[-1], radius=float(r))
                packing = proof_module.SquarePacking(m, 1.0, 20, counts)
                with pytest.raises(Stop):
                    proof_module._select_square_tube(tube, packing, 0.1, 0, 0)
                assert seen.pop() == [float((2 * r / 2 ** d) ** m).hex() for d in range(1, 21)]

    def test_one_census_serves_both_selections(self, monkeypatch):
        # the walkthrough counts its packing once; both rank lookups read
        # that census instead of counting it again
        census = proof_module._packing_census
        cell_by_rank = proof_module._packing_cell_by_rank
        counted, ranked = [], []

        def count(*args):
            counted.append(census(*args))
            return counted[-1]

        def rank(m, counts, index):
            ranked.append(counts)
            return cell_by_rank(m, counts, index)

        monkeypatch.setattr(proof_module, "_packing_census", count)
        monkeypatch.setattr(proof_module, "_packing_cell_by_rank", rank)
        assert run_proof_walkthrough(4, 6, seed=1).all_passed
        assert len(counted) == 1
        assert len(ranked) == 2 and all(r is counted[0] for r in ranked)

    def test_argument_validation(self):
        with pytest.raises(DimensionError):
            run_proof_walkthrough(1, 3)
        with pytest.raises(DimensionError):
            run_proof_walkthrough(9, 3)
        with pytest.raises(ParameterError):
            run_proof_walkthrough(3, 0)
        with pytest.raises(ParameterError):
            run_proof_walkthrough(5, 9)  # cross-section would not fit in memory
        for n, depth in ((3, 1), (6, 2), (8, 2)):
            with pytest.raises(ParameterError):
                run_proof_walkthrough(n, depth)  # no dyadic cell fits inside the ball
