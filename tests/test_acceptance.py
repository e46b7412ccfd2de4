"""Acceptance suite: twelve go/no-go checks, one verdict line each.

Each test recomputes its expected values from stated closed forms or
independent oracles, runs the library at the documented tolerances, and
prints a single PASS/FAIL line (visible with pytest -s) before asserting.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np

from conftest import (
    assert_packing_exact,
    random_convex_polygon,
    random_shape,
    random_tube,
)
from tubemeasure import (
    Ball,
    ConvexPolytope,
    NoWitnessError,
    ProofParameters,
    Tube,
    align_cuboids,
    axis_aligned_cuboid,
    ball_square_packing,
    choose_parameters,
    common_refinement,
    compute_bounds,
    contradiction_check,
    cuboid_in_ball,
    diameter,
    mc_intersection_volume,
    pigeonhole_select,
    plank_value_2d,
    product_measure,
    truncated_product_lower,
    tube_exact_measure,
    unit_ball_volume,
    upper_bound_min_projection,
    volume_exact,
)
from tubemeasure.cli import main as cli_main


def _run(num, label, body):
    failures = []
    try:
        body(failures)
    except Exception as exc:  # a crash must still produce a verdict line
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:02d} [{status}] {label}")
    assert not failures, f"criterion {num:02d}: " + "; ".join(failures)


def test_criterion_01_closed_forms():
    def body(bad):
        tube = Tube(point=np.zeros(3), axis=np.array([0.0, 0.0, 1.0]), radius=0.5)
        got = tube_exact_measure(tube)
        if abs(got - math.pi / 4.0) > 1e-12:
            bad.append(f"3-d tube of radius 1/2 costs {got!r}, want pi/4")
        for m in range(8):
            want = math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)
            if abs(unit_ball_volume(m) - want) > 1e-10:
                bad.append(f"unit_ball_volume({m}) off: {unit_ball_volume(m)!r}")

    _run(1, "closed-form tube cost and unit ball volumes", body)


def test_criterion_02_bound_ordering():
    def body(bad):
        rng = np.random.default_rng(2024)
        violations = 0
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            shape = random_shape(rng, n)
            report = compute_bounds(
                shape,
                mc_samples=20_000,
                seed=int(rng.integers(2**31)),
            )
            if report.lower - 3.0 * report.lower_std_error > report.upper:
                violations += 1
        if violations:
            bad.append(f"{violations}/1000 shapes with lower - 3 sigma > upper")

    _run(2, "lower bound stays below upper bound on 1000 random shapes", body)


def test_criterion_03_intersection_inequality():
    def body(bad):
        rng = np.random.default_rng(77)
        violations = 0
        for _ in range(500):
            n = int(rng.integers(2, 6))
            shape = random_shape(rng, n)
            tube = random_tube(rng, n)
            inter, se = mc_intersection_volume(
                shape, tube, samples=20_000, seed=int(rng.integers(2**31))
            )
            cap = diameter(shape) * tube_exact_measure(tube) + 3.0 * se
            if inter > cap:
                violations += 1
        if violations:
            bad.append(f"{violations}/500 pairs exceed diam * tube cost + 3 sigma")

    _run(3, "tube intersection never beats diameter times tube cost", body)


def test_criterion_04_product_measures():
    def body(bad):
        square = axis_aligned_cuboid(np.full(2, 0.5), np.full(2, 0.5))
        if product_measure(square) != 1.0:
            bad.append(f"product_measure(unit square) = {product_measure(square)!r}")
        values = [truncated_product_lower(square, r) for r in (1.0, 10.0, 100.0, 707.2)]
        if values[-1] < 0.999:
            bad.append(f"truncated lower at R=707.2 is {values[-1]!r} < 0.999")
        for a, b in zip(values, values[1:]):
            if not a < b:
                bad.append(f"truncated lower not increasing: {values!r}")
                break

    _run(4, "product and truncated product measures of the unit square", body)


def test_criterion_05_plank_agreement():
    def body(bad):
        rng = np.random.default_rng(505)
        for trial in range(100):
            poly = random_convex_polygon(rng)
            width, _ = plank_value_2d(poly)
            upper, _ = upper_bound_min_projection(poly)
            if abs(upper - width) > 1e-5:
                bad.append(f"polygon {trial}: calipers {width!r} vs search {upper!r}")
        disk, _ = plank_value_2d(Ball(center=np.zeros(2), radius=1.0))
        if abs(disk - 2.0) > 1e-9:
            bad.append(f"unit disk width {disk!r}, want 2.0")
        tri = ConvexPolytope.hull_of(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
        )
        tri_width, _ = plank_value_2d(tri)
        if abs(tri_width - math.sqrt(3.0) / 2.0) > 1e-9:
            bad.append(f"triangle width {tri_width!r}, want sqrt(3)/2")

    _run(5, "calipers width agrees with the minimal shadow search", body)


def test_criterion_06_known_projection_optima():
    def body(bad):
        cube = axis_aligned_cuboid(np.full(3, 0.5), np.full(3, 0.5))
        value, witness = upper_bound_min_projection(cube)
        if abs(value - 1.0) > 1e-6:
            bad.append(f"cube minimal shadow {value!r}, want 1.0")
        if abs(np.max(np.abs(witness)) - 1.0) > 1e-3:
            bad.append(f"cube witness {witness!r} is not an axis")
        ball_value, _ = upper_bound_min_projection(Ball(center=np.zeros(3), radius=1.0))
        if abs(ball_value - math.pi) > 1e-9:
            bad.append(f"ball minimal shadow {ball_value!r}, want pi")

    _run(6, "known minimal shadows: unit cube axis and unit ball disk", body)


def test_criterion_07_packing_convergence():
    def body(bad):
        fractions = [
            ball_square_packing(2, 1.0, d).covered_fraction for d in range(1, 11)
        ]
        for a, b in zip(fractions, fractions[1:]):
            if b < a:
                bad.append(f"covered fraction decreased: {fractions!r}")
                break
        if fractions[-1] < 0.99:
            bad.append(f"depth-10 covered fraction {fractions[-1]!r} < 0.99")
        try:
            assert_packing_exact(ball_square_packing(2, 1.0, 10))
        except AssertionError:
            bad.append("exact containment or disjointness check failed at depth 10")

    _run(7, "dyadic square packing of the disk converges and is exact", body)


def test_criterion_08_refinement_exactness():
    def body(bad):
        got = common_refinement(Fraction(3, 4), Fraction(5, 6))
        if got != (Fraction(1, 12), 9, 10):
            bad.append(f"common_refinement(3/4, 5/6) = {got!r}")
        rng = np.random.default_rng(88)
        for _ in range(10_000):
            a = Fraction(int(rng.integers(1, 1000)), int(rng.integers(1, 1000)))
            b = Fraction(int(rng.integers(1, 1000)), int(rng.integers(1, 1000)))
            delta, ca, cb = common_refinement(a, b)
            scale = math.lcm(a.denominator, b.denominator)
            oracle = Fraction(math.gcd(int(a * scale), int(b * scale)), scale)
            if delta != oracle or ca * delta != a or cb * delta != b:
                bad.append(f"refinement of ({a}, {b}) gave ({delta}, {ca}, {cb})")
                break
            if math.gcd(ca, cb) != 1:
                bad.append(f"counts ({ca}, {cb}) for ({a}, {b}) share a factor")
                break

    _run(8, "rational common refinement matches the integer gcd oracle", body)


def test_criterion_09_pigeonhole():
    def body(bad):
        rng = np.random.default_rng(909)
        accepted = 0
        while accepted < 10_000:
            k = int(rng.integers(1, 40))
            masses = rng.uniform(0.1, 5.0, k)
            eps = float(rng.uniform(0.01, 0.5))
            weights = masses * rng.uniform(1.0 - 2.0 * eps, 1.0, k)
            if math.fsum(weights) < (1.0 - eps) * math.fsum(masses):
                continue  # resample until the averaged precondition holds
            accepted += 1
            idx = pigeonhole_select(masses, weights, eps)
            if not weights[idx] >= (1.0 - eps) * masses[idx]:
                bad.append(f"index {idx} does not qualify")
                return
            scan = np.nonzero(weights >= (1.0 - eps) * masses)[0]
            if idx != int(scan[0]):
                bad.append(f"index {idx} differs from full scan {int(scan[0])}")
                return
        for _ in range(1000):
            k = int(rng.integers(1, 40))
            masses = rng.uniform(0.1, 5.0, k)
            eps = float(rng.uniform(0.01, 0.5))
            # every cell strictly below the threshold: no witness can exist
            weights = masses * (1.0 - eps) * rng.uniform(0.0, 0.999, k)
            try:
                got = pigeonhole_select(masses, weights, eps)
            except NoWitnessError:
                continue
            bad.append(f"violating instance produced a witness {got}")
            return

    _run(9, "pigeonhole selection qualifies and matches the full scan", body)


def test_criterion_10_cuboid_geometry():
    def body(bad):
        ball = Ball(center=np.zeros(3), radius=1.0)
        cuboid = cuboid_in_ball(ball, np.array([0.0, 0.0, 1.0]), 0.5)
        diam = diameter(cuboid)
        if abs(diam - 2.0) > 1e-9:
            bad.append(f"diameter {diam!r}, want 2.000000")
        # right triangle across the diagonal: long edge from the two short ones
        long_edge = math.sqrt((2.0 * 1.0) ** 2 - 2.0 * 0.5**2)
        volume = volume_exact(cuboid)
        if abs(volume - 0.5**2 * long_edge) > 1e-9:
            bad.append(f"volume {volume!r}, want eta^2 sqrt(4 - 2 eta^2)")
        if abs(volume - 0.4677072) > 5e-8:  # six decimals of the same value
            bad.append(f"volume {volume!r} not 0.4677072 to print precision")

        rng = np.random.default_rng(1010)
        for trial in range(100):
            n = int(rng.integers(2, 6))
            radius = float(rng.uniform(0.2, 1.5))
            c1 = rng.uniform(-3.0, 3.0, n)
            direction = rng.standard_normal(n)
            direction /= np.linalg.norm(direction)
            c2 = c1 + float(rng.uniform(2.05, 6.0)) * radius * direction
            eta = float(rng.uniform(0.15, 0.95)) * 2.0 * radius / math.sqrt(n - 1)
            pair = align_cuboids(
                Ball(center=c1, radius=radius), Ball(center=c2, radius=radius), eta
            )
            verts = np.vstack([pair.first.vertices, pair.second.vertices])
            if not bool(np.all(pair.enclosing.contains(verts))):
                bad.append(f"pair {trial}: a cuboid vertex escapes the joint tube")
                return
            for cub, center in ((pair.first, c1), (pair.second, c2)):
                dist = np.linalg.norm(cub.vertices - center, axis=1)
                if not np.all(dist <= radius + 1e-9):
                    bad.append(f"pair {trial}: a vertex leaves its ball")
                    return

    _run(10, "inscribed cuboid geometry and vertex-exact alignment", body)


def test_criterion_11_contradiction_chain():
    def body(bad):
        for n in range(2, 9):
            params = choose_parameters(n, Fraction(1, 2))
            rhs, contradiction = contradiction_check(params)
            if not contradiction or rhs <= 1.0 + 1e-6:
                bad.append(f"n={n}: rhs {rhs!r} does not clear 1 by 1e-6")
                continue
            # recompute both algebraic forms independently of the library
            m = n - 1
            d = float(params.delta)
            x = params.eta / (2.0 * d)
            tail = params.eps * x ** (-m)
            closed = 2.0 * (math.sqrt(1.0 - m * x * x) - tail)
            cub = cuboid_in_ball(
                Ball(center=np.zeros(n), radius=d), np.eye(n)[-1], params.eta
            )
            from_volume = 2.0 * (
                volume_exact(cub) / (2.0 * d * params.eta**m) - tail
            )
            if abs(closed - from_volume) > 1e-12:
                bad.append(f"n={n}: forms {closed!r} vs {from_volume!r} disagree")
            if abs(rhs - closed) > 1e-12:
                bad.append(f"n={n}: reported rhs {rhs!r} vs closed form {closed!r}")
        failing = ProofParameters(n=3, p=0.6, eps=0.3, delta=Fraction(1), eta=1.2)
        rhs, contradiction = contradiction_check(failing)
        if contradiction:
            bad.append(f"failure example reports a contradiction, rhs {rhs!r}")

    _run(11, "parameter choice forces the final inequality in every dimension", body)


def test_criterion_12_end_to_end():
    depth = {2: 6, 3: 6, 4: 5, 5: 4, 6: 4, 7: 3, 8: 3}

    def invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(argv)
        return code, out.getvalue(), err.getvalue()

    def body(bad):
        for n in range(2, 9):
            argv = ["proof", "--dim", str(n), "--depth", str(depth[n]), "--seed", "7"]
            code, first, err = invoke(argv)
            if code != 0:
                bad.append(f"n={n}: exit {code}, stderr {err!r}")
                continue
            report = json.loads(first)
            steps = report["result"]["steps"]
            if not report["result"]["all_passed"] or not all(
                s["passed"] for s in steps
            ):
                failed = [s["name"] for s in steps if not s["passed"]]
                bad.append(f"n={n}: failing steps {failed}")
            code2, second, _ = invoke(argv)
            if code2 != 0 or second != first:
                bad.append(f"n={n}: repeat run is not byte-identical")

    _run(12, "the walkthrough runs end to end and is deterministic", body)
