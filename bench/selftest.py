"""Self-tests of the benchmark's oracles and checkers.

    python3 bench/selftest.py

Each oracle must reproduce hand-computed answers, and each checker must
pass a correct report and reject a corrupted one, so that no check is
vacuous.  The program itself is not needed.
"""

from __future__ import annotations

import copy
import itertools
import math
import sys
from fractions import Fraction

import numpy as np

import checks
import oracles

CUBE = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
TETRAHEDRON = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / (2 * math.sqrt(2))


def status(check, facts, result, **context):
    context.setdefault("rng", np.random.default_rng(0))
    return checks.check({"check": check, "facts": facts}, result, context)[0]


# -- oracles against hand-computed answers --------------------------------


def test_min_shadow_unit_cube():
    value, direction = oracles.min_shadow_polytope(CUBE)
    assert math.isclose(value, 1.0, rel_tol=1e-12)
    assert math.isclose(oracles.projected_shadow(CUBE, direction), 1.0, rel_tol=1e-12)
    assert oracles.min_shadow_cuboid([0.5, 0.5, 0.5]) == 1.0


def test_min_shadow_regular_tetrahedron():
    value, direction = oracles.min_shadow_polytope(TETRAHEDRON)
    assert math.isclose(value, math.sqrt(2) / 4, rel_tol=1e-12)
    assert math.isclose(oracles.projected_shadow(TETRAHEDRON, direction), value, rel_tol=1e-12)


def test_min_shadow_box_matches_enumeration():
    half = np.array([0.3, 0.7, 1.1, 0.5])
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=4)))
    value, _ = oracles.min_shadow_polytope(signs * half)
    # qhull's facet measures carry about 1e-9 relative error
    assert math.isclose(value, oracles.min_shadow_cuboid(half), rel_tol=1e-8)
    assert math.isclose(oracles.min_shadow_cuboid(half), 0.6 * 1.4 * 1.0, rel_tol=1e-12)


def test_unit_ball_shadow_is_pi():
    assert math.isclose(oracles.unit_ball_volume(2), math.pi, rel_tol=1e-15)
    assert math.isclose(oracles.unit_ball_volume(3), 4 * math.pi / 3, rel_tol=1e-15)
    rng = np.random.default_rng(3)
    sphere = rng.standard_normal((4000, 3))
    sphere /= np.linalg.norm(sphere, axis=1)[:, None]
    assert abs(oracles.projected_shadow(sphere, [0.3, -0.2, 0.9]) - math.pi) < 0.01


def test_two_ball_lens():
    # two unit balls one apart share a lens of volume 5 pi / 12
    union = oracles.two_ball_union_volume([0, 0, 0], 1.0, [1, 0, 0], 1.0)
    assert math.isclose(union, 8 * math.pi / 3 - 5 * math.pi / 12, rel_tol=1e-14)
    assert oracles.two_ball_union_diameter([0, 0, 0], 1.0, [1, 0, 0], 1.0) == 3.0
    # disjoint and nested balls
    assert math.isclose(oracles.two_ball_union_volume([0, 0, 0], 1, [3, 0, 0], 1), 8 * math.pi / 3)
    assert math.isclose(oracles.two_ball_union_volume([0, 0, 0], 1, [0.1, 0, 0], 0.5),
                        4 * math.pi / 3)


def brute_census(m: int, depth: int) -> dict[int, int]:
    """Scan every odd-lattice cell: kept when inside and its parent is not."""
    def inside(k, d):
        return sum((abs(x) + 1) ** 2 for x in k) <= 4 ** d

    counts = {}
    for d in range(1, depth + 1):
        odd = range(-(2 ** d) + 1, 2 ** d, 2)
        for k in itertools.product(odd, repeat=m):
            parent = tuple((x + 1) // 2 if ((x + 1) // 2) % 2 else (x - 1) // 2 for x in k)
            if inside(k, d) and not (d > 1 and inside(parent, d - 1)):
                counts[d] = counts.get(d, 0) + 1
    return counts


def test_census_hand_counts():
    assert oracles.packing_census(2, 3) == {2: 4, 3: 16}
    assert oracles.packing_census(1, 5) == {1: 2}
    for m, depth in ((2, 6), (3, 4), (4, 3)):
        assert oracles.packing_census(m, depth) == brute_census(m, depth)


def test_rational_gcd_and_rhs():
    assert oracles.rational_gcd(Fraction(3, 4), Fraction(5, 6)) == Fraction(1, 12)
    assert oracles.rational_gcd(Fraction(3, 8), Fraction(5, 16)) == Fraction(1, 16)
    for n in range(2, 9):
        p = 0.5 * math.sqrt(3 / (4 * (n - 1)))
        eps = 0.5 * p ** (n - 1) * (math.sqrt(13) / 4 - 0.5)
        assert math.isclose(oracles.walkthrough_rhs(n, p, eps), math.sqrt(13) / 4 + 0.5,
                            rel_tol=1e-12)


# -- checkers pass correct reports and reject corrupted ones --------------


def bounds_report(vertices):
    value, direction = oracles.min_shadow_polytope(vertices)
    lower = oracles.polytope_volume(vertices) / oracles.point_set_diameter(vertices)
    return {"upper": value, "lower": lower, "lower_std_error": 0.0,
            "witness_direction": list(direction)}


def test_bounds_checker():
    facts = {"kind": "polytope", "vertices": TETRAHEDRON.tolist()}
    good = bounds_report(TETRAHEDRON)
    assert status("bounds_convex", facts, good) == "ok"
    below = dict(good, upper=good["upper"] * 0.99)
    assert status("bounds_convex", facts, below) == "wrong"
    off_witness = dict(good, witness_direction=[0.0, 0.0, 1.0])
    assert status("bounds_convex", facts, off_witness) == "wrong"
    assert status("bounds_convex", facts, dict(good, lower=good["lower"] * 1.001)) == "wrong"


def test_union_checker():
    facts = {"balls": [[[0, 0, 0], 1.0], [[1.5, 0, 0], 0.7]]}
    expected = oracles.two_ball_union_volume([0, 0, 0], 1, [1.5, 0, 0], 0.7) / 3.2
    good = {"upper": 3.146, "lower": expected + 0.002, "lower_std_error": 0.002}
    assert status("bounds_union", facts, good) == "ok"
    assert status("bounds_union", facts, dict(good, upper=3.138)) == "fault"
    assert status("bounds_union", facts, dict(good, lower=expected + 0.011)) == "wrong"


def grid_cover(vertices, step: Fraction):
    """Square tubes along e3 over every grid cell meeting the shadow's box."""
    lo = np.floor(vertices[:, :2].min(axis=0) / float(step)).astype(int)
    hi = np.ceil(vertices[:, :2].max(axis=0) / float(step)).astype(int)
    frame = {"axis": [0.0, 0.0, 1.0], "cross": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}
    half = {"num": (step / 2).numerator, "den": (step / 2).denominator}
    cover = []
    for i in range(lo[0], hi[0]):
        for j in range(lo[1], hi[1]):
            anchor = [float((i + Fraction(1, 2)) * step), float((j + Fraction(1, 2)) * step), 0.0]
            cover.append({"kind": "square", "anchor": anchor, "frame": frame, "delta": half})
    return cover


def test_cover_checker():
    step = Fraction(1, 8)
    cover = grid_cover(TETRAHEDRON, step)
    area = oracles.projected_shadow(TETRAHEDRON, [0, 0, 1])
    cost = float(len(cover) * step ** 2)
    good = {"covered": True, "tubes": len(cover), "cost": cost, "shadow_area": area,
            "cover": cover}
    facts = {"vertices": TETRAHEDRON.tolist()}
    argv = ["cover", "--parallel", "0,0,1", "1/8"]
    assert status("cover_build", facts, good, argv=argv) == "ok"

    holed = copy.deepcopy(good)
    middle = min(range(len(cover)), key=lambda i: np.linalg.norm(cover[i]["anchor"]))
    del holed["cover"][middle]
    holed["tubes"] -= 1
    holed["cost"] = float(holed["tubes"] * step ** 2)
    assert status("cover_build", facts, holed, argv=argv) == "wrong"
    assert status("cover_build", facts, dict(good, cost=cost * 1.01), argv=argv) == "wrong"
    assert status("cover_build", facts, dict(good, covered=False), argv=argv) == "wrong"

    read = {"covered": True, "tubes": len(cover), "cost": cost}
    read_facts = {"build": 0}
    assert status("cover_read", read_facts, read, results=[good]) == "ok"
    assert status("cover_read", read_facts, dict(read, cost=cost / 2), results=[good]) == "wrong"


def test_cloud_search_checker():
    points = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 0.0, 1.0]])
    gamma = oracles.unit_ball_volume(2)
    cover = [{"kind": "round", "point": [0.0, 0.0, 0.0], "axis": list(np.ones(3) / math.sqrt(3)),
              "r": 1e-9},
             {"kind": "round", "point": [2.0, 0.0, 1.0], "axis": [0.0, 0.0, 1.0], "r": 1e-9}]
    good = {"covered": True, "tubes": 2, "cost": 2 * gamma * 1e-18, "cover": cover}
    facts = {"points": points.tolist()}
    assert status("cover_search", facts, good) == "ok"
    moved = copy.deepcopy(good)
    moved["cover"][1]["point"] = [2.0, 0.1, 1.0]
    assert status("cover_search", facts, moved) == "wrong"


def pack_report(m: int, depth: int, radius: float):
    census = brute_census(m, depth)
    r = Fraction(radius)
    squares = []
    for d in sorted(census):
        odd = range(-(2 ** d) + 1, 2 ** d, 2)
        for k in itertools.product(odd, repeat=m):
            parent = tuple((x + 1) // 2 if ((x + 1) // 2) % 2 else (x - 1) // 2 for x in k)
            inside = sum((abs(x) + 1) ** 2 for x in k) <= 4 ** d
            parent_inside = d > 1 and sum((abs(x) + 1) ** 2 for x in parent) <= 4 ** (d - 1)
            if inside and not parent_inside:
                center = [r * x / 2 ** d for x in k]
                squares.append({
                    "center": [{"num": c.numerator, "den": c.denominator} for c in center],
                    "half_width": {"num": (r / 2 ** d).numerator, "den": (r / 2 ** d).denominator},
                })
    return {"m": m, "radius": radius, "max_depth": depth, "n_squares": len(squares),
            "depth_counts": {str(d): c for d, c in census.items()},
            "covered_fraction": oracles.packed_fraction(m, census), "squares": squares}


def test_pack_checker():
    facts = {"m": 2, "depth": 5, "radius": 0.7}
    good = pack_report(2, 5, 0.7)
    assert status("pack", facts, good) == "ok"

    off_by_one = copy.deepcopy(good)
    off_by_one["depth_counts"]["3"] += 1
    assert status("pack", facts, off_by_one) == "wrong"

    overlapping = copy.deepcopy(good)
    overlapping["squares"][-1] = copy.deepcopy(overlapping["squares"][-2])
    assert status("pack", facts, overlapping) == "wrong"

    outside = copy.deepcopy(good)
    big = outside["squares"][0]["half_width"]
    outside["squares"][0]["half_width"] = {"num": big["num"] * 2, "den": big["den"]}
    assert status("pack", facts, outside) == "wrong"


def proof_report(n: int, depth: int):
    m = n - 1
    census = oracles.packing_census(m, depth)
    total = sum(census.values())
    fraction = oracles.packed_fraction(m, census)
    first_depth = min(census)
    p = 0.5 * math.sqrt(3 / (4 * (n - 1)))
    eps = 0.5 * p ** (n - 1) * (math.sqrt(13) / 4 - 0.5)
    half = {"num": 1, "den": 2 ** first_depth}

    def step(name, inputs, outputs):
        return {"name": name, "passed": True, "inputs": inputs, "outputs": outputs}

    selected = {"selected_index": 0, "cell_depth": first_depth, "half_width": half}
    steps = [
        step("subdivide_tubes", {"radius_first": {"num": 1, "den": 1},
                                 "radius_second": {"num": 1, "den": 1}},
             {"squares_first": total, "squares_second": total}),
        step("partial_sums", {}, {"deficit_first": 1.0 - fraction}),
        step("select_square_tube", {}, selected),
        step("select_square_tube_complement", {}, selected),
        step("refine_widths", {"delta_first": half, "delta_second": half}, {"delta": half}),
        step("place_balls", {}, {}),
        step("choose_parameters", {}, {"p": p, "eps": eps}),
        step("build_cuboids", {}, {}),
        step("final_inequality", {}, {"rhs": oracles.walkthrough_rhs(n, p, eps)}),
    ]
    return {"n": n, "depth": depth, "all_passed": True, "steps": steps}


def test_proof_checker():
    facts = {"n": 4, "depth": 6}
    good = proof_report(4, 6)
    assert status("proof", facts, good) == "ok"

    off_by_one = copy.deepcopy(good)
    off_by_one["steps"][0]["outputs"]["squares_first"] += 1
    assert status("proof", facts, off_by_one) == "wrong"

    bad_delta = copy.deepcopy(good)
    bad_delta["steps"][4]["outputs"]["delta"] = {"num": 1, "den": 1024}
    assert status("proof", facts, bad_delta) == "wrong"

    bad_rhs = copy.deepcopy(good)
    bad_rhs["steps"][8]["outputs"]["rhs"] *= 1 + 1e-9
    assert status("proof", facts, bad_rhs) == "wrong"


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures} of {len(tests)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
