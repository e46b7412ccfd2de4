"""Checks of each operation's report against the oracles.

``check(op, result, context)`` returns ``(status, message, ratio)``:

* ``ok``: every check held;
* ``fault``: the report shows the known fault of the Monte Carlo upper
  bound for unions (an "upper bound" below a shadow every direction
  has); the operation counts as failed, and the run stays correct;
* ``wrong``: any other check failed.

``ratio`` is the answer's distance from the exact value it stands for
(upper bound over exact minimum shadow, cover cost over exact shadow,
ball volume over packed volume), or None for operations without one.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import oracles

SHADOW_RTOL = 1e-7  # facet measures lose about 1e-9; rounding is far below this
EXACT_RTOL = 1e-12
UNION_SIGMAS = 5.0
SAMPLE_POINTS = 4096


class CheckFailed(Exception):
    pass


class KnownFault(Exception):
    pass


def require(condition, message: str):
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def rational(doc) -> Fraction:
    return Fraction(doc["num"], doc["den"])


# -- bounds ---------------------------------------------------------------


def bounds_convex(facts, result, context):
    vertices = np.array(facts["vertices"])
    upper, lower = result["upper"], result["lower"]
    witness = np.array(result["witness_direction"])
    at_witness = oracles.projected_shadow(vertices, witness)
    require(close(upper, at_witness, SHADOW_RTOL),
            f"upper {upper} is not the shadow {at_witness} along its witness")
    if facts["kind"] == "cuboid":
        exact = oracles.min_shadow_cuboid(facts["half_lengths"])
        volume = float(np.prod(2.0 * np.array(facts["half_lengths"])))
    else:
        exact = oracles.min_shadow_polytope(vertices)[0]
        volume = oracles.polytope_volume(vertices)
    require(upper >= exact * (1.0 - SHADOW_RTOL),
            f"upper {upper} is below the exact minimum shadow {exact}")
    expected = volume / oracles.point_set_diameter(vertices)
    require(result["lower_std_error"] == 0.0, "exact volume reported with an error")
    require(close(lower, expected, 1e-9), f"lower {lower} is not volume/diameter {expected}")
    require(lower <= upper, "lower exceeds upper")
    return upper / exact


def bounds_union(facts, result, context):
    (c1, r1), (c2, r2) = facts["balls"]
    expected = oracles.two_ball_union_volume(c1, r1, c2, r2) / oracles.two_ball_union_diameter(
        c1, r1, c2, r2
    )
    lower, se = result["lower"], result["lower_std_error"]
    require(se > 0.0, "Monte Carlo volume reported without an error")
    require(abs(lower - expected) <= UNION_SIGMAS * se,
            f"lower {lower} is {abs(lower - expected) / se:.1f} errors from {expected}")
    disk = math.pi * max(r1, r2) ** 2
    if result["upper"] < disk:
        raise KnownFault(f"upper {result['upper']} is below the larger ball's disk {disk}")
    return None


# -- covers ---------------------------------------------------------------


def tube_cost(tube, n: int) -> Fraction | float:
    if tube["kind"] == "square":
        return (2 * rational(tube["delta"])) ** (n - 1)
    return oracles.unit_ball_volume(n - 1) * tube["r"] ** (n - 1)


def uncovered(points: np.ndarray, cover: list) -> np.ndarray:
    """Points lying in no tube, by each tube's own closed membership rule."""
    left = points
    for tube in cover:
        if not len(left):
            break
        if tube["kind"] == "square":
            rel = left - np.array(tube["anchor"])
            y = rel @ np.array(tube["frame"]["cross"]).T
            inside = np.all(np.abs(y) <= float(rational(tube["delta"])), axis=1)
        else:
            axis = np.array(tube["axis"])
            rel = left - np.array(tube["point"])
            off = rel - np.outer(rel @ axis, axis)
            inside = np.linalg.norm(off, axis=1) <= tube["r"]
        left = left[~inside]
    return left


def _check_cost(result, n: int):
    cover = result["cover"]
    require(result["tubes"] == len(cover), "tube count differs from the emitted cover")
    costs = [tube_cost(t, n) for t in cover]
    exact = sum(c for c in costs if isinstance(c, Fraction))
    expected = float(exact) + math.fsum(c for c in costs if not isinstance(c, Fraction))
    require(close(result["cost"], expected, EXACT_RTOL),
            f"cost {result['cost']} differs from the tube sum {expected}")


def _check_covers_sample(facts, result, context):
    vertices = np.array(facts["vertices"])
    points = oracles.sample_polytope(vertices, SAMPLE_POINTS, context["rng"])
    missed = uncovered(points, result["cover"])
    if len(missed):
        raise CheckFailed(f"{len(missed)} sampled points lie in no tube, e.g. {missed[0]}")


def cover_build(facts, result, context):
    n = len(facts["vertices"][0])
    require(result["covered"] is True, "the program reports its own cover as not covering")
    require(all(t["kind"] == "square" for t in result["cover"]), "parallel cover has round tubes")
    _check_cost(result, n)
    _check_covers_sample(facts, result, context)
    argv = context["argv"]
    direction = np.array([float(x) for x in argv[argv.index("--parallel") + 1].split(",")])
    area = oracles.projected_shadow(facts["vertices"], direction)
    require(close(result["shadow_area"], area, SHADOW_RTOL),
            f"shadow_area {result['shadow_area']} differs from the projected hull {area}")
    require(result["cost"] >= area, "cover costs less than its shadow")
    return result["cost"] / area


def cover_read(facts, result, context):
    built = context["results"][facts["build"]]
    require(result["covered"] is True, "re-checked cover reported as not covering")
    require(result["tubes"] == built["tubes"], "re-read cover has another tube count")
    require(result["cost"] == built["cost"], "re-read cover has another cost")
    return None


def cover_search(facts, result, context):
    require(result["covered"] is True, "search returned a cover it reports as not covering")
    if "points" in facts:
        points = np.array(facts["points"])
        _check_cost(result, points.shape[1])
        missed = uncovered(points, result["cover"])
        require(not len(missed), f"{len(missed)} cloud points lie in no tube")
    else:
        _check_cost(result, len(facts["vertices"][0]))
        _check_covers_sample(facts, result, context)
    return None


# -- proof ----------------------------------------------------------------

STEPS = (
    "subdivide_tubes", "partial_sums", "select_square_tube",
    "select_square_tube_complement", "refine_widths", "place_balls",
    "choose_parameters", "build_cuboids", "final_inequality",
)


def proof(facts, result, context):
    n, depth = facts["n"], facts["depth"]
    m = n - 1
    require(result["n"] == n and result["depth"] == depth, "report echoes other parameters")
    steps = {s["name"]: s for s in result["steps"]}
    require(tuple(s["name"] for s in result["steps"]) == STEPS, "steps missing or out of order")
    require(result["all_passed"] and all(s["passed"] for s in result["steps"]), "a step failed")

    census = oracles.packing_census(m, depth)
    total = sum(census.values())
    sub = steps["subdivide_tubes"]
    require(sub["outputs"]["squares_first"] == total == sub["outputs"]["squares_second"],
            f"census total {sub['outputs']['squares_first']} differs from the lattice count {total}")
    fraction = oracles.packed_fraction(m, census)
    deficit = steps["partial_sums"]["outputs"]["deficit_first"]
    require(close(1.0 - deficit, fraction, EXACT_RTOL),
            f"packed fraction {1.0 - deficit} differs from the lattice count {fraction}")

    widths = []
    for name, radius in (("select_square_tube", "radius_first"),
                         ("select_square_tube_complement", "radius_second")):
        out = steps[name]["outputs"]
        cell_depth = out["cell_depth"]
        require(cell_depth in census, f"selected depth {cell_depth} holds no squares")
        require(0 <= out["selected_index"] < total, "selected index outside the packing")
        width = rational(out["half_width"])
        require(width == rational(sub["inputs"][radius]) / 2 ** cell_depth,
                "selected half-width is not the cell's")
        widths.append(width)

    refine = steps["refine_widths"]
    require([rational(refine["inputs"]["delta_first"]),
             rational(refine["inputs"]["delta_second"])] == widths,
            "refinement inputs are not the selected widths")
    delta = rational(refine["outputs"]["delta"])
    require(delta == oracles.rational_gcd(*widths),
            f"delta {delta} is not the gcd refinement {oracles.rational_gcd(*widths)}")

    params = steps["choose_parameters"]["outputs"]
    rhs = steps["final_inequality"]["outputs"]["rhs"]
    expected = oracles.walkthrough_rhs(n, params["p"], params["eps"])
    require(close(rhs, expected, EXACT_RTOL), f"rhs {rhs} differs from the closed form {expected}")
    require(rhs > 1.0, "final comparison does not exceed 1")
    return 1.0 / fraction


def pack(facts, result, context):
    m, depth, radius = facts["m"], facts["depth"], facts["radius"]
    require((result["m"], result["max_depth"], result["radius"]) == (m, depth, radius),
            "report echoes other parameters")
    census = oracles.packing_census(m, depth)
    require(result["depth_counts"] == {str(d): c for d, c in census.items()},
            f"depth counts {result['depth_counts']} differ from the lattice count {census}")
    require(result["n_squares"] == sum(census.values()), "square total differs from census")
    fraction = oracles.packed_fraction(m, census)
    require(close(result["covered_fraction"], fraction, EXACT_RTOL),
            f"covered fraction {result['covered_fraction']} differs from {fraction}")

    squares = result["squares"]
    require(len(squares) == result["n_squares"], "listed squares differ from the total")
    # In units of radius / 2^depth every listed square is an integer box.
    scale = Fraction(2 ** depth) / Fraction(radius)
    lo = np.empty((len(squares), m), dtype=np.int64)
    hi = np.empty_like(lo)
    for i, square in enumerate(squares):
        half = rational(square["half_width"]) * scale
        for j, c in enumerate(square["center"]):
            a, b = rational(c) * scale - half, rational(c) * scale + half
            require(a.denominator == 1 and b.denominator == 1,
                    f"square {i} is not on the depth-{depth} grid")
            lo[i, j], hi[i, j] = int(a), int(b)
    reach = np.maximum(np.abs(lo), np.abs(hi))
    outside = np.nonzero(np.einsum("ij,ij->i", reach, reach) > 4 ** depth)[0]
    require(not len(outside), f"square {outside[:1]} leaves the ball")
    pair = oracles.squares_overlap(lo, hi)
    require(pair is None, f"squares {pair} overlap")
    return 1.0 / fraction


CHECKERS = {
    "bounds_convex": bounds_convex,
    "bounds_union": bounds_union,
    "cover_build": cover_build,
    "cover_read": cover_read,
    "cover_search": cover_search,
    "proof": proof,
    "pack": pack,
}


def check(op: dict, result: dict, context: dict):
    """(status, message, ratio) for one operation's parsed result."""
    try:
        ratio = CHECKERS[op["check"]](op["facts"], result, context)
    except KnownFault as exc:
        return "fault", str(exc), None
    except CheckFailed as exc:
        return "wrong", str(exc), None
    return "ok", "", ratio
