"""Seeded inputs and the operation list of each workload.

An operation is one command line of the program.  ``build(name, seed,
workdir)`` writes the shape files the operations read into ``workdir``
and returns the operations of one round, each with what its checker
needs to know about the input.  The same seed gives the same files and
the same list.

Shapes are stratified: the kinds, dimensions and vertex counts of a
round are fixed, and the seed moves only positions, sizes, rotations
and directions.  Operation costs therefore depend on the seed far less
than the geometry does, which keeps run-to-run spread small.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

import oracles

NAMES = ("bounds", "covers", "proof")

BOUNDS_PER_DIM = 6  # of each kind; polytope costs vary with the seed
LIGHT_BOUNDS_REPEAT = 3  # the plane shapes take about 10 ms
POLYTOPE_VERTICES = {2: 9, 3: 12, 4: 10, 5: 8}

# Two-ball unions in R^3 with fixed centres, radii and program seeds: on
# this path the upper bound is the minimum of noisy Monte Carlo shadows,
# and whether it falls below the larger ball's disk depends on the
# program seed, so these inputs never depend on the workload seed.
UNIONS = (
    (((0.0, 0.0, 0.0), 1.0, (1.5, 0.0, 0.0), 0.7), 1),
    (((0.0, 0.0, 0.0), 1.0, (0.0, 1.2, 0.0), 0.5), 2),
)

COVER_SAMPLES = "20000"
COVER_TUBES = 500
CLOUD_POINTS = {3: 16, 4: 12}
CLOUD_REPEAT = 4  # a cloud search takes about 15 ms

# Walkthroughs run at the program's default seed: about 1 in 50 seeds makes
# align_cuboids fail, so a seeded walkthrough would fail on some workload
# seeds only.  Entries are (dimension, depth, repeats per round); the
# repeats give the operations of a few milliseconds enough timed samples.
WALKTHROUGHS = ((2, 16, 8), (3, 14, 2), (4, 10, 1), (5, 7, 1), (6, 5, 1), (7, 4, 1), (8, 3, 1))
PACKINGS = ((1, 12, 16), (2, 10, 1), (3, 5, 1), (5, 3, 1))


def rotation(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def unit(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def cuboid(rng, n: int, spread=(0.2, 1.5)) -> tuple[dict, dict]:
    """Rotated box: (shape document, checker facts)."""
    frame = rotation(rng, n)
    half = rng.uniform(*spread, n)
    center = rng.uniform(-2.0, 2.0, n)
    signs = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
    vertices = center + (signs * half) @ frame
    doc = {
        "dim": n,
        "kind": "cuboid",
        "center": center.tolist(),
        "half_lengths": half.tolist(),
        "frame": {"axis": frame[-1].tolist(), "cross": frame[:-1].tolist()},
    }
    return doc, {"kind": "cuboid", "vertices": vertices.tolist(), "half_lengths": half.tolist()}


def polytope(rng, n: int, count: int, spread=(0.5, 1.5)) -> tuple[dict, dict]:
    """Hull of points on a rotated ellipsoid, so every point is a vertex."""
    while True:
        u = rng.standard_normal((count, n))
        u /= np.linalg.norm(u, axis=1)[:, None]
        pts = (u * rng.uniform(*spread, n)) @ rotation(rng, n) + rng.uniform(-2.0, 2.0, n)
        if len(ConvexHull(pts).vertices) == count:
            break
    doc = {"dim": n, "kind": "polytope", "vertices": pts.tolist()}
    return doc, {"kind": "polytope", "vertices": pts.tolist()}


def tetrahedron_vertices() -> list:
    """The program's built-in regular tetrahedron, edge 1."""
    s = 1.0 / (2.0 * math.sqrt(2.0))
    return (np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) * s).tolist()


class _Files:
    def __init__(self, workdir: Path, root: Path):
        self.workdir, self.root = workdir, root
        self.count = 0

    def reserve(self, stem: str) -> Path:
        self.count += 1
        return self.workdir / f"{self.count:02d}-{stem}.json"

    def write(self, doc, stem: str) -> str:
        """Write a JSON document; returns its path relative to the root."""
        path = self.reserve(stem)
        path.write_text(json.dumps(doc))
        return str(path.relative_to(self.root))


def _op(argv, check, repeat=1, **facts) -> dict:
    """One operation; ``repeat`` runs of it in a row in every round give
    the light ones enough timed samples."""
    return {"argv": [str(a) for a in argv], "check": check, "repeat": repeat, "facts": facts}


def bounds_ops(seed: int, files: _Files) -> list[dict]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for n in (2, 3, 4, 5):
        for _ in range(BOUNDS_PER_DIM):
            for doc, facts in (cuboid(rng, n), polytope(rng, n, POLYTOPE_VERTICES[n])):
                path = files.write(doc, f"{facts['kind']}{n}")
                ops.append(_op(["bounds", "--shape", path], "bounds_convex",
                               repeat=LIGHT_BOUNDS_REPEAT if n == 2 else 1, **facts))
    for (c1, r1, c2, r2), program_seed in UNIONS:
        doc = {
            "dim": 3,
            "kind": "union",
            "members": [
                {"dim": 3, "kind": "ball", "center": list(c1), "radius": r1},
                {"dim": 3, "kind": "ball", "center": list(c2), "radius": r2},
            ],
        }
        path = files.write(doc, "union3")
        ops.append(
            _op(
                ["bounds", "--shape", path, "--seed", program_seed],
                "bounds_union",
                balls=[[list(c1), r1], [list(c2), r2]],
            )
        )
    return ops


def _grid_step(vertices, direction) -> str:
    """Rational step whose cells number about COVER_TUBES over the shadow."""
    m = len(direction) - 1
    area = oracles.projected_shadow(vertices, direction)
    step = Fraction((area / COVER_TUBES) ** (1.0 / m)).limit_denominator(256)
    return f"{step.numerator}/{step.denominator}"


def covers_ops(seed: int, files: _Files) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    bodies = [("tetrahedron", tetrahedron_vertices())]
    # near-round bodies, so the boundary share of the cells varies little
    for n, make in ((3, lambda: polytope(rng, 3, 12, (0.7, 1.3))),
                    (4, lambda: cuboid(rng, 4, (0.5, 1.0)))):
        doc, facts = make()
        bodies.append((files.write(doc, f"{facts['kind']}{n}"), facts["vertices"]))

    ops = []
    for shape, vertices in bodies:
        # d and -d give the same cover; a leading '-' would read as an option
        direction = unit(rng, len(vertices[0]))
        direction *= np.sign(direction[0])
        cover_file = str(files.reserve("cover").relative_to(files.root))
        build = ["cover", "--shape", shape, "--samples", COVER_SAMPLES, "--parallel",
                 ",".join(repr(float(x)) for x in direction), _grid_step(vertices, direction)]
        ops.append(_op(build, "cover_build", vertices=vertices, save_cover=cover_file))
        read = ["cover", "--shape", shape, "--samples", COVER_SAMPLES, "--cover", cover_file]
        ops.append(_op(read, "cover_read", vertices=vertices, build=len(ops) - 1))

    doc, facts = cuboid(rng, 3, (0.5, 1.0))
    solids = [("tetrahedron", tetrahedron_vertices()),
              (files.write(doc, "cuboid3"), facts["vertices"])]
    for shape, vertices in solids:
        argv = ["cover", "--shape", shape, "--samples", COVER_SAMPLES, "--search"]
        ops.append(_op(argv, "cover_search", vertices=vertices))
    for n, count in CLOUD_POINTS.items():
        points = rng.uniform(-2.0, 2.0, (count, n))
        path = files.write({"dim": n, "kind": "cloud", "points": points.tolist()}, f"cloud{n}")
        ops.append(_op(["cover", "--shape", path, "--search"], "cover_search",
                       repeat=CLOUD_REPEAT, points=points.tolist()))
    return ops


def proof_ops(seed: int, files: _Files) -> list[dict]:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for n, depth, repeat in WALKTHROUGHS:
        ops.append(_op(["proof", "--dim", n, "--depth", depth], "proof", repeat=repeat,
                       n=n, depth=depth))
    for m, depth, repeat in PACKINGS:
        radius = float(rng.uniform(0.5, 2.0))
        argv = ["pack", "--dim", m, "--depth", depth, "--radius", repr(radius)]
        ops.append(_op(argv, "pack", repeat=repeat, m=m, depth=depth, radius=radius))
    return ops


def build(name: str, seed: int, workdir: Path, root: Path) -> list[dict]:
    """Write the inputs of one workload and return its round of operations."""
    workdir.mkdir(parents=True, exist_ok=True)
    make = {"bounds": bounds_ops, "covers": covers_ops, "proof": proof_ops}[name]
    return make(seed, _Files(workdir, root))
