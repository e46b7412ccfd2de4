"""Shared random-instance generators for the test suite.

Everything is driven by explicit numpy Generators seeded in the tests,
so every property check replays identically.
"""

import numpy as np

from tubemeasure import (
    Ball,
    ConvexPolytope,
    Cuboid,
    PointCloud,
    SquareTubes,
    Tube,
    TubeCover,
    orthonormal_frame,
    unit_vector,
)
from tubemeasure import serialization


def random_rotation(rng, n):
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_direction(rng, n):
    return unit_vector(rng.standard_normal(n))


def random_ball(rng, n):
    return Ball(center=rng.uniform(-3.0, 3.0, n), radius=float(rng.uniform(0.2, 2.0)))


def random_cuboid(rng, n):
    frame = orthonormal_frame(random_direction(rng, n)) if n >= 2 else None
    return Cuboid(
        center=rng.uniform(-3.0, 3.0, n),
        frame=frame,
        half_lengths=rng.uniform(0.2, 1.5, n),
    )


def random_polytope(rng, n):
    count = n + 2 + int(rng.integers(0, 6))
    pts = rng.standard_normal((count, n)) * float(rng.uniform(0.5, 2.0))
    return ConvexPolytope.hull_of(pts + rng.uniform(-2.0, 2.0, n))


def random_shape(rng, n):
    kind = int(rng.integers(3))
    if kind == 0:
        return random_ball(rng, n)
    if kind == 1:
        return random_cuboid(rng, n)
    return random_polytope(rng, n)


def random_cloud(rng, n, count=12):
    return PointCloud(points=rng.uniform(-2.0, 2.0, (count, n)))


def random_tube(rng, n):
    return Tube(
        point=rng.uniform(-2.0, 2.0, n),
        axis=random_direction(rng, n),
        radius=float(rng.uniform(0.3, 1.5)),
    )


def random_convex_polygon(rng, count=10):
    pts = rng.standard_normal((count, 2)) * float(rng.uniform(0.5, 2.0))
    return ConvexPolytope.hull_of(pts + rng.uniform(-1.0, 1.0, 2))


def read_by_entry(doc):
    """The cover of a document read one entry at a time, each in full: the
    oracle of ``cover_from_json``, which reads a repeated square entry as
    its anchor alone."""
    parts, frames = [], {}
    for i, entry in enumerate(doc):
        serialization._read_entry(entry, f"cover[{i}]", parts, frames)
    return TubeCover(tubes=tuple(
        p if isinstance(p, Tube) else SquareTubes(frame=p[0], anchors=np.vstack(p[2]), half_width=p[1])
        for p in parts
    ))


def assert_packing_exact(packing):
    """Every square inside the ball, all pairs disjoint, verified exactly.

    Scaling by the positive rational 2^depth / radius turns both
    statements into integer lattice comparisons, so the verification is
    exact for any radius the packing stores.
    """
    D = packing.max_depth
    centers = []
    halves = []
    for depth in sorted(packing.cells):
        k = packing.cells[depth].astype(np.int64)
        corner = np.abs(k) + 1  # farthest corner, in units of radius/2^depth
        assert np.all((corner * corner).sum(axis=1) <= 4 ** depth)
        centers.append(k * 2 ** (D - depth))
        halves.append(np.full(len(k), 2 ** (D - depth), dtype=np.int64))
    K = np.concatenate(centers)
    H = np.concatenate(halves)
    total = len(K)
    chunk = max(1, 4_000_000 // total)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        gap = np.abs(K[start:stop, None, :] - K[None, :, :]).max(axis=2)
        need = H[start:stop, None] + H[None, :]
        ok = gap >= need
        ok[np.arange(stop - start), np.arange(start, stop)] = True  # self-pairs
        assert np.all(ok)
