"""Seeded hit-or-miss estimators over axis-aligned bounding boxes.

Determinism contract: every estimate is a pure function of (shape,
samples, seed).  Work is split into fixed-size batches and each batch
draws from its own generator keyed by (seed, purpose tag, batch index),
so a batch's draws depend on its key alone, not on which batches were
drawn before it or in what order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateShapeError, GeometryError, ParameterError
from .geometry import (
    PointCloud,
    Shape,
    bounding_box,
    volume_exact,
)

BATCH = 1 << 16

# purpose tags keep independent estimators decorrelated under one user seed
TAG_VOLUME = 1
TAG_INTERSECT = 2
TAG_POINTS = 3
TAG_PROOF = 6
TAG_SHADOW = 7

MIN_SAMPLES = 1000
VOLUME_SAMPLES = 1_000_000  # default samples of a Monte Carlo volume
_MAX_POINT_BATCHES = 4096  # rejection-sampling batches before giving up as degenerate


def batch_rng(seed: int, tag: int, *key: int) -> np.random.Generator:
    """Generator for (seed, tag, *key): stable across runs, whatever other
    batches were drawn before it."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=[int(seed) & (2 ** 64 - 1), tag, *key])
    )


def _batches(total: int):
    index = 0
    done = 0
    while done < total:
        count = min(BATCH, total - done)
        yield index, count
        index += 1
        done += count


def _check_samples(samples: int) -> int:
    samples = int(samples)
    if samples < MIN_SAMPLES:
        raise ParameterError(f"samples must be at least {MIN_SAMPLES}, got {samples}")
    return samples


def _box_volume(lo: np.ndarray, hi: np.ndarray) -> float:
    return float(np.prod(hi - lo))


def _mc_box_fraction(predicate, lo, hi, samples, seed, tag) -> tuple[float, float]:
    """Hit fraction of ``predicate`` over the box, with its standard error."""
    n = lo.size
    span = hi - lo
    hits = 0
    for index, count in _batches(samples):
        rng = batch_rng(seed, tag, index)
        pts = lo + rng.random((count, n)) * span
        hits += int(np.count_nonzero(predicate(pts)))
    p = hits / samples
    se = math.sqrt(max(p * (1.0 - p), 0.0) / samples)
    return p, se


def _box_estimate(s: Shape, predicate, samples, seed, tag) -> tuple[float, float]:
    """Measure of the points of s's bounding box that pass ``predicate``,
    with its standard error; a degenerate box gives (0.0, 0.0)."""
    lo, hi = bounding_box(s)
    box = _box_volume(lo, hi)
    if box <= 0.0:
        return 0.0, 0.0
    p, se = _mc_box_fraction(predicate, lo, hi, samples, seed, tag)
    return box * p, box * se


def mc_volume(s: Shape, samples: int = VOLUME_SAMPLES, seed: int = 0) -> tuple[float, float]:
    """Volume estimate with standard error, (exact, 0.0) when closed form exists.

    Hit-or-miss over the bounding box; a degenerate box means volume zero
    and is reported as (0.0, 0.0) rather than an error.
    """
    samples = _check_samples(samples)
    exact = volume_exact(s)  # raises for unbounded products
    if exact is not None:
        return exact, 0.0
    return _box_estimate(s, s.contains, samples, seed, TAG_VOLUME)


def mc_intersection_volume(
    s: Shape, tube, samples: int = 200_000, seed: int = 0
) -> tuple[float, float]:
    """Estimate of |s intersect tube| by sampling the bounding box of s."""
    samples = _check_samples(samples)
    if s.dim != tube.dim:
        raise GeometryError("shape and tube dimensions differ")
    return _box_estimate(
        s, lambda pts: s.contains(pts) & tube.contains(pts), samples, seed, TAG_INTERSECT
    )


def sample_points(s: Shape, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic points of s: cloud points verbatim, else rejection sampling.

    Raises if the shape's volume fraction of its bounding box is too small
    to fill the request (effectively degenerate for rejection sampling).
    """
    if isinstance(s, PointCloud):
        pts = s.points
        if count >= len(pts):
            return pts
        return pts[:count]
    lo, hi = bounding_box(s)
    if _box_volume(lo, hi) <= 0.0:
        raise DegenerateShapeError("shape has a degenerate bounding box; nothing to sample")
    span = hi - lo
    n = lo.size
    out = []
    got = 0
    for index in range(_MAX_POINT_BATCHES):
        rng = batch_rng(seed, TAG_POINTS, index)
        pts = lo + rng.random((BATCH, n)) * span
        keep = pts[s.contains(pts)]
        if len(keep):
            out.append(keep)
            got += len(keep)
        if got >= count:
            break
    else:
        raise DegenerateShapeError(
            "rejection sampling starved; shape volume is negligible inside its box"
        )
    return np.vstack(out)[:count]
