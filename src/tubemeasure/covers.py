"""Tube covers: cost accounting, verification, and two generators.

A cover is a finite list of round and square tubes in one ambient
dimension.  Its cost sum(gamma_{n-1} r^{n-1}) + sum((2 delta)^{n-1}) is
an upper bound for the tube measure of anything the cover contains, so
generators aim to cover a shape cheaply:

* ``parallel_cover_from_projection`` lays a square-tube grid over the
  shadow along a chosen direction; containment is guaranteed by
  conservative cell selection, and the cost exceeds the shadow measure
  only by a boundary term of order grid_step * perimeter.
* ``cover_search`` returns the projection cover at the least-shadow
  direction, or, for a point cloud, thin tubes through pairs of its
  points when those cost less.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateShapeError, DimensionError, ParameterError
from .bounds import (
    square_tube_exact_measure,
    tube_exact_measure,
    upper_bound_min_projection,
)
from .geometry import (
    PointCloud,
    Shape,
    SquareTube,
    Tube,
    _leaves,
    diameter,
)
from .montecarlo import sample_points
from .projection import Shadow

# tube radii must stay positive on exact line fits; scaled by the cloud's
# largest coordinate, at whose scale the axis distances round
_POINT_FIT_RADIUS = 1e-9
CHECK_SAMPLES = 100_000  # default points sampled by cover_check


@dataclass(frozen=True)
class TubeCover:
    """Nonempty list of tubes (round or square) in one ambient dimension."""

    tubes: tuple

    def __post_init__(self):
        tubes = tuple(self.tubes)
        if not tubes:
            raise ParameterError("a tube cover must contain at least one tube")
        if any(not isinstance(t, (Tube, SquareTube)) for t in tubes):
            raise ParameterError("cover entries must be Tube or SquareTube")
        n = tubes[0].dim
        if any(t.dim != n for t in tubes):
            raise DimensionError("cover tubes must share one ambient dimension")
        object.__setattr__(self, "tubes", tubes)

    @property
    def dim(self) -> int:
        return self.tubes[0].dim

    def __len__(self) -> int:
        return len(self.tubes)


def _tube_cost(tube) -> float:
    if isinstance(tube, Tube):
        return tube_exact_measure(tube)
    return square_tube_exact_measure(tube)


def cover_cost(cover: TubeCover) -> float:
    """Total cost of the cover; math.fsum makes the float sum exact,
    so cost is additive under list concatenation."""
    return math.fsum(_tube_cost(t) for t in cover.tubes)


def cover_check(
    s: Shape, cover: TubeCover, samples: int = CHECK_SAMPLES, seed: int = 0
) -> tuple[bool, np.ndarray | None]:
    """Point-sampled containment check; exact for point clouds.

    Returns (True, None) or (False, first uncovered point) in the
    deterministic sampling order.
    """
    if s.dim != cover.dim:
        raise DimensionError("shape and cover dimensions differ")
    if isinstance(s, PointCloud):
        pts = s.points
    else:
        pts = sample_points(s, samples, seed)
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


def parallel_cover_from_projection(s: Shape, direction, grid_step: float) -> TubeCover:
    """Square tubes along ``direction`` over a grid covering the shadow.

    Every cell that could meet the shadow becomes a tube of half-width
    grid_step / 2 (kept as an exact rational), so the union of tubes
    contains the shape.  Cell selection is conservative, never dropping
    a cell the shadow touches, at the price of a slack of order
    grid_step times the shadow's boundary measure.
    """
    h = float(grid_step)
    if not (math.isfinite(h) and h > 0):
        raise ParameterError(f"grid_step must be positive, got {grid_step}")
    if not _leaves(s):
        raise DegenerateShapeError("empty shape: nothing to cover")
    shadow = Shadow(s, direction)
    lo, hi = shadow.bbox(include_measure_zero=True)
    counts = np.maximum(1.0, np.ceil((hi - lo) / h - 1e-12))
    if isinstance(s, PointCloud):
        # extreme points sit on the bounding box, where the closed tube test fails
        # by rounding; a quarter cell of margin keeps every point strictly inside
        counts = np.floor((hi - lo) / h + 0.5) + 1
        lo = lo - (counts * h - (hi - lo)) / 2
    # counted in floats, which neither wrap nor fail the cast for tiny steps
    total = math.prod(float(c) for c in counts)
    if total > 2_000_000:
        raise ParameterError(
            f"grid_step {h} would produce {total:.0f} cells; choose a coarser grid"
        )
    counts = counts.astype(int)
    grids = np.meshgrid(*[np.arange(c) for c in counts], indexing="ij")
    index = np.column_stack([g.ravel() for g in grids])
    cell_lo = lo + index * h
    cell_hi = cell_lo + h
    keep = shadow.cell_touch(cell_lo, cell_hi)
    if not np.any(keep):
        raise DegenerateShapeError("shadow grid selected no cells")
    half = Fraction(h) / 2
    centers = cell_lo[keep] + 0.5 * h
    tubes = [
        SquareTube(frame=shadow.frame, anchor=shadow.anchor_for(c), half_width=half)
        for c in centers
    ]
    return TubeCover(tubes=tuple(tubes))


def _point_lines(cloud: PointCloud) -> TubeCover:
    """Thin tubes, each through two cloud points.

    The radius is _POINT_FIT_RADIUS times max(1, largest |coordinate|), so
    the rounding of a point's computed distance to an axis through it
    stays inside the tube at any scale.  Each tube runs from the first
    uncovered point to the next uncovered point farther than the radius
    from it (along e1 when none is left) and drops every point it
    contains, so at most ceil(N / 2) tubes cover N points.
    """
    uncovered = cloud.points
    radius = _POINT_FIT_RADIUS * max(1.0, float(np.abs(uncovered).max()))
    tubes = []
    while len(uncovered):
        anchor = uncovered[0]
        apart = np.linalg.norm(uncovered - anchor, axis=1) > radius
        if np.any(apart):
            axis = uncovered[int(np.argmax(apart))] - anchor
        else:
            axis = np.eye(cloud.dim)[0]
        tube = Tube(point=anchor, axis=axis, radius=radius)
        tubes.append(tube)
        uncovered = uncovered[~tube.contains(uncovered)]
    return TubeCover(tubes=tuple(tubes))


def cover_search(s: Shape, seed: int = 0) -> TubeCover:
    """Cheapest of the exact cover constructions for s.

    Every shape gets the projection cover along the least-shadow witness
    direction, with grid step diam(s) / 16.  A point cloud also gets
    ``_point_lines``, which costs of order N * gamma_{n-1} * r^(n-1) for
    its radius r (1e-9 for clouds inside the unit cube), and that cover
    wins when strictly cheaper.
    """
    _, witness = upper_bound_min_projection(s, grid_points=256, seed=seed)
    h = max(diameter(s) / 16.0, 1e-6)
    best = parallel_cover_from_projection(s, witness, h)
    if isinstance(s, PointCloud):
        lines = _point_lines(s)
        if cover_cost(lines) < cover_cost(best):
            best = lines
    return best
