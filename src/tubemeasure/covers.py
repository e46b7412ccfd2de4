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

``cover_check`` verifies a cover on sampled points (all points of a
cloud).  It hashes the anchors of each group of square tubes sharing a
frame and half-width into a grid of side 2 delta, so it makes about
points x 3^(n-1) candidate tests per group instead of points x tubes.
"""

from __future__ import annotations

import itertools
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
    _in_square_tubes,
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


class _AnchorGrid:
    """Square tubes of one cross frame and half-width, hashed by anchor cell.

    Cells are cubes of side 2 delta in cross coordinates, widened only when
    rounding at the scale of the coordinates could approach delta.  A point
    inside a tube then has the tube's anchor in its own cell or in one of
    the 3^(n-1) - 1 around it.  A cell is numbered by ranking its integer
    coordinates one axis at a time among the occupied values, so no code
    exceeds the number of anchors, whatever the extent of the cover.
    """

    def __init__(self, cross: np.ndarray, width: float, anchors: np.ndarray, reach: float):
        m, n = cross.shape
        self.cross, self.width, self.anchors = cross, width, anchors
        self.offsets = np.array(list(itertools.product((0, -1, 1), repeat=m)))
        reach += float(np.abs(anchors).max())
        # bounds the rounding of p @ cross.T, a @ cross.T and (p - a) @ cross.T
        # together; a side of at least 4 err keeps |cell(p) - cell(a)| <= 1
        # whenever the exact test puts p in the tube at a
        err = 4.0 * n * n * np.finfo(float).eps * reach
        self.side = max(2.0 * width, 4.0 * err)
        keys = self._keys(anchors)
        self.levels = [np.unique(k) for k in keys.T]
        code = np.searchsorted(self.levels[0], keys[:, 0])
        self.joins = []
        for level, k in zip(self.levels[1:], keys.T[1:]):
            join, code = np.unique(code * len(level) + np.searchsorted(level, k), return_inverse=True)
            self.joins.append(join)
        self.order = np.argsort(code, kind="stable")
        count = np.bincount(code)
        # one empty cell past the last, which code -1 (no anchor there) reads
        self.first = np.append(np.cumsum(count) - count, 0)
        self.count = np.append(count, 0)

    def _keys(self, pts: np.ndarray) -> np.ndarray:
        return np.floor(pts @ self.cross.T / self.side).astype(np.int64)

    @staticmethod
    def _rank(values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Index of each x in the sorted values, -1 where it is absent."""
        i = np.searchsorted(values, x)
        hit = values[np.minimum(i, len(values) - 1)] == x
        return np.where(hit, i, -1)

    def _cells(self, keys: np.ndarray) -> np.ndarray:
        """Code of the cell at each row of keys, -1 where no anchor lies."""
        code = self._rank(self.levels[0], keys[:, 0])
        for level, join, k in zip(self.levels[1:], self.joins, keys.T[1:]):
            rank = self._rank(level, k)
            pair = self._rank(join, code * len(level) + rank)
            code = np.where((code >= 0) & (rank >= 0), pair, -1)
        return code

    def mark(self, block: np.ndarray, covered: np.ndarray) -> None:
        """Set covered for every row of block inside one of the tubes."""
        keys = self._keys(block)
        for offset in self.offsets:
            todo = np.flatnonzero(~covered)
            if not todo.size:
                return
            cell = self._cells(keys[todo] + offset)
            first, count = self.first[cell], self.count[cell]
            for r in range(int(count.max())):
                live = np.flatnonzero((count > r) & ~covered[todo])
                if not live.size:
                    break
                hit = todo[live]
                tubes = self.order[first[live] + r]
                covered[hit] = _in_square_tubes(
                    block[hit], self.anchors[tubes], self.cross, self.width
                )


def cover_check(
    s: Shape, cover: TubeCover, samples: int = CHECK_SAMPLES, seed: int = 0
) -> tuple[bool, np.ndarray | None]:
    """Point-sampled containment check; exact for point clouds.

    Returns (True, None) or (False, first uncovered point) in the
    deterministic sampling order.

    Square tubes are grouped by cross frame and half-width, and each
    group's anchors are hashed into cells of side 2 delta in cross
    coordinates (the fixed-radius near-neighbour grid of Bentley, Stanat
    and Williams).  A point inside a tube lies within delta of its anchor
    in every cross coordinate, so it is tested only against the anchors in
    the 3^(n-1) cells around it: about points x 3^(n-1) candidate tests
    per group, instead of points x tubes.  Round tubes, and groups with no
    more tubes than that, are tested one tube at a time against the points
    still uncovered.  Whether a point is covered does not depend on the
    order in which tubes are tried, so the verdict and the witness are
    those of testing every tube.
    """
    if s.dim != cover.dim:
        raise DimensionError("shape and cover dimensions differ")
    if isinstance(s, PointCloud):
        pts = s.points
    else:
        pts = sample_points(s, samples, seed)
    reach = float(np.abs(pts).max(initial=0.0))
    groups = {}
    for tube in cover.tubes:
        if isinstance(tube, SquareTube):
            key = (tube.frame.cross.tobytes(), tube._width)
            groups.setdefault(key, []).append(tube)
    looped = [t for t in cover.tubes if isinstance(t, Tube)]
    grids = []
    for group in groups.values():
        if len(group) <= 3 ** (cover.dim - 1):
            looped += group
        else:
            anchors = np.array([t.anchor for t in group])
            grids.append(_AnchorGrid(group[0].frame.cross, group[0]._width, anchors, reach))
    chunk = 1 << 14
    for start in range(0, len(pts), chunk):
        block = pts[start : start + chunk]
        covered = np.zeros(len(block), dtype=bool)
        for grid in grids:
            grid.mark(block, covered)
        for tube in looped:
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
    # the 2,000,000-cell guard bounds the memory of the cell arrays and the
    # size of the grid; cells are counted in floats, which neither wrap nor
    # fail the cast for tiny steps
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
