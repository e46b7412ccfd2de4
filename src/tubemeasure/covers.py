"""Tube covers: cost accounting, verification, and two generators.

A cover is a finite list of round and square tubes in one ambient
dimension.  Its cost sum(gamma_{n-1} r^{n-1}) + sum((2 delta)^{n-1}) is
an upper bound for the tube measure of anything the cover contains, so
generators aim to cover a shape cheaply:

* ``parallel_cover_from_projection`` lays a square-tube grid over the
  shadow along a chosen direction; containment is guaranteed by
  conservative cell selection, and the cost exceeds the shadow measure
  only by a boundary term of order grid_step * perimeter.
* ``cover_search`` runs a greedy line-fitting search (candidate lines
  through random point pairs, radius set by the assigned residuals),
  keeping the projection cover as incumbent so the result is never
  worse than it.
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
    UnionShape,
    diameter,
    unit_ball_volume,
    unit_vector,
)
from .montecarlo import TAG_SEARCH, batch_rng, sample_points
from .projection import Shadow

_POINT_FIT_RADIUS = 1e-9  # tube radii must stay positive on exact line fits


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
    s: Shape, cover: TubeCover, samples: int = 100_000, seed: int = 0
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
    if isinstance(s, UnionShape) and not s.members:
        raise DegenerateShapeError("empty shape: nothing to cover")
    shadow = Shadow(s, direction)
    lo, hi = shadow.bbox(include_measure_zero=True)
    m = shadow.m
    counts = np.maximum(1, np.ceil((hi - lo) / h - 1e-12).astype(int))
    if isinstance(s, PointCloud):
        # extreme points sit on the bounding box, where the closed tube test fails
        # by rounding; a quarter cell of margin keeps every point strictly inside
        counts = np.floor((hi - lo) / h + 0.5).astype(int) + 1
        lo = lo - (counts * h - (hi - lo)) / 2
    total = int(np.prod(counts))
    if total > 2_000_000:
        raise ParameterError(
            f"grid_step {h} would produce {total} cells; choose a coarser grid"
        )
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


def _line_distances(pts: np.ndarray, point: np.ndarray, axis: np.ndarray) -> np.ndarray:
    rel = pts - point
    along = rel @ axis
    return np.linalg.norm(rel - np.outer(along, axis), axis=1)


def cover_search(s: Shape, budget: int = 256, seed: int = 0) -> TubeCover:
    """Best-effort cheap cover: greedy line fitting seeded by a projection cover.

    Candidate lines pass through random pairs of sample points; each
    accepted line takes the prefix of nearest points with the least cost
    per point, with the tube radius set to the largest assigned residual
    (clamped to a point-fit tolerance).  Candidate covers must survive
    ``cover_check``; otherwise the projection cover at the witness
    direction, with grid step diam(s) / 16, wins, so the result is never
    worse than that incumbent.
    """
    if budget < 1:
        raise ParameterError("search budget must be positive")
    n = s.dim
    gamma = unit_ball_volume(n - 1)
    exact_points = isinstance(s, PointCloud)
    pts = s.points if exact_points else sample_points(s, 4096, seed)

    _, witness = upper_bound_min_projection(s, grid_points=256, seed=seed)
    h = max(diameter(s) / 16.0, 1e-6)
    incumbent = parallel_cover_from_projection(s, witness, h)
    best_cost, best = cover_cost(incumbent), incumbent

    rng = batch_rng(seed, TAG_SEARCH, 0)
    tubes: list[Tube] = []
    uncovered = pts
    proposals_left = int(budget)
    while len(uncovered) and len(tubes) < 64 and proposals_left > 0:
        n_cand = min(max(8, budget // 8), proposals_left)
        proposals_left -= n_cand
        chosen = None
        chosen_score = math.inf
        for _ in range(n_cand):
            i = int(rng.integers(len(uncovered)))
            p = uncovered[i]
            if len(uncovered) > 1:
                j = int(rng.integers(len(uncovered) - 1))
                j = j + 1 if j >= i else j
                axis_vec = uncovered[j] - p
                if np.linalg.norm(axis_vec) < 1e-12:
                    axis_vec = rng.standard_normal(n)
            else:
                axis_vec = rng.standard_normal(n)
            axis = unit_vector(axis_vec)
            res = _line_distances(uncovered, p, axis)
            order = np.sort(res)
            k = 1
            while k <= len(order):
                radius = max(float(order[k - 1]), _POINT_FIT_RADIUS)
                score = gamma * radius ** (n - 1) / k
                if score < chosen_score:
                    chosen_score = score
                    chosen = (p, axis, radius, res)
                k *= 2
            radius = max(float(order[-1]), _POINT_FIT_RADIUS)
            score = gamma * radius ** (n - 1) / len(order)
            if score < chosen_score:
                chosen_score = score
                chosen = (p, axis, radius, res)
        if chosen is None:
            break
        p, axis, radius, res = chosen
        tubes.append(Tube(point=p, axis=axis, radius=radius))
        uncovered = uncovered[res > radius]

    if tubes and not len(uncovered):
        candidate = TubeCover(tubes=tuple(tubes))
        cost = cover_cost(candidate)
        if cost < best_cost:
            ok = True
            if not exact_points:
                ok, _ = cover_check(s, candidate, samples=100_000, seed=seed + 1)
            if ok:
                best_cost, best = cost, candidate
    return best
