"""Tube covers: cost accounting, verification, and two generators.

A cover is a finite list of round tubes and groups of parallel,
congruent square tubes in one ambient dimension.  Its cost
sum(gamma_{n-1} r^{n-1}) + sum((2 delta)^{n-1}), one term per tube, is
an upper bound for the tube measure of anything the cover contains, so
generators aim to cover a shape cheaply:

* ``parallel_cover_from_projection`` lays a grid of square tubes, one
  group, over the shadow along a chosen direction; containment is
  guaranteed by conservative cell selection, and the cost exceeds the
  shadow measure only by a boundary term of order grid_step * perimeter.
* ``cover_search`` returns the projection cover at the least-shadow
  direction, or, for a point cloud, thin tubes through pairs of its
  points when those cost less.

``cover_check`` first tries a lattice certificate.  A cover of parallel
square tubes covers a shape exactly when its squares cover the shape's
shadow in the cross plane; when the cover is one group of tubes (one
frame, one half-width) whose anchors lie on their own lattice, that is a
finite question over the lattice cells listed across the shadow's
bounding box, the fixed-radius cell grid of Bentley, Stanat and
Williams: the shadow may meet a cell that holds no anchor only within a
rounding margin of a cell that does.  A certified cover draws no
sample.  Otherwise the check runs on points sampled from the shape's
solid members, and in either case on every point of its cloud members.
It hashes the anchors of each group of square tubes into a grid of side
2 delta centred on an anchor, each cell found by one sorted-row lookup.
A point looks up its own cell first, and the cells around it only while
it stays uncovered.  On a projection cover, whose anchors are the grid's
own cell centres, a point of the shape then costs one lookup and one
tube test instead of a test per tube.  The verdict's ``check`` names the
path taken: "lattice certificate", "sampled N points" or "cloud points".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateShapeError, DimensionError, ParameterError
from .bounds import upper_bound_min_projection
from .geometry import (
    PointCloud,
    Shape,
    SquareTubes,
    Tube,
    _distance,
    _find_rows,
    _in_square_tubes,
    _leaves,
    _row_values,
    diameter,
)
from .montecarlo import _check_samples, sample_points
from .projection import _cross_view, _extent, _leaf_oracle, _touch

# tube radii must stay positive on exact line fits; scaled by the cloud's
# largest coordinate, at whose scale the axis distances round
_POINT_FIT_RADIUS = 1e-9
CHECK_SAMPLES = 100_000  # default points sampled by cover_check
MAX_GRID_CELLS = 2_000_000  # lattice cells a grid cover or a certificate may list


@dataclass(frozen=True)
class TubeCover:
    """Nonempty list of parts, each a round tube or a group of square
    tubes, in one ambient dimension; its length counts tubes."""

    tubes: tuple

    def __post_init__(self):
        tubes = tuple(self.tubes)
        if not tubes:
            raise ParameterError("a tube cover must contain at least one tube")
        if any(not isinstance(t, (Tube, SquareTubes)) for t in tubes):
            raise ParameterError("cover entries must be Tube or SquareTubes")
        n = tubes[0].dim
        if any(t.dim != n for t in tubes):
            raise DimensionError("cover tubes must share one ambient dimension")
        object.__setattr__(self, "tubes", tubes)

    @property
    def dim(self) -> int:
        return self.tubes[0].dim

    def __len__(self) -> int:
        return sum(map(_tube_count, self.tubes))


def _tube_count(part: Tube | SquareTubes) -> int:
    return len(part) if isinstance(part, SquareTubes) else 1


def cover_cost(cover: TubeCover) -> float:
    """Total cost of the cover: the sum of the costs each tube kept at
    construction (see ``Tube`` and ``SquareTubes``), a group's once per
    tube; math.fsum makes the float sum exact, so cost is additive under
    list concatenation.  A total that overflows a float is rejected, as a
    single tube's is."""
    costs = (itertools.repeat(t._cost, _tube_count(t)) for t in cover.tubes)
    try:
        return math.fsum(itertools.chain.from_iterable(costs))
    except OverflowError:
        raise ParameterError("cover too costly: its total cost overflows a float") from None


class _AnchorGrid:
    """Square tubes of one cross frame and half-width, hashed by anchor cell.

    Cells are cubes of side 2 delta in cross coordinates, widened only when
    rounding at the scale of the coordinates could approach delta, and
    centred on the first anchor: the grid's origin is that anchor's cross
    coordinates less half a side.  A point inside a tube then has the
    tube's anchor in its own cell or in one of the 3^(n-1) - 1 around it,
    and on a lattice cover, whose anchors sit a whole side apart, the
    anchor of its own cell is the centre of the tube that holds it.  A
    cell's code is its place among the sorted distinct rows of the anchors'
    integer cell coordinates, so no code exceeds the number of anchors,
    whatever the extent of the cover.
    """

    def __init__(self, cross: np.ndarray, width: float, anchors: np.ndarray, reach: float):
        m, n = cross.shape
        self.cross, self.width, self.anchors = cross, width, anchors
        self.offsets = np.array(list(itertools.product((0, -1, 1), repeat=m)))
        reach += float(np.abs(anchors).max())
        # bounds the rounding of p @ cross.T, a @ cross.T and (p - a) @ cross.T
        # together (4 n^2 eps reach), and of shifting the first two by the
        # origin (2 n eps reach: both lie within sqrt(n) reach + side / 2 of
        # it, and the side / 2 part rounds by at most eps side / 2, far
        # inside the slack); a side of at least 4 err keeps
        # |cell(p) - cell(a)| <= 1 whenever the exact test puts p in the tube at a
        err = (4.0 * n * n + 2.0 * n) * np.finfo(float).eps * reach
        self.side = max(2.0 * width, 4.0 * err)
        self.origin = anchors[0] @ cross.T - self.side / 2.0
        self.cells, code = np.unique(_row_values(self._keys(anchors)), return_inverse=True)
        self.order = np.argsort(code, kind="stable")
        count = np.bincount(code)
        # one empty cell past the last, which code -1 (no anchor there) reads
        self.first = np.append(np.cumsum(count) - count, 0)
        self.count = np.append(count, 0)

    def _keys(self, pts: np.ndarray) -> np.ndarray:
        y = pts @ self.cross.T
        y -= self.origin
        y /= self.side
        return np.floor(y, out=y).astype(np.int64)

    def mark(self, block: np.ndarray, covered: np.ndarray) -> None:
        """Set covered for every row of block inside one of the tubes: each
        point looks up its own cell first, and only the points still
        uncovered then look up the cells around it."""
        keys = self._keys(block)
        for offset in self.offsets:
            todo = np.flatnonzero(~covered)
            if not todo.size:
                return
            cell = _find_rows(self.cells, keys[todo] + offset)
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


class CoverVerdict(tuple):
    """``(covered, first uncovered point or None)`` from ``cover_check``;
    ``check`` names how the solid members were checked: "lattice
    certificate", "sampled N points", or "cloud points" for a shape made
    of clouds alone."""

    def __new__(cls, covered: bool, worst: np.ndarray | None, check: str):
        verdict = super().__new__(cls, (covered, worst))
        verdict.check = check
        return verdict


def _square_groups(cover: TubeCover) -> list[tuple[np.ndarray, float, np.ndarray]]:
    """(cross, width, anchors) of the cover's square tubes, one group per
    cross frame (equal bytes) and float half-width, whatever the order of
    the parts: a point's membership depends on nothing else."""
    groups: dict = {}
    for t in cover.tubes:
        if isinstance(t, SquareTubes):
            key = (t.frame.cross.tobytes(), t._width)
            groups.setdefault(key, (t.frame.cross, t._width, []))[2].append(t.anchors)
    return [(cross, width, np.concatenate(anchors)) for cross, width, anchors in groups.values()]


def _lattice_certificate(solids: list, cross: np.ndarray, width: float, anchors: np.ndarray) -> bool:
    """True when the squares of one group of tubes cover the shadow of the
    solid leaves up to 2 eta in each cross coordinate, so that the tubes
    cover the leaves.

    The anchors' cross coordinates must lie within eta = 64 eps scale of
    the lattice y0 + 2 delta k, y0 the first anchor's, so an anchor's
    square holds its lattice cell shrunk by eta.  The cells listed over the
    shadow's bounding box cover the shadow, and a cell that holds no anchor
    may meet it only within eta of a cell that does.  Grown by eta, such a
    cell splits into 3^m boxes: its core, shrunk by eta, and the slabs,
    edges and corners 2 eta thick across its faces.  A box is safe when
    one of the cells whose grown copies hold it has an anchor, and
    ``projection._touch``, the conservative box test of the leaves'
    shadows, which never drops a box that meets them, must flag no box
    that is not.  To keep that cheap, an empty cell first asks one box,
    the cell shrunk by eta towards the face neighbours that hold anchors
    and grown by eta towards the others, and only the cells it flags ask
    their unsafe boxes.  Cells are asked in chunks, and the first flagged
    unsafe box refuses.
    Anchors off the lattice, a half-width of at most 2 eta, and more cells
    than MAX_GRID_CELLS refuse the certificate too.  The oracles come from
    ``_leaf_oracle``, so the hull projected for the build of this cover, on
    this very cross, is not projected again; a ball's disk is widened by
    the frame's stretch here.
    """
    m = cross.shape[0]
    # the largest singular value of cross is at most sqrt(1 + dev) <= 1 + dev
    dev = float(np.linalg.norm(cross @ cross.T - np.eye(m), 2))
    oracles = [_leaf_oracle(leaf, cross, stretch=1.0 + dev) for leaf in solids]
    lo, hi = _extent(oracles)
    y = anchors @ cross.T
    side = 2.0 * width
    scale = float(np.max([np.abs(y).max(), np.abs(lo).max(), np.abs(hi).max(), side]))
    eta = 64.0 * np.finfo(float).eps * scale
    y0 = y[0]
    k = np.rint((y - y0) / side)
    # a non-finite coordinate fails every comparison, and refuses; a cell of
    # side above 4 eta = 256 eps scale keeps every |k|, and |k_lo| and |k_hi|
    # below, at most 2 scale / side + 1 <= 2^45 + 1, integers a float holds
    if not (4.0 * eta < side and np.all(np.abs(y - (y0 + side * k)) <= eta)):
        return False
    k_lo, k_hi = np.floor((lo - y0) / side), np.ceil((hi - y0) / side)
    if math.prod(float(c) for c in k_hi - k_lo + 1) > MAX_GRID_CELLS:
        return False
    shape = (k_hi - k_lo + 1).astype(np.int64)
    k_lo = k_lo.astype(np.int64)
    # the listed cells that hold an anchor, padded by one empty cell all round
    held = np.zeros(tuple(shape + 2), dtype=bool)
    index = k.astype(np.int64) - k_lo + 1
    held[tuple(index[np.all((index >= 1) & (index <= shape), axis=1)].T)] = True
    flat = held.ravel()
    strides = np.array(held.strides) // held.itemsize
    # box s of a grown cell lies in the grown copy of each cell t with every
    # t_i in {0, s_i}; holds[s, t] says which
    boxes = np.array(list(itertools.product((-1, 0, 1), repeat=m)))
    holds = np.all((boxes[None, :, :] == 0) | (boxes[None, :, :] == boxes[:, None, :]), axis=2)
    box_lo = np.select([boxes < 0, boxes == 0], [-width - eta, -width + eta], width - eta)
    box_hi = np.select([boxes < 0, boxes == 0], [-width + eta, width - eta], width + eta)
    empty = np.flatnonzero(~held[(slice(1, -1),) * m])
    chunk = 1 << 15
    for start in range(0, len(empty), chunk):
        cells = np.column_stack(np.unravel_index(empty[start : start + chunk], tuple(shape)))
        at = (cells + 1) @ strides
        centres = y0 + side * (cells + k_lo)
        below = np.where(flat[at[:, None] - strides], eta, -eta)
        above = np.where(flat[at[:, None] + strides], eta, -eta)
        asked = _touch(oracles, centres - width + below, centres + width - above)
        at, centres = at[asked], centres[asked]
        step = max(1, chunk // len(boxes))
        for part in range(0, len(at), step):
            safe = flat[at[part : part + step, None] + boxes @ strides] @ holds.T
            cell, box = np.nonzero(~safe)
            around = centres[part : part + step][cell]
            if np.any(_touch(oracles, around + box_lo[box], around + box_hi[box])):
                return False
    return True


def _point_check(pts: np.ndarray, groups: list, looped: list) -> tuple[bool, np.ndarray | None]:
    """(True, None), or (False, first row of pts that no tube holds)."""
    reach = float(np.abs(pts).max(initial=0.0))
    grids = [_AnchorGrid(cross, width, anchors, reach) for cross, width, anchors in groups]
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


def cover_check(
    s: Shape, cover: TubeCover, samples: int = CHECK_SAMPLES, seed: int = 0
) -> CoverVerdict:
    """Containment check: a lattice certificate where one applies, else
    point-sampled; exact for point clouds.  ``samples`` below
    ``MIN_SAMPLES`` is refused, as ``mc_volume`` refuses it, whichever
    path the check then takes.

    When the cover is one group of square tubes (equal frame bytes and
    half-width, over any number of parts) whose anchors lie on their own
    lattice, and the shape has solid leaves (``_leaves`` refuses products),
    ``_lattice_certificate`` tries to prove that the tubes' squares cover
    the solids' shadow, drawing no sample; on a cover just built from the
    same shape it reuses the hulls that the build projected, which each
    cuboid and polytope keeps (``projection._leaf_oracle``).  Otherwise,
    or when it is refused, the points are ``samples`` points drawn from
    the shape, when some member of it has volume, in either case followed
    by every point of every cloud member in member order.  Returns
    (True, None) or (False, first uncovered point) in that order, as a
    ``CoverVerdict`` whose ``check`` names the path taken.

    Each group of square tubes has its anchors hashed into cells of side
    2 delta in cross coordinates (the fixed-radius near-neighbour grid of
    Bentley, Stanat and Williams), centred on the group's first anchor.
    A point inside a tube lies within delta of its anchor in every cross
    coordinate, so it is tested only against the anchors in the 3^(n-1)
    cells around it, its own cell first and the others only while it
    stays uncovered.  On a lattice cover, such as
    ``parallel_cover_from_projection`` builds, the anchor in a point's own
    cell is that of the tube holding it, so a covered point costs one cell
    lookup and one tube test.  Round tubes are tested one tube at a time
    against the points still uncovered.  Whether a point is covered does
    not depend on the order in which tubes are tried, so the verdict and
    the witness are those of testing every tube.
    """
    samples = _check_samples(samples)
    if s.dim != cover.dim:
        raise DimensionError("shape and cover dimensions differ")
    leaves = _leaves(s)
    clouds = [leaf.points for leaf in leaves if isinstance(leaf, PointCloud)]
    solids = [leaf for leaf in leaves if not isinstance(leaf, PointCloud)]
    groups = _square_groups(cover)
    looped = [t for t in cover.tubes if isinstance(t, Tube)]
    if solids and len(groups) == 1 and not looped and _lattice_certificate(solids, *groups[0]):
        pts, check = clouds, "lattice certificate"
    elif clouds and not solids:
        pts, check = clouds, "cloud points"
    else:
        # an empty union fails in the sampler
        pts, check = [sample_points(s, samples, seed)] + clouds, f"sampled {samples} points"
    if not pts:
        return CoverVerdict(True, None, check)
    return CoverVerdict(*_point_check(np.concatenate(pts), groups, looped), check)


def parallel_cover_from_projection(s: Shape, direction, grid_step: float) -> TubeCover:
    """One group of square tubes along ``direction`` over a grid covering
    the shadow.

    Every cell that could meet the shadow becomes a tube of half-width
    grid_step / 2 (kept as an exact rational), so the union of tubes
    contains the shape.  Cell selection is conservative, never dropping
    a cell the shadow touches, at the price of a slack of order
    grid_step times the shadow's boundary measure.
    """
    h = float(grid_step)
    if not (math.isfinite(h) and h > 0):
        raise ParameterError(f"grid_step must be positive, got {grid_step}")
    cover, total = _guarded_grid_cover(s, direction, h)
    if cover is None:
        raise ParameterError(f"grid_step {h} would produce {total:.0f} cells; choose a coarser grid")
    return cover


def _guarded_grid_cover(s: Shape, direction, h: float) -> tuple[TubeCover | None, float]:
    """(the cover at a valid step h, None past MAX_GRID_CELLS; its cell count)."""
    leaves = _leaves(s)
    if not leaves:
        raise DegenerateShapeError("empty shape: nothing to cover")
    frame, oracles = _cross_view(s, direction)
    lo, hi = _extent(oracles)
    counts = np.maximum(1.0, np.ceil((hi - lo) / h - 1e-12))
    if any(isinstance(leaf, PointCloud) for leaf in leaves):
        # extreme cloud points sit on the bounding box, where the closed tube test
        # fails by rounding; a quarter cell of margin keeps every point strictly inside
        counts = np.floor((hi - lo) / h + 0.5) + 1
        lo = lo - (counts * h - (hi - lo)) / 2
    # the cell guard bounds the memory of the cell arrays and the size of the
    # grid; cells are counted in floats, which neither wrap nor fail the
    # cast for tiny steps
    total = math.prod(float(c) for c in counts)
    if total > MAX_GRID_CELLS:
        return None, total
    counts = counts.astype(int)
    grids = np.meshgrid(*[np.arange(c) for c in counts], indexing="ij")
    index = np.column_stack([g.ravel() for g in grids])
    cell_lo = lo + index * h
    cell_hi = cell_lo + h
    keep = _touch(oracles, cell_lo, cell_hi)
    if not np.any(keep):
        raise DegenerateShapeError("shadow grid selected no cells")
    half = Fraction(h) / 2
    centers = cell_lo[keep] + 0.5 * h
    # one centre at a time: a product of all centres at once rounds some anchors otherwise
    anchors = np.array([c @ frame.cross for c in centers])
    return TubeCover(tubes=(SquareTubes(frame=frame, anchors=anchors, half_width=half),)), total


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
        apart = _distance(uncovered, anchor) > radius
        if np.any(apart):
            axis = uncovered[int(np.argmax(apart))] - anchor
        else:
            axis = np.eye(cloud.dim)[0]
        tube = Tube(point=anchor, axis=axis, radius=radius)
        tubes.append(tube)
        uncovered = uncovered[~tube.contains(uncovered)]
    return TubeCover(tubes=tuple(tubes))


def cover_search(s: Shape) -> TubeCover:
    """Cheapest of the exact cover constructions for s.

    Every shape gets the projection cover along the least-shadow witness
    direction, with grid step diam(s) / 16.  A point cloud also gets
    ``_point_lines``, which costs of order N * gamma_{n-1} * r^(n-1) for
    its radius r (1e-9 for clouds inside the unit cube), and that cover
    wins when strictly cheaper.  A grid past MAX_GRID_CELLS (a unit ball's
    from R^7 on) leaves a cloud its lines and refuses any other shape.
    """
    _, witness = upper_bound_min_projection(s)
    h = max(diameter(s) / 16.0, 1e-6)
    best, total = _guarded_grid_cover(s, witness, h)
    if best is None and not isinstance(s, PointCloud):
        raise ParameterError(f"the search step diam/16 = {h:g} would produce {total:.0f} grid cells, more than "
                             f"MAX_GRID_CELLS = {MAX_GRID_CELLS}; cover along one direction with --parallel DIRECTION STEP")
    if isinstance(s, PointCloud):
        lines = _point_lines(s)
        if best is None or cover_cost(lines) < cover_cost(best):
            best = lines
    return best
