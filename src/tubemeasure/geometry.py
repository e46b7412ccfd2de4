"""Shapes, frames, and tubes in R^n with exact primitives where cheap.

The ambient dimension is capped at 8: unit-ball volumes stay in closed
form, cuboids have at most 256 vertices, and every algorithm in the
package remains desk-scale.  One-dimensional balls, boxes, and clouds
are allowed so that product bases in R^(n-1) work down to n = 2;
polytopes and tubes need dimension >= 2.

All shape objects are immutable after construction: array fields are
copied and marked read-only, so shapes can be shared freely between
threads and reused as cache keys by identity.  A cuboid or polytope keeps
the last hull of its projection (``projection._leaf_oracle``), a pure
function of the shape and the cross rows, so sharing them stays safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateShapeError,
    DimensionError,
    GeometryError,
    ParameterError,
    UnboundedShapeError,
)

MAX_DIM = 8
UNIT_NORM_TOL = 1e-12   # ``unit_vector`` rejects vectors no longer than this
FRAME_ORTHO_TOL = 1e-10  # frames must be orthonormal within this
CONTAINS_TOL = 1e-9     # hull membership allows this slack past each facet
_DIAMETER_ROWS = 1024   # pairwise-distance rows held at once by ``diameter``


def unit_ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m, exact closed form per parity.

    m = 0 gives 1 by convention.  Values satisfy the recurrence
    gamma_m = gamma_{m-1} * sqrt(pi) * Gamma((m+1)/2) / Gamma(m/2 + 1).
    """
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise DimensionError(f"dimension must be an integer, got {m!r}")
    if not 0 <= m <= MAX_DIM:
        raise DimensionError(f"dimension {m} outside supported range 0..{MAX_DIM}")
    if m % 2 == 0:
        k = m // 2
        return math.pi ** k / math.factorial(k)
    k = (m - 1) // 2
    return 2.0 ** m * math.pi ** k * math.factorial(k) / math.factorial(m)


def _ball_measure(m: int, r: float, what: str) -> float:
    """gamma_m r^m, the volume of an m-ball of radius r, as a finite float;
    a value that overflows one is a ParameterError that starts with ``what``."""
    try:
        value = unit_ball_volume(m) * r ** m
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParameterError(f"{what} overflows a float")
    return value


def _as_floats(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise GeometryError(f"{name} must contain finite values")
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


def _row_values(a: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array as one void value, equal when its bytes are."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()


def _find_rows(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of each row in the sorted ``_row_values`` table, -1 where absent."""
    x = _row_values(rows)
    i = np.searchsorted(table, x)
    hit = table[np.minimum(i, len(table) - 1)] == x
    return np.where(hit, i, -1)


def _rows_times(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """rows @ matrix.T, with a lone row multiplied as a batch of two.

    A one-row product runs through another BLAS kernel than a batch and can
    round the last bit differently; as a batch of two, a row's product does
    not depend on how many rows are asked with it.
    """
    if len(rows) == 1:
        return (np.vstack([rows, rows]) @ matrix.T)[:1]
    return rows @ matrix.T


def _rows_all(mask: np.ndarray) -> np.ndarray:
    """np.all(mask, axis=1) for a 2-D boolean mask of one row per point,
    and-ed one whole column at a time.

    np.all runs one inner loop per row, which costs more than the row's few
    entries.  A whole polytope test of 65,536 points takes 0.55 ms against
    2.3 ms at 4 facets, 2.4 against 4.3 at 20, and about the same at 48;
    past that the strided column reads cost more (24 against 14 ms at 100
    facets).  Reducing a facet-major product along axis 0 would read
    contiguous rows at any width, but BLAS rounds the transposed product
    differently on some batch sizes (4,097 rows, say), so verdicts on a
    facet could change.
    """
    out = np.ones(len(mask), dtype=bool)
    for column in mask.T:
        out &= column
    return out


def _distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| along the last axis, broadcast over the leading axes: squared
    differences added in coordinate order in any memory layout (np.linalg.norm
    adds a C-ordered row of 8 pairwise), then one correctly rounded square
    root, which is monotone: a comparison with a radius is the sum's."""
    total = np.square(a[..., 0] - b[..., 0])
    for k in range(1, a.shape[-1]):
        total += np.square(a[..., k] - b[..., k])
    return np.sqrt(total)


def unit_vector(v) -> np.ndarray:
    """Normalize v to unit length; rejects (near-)zero vectors.  A copy of v
    as given when its norm is within 4 eps of 1, so that a unit vector is
    a fixed point and an axis read back from a report keeps its bits."""
    v = _as_floats(v, "direction").ravel()
    norm = float(np.linalg.norm(v))
    if norm <= UNIT_NORM_TOL:
        raise DegenerateShapeError("cannot normalize a zero vector")
    if abs(norm - 1.0) <= 4.0 * np.finfo(float).eps:
        return v.copy()
    return v / norm


def canonical_direction(d: np.ndarray) -> np.ndarray:
    """Flip sign so the first coordinate of visible magnitude is positive.

    Directions d and -d define the same projection, so reductions that
    break ties lexicographically need one canonical representative.
    """
    d = np.asarray(d, dtype=float)
    for x in d:
        if abs(x) > 1e-12:
            return -d if x < 0 else d
    return d


def _check_ambient(n: int, low: int = 1) -> None:
    if not low <= n <= MAX_DIM:
        raise DimensionError(f"ambient dimension {n} outside supported range {low}..{MAX_DIM}")


@dataclass(frozen=True, eq=False)
class Frame:
    """Orthonormal frame: one distinguished axis plus n-1 cross directions.

    ``matrix`` stacks the cross rows first and the axis last, so for a
    point p the vector matrix @ (p - anchor) carries the n-1 cross-frame
    coordinates in positions 0..n-2 and the along-axis coordinate last.
    """

    axis: np.ndarray
    cross: np.ndarray

    def __post_init__(self):
        axis = _as_floats(self.axis, "frame axis").ravel()
        cross = np.atleast_2d(_as_floats(self.cross, "frame cross"))
        n = axis.size
        _check_ambient(n, low=2)
        if cross.shape != (n - 1, n):
            raise DimensionError(
                f"cross must have shape ({n - 1}, {n}), got {cross.shape}"
            )
        m = np.vstack([cross, axis])
        if not np.abs(m @ m.T - np.eye(n)).max() <= FRAME_ORTHO_TOL:  # NaN fails too
            raise GeometryError("frame rows are not orthonormal")
        object.__setattr__(self, "axis", _freeze(axis))
        object.__setattr__(self, "cross", _freeze(cross))

    @property
    def dim(self) -> int:
        return self.axis.size

    @property
    def matrix(self) -> np.ndarray:
        return np.vstack([self.cross, self.axis])


def orthonormal_frame(axis) -> Frame:
    """Deterministic orthonormal completion of a single direction."""
    a = unit_vector(axis)
    n = a.size
    # Householder reflection mapping e_k -> a, k the largest component of a:
    # columns other than k give an orthonormal basis of the complement.
    k = int(np.argmax(np.abs(a)))
    e = np.zeros(n)
    e[k] = 1.0 if a[k] >= 0 else -1.0
    w = a + e
    h = np.eye(n) - 2.0 * np.outer(w, w) / float(w @ w)
    cross = np.delete(h, k, axis=1).T
    return Frame(axis=a, cross=cross)


def identity_frame(n: int) -> Frame:
    """Axis along e_n, cross directions e_1 .. e_(n-1)."""
    _check_ambient(n, low=2)
    eye = np.eye(n)
    return Frame(axis=eye[-1], cross=eye[:-1])


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True, eq=False)
class Ball:
    """Closed ball; a radius whose volume overflows a float is rejected."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = _as_floats(self.center, "center").ravel()
        _check_ambient(c.size)
        r = float(self.radius)
        if not (math.isfinite(r) and r > 0):
            raise DegenerateShapeError(f"ball radius must be positive, got {r}")
        volume = _ball_measure(c.size, r, "ball radius too large: its volume")
        object.__setattr__(self, "center", _freeze(c))
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "_volume", volume)

    @property
    def dim(self) -> int:
        return self.center.size

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Closed membership: ``_distance`` to the center at most the radius."""
        pts = np.atleast_2d(pts)
        if pts.shape[-1] != self.dim:
            raise DimensionError(f"query points must have {self.dim} coordinates")
        return _distance(pts, self.center) <= self.radius

    def support(self, d: np.ndarray) -> float:
        return float(self.center @ d) + self.radius


@dataclass(frozen=True, eq=False)
class Cuboid:
    """Axis-frame box: vertices are center +/- sum h_i * row_i.

    half_lengths[i] pairs with row i of frame.matrix, so the last entry
    measures the box along the frame axis and the others along the cross
    directions.  Half-lengths whose volume overflows a float are rejected.
    """

    center: np.ndarray
    frame: Frame
    half_lengths: np.ndarray

    def __post_init__(self):
        c = _as_floats(self.center, "center").ravel()
        _check_ambient(c.size)
        h = _as_floats(self.half_lengths, "half_lengths").ravel()
        if c.size >= 2:
            if not isinstance(self.frame, Frame):
                raise GeometryError("cuboid frame must be a Frame")
            if self.frame.dim != c.size:
                raise DimensionError("cuboid frame dimension mismatch")
        elif self.frame is not None:
            raise GeometryError("a 1-D cuboid takes no frame")
        if h.size != c.size or np.any(h <= 0):
            raise DegenerateShapeError("half_lengths must be positive, one per axis")
        volume = math.prod((2.0 * h).tolist())  # as np.prod, without its warning
        if not math.isfinite(volume):
            raise ParameterError("cuboid too large: its volume overflows a float")
        object.__setattr__(self, "center", _freeze(c))
        object.__setattr__(self, "half_lengths", _freeze(h))
        object.__setattr__(self, "_volume", volume)

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def axes(self) -> np.ndarray:
        if self.dim == 1:
            return np.eye(1)
        return self.frame.matrix

    @property
    def vertices(self) -> np.ndarray:
        n = self.dim
        signs = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
        return self.center + (signs * self.half_lengths) @ self.axes

    def contains(self, pts: np.ndarray) -> np.ndarray:
        y = _rows_times(np.atleast_2d(pts) - self.center, self.axes)
        return _rows_all(np.abs(y, out=y) <= self.half_lengths)

    def support(self, d: np.ndarray) -> float:
        return float(self.center @ d) + float(self.half_lengths @ np.abs(self.axes @ d))


def axis_aligned_cuboid(center, half_lengths) -> Cuboid:
    center = np.asarray(center, dtype=float)
    n = center.size
    frame = identity_frame(n) if n >= 2 else None
    return Cuboid(center=center, frame=frame, half_lengths=half_lengths)


def ConvexHull(points: np.ndarray):
    """scipy's qhull of ``points``, imported at the first hull.

    scipy.spatial takes about 0.6 s to import, and ``refine``, ``pack`` and
    ``proof`` build no hull.  The name stays scipy's, so that every hull is
    still built through ``geometry.ConvexHull`` or ``projection.ConvexHull``,
    where the benchmark's tracer counts them.
    """
    from scipy.spatial import ConvexHull as qhull

    return qhull(points)


def _hull(points: np.ndarray, what: str):
    """qhull of ``points``; a set that spans no full-dimensional hull is a
    DegenerateShapeError naming ``what``."""
    from scipy.spatial import QhullError

    try:
        return ConvexHull(points)
    except QhullError as exc:
        raise DegenerateShapeError(f"{what} do not span a full-dimensional hull: {exc}") from exc


@dataclass(frozen=True, eq=False)
class ConvexPolytope:
    """Convex hull given by vertices in convex position.

    Facets come from the qhull triangulation of the boundary; each entry
    is a simplex with outward unit normal and its (n-1)-measure, which is
    what the projection formula consumes.  Construction rejects vertex
    lists that are not in convex position; use ``hull_of`` to build from
    an arbitrary point set.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(_as_floats(self.vertices, "vertices"))
        _check_ambient(v.shape[1], low=2)
        hull = _hull(v, "vertices")
        if len(hull.vertices) != len(v) or len(np.unique(v, axis=0)) != len(v):
            raise GeometryError("vertices are not in convex position")
        object.__setattr__(self, "vertices", _freeze(v))
        object.__setattr__(self, "_hull", hull)

    @classmethod
    def hull_of(cls, points) -> "ConvexPolytope":
        pts = np.atleast_2d(_as_floats(points, "points"))
        return cls(vertices=pts[_hull(pts, "points").vertices])

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def volume(self) -> float:
        return float(self._hull.volume)

    @cached_property
    def facet_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Outward unit normals (F, n) and facet (n-1)-measures (F,).

        Computed once per instance; the vertices are frozen so the hull
        never changes.
        """
        n = self.dim
        verts = self._hull.points[self._hull.simplices]
        edges = verts[:, 1:, :] - verts[:, :1, :]
        gram = edges @ np.swapaxes(edges, 1, 2)
        measures = np.sqrt(np.maximum(np.linalg.det(gram), 0.0))
        measures /= math.factorial(n - 1)
        normals = self._hull.equations[:, :n].copy()
        normals.setflags(write=False)
        measures.setflags(write=False)
        return normals, measures

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return _below_facets(pts, self._hull.equations)

    def support(self, d: np.ndarray) -> float:
        return float(np.max(self.vertices @ d))


def _below_facets(pts: np.ndarray, equations: np.ndarray) -> np.ndarray:
    """Rows of pts within CONTAINS_TOL of the inner side of every facet of a
    qhull ``equations`` table (outward normal, then offset, per row)."""
    values = _rows_times(pts, equations[:, :-1])
    values += equations[:, -1]
    return _rows_all(values <= CONTAINS_TOL)


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Finite point set in the given order.  A query is a member when it equals
    a point: one binary search among the sorted rows of points + 0.0 (no -0.0)."""

    points: np.ndarray

    def __post_init__(self):
        p = np.atleast_2d(_as_floats(self.points, "points"))
        if p.shape[0] < 1:
            raise DegenerateShapeError("point cloud needs at least one point")
        _check_ambient(p.shape[1])
        object.__setattr__(self, "points", _freeze(p))
        object.__setattr__(self, "_rows", np.sort(_row_values(p + 0.0)))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionError(f"query points must have {self.dim} coordinates")
        return _find_rows(self._rows, pts + 0.0) >= 0

    def support(self, d: np.ndarray) -> float:
        return float(np.max(self.points @ d))


@dataclass(frozen=True, eq=False)
class ProductSet:
    """base x R: the base lives in the orthogonal complement of ``axis``.

    The embedding identifies base coordinates with the cross rows of
    ``orthonormal_frame(axis)``, so membership of p tests the cross-frame
    coordinates of p against the base.  Unbounded along the axis, hence
    refused, alone or in a union, by ``_leaves``, which every operation
    that needs a bounded shape reads first.
    """

    base: object
    axis: np.ndarray

    def __post_init__(self):
        a = unit_vector(self.axis)
        _check_ambient(a.size, low=2)
        if self.base.dim != a.size - 1:
            raise DimensionError(
                f"product base must have dimension {a.size - 1}, got {self.base.dim}"
            )
        object.__setattr__(self, "axis", _freeze(a))
        object.__setattr__(self, "_frame", orthonormal_frame(a))

    @property
    def dim(self) -> int:
        return self.axis.size

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return self.base.contains(_rows_times(np.atleast_2d(pts), self._frame.cross))

    def support(self, d: np.ndarray) -> float:
        raise UnboundedShapeError("product set is unbounded along its axis")


@dataclass(frozen=True, eq=False)
class UnionShape:
    """Finite union of shapes of one ambient dimension.

    An empty union is the empty set; it then needs an explicit ``dim``.
    """

    members: tuple
    dim_hint: int | None = None

    def __post_init__(self):
        members = tuple(self.members)
        if not members and self.dim_hint is None:
            raise DimensionError("empty union needs an explicit dim_hint")
        if members:
            n = members[0].dim
            if any(m.dim != n for m in members):
                raise DimensionError("union members must share one dimension")
            if self.dim_hint is not None and self.dim_hint != n:
                raise DimensionError("dim_hint disagrees with member dimension")
        object.__setattr__(self, "members", members)

    @property
    def dim(self) -> int:
        return self.members[0].dim if self.members else int(self.dim_hint)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Membership in any member: every member is asked about the whole
        batch, and the verdicts are or-ed."""
        pts = np.atleast_2d(pts)
        out = np.zeros(len(pts), dtype=bool)
        for m in self.members:
            out |= m.contains(pts)
        return out

    def support(self, d: np.ndarray) -> float:
        leaves = _leaves(self)
        if not leaves:
            raise DegenerateShapeError("empty union has no support function")
        return max(leaf.support(d) for leaf in leaves)


Shape = Ball | Cuboid | ConvexPolytope | ProductSet | PointCloud | UnionShape


def bounding_box(s: Shape) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned bounding box (lo, hi); raises for unbounded shapes."""
    if not _leaves(s):
        z = np.zeros(s.dim)
        return z, z.copy()
    n = s.dim
    eye = np.eye(n)
    lo = np.array([-s.support(-eye[i]) for i in range(n)])
    hi = np.array([s.support(eye[i]) for i in range(n)])
    return lo, hi


def volume_exact(s: Shape) -> float | None:
    """Closed-form volume when one exists, else None (Monte Carlo territory).

    Clouds have volume 0 by definition; the hull volume of a polytope is
    exact in every supported dimension.
    """
    if isinstance(s, (Ball, Cuboid)):
        return s._volume
    if isinstance(s, ConvexPolytope):
        return s.volume
    if isinstance(s, PointCloud) or not _leaves(s):
        return 0.0
    return None


def _leaves(s: Shape) -> list[Shape]:
    """The shape's leaves, unions flattened in member order.  A product set
    anywhere in the shape is refused: it is unbounded; so is anything that
    is not a shape, say a tube."""
    if isinstance(s, UnionShape):
        out = []
        for m in s.members:
            out.extend(_leaves(m))
        return out
    if isinstance(s, ProductSet):
        raise UnboundedShapeError("product set is unbounded along its axis")
    if not isinstance(s, (Ball, Cuboid, ConvexPolytope, PointCloud)):
        raise ParameterError(f"not a shape: {type(s).__name__}")
    return [s]


def _witnesses(leaf: Shape) -> tuple[np.ndarray, np.ndarray]:
    """Points p_i and radii r_i with max |q - p_i| + r_i the leaf's farthest
    reach from any q: a ball's center and radius, else vertices or points."""
    if isinstance(leaf, Ball):
        return leaf.center[None, :], np.array([leaf.radius])
    pts = leaf.points if isinstance(leaf, PointCloud) else leaf.vertices
    return pts, np.zeros(len(pts))


def diameter(s: Shape) -> float:
    """Exact diameter of a bounded shape: the largest |p_i - p_j| + r_i + r_j
    over all pairs, a point with itself included, of the witnesses that
    all leaves pool (see ``_witnesses``), taken a block of rows at a time.
    """
    leaves = _leaves(s)
    if not leaves:
        return 0.0
    pts, radii = (np.concatenate(parts) for parts in zip(*map(_witnesses, leaves)))
    with np.errstate(over="ignore"):
        best = _farthest_pair(pts, radii)
    if not math.isfinite(best):
        # squared differences overflow from coordinates near 1e154 on: the
        # same sum on coordinates scaled by their largest magnitude
        scale = max(float(np.abs(pts).max()), float(radii.max()))
        best = scale * _farthest_pair(pts / scale, radii / scale)
    return best


def _farthest_pair(pts: np.ndarray, radii: np.ndarray) -> float:
    """The largest |p_i - p_j| + r_i + r_j, a block of rows at a time."""
    best = 0.0
    for i in range(0, len(pts), _DIAMETER_ROWS):  # pairs (i, j) with j >= i suffice
        rows = pts[i:i + _DIAMETER_ROWS]
        block = _distance(rows[:, None], pts[i:])  # as scipy's cdist sums: equal bit for bit
        block += radii[i:i + _DIAMETER_ROWS, None]
        block += radii[i:]
        best = max(best, float(block.max()))
    return best


# ---------------------------------------------------------------------------
# tubes


def _square_cost(num: int, den: int, m: int) -> float:
    """Cost (2 delta)^m of a square tube, delta = num / den, by one correctly
    rounded integer division: float((2 delta)^m), or OverflowError."""
    return (2 * num) ** m / den ** m


@dataclass(frozen=True, eq=False)
class Tube:
    """Closed r-neighbourhood of the line through ``point`` along ``axis``.

    Its cost gamma_(n-1) r^(n-1) is evaluated once and kept; a radius
    whose cost is not a finite float is rejected.
    """

    point: np.ndarray
    axis: np.ndarray
    radius: float

    def __post_init__(self):
        p = _as_floats(self.point, "tube point").ravel()
        _check_ambient(p.size, low=2)
        a = unit_vector(self.axis)
        if a.size != p.size:
            raise DimensionError("tube axis and point dimensions differ")
        r = float(self.radius)
        if not (math.isfinite(r) and r > 0):
            raise ParameterError(f"tube radius must be positive and finite, got {r}")
        cost = _ball_measure(p.size - 1, r, "tube radius too large: its cost")
        object.__setattr__(self, "point", _freeze(p))
        object.__setattr__(self, "axis", _freeze(a))
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "_cost", cost)

    @property
    def dim(self) -> int:
        return self.point.size

    def distance_to_axis(self, pts: np.ndarray) -> np.ndarray:
        rel = np.atleast_2d(pts) - self.point
        along = rel[:, 0] * self.axis[0]  # column by column, so a lone point rounds as in any batch
        for k in range(1, self.dim):
            along += rel[:, k] * self.axis[k]
        return _distance(rel, along[:, None] * self.axis)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return self.distance_to_axis(pts) <= self.radius


@dataclass(frozen=True, eq=False)
class SquareTubes:
    """Parallel, congruent square tubes: one frame and half-width, and one
    anchor row per tube, whose cross-frame coordinates lie in [-delta, delta].

    The half-width is kept as an exact rational so that refinement and
    packing arguments can compare widths without rounding; membership
    tests use its float, taken once.  The cost (2 delta)^(n-1) of each
    tube is rounded once from the exact rational and kept; a half-width
    whose cost does not round to a finite float is rejected.
    """

    frame: Frame
    anchors: np.ndarray
    half_width: Fraction

    def __post_init__(self):
        if not isinstance(self.frame, Frame):
            raise GeometryError("square tubes need a Frame")
        a = np.atleast_2d(_as_floats(self.anchors, "anchor"))
        if a.ndim != 2 or not len(a) or a.shape[1] != self.frame.dim:
            raise DimensionError("square tubes need one anchor row or more, of the frame's dimension")
        hw = self.half_width
        if not isinstance(hw, Fraction):
            hw = Fraction(hw)
        if hw <= 0:
            raise ParameterError(f"square tube half-width must be positive, got {hw}")
        num, den = hw.as_integer_ratio()
        try:
            cost = _square_cost(num, den, a.shape[1] - 1)
        except OverflowError:
            raise ParameterError(
                "square tube half-width too large: its cost overflows a float"
            ) from None
        object.__setattr__(self, "anchors", _freeze(a))
        object.__setattr__(self, "half_width", hw)
        object.__setattr__(self, "_width", num / den)
        object.__setattr__(self, "_cost", cost)

    @property
    def dim(self) -> int:
        return self.frame.dim

    def __len__(self) -> int:
        return len(self.anchors)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Closed membership in any of the tubes, one tube at a time."""
        pts = np.atleast_2d(pts)
        out = np.zeros(len(pts), dtype=bool)
        for anchor in self.anchors:
            out |= _in_square_tubes(pts, anchor, self.frame.cross, self._width)
        return out


def _in_square_tubes(pts: np.ndarray, anchors: np.ndarray, cross: np.ndarray, width: float) -> np.ndarray:
    """Closed square-tube test of each row of pts against the anchor in the
    same row of anchors (or against one anchor), all sharing cross and width.
    A row's verdict does not depend on the rows tested with it (see
    ``_rows_times``), so callers may test points in any grouping."""
    y = _rows_times(pts - anchors, cross)
    return _rows_all(np.abs(y, out=y) <= width)


def regular_tetrahedron(edge: float = 1.0) -> ConvexPolytope:
    """Regular tetrahedron in R^3, the classic convex body whose minimal
    shadow is not obviously attained by any plank-style cover."""
    if edge <= 0:
        raise ParameterError("edge must be positive")
    s = edge / (2.0 * math.sqrt(2.0))
    verts = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) * s
    return ConvexPolytope(vertices=verts)
