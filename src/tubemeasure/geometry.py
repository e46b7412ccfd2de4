"""Shapes, frames, and tubes in R^n with exact primitives where cheap.

The ambient dimension is capped at 8: unit-ball volumes stay in closed
form, cuboids have at most 256 vertices, and every algorithm in the
package remains desk-scale.  One-dimensional balls, boxes, and clouds
are allowed so that product bases in R^(n-1) work down to n = 2;
polytopes and tubes need dimension >= 2.

All shape objects are immutable after construction: array fields are
copied and marked read-only, so shapes can be shared freely between
threads and reused as cache keys by identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial.distance import cdist

from .errors import (
    DegenerateShapeError,
    DimensionError,
    GeometryError,
    ParameterError,
    UnboundedShapeError,
)

MAX_DIM = 8
UNIT_NORM_TOL = 1e-12   # directions must be unit length within this
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


def _as_floats(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise GeometryError(f"{name} must contain finite values")
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


def unit_vector(v) -> np.ndarray:
    """Normalize v to unit length; rejects (near-)zero vectors."""
    v = _as_floats(v, "direction").ravel()
    norm = float(np.linalg.norm(v))
    if norm <= UNIT_NORM_TOL:
        raise DegenerateShapeError("cannot normalize a zero vector")
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
        if not np.allclose(m @ m.T, np.eye(n), atol=FRAME_ORTHO_TOL):
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
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = _as_floats(self.center, "center").ravel()
        _check_ambient(c.size)
        r = float(self.radius)
        if not (math.isfinite(r) and r > 0):
            raise DegenerateShapeError(f"ball radius must be positive, got {r}")
        object.__setattr__(self, "center", _freeze(c))
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.size

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.linalg.norm(pts - self.center, axis=1) <= self.radius

    def support(self, d: np.ndarray) -> float:
        return float(self.center @ d) + self.radius


@dataclass(frozen=True, eq=False)
class Cuboid:
    """Axis-frame box: vertices are center +/- sum h_i * row_i.

    half_lengths[i] pairs with row i of frame.matrix, so the last entry
    measures the box along the frame axis and the others along the cross
    directions.
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
        if h.size != c.size or np.any(h <= 0):
            raise DegenerateShapeError("half_lengths must be positive, one per axis")
        object.__setattr__(self, "center", _freeze(c))
        object.__setattr__(self, "half_lengths", _freeze(h))

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
        pts = np.atleast_2d(pts)
        y = (pts - self.center) @ self.axes.T
        return np.all(np.abs(y) <= self.half_lengths, axis=1)

    def support(self, d: np.ndarray) -> float:
        return float(self.center @ d) + float(self.half_lengths @ np.abs(self.axes @ d))


def axis_aligned_cuboid(center, half_lengths) -> Cuboid:
    center = np.asarray(center, dtype=float)
    n = center.size
    frame = identity_frame(n) if n >= 2 else None
    return Cuboid(center=center, frame=frame, half_lengths=half_lengths)


def _hull(points: np.ndarray, what: str) -> ConvexHull:
    """qhull of ``points``; a set that spans no full-dimensional hull is a
    DegenerateShapeError naming ``what``."""
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
        eq = self._hull.equations
        return np.all(pts @ eq[:, :-1].T + eq[:, -1] <= CONTAINS_TOL, axis=1)

    def support(self, d: np.ndarray) -> float:
        return float(np.max(self.vertices @ d))


@dataclass(frozen=True, eq=False)
class PointCloud:
    points: np.ndarray

    def __post_init__(self):
        p = np.atleast_2d(_as_floats(self.points, "points"))
        if p.shape[0] < 1:
            raise DegenerateShapeError("point cloud needs at least one point")
        _check_ambient(p.shape[1])
        object.__setattr__(self, "points", _freeze(p))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return (pts[:, None, :] == self.points[None, :, :]).all(axis=2).any(axis=1)

    def support(self, d: np.ndarray) -> float:
        return float(np.max(self.points @ d))


@dataclass(frozen=True, eq=False)
class ProductSet:
    """base x R: the base lives in the orthogonal complement of ``axis``.

    The embedding identifies base coordinates with the cross rows of
    ``orthonormal_frame(axis)``, so membership of p tests the cross-frame
    coordinates of p against the base.  Unbounded along the axis, hence
    rejected by every operation that needs a bounded shape.
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
        pts = np.atleast_2d(pts)
        y = pts @ self._frame.cross.T
        return self.base.contains(y)

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
    if isinstance(s, Ball):
        return unit_ball_volume(s.dim) * s.radius ** s.dim
    if isinstance(s, Cuboid):
        return float(np.prod(2.0 * s.half_lengths))
    if isinstance(s, ConvexPolytope):
        return s.volume
    leaves = _leaves(s)
    if any(isinstance(leaf, ProductSet) for leaf in leaves):
        raise UnboundedShapeError("product set has no finite volume")
    if isinstance(s, PointCloud) or not leaves:
        return 0.0
    return None


def _leaves(s: Shape) -> list[Shape]:
    if isinstance(s, UnionShape):
        out = []
        for m in s.members:
            out.extend(_leaves(m))
        return out
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
    A product anywhere in the shape makes it unbounded.
    """
    leaves = _leaves(s)
    if any(isinstance(leaf, ProductSet) for leaf in leaves):
        raise UnboundedShapeError("product set has infinite diameter")
    if not leaves:
        return 0.0
    pts, radii = (np.concatenate(parts) for parts in zip(*map(_witnesses, leaves)))
    best = 0.0
    for i in range(0, len(pts), _DIAMETER_ROWS):  # pairs (i, j) with j >= i suffice
        block = cdist(pts[i:i + _DIAMETER_ROWS], pts[i:])
        block += radii[i:i + _DIAMETER_ROWS, None]
        block += radii[i:]
        best = max(best, float(block.max()))
    return best


# ---------------------------------------------------------------------------
# tubes


@dataclass(frozen=True, eq=False)
class Tube:
    """Closed r-neighbourhood of the line through ``point`` along ``axis``.

    A radius whose cost gamma_(n-1) r^(n-1) overflows a float is rejected.
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
        try:
            finite = math.isfinite(unit_ball_volume(p.size - 1) * r ** (p.size - 1))
        except OverflowError:
            finite = False
        if not finite:
            raise ParameterError("tube radius too large: its cost overflows a float")
        object.__setattr__(self, "point", _freeze(p))
        object.__setattr__(self, "axis", _freeze(a))
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.point.size

    def distance_to_axis(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        rel = pts - self.point
        along = rel @ self.axis
        return np.linalg.norm(rel - np.outer(along, self.axis), axis=1)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return self.distance_to_axis(pts) <= self.radius


@dataclass(frozen=True, eq=False)
class SquareTube:
    """Square cross-section tube: cross-frame coordinates in [-delta, delta].

    The half-width is kept as an exact rational so that refinement and
    packing arguments can compare widths without rounding; membership
    tests use its float, taken once.  A half-width whose float or whose
    cost (2 delta)^(n-1) overflows is rejected.
    """

    frame: Frame
    anchor: np.ndarray
    half_width: Fraction

    def __post_init__(self):
        if not isinstance(self.frame, Frame):
            raise GeometryError("square tube needs a Frame")
        a = _as_floats(self.anchor, "anchor").ravel()
        if a.size != self.frame.dim:
            raise DimensionError("square tube anchor and frame dimensions differ")
        hw = self.half_width
        if not isinstance(hw, Fraction):
            hw = Fraction(hw)
        if hw <= 0:
            raise ParameterError(f"square tube half-width must be positive, got {hw}")
        try:
            width = float(hw)
            finite = math.isfinite((2.0 * width) ** (a.size - 1))
        except OverflowError:
            finite = False
        if not finite:
            raise ParameterError("square tube half-width too large: its cost overflows a float")
        object.__setattr__(self, "anchor", _freeze(a))
        object.__setattr__(self, "half_width", hw)
        object.__setattr__(self, "_width", width)

    @property
    def dim(self) -> int:
        return self.frame.dim

    def cross_coordinates(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return (pts - self.anchor) @ self.frame.cross.T

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return _in_square_tubes(np.atleast_2d(pts), self.anchor, self.frame.cross, self._width)


def _in_square_tubes(pts: np.ndarray, anchors: np.ndarray, cross: np.ndarray, width: float) -> np.ndarray:
    """Closed square-tube test of each row of pts against the anchor in the
    same row of anchors (or against one anchor), all sharing cross and width.

    A one-row product runs through another BLAS kernel than a batch and can
    round the last bit differently, so a lone row is evaluated as a batch of
    two: a point's verdict then never depends on how many points share its
    call, which lets callers test points in any grouping.
    """
    rel = pts - anchors
    batch = np.vstack([rel, rel]) if len(rel) == 1 else rel
    return np.all(np.abs(batch @ cross.T) <= width, axis=1)[: len(rel)]


def point_in_tube(p, tube: Tube | SquareTube) -> bool:
    """Closed membership of one point: within the radius of a round tube's
    axis line, or every cross-frame coordinate in [-delta, delta] for a
    square tube."""
    p = _as_floats(p, "point").ravel()
    if p.size != tube.dim:
        raise DimensionError("point and tube dimensions differ")
    return bool(tube.contains(p[None, :])[0])


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
