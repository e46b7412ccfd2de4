"""Shadows: orthogonal projections onto the hyperplane of a direction.

``Shadow`` fixes a direction d, builds the cross-frame of d, and exposes
the projected shape in cross-frame coordinates (n-1 of them).  Convex
pieces project to convex sets with closed-form measure, via the facet
formula  area = 1/2 * sum_F |d . n_F| * measure(F).  Unions are exact in
R^2, where their shadow is a union of intervals, and in R^3, where it is a
union of disks and convex polygons whose area Green's theorem gives in
closed form; from R^4 on they fall back to seeded Monte Carlo.

The same object answers the two questions covers need: does a cross
point lie in the shadow, and can a grid cell meet the shadow (answered
conservatively, never falsely negative).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, ParameterError, UnboundedShapeError
from .geometry import (
    CONTAINS_TOL,
    Ball,
    ConvexHull,
    ConvexPolytope,
    Cuboid,
    PointCloud,
    ProductSet,
    Shape,
    UnionShape,
    _leaves,
    orthonormal_frame,
    unit_ball_volume,
    unit_vector,
)
from .montecarlo import TAG_SHADOW, _check_samples, _mc_box_fraction

_CONTACT_RTOL = 1e-9  # planar boundaries this close, relative to the shadow's size, touch


class _BoxOracle:
    """Axis-aligned box shadow, and the bounding box of every oracle.

    Exact for a convex leaf in the plane (m = 1); for an affinely
    degenerate projection, a conservative stand-in of measure zero,
    which ``Shadow.contains`` never asks.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, measure_zero: bool):
        self.lo, self.hi = lo, hi
        self.measure_zero = measure_zero

    def contains(self, y):
        return np.all(y >= self.lo, axis=1) & np.all(y <= self.hi, axis=1)

    def cell_touch(self, cl, ch):
        return np.all(ch >= self.lo, axis=1) & np.all(cl <= self.hi, axis=1)


class _DiskOracle(_BoxOracle):
    def __init__(self, center_y: np.ndarray, radius: float):
        super().__init__(center_y - radius, center_y + radius, measure_zero=False)
        self.center = center_y
        self.radius = radius

    def contains(self, y):
        return np.linalg.norm(y - self.center, axis=1) <= self.radius

    def depth(self, y):
        """(signed distance to the boundary, negative inside; outward unit
        normal of the nearest boundary point), for points in the plane."""
        off = y - self.center
        dist = np.linalg.norm(off, axis=1)
        return dist - self.radius, off / np.maximum(dist, np.finfo(float).tiny)[:, None]

    def boundary_integral(self, i, oracles, origin, tol) -> float:
        """This circle's kept arcs' share of ``_planar_union_area``."""
        cuts = [_circle_cuts(self, other, tol) for j, other in enumerate(oracles) if j != i]
        t0 = np.sort(np.mod(np.concatenate(cuts), 2.0 * math.pi))
        if not len(t0):  # uncut: the circle counts whole or not at all
            west = np.array([[-1.0, 0.0]])
            whole = _kept(self.center + self.radius * west, west, i, oracles, tol)[0]
            return math.pi * self.radius ** 2 if whole else 0.0
        t1 = np.append(t0[1:], t0[0] + 2.0 * math.pi)
        mid = (t0 + t1) / 2.0
        normals = np.column_stack([np.cos(mid), np.sin(mid)])
        keep = _kept(self.center + self.radius * normals, normals, i, oracles, tol)
        t0, t1 = t0[keep], t1[keep]
        (cx, cy), r = self.center - origin, self.radius
        arcs = r * (cx * (np.sin(t1) - np.sin(t0)) - cy * (np.cos(t1) - np.cos(t0)) + r * (t1 - t0))
        return 0.5 * float(np.sum(arcs))

    def cell_touch(self, cl, ch):
        nearest = np.clip(self.center, cl, ch)
        d2 = np.sum((nearest - self.center) ** 2, axis=1)
        return d2 <= self.radius ** 2


class _HullOracle(_BoxOracle):
    """Convex hull of projected vertices, m >= 2.

    ``cell_touch`` is the standard conservative box-against-halfspace
    test: a cell passes when it meets the bounding box and no single
    facet separates it, which never rejects a cell that meets the hull.
    """

    def __init__(self, points_y: np.ndarray):
        hull = ConvexHull(points_y)
        super().__init__(points_y.min(axis=0), points_y.max(axis=0), measure_zero=False)
        self.equations = hull.equations
        self.vertices = points_y[hull.vertices]  # counter-clockwise in the plane

    def contains(self, y):
        eq = self.equations
        return np.all(y @ eq[:, :-1].T + eq[:, -1] <= CONTAINS_TOL, axis=1)

    def depth(self, y):
        """As ``_DiskOracle.depth``: the largest facet value, negative
        inside, and that facet's outward unit normal."""
        values = y @ self.equations[:, :-1].T + self.equations[:, -1]
        facet = np.argmax(values, axis=1)
        return values[np.arange(len(y)), facet], self.equations[facet, :-1]

    def boundary_integral(self, i, oracles, origin, tol) -> float:
        """This polygon's kept edge pieces' share of ``_planar_union_area``."""
        a = self.vertices
        e = np.roll(a, -1, axis=0) - a
        corners = np.arange(len(a))
        cuts = [_segment_cuts(a, a + e, other, tol) for j, other in enumerate(oracles) if j != i]
        edge = np.concatenate([corners, corners] + [c[0] for c in cuts])
        ends = [np.zeros(len(a)), np.ones(len(a))]
        t = np.concatenate(ends + [np.clip(c[1], 0.0, 1.0) for c in cuts])
        order = np.lexsort((t, edge))
        edge, t = edge[order], t[order]
        piece = edge[:-1] == edge[1:]
        edge, t0, t1 = edge[:-1][piece], t[:-1][piece], t[1:][piece]
        start = a[edge] + t0[:, None] * e[edge]
        end = a[edge] + t1[:, None] * e[edge]
        normals = np.column_stack([e[edge, 1], -e[edge, 0]])
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        keep = _kept((start + end) / 2.0, normals, i, oracles, tol)
        return 0.5 * float(np.sum(_cross2(start[keep] - origin, end[keep] - origin)))

    def cell_touch(self, cl, ch):
        a = self.equations[:, :-1]
        b = -self.equations[:, -1]
        low = cl @ np.where(a.T > 0, a.T, 0.0) + ch @ np.where(a.T < 0, a.T, 0.0)
        return super().cell_touch(cl, ch) & np.all(low <= b + CONTAINS_TOL, axis=1)


class _PointsOracle(_BoxOracle):
    """Finite projected point set: measure zero, but covers must hit it."""

    def __init__(self, points_y: np.ndarray):
        super().__init__(points_y.min(axis=0), points_y.max(axis=0), measure_zero=True)
        self.points = points_y

    def cell_touch(self, cl, ch):
        mask = np.zeros(len(cl), dtype=bool)
        for p in self.points:
            mask |= np.all(cl <= p, axis=1) & np.all(p <= ch, axis=1)
        return mask


def _leaf_oracle(leaf: Shape, cross: np.ndarray):
    m = cross.shape[0]
    if isinstance(leaf, Ball):
        return _DiskOracle(cross @ leaf.center, leaf.radius)
    if isinstance(leaf, (Cuboid, ConvexPolytope)):
        verts = leaf.vertices @ cross.T
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        if m == 1:
            return _BoxOracle(lo, hi, measure_zero=False)
        from scipy.spatial import QhullError  # see geometry.ConvexHull

        try:
            return _HullOracle(verts)
        except QhullError:
            return _BoxOracle(lo, hi, measure_zero=True)
    if isinstance(leaf, PointCloud):
        return _PointsOracle(leaf.points @ cross.T)
    raise UnboundedShapeError(f"no bounded shadow for {type(leaf).__name__}")


def _cross2(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _segment_circle(p, q, center, radius, tol):
    """(segment index, parameter s) of the points p + s (q - p), s in [0, 1]
    up to ``tol``, where the segments meet a circle; a tangent meets it twice."""
    e = q - p
    length = np.linalg.norm(e, axis=1)
    f = p - center
    s0 = -np.einsum("ij,ij->i", f, e) / length ** 2
    h = np.abs(_cross2(e, f)) / length  # distance from the center to the line
    w = np.sqrt(np.maximum(radius ** 2 - h ** 2, 0.0)) / length
    index = np.tile(np.arange(len(p)), 2)
    s = np.concatenate([s0 - w, s0 + w])
    slack = np.tile(tol / length, 2)
    hit = np.tile(h <= radius + tol, 2) & (s >= -slack) & (s <= 1.0 + slack)
    return index[hit], s[hit]


def _segment_cuts(a, b, other, tol):
    """(edge index, t) of the points a + t (b - a) where ``other``'s boundary
    meets the edges a -> b, or where an edge of it running along one ends."""
    if isinstance(other, _DiskOracle):
        return _segment_circle(a, b, other.center, other.radius, tol)
    c = other.vertices
    g = np.roll(c, -1, axis=0) - c
    e = b - a
    le, lg = np.linalg.norm(e, axis=1)[:, None], np.linalg.norm(g, axis=1)
    w = c[None] - a[:, None]
    denom = _cross2(e[:, None], g[None])
    parallel = np.abs(denom) <= 1e-12 * le * lg  # the sine of their angle is below 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _cross2(w, g[None]) / denom
        s = _cross2(w, e[:, None]) / denom
    crossing = ~parallel & (s >= -tol / lg) & (s <= 1.0 + tol / lg)
    collinear = parallel & (np.abs(_cross2(w, e[:, None])) <= tol * le)
    t_start = np.einsum("klj,kj->kl", w, e) / le ** 2
    t_end = t_start + np.einsum("lj,kj->kl", g, e) / le ** 2
    edge = np.broadcast_to(np.arange(len(a))[:, None], denom.shape)
    return (
        np.concatenate([edge[crossing], edge[collinear], edge[collinear]]),
        np.concatenate([t[crossing], t_start[collinear], t_end[collinear]]),
    )


def _circle_cuts(disk, other, tol):
    """Angles on ``disk``'s circle where ``other``'s boundary meets it."""
    if isinstance(other, _DiskOracle):
        off = other.center - disk.center
        d = float(np.hypot(*off))
        apart = d > disk.radius + other.radius + tol
        nested = d < abs(disk.radius - other.radius) - tol
        if d <= tol or apart or nested:
            return np.zeros(0)
        cos_a = (disk.radius ** 2 + d ** 2 - other.radius ** 2) / (2.0 * disk.radius * d)
        a = math.acos(min(1.0, max(-1.0, cos_a)))
        phi = math.atan2(off[1], off[0])
        return np.array([phi - a, phi + a])
    p = other.vertices
    q = np.roll(p, -1, axis=0)
    edge, s = _segment_circle(p, q, disk.center, disk.radius, tol)
    y = p[edge] + s[:, None] * (q - p)[edge] - disk.center
    return np.arctan2(y[:, 1], y[:, 0])


def _kept(points, normals, i, oracles, tol):
    """Mask of the boundary points of member i where the union ends: no other
    member holds the point inside.  Where another member's boundary runs
    through it the other way, the union goes on across; the same way, the
    lower member index keeps the shared piece."""
    kept = np.ones(len(points), dtype=bool)
    for j, other in enumerate(oracles):
        if j != i:
            depth, outward = other.depth(points)
            facing = np.einsum("ij,ij->i", normals, outward) < 0.0
            kept &= (depth > tol) | ((depth >= -tol) & ~facing & (j > i))
    return kept


def _planar_union_area(oracles) -> float:
    """Exact area of a union of disks and convex polygons: Green's theorem.

    Each member's counter-clockwise boundary is cut wherever another
    member's boundary meets it, and a piece counts when ``_kept`` keeps its
    midpoint.  The kept arcs and segments bound the union, so the contour
    integral of (x dy - y dx) / 2 along them, which each member's
    ``boundary_integral`` takes in closed form about the centre of the
    union's bounding box, is its area.  An uncut kept circle adds exactly
    pi r^2.
    """
    lo = np.min([o.lo for o in oracles], axis=0)
    hi = np.max([o.hi for o in oracles], axis=0)
    tol = _CONTACT_RTOL * float(np.max(hi - lo))
    return sum(o.boundary_integral(i, oracles, (lo + hi) / 2.0, tol) for i, o in enumerate(oracles))


class Shadow:
    """Projection of a bounded shape onto the hyperplane orthogonal to d."""

    def __init__(self, shape: Shape, direction):
        d = unit_vector(direction)
        if shape.dim != d.size:
            raise DimensionError("shape and direction dimensions differ")
        if isinstance(shape, ProductSet):
            raise UnboundedShapeError("product set has no bounded shadow")
        self.frame = orthonormal_frame(d)
        self.direction = self.frame.axis
        self.m = d.size - 1
        leaves = _leaves(shape)
        self._oracles = [_leaf_oracle(leaf, self.frame.cross) for leaf in leaves]
        self._solid = [o for o in self._oracles if not o.measure_zero]
        self._exact = self._exact_area(leaves)

    def _exact_area(self, leaves) -> float | None:
        if not self._solid:
            return 0.0
        if len(self._solid) == 1:
            solid_leaves = [
                lf for lf, o in zip(leaves, self._oracles) if not o.measure_zero
            ]
            return float(shadow_values_batch(solid_leaves[0], self.direction[None])[0])
        if self.m == 2:
            return _planar_union_area(self._solid)
        if self.m == 1:
            # merged intervals: exact union length in the plane
            spans = sorted((float(o.lo[0]), float(o.hi[0])) for o in self._solid)
            total = 0.0
            cur_lo, cur_hi = spans[0]
            for lo, hi in spans[1:]:
                if lo > cur_hi:
                    total += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            return total + (cur_hi - cur_lo)
        return None

    @property
    def exact_area(self) -> float | None:
        return self._exact

    def bbox(self, include_measure_zero: bool = True):
        oracles = self._oracles if include_measure_zero else self._solid
        if not oracles:
            z = np.zeros(self.m)
            return z, z.copy()
        return np.min([o.lo for o in oracles], axis=0), np.max([o.hi for o in oracles], axis=0)

    def contains(self, y: np.ndarray) -> np.ndarray:
        y = np.atleast_2d(y)
        out = np.zeros(len(y), dtype=bool)
        for o in self._solid:
            out |= o.contains(y)
        return out

    def cell_touch(self, cell_lo: np.ndarray, cell_hi: np.ndarray) -> np.ndarray:
        """Conservative: True whenever a cell could meet the shadow."""
        cell_lo = np.atleast_2d(cell_lo)
        cell_hi = np.atleast_2d(cell_hi)
        out = np.zeros(len(cell_lo), dtype=bool)
        for o in self._oracles:
            out |= o.cell_touch(cell_lo, cell_hi)
        return out

    def anchor_for(self, y: np.ndarray) -> np.ndarray:
        """World point whose cross-frame coordinates equal y."""
        return np.asarray(y, dtype=float) @ self.frame.cross

    def area(self, samples: int = 200_000, seed: int = 0) -> tuple[float, float]:
        """(measure, standard error); exact values report zero error."""
        if self._exact is not None:
            return self._exact, 0.0
        samples = _check_samples(samples)
        lo, hi = self.bbox(include_measure_zero=False)
        box = float(np.prod(hi - lo))
        if box <= 0.0:
            return 0.0, 0.0
        p, se = _mc_box_fraction(self.contains, lo, hi, samples, seed, TAG_SHADOW)
        return box * p, box * se


def shadow_area(s: Shape, direction, samples: int = 200_000, seed: int = 0) -> float:
    """Measure of the projection of s onto the hyperplane orthogonal to d."""
    return Shadow(s, direction).area(samples=samples, seed=seed)[0]


def shadow_values_batch(s: Shape, directions: np.ndarray) -> np.ndarray | None:
    """Vectorized exact shadows over many unit directions, or None.

    Serves the grid of a truncated arrangement minimum and single-leaf
    shadows; only closed-form kinds qualify.  ``directions`` has unit rows.
    """
    D = np.atleast_2d(directions)
    if isinstance(s, Ball):
        m = s.dim - 1
        return np.full(len(D), unit_ball_volume(m) * s.radius ** m)
    if isinstance(s, Cuboid):
        full = 2.0 * s.half_lengths
        per_axis = float(np.prod(full)) / full
        return np.abs(D @ s.axes.T) @ per_axis
    if isinstance(s, ConvexPolytope):
        normals, measures = s.facet_arrays
        return 0.5 * np.abs(D @ normals.T) @ measures
    if isinstance(s, PointCloud):
        return np.zeros(len(D))
    if isinstance(s, UnionShape):
        leaves = _leaves(s)
        if not leaves:
            return np.zeros(len(D))
        if len(leaves) == 1:
            return shadow_values_batch(leaves[0], D)
        return None
    if isinstance(s, ProductSet):
        raise UnboundedShapeError("product set has no bounded shadow")
    raise ParameterError(f"not a shape: {type(s).__name__}")
