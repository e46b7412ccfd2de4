"""Shadows: orthogonal projections onto the hyperplane of a direction.

``Shadow`` fixes a direction d, builds the cross-frame of d, and exposes
the projected shape in cross-frame coordinates (n-1 of them).  Convex
pieces project to convex sets with closed-form measure, via the facet
formula  area = 1/2 * sum_F |d . n_F| * measure(F);  unions fall back to
seeded Monte Carlo except in the plane, where merged intervals are exact.

The same object answers the two questions covers need: does a cross
point lie in the shadow, and can a grid cell meet the shadow (answered
conservatively, never falsely negative).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DimensionError, ParameterError, UnboundedShapeError
from .geometry import (
    CONTAINS_TOL,
    Ball,
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

    def contains(self, y):
        eq = self.equations
        return np.all(y @ eq[:, :-1].T + eq[:, -1] <= CONTAINS_TOL, axis=1)

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
        try:
            return _HullOracle(verts)
        except QhullError:
            return _BoxOracle(lo, hi, measure_zero=True)
    if isinstance(leaf, PointCloud):
        return _PointsOracle(leaf.points @ cross.T)
    raise UnboundedShapeError(f"no bounded shadow for {type(leaf).__name__}")


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
