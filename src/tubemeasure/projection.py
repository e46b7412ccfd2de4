"""Shadows: orthogonal projections onto the hyperplane of a direction.

``Shadow`` fixes a direction d, builds the cross-frame of d, and exposes
the projected shape in cross-frame coordinates (n-1 of them).  A leaf's
shadow is closed form by Cauchy's formula constant + 1/2 sum_i w_i |d . n_i|,
whose terms ``_cauchy_terms`` alone tabulates per kind, for the batched
shadows here and the least-shadow search in ``bounds``.  Unions are exact in
R^2, where their shadow is a union of intervals, and in R^3, where it is a
union of disks and convex polygons whose area Green's theorem gives in
closed form; from R^4 on they fall back to seeded Monte Carlo.

The same planar area gives union volumes without sampling
(``_union_volume``): a union in R^2 is its own shadow plane, and a union
of balls in R^3 is integrated slice by slice (Cavalieri), each slice a
union of disks, with Gauss-Legendre rules where slice circles cross.

``Shadow`` only measures.  Covers ask the leaves' oracles directly:
``_cross_view`` gives a direction's frame and one oracle per leaf,
``_extent`` their bounding box, and ``_touch`` whether a box can meet
the shadow (conservatively, never falsely negative).
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .errors import DimensionError
from .geometry import (
    CONTAINS_TOL,
    Ball,
    ConvexHull,
    ConvexPolytope,
    Cuboid,
    PointCloud,
    Shape,
    _below_facets,
    _distance,
    _leaves,
    _rows_all,
    orthonormal_frame,
    unit_ball_volume,
    unit_vector,
    volume_exact,
)
from .montecarlo import TAG_SHADOW, _box_estimate, _check_samples

_CONTACT_RTOL = 1e-9  # planar boundaries this close, relative to the shadow's size, touch
_SHADOW_SAMPLES = 200_000  # default Monte Carlo samples of a shadow's measure
_SLICE_ORDERS = (12, 8)  # Gauss-Legendre orders of a sliced volume: its value, and the check on it
_SLICE_WORK = 1200  # most planned slice work, nodes x disks^2 over crossing intervals; about 25 us a unit


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
        return _rows_all(y >= self.lo) & _rows_all(y <= self.hi)

    def cell_touch(self, cl, ch):
        return np.all(ch >= self.lo, axis=1) & np.all(cl <= self.hi, axis=1)


class _DiskOracle(_BoxOracle):
    """A ball's shadow.  ``cell_touch`` measures as ``contains`` does, so it
    flags the box [q, q] of every point q that ``contains`` accepts."""

    def __init__(self, center_y: np.ndarray, radius: float):
        super().__init__(center_y - radius, center_y + radius, measure_zero=False)
        self.center = center_y
        self.radius = radius

    def contains(self, y):
        return _distance(y, self.center) <= self.radius

    def depth(self, y):
        """(signed distance to the boundary, negative inside; outward unit
        normal of the nearest boundary point), for points in the plane."""
        off = y - self.center
        dist = _distance(y, self.center)
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
        return _distance(np.clip(self.center, cl, ch), self.center) <= self.radius


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
        return _below_facets(y, self.equations)

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


def _leaf_oracle(leaf: Shape, cross: np.ndarray, stretch: float = 1.0):
    """The leaf's shadow in the cross coordinates y = cross @ x.  ``stretch``
    bounds the largest singular value of cross, by which a ball's disk
    widens when the cross rows are not exactly orthonormal; the hull of
    projected vertices is exact under any linear map.

    A cuboid or polytope keeps the last oracle built for it, with its
    arrays read-only, as ``(cross.tobytes(), oracle)``: a cover's build,
    its ``Shadow`` and its lattice certificate then project the hull once.
    A ball's disk depends on ``stretch`` and a cloud's points cost nothing
    to project, so neither is kept."""
    if isinstance(leaf, Ball):
        return _DiskOracle(cross @ leaf.center, leaf.radius * stretch)
    if isinstance(leaf, (Cuboid, ConvexPolytope)):
        key, oracle = getattr(leaf, "_last_shadow", (None, None))
        if key != cross.tobytes():
            verts = leaf.vertices @ cross.T
            oracle = _BoxOracle(verts.min(axis=0), verts.max(axis=0), measure_zero=False)
            if len(cross) > 1:
                from scipy.spatial import QhullError  # see geometry.ConvexHull

                try:
                    oracle = _HullOracle(verts)
                except QhullError:
                    oracle.measure_zero = True
            for value in vars(oracle).values():
                if isinstance(value, np.ndarray):
                    value.setflags(write=False)
            object.__setattr__(leaf, "_last_shadow", (cross.tobytes(), oracle))
        return oracle
    return _PointsOracle(leaf.points @ cross.T)  # a cloud: ``_leaves`` admits no other kind


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


def _cross_view(shape: Shape, direction):
    """(frame, one oracle per leaf): the cross frame of the direction and
    each leaf's shadow in its cross coordinates."""
    d = unit_vector(direction)
    if shape.dim != d.size:
        raise DimensionError("shape and direction dimensions differ")
    frame = orthonormal_frame(d)
    return frame, [_leaf_oracle(leaf, frame.cross) for leaf in _leaves(shape)]


def _extent(oracles) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): the bounding box of a nonempty list of oracles."""
    return np.min([o.lo for o in oracles], axis=0), np.max([o.hi for o in oracles], axis=0)


def _touch(oracles, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per box, a row of lo and hi: whether the conservative ``cell_touch``
    of some oracle flags it: no box that meets the shadow, down to [q, q]
    for a point q an oracle's ``contains`` accepts, is dropped."""
    flagged = np.zeros(len(lo), dtype=bool)
    for o in oracles:
        flagged |= o.cell_touch(lo, hi)
    return flagged


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
    lo, hi = _extent(oracles)
    tol = _CONTACT_RTOL * float(np.max(hi - lo))
    return sum(o.boundary_integral(i, oracles, (lo + hi) / 2.0, tol) for i, o in enumerate(oracles))


def _union_volume(leaves) -> tuple[float, float, str] | None:
    """(volume, error, path) of the union of ``leaves`` without sampling, or None.

    Clouds have no volume, so one solid leaf gives its closed form, and the
    error is 0.  In R^2 the union is its own shadow plane, and its area is
    ``_planar_union_area`` under the identity, also with error 0.  In R^3 a
    union whose solid leaves are all balls is sliced (``_sliced_ball_volume``).
    Anything else, or a slicing above ``_SLICE_WORK``, gives None.  No leaf
    is a product: ``_leaves`` refuses one.
    """
    solid = [leaf for leaf in leaves if not isinstance(leaf, PointCloud)]
    if len(solid) <= 1:
        return (volume_exact(solid[0]) if solid else 0.0), 0.0, "exact"
    if solid[0].dim == 2:
        return _planar_union_area([_leaf_oracle(leaf, np.eye(2)) for leaf in solid]), 0.0, "exact area"
    if solid[0].dim == 3 and all(isinstance(leaf, Ball) for leaf in solid):
        return _sliced_ball_volume(np.array([b.center for b in solid]), np.array([b.radius for b in solid]))
    return None


def _gauss_legendre_in_t(order: int) -> tuple[np.ndarray, np.ndarray]:
    """(s, w): the integral of f over [a, b] is about (b - a) sum_k w_k f(a + (b - a) s_k).

    Gauss-Legendre nodes on [0, pi], from the eigenvectors of the Jacobi
    matrix (Golub and Welsch, Math. Comp. 23, 1969), after z = a + (b - a)
    (1 - cos t) / 2: the square-root ends of a slice area become smooth in t.
    """
    k = np.arange(1.0, order)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    t = 0.5 * math.pi * (x + 1.0)
    return 0.5 * (1.0 - np.cos(t)), 0.5 * math.pi * vectors[0] ** 2 * np.sin(t)


def _circle_heights(c: np.ndarray, r: np.ndarray):
    """(i, j, lowest, highest) of each pair of spheres that meet in a circle:
    the heights that circle spans."""
    for i, j in combinations(range(len(r)), 2):
        off = c[j] - c[i]
        d = math.sqrt(off @ off)
        if abs(r[i] - r[j]) < d < r[i] + r[j]:
            a = (d * d + r[i] ** 2 - r[j] ** 2) / (2.0 * d)
            z = c[i, 2] + a * off[2] / d
            reach = math.sqrt(max(r[i] ** 2 - a * a, 0.0) * max(1.0 - (off[2] / d) ** 2, 0.0))
            yield i, j, z - reach, z + reach


def _triple_heights(c: np.ndarray, r: np.ndarray) -> list[float]:
    """Heights of the points, none or two, on all three spheres of centres c and radii r."""
    ex = c[1] - c[0]
    d = math.sqrt(ex @ ex)
    ex = ex / d
    i = float(ex @ (c[2] - c[0]))
    ey = c[2] - c[0] - i * ex
    j = math.sqrt(ey @ ey)
    if j <= 1e-12 * d:  # collinear centres: the circles share one axis
        return []
    ey = ey / j
    x = (r[0] ** 2 - r[1] ** 2 + d * d) / (2.0 * d)
    y = (r[0] ** 2 - r[2] ** 2 + i * i + j * j) / (2.0 * j) - i * x / j
    h2 = r[0] ** 2 - x * x - y * y
    if h2 < 0.0:
        return []
    z = c[0, 2] + x * ex[2] + y * ey[2]
    reach = math.sqrt(h2) * (ex[0] * ey[1] - ex[1] * ey[0])  # along ex x ey
    return [z - reach, z + reach]


def _slice_disks(c, r, z, members) -> list:
    """The disks that balls ``members`` cut from the plane at height z."""
    return [_DiskOracle(c[i, :2], math.sqrt(max(r[i] ** 2 - (z - c[i, 2]) ** 2, 0.0))) for i in members]


def _sliced_ball_volume(c: np.ndarray, r: np.ndarray) -> tuple[float, float, str] | None:
    """(volume, error, "sliced, quadrature error") of a union of balls in R^3, or None.

    Cavalieri: V is the integral of the slice area A(z).  A(z) is analytic
    between the events: each ball's z-extremes, each pairwise intersection
    circle's z-extremes and the heights of each triple's common points.  An
    interval is classified at its midpoint, with ``_circle_cuts`` telling
    which slice circles cross.  A slice disk inside another drops out, and
    one that crosses none adds pi (r^2 - (z - c)^2) in closed form.  The
    disks that cross take Gauss-Legendre sums of ``_planar_union_area`` at
    the two ``_SLICE_ORDERS``: the first is the value, and their difference
    is the error, with a rounding allowance for the closed forms.  None when
    the planned work passes ``_SLICE_WORK``.
    """
    high, low = _SLICE_ORDERS
    if math.comb(len(r), 2) > _SLICE_WORK:  # every pair is compared, in memory too
        return None
    # a ball inside another adds nothing; of equal balls the first stays
    inside = _distance(c[:, None], c[None]) + r[:, None] <= r[None, :]
    np.fill_diagonal(inside, False)
    later = np.arange(len(r))[:, None] > np.arange(len(r))[None, :]
    stay = ~np.any(inside & (~inside.T | later), axis=1)
    c, r = c[stay], r[stay]
    events = [c[:, 2] - r, c[:, 2] + r]
    pairs = []
    for i, j, lowest, highest in _circle_heights(c, r):
        events.append([lowest, highest])
        pairs.append((i, j))
    # A pair whose circle is not level crosses on some interval, and s
    # crossing disks make fewer than s^2 / 2 pairs, so unless disks inside
    # others drop out, the work passes 2 (high + low) a pair.  Checked
    # first: the triples and each interval's pair tests grow with the pairs.
    if 2 * (high + low) * len(pairs) > _SLICE_WORK:
        return None
    linked = set(pairs)
    for i, j in pairs:
        for k in range(j + 1, len(r)):
            if (i, k) in linked and (j, k) in linked:
                events.append(_triple_heights(c[[i, j, k]], r[[i, j, k]]))
    bottom, top = float(np.min(c[:, 2] - r)), float(np.max(c[:, 2] + r))
    events = np.unique(np.clip(np.concatenate([np.ravel(e) for e in events]), bottom, top))
    tol = _CONTACT_RTOL * float(np.max(np.max(c + r[:, None], axis=0) - np.min(c - r[:, None], axis=0)))
    volume, cubes, crossing, work = 0.0, 0.0, [], 0
    for a, b in zip(events[:-1], events[1:]):
        mid = 0.5 * (a + b)
        members = [i for i in range(len(r)) if abs(mid - c[i, 2]) < r[i]]
        disks = dict(zip(members, _slice_disks(c, r, mid, members)))
        crossed, drop = [], set()
        for i, j in pairs:
            if i in disks and j in disks:
                di, dj = disks[i], disks[j]
                apart = math.hypot(*(di.center - dj.center))
                if len(_circle_cuts(di, dj, tol)):
                    crossed.append((i, j))
                elif apart + di.radius <= dj.radius + tol and di.radius < dj.radius:
                    drop.add(i)
                elif apart + dj.radius <= di.radius + tol:
                    drop.add(j)
        cross = sorted({k for pair in crossed if drop.isdisjoint(pair) for k in pair})
        for i in members:
            if i not in drop and i not in cross:
                lo, hi = a - c[i, 2], b - c[i, 2]
                volume += math.pi * (r[i] ** 2 * (b - a) - (hi ** 3 - lo ** 3) / 3.0)
                cubes += r[i] ** 3
        if cross:
            crossing.append((a, b, cross))
            work += (high + low) * len(cross) ** 2
            if work > _SLICE_WORK:
                return None
    error = 16.0 * np.finfo(float).eps * math.pi * cubes  # rounding of the closed forms
    rules = [_gauss_legendre_in_t(order) for order in (high, low)]
    for a, b, cross in crossing:
        value, check = (
            (b - a) * sum(w_k * _planar_union_area(_slice_disks(c, r, z, cross)) for z, w_k in zip(a + (b - a) * s, w))
            for s, w in rules
        )
        volume += value
        error += abs(value - check)
    return float(volume), float(error), "sliced, quadrature error"


class Shadow:
    """Projection of a bounded shape onto the hyperplane orthogonal to d,
    through the leaves' oracles, whose hulls ``_leaf_oracle`` keeps."""

    def __init__(self, shape: Shape, direction):
        self.frame, oracles = _cross_view(shape, direction)
        self.direction = self.frame.axis
        self.m = len(self.frame.cross)
        solid = [(leaf, o) for leaf, o in zip(_leaves(shape), oracles) if not o.measure_zero]
        self._solid = [o for _, o in solid]
        self._exact = self._exact_area([leaf for leaf, _ in solid])

    def _exact_area(self, solid_leaves) -> float | None:
        if not self._solid:
            return 0.0
        if len(self._solid) == 1:
            return float(shadow_values_batch(solid_leaves[0], self.direction[None])[0])
        if self.m == 2:
            return _planar_union_area(self._solid)
        if self.m == 1:
            # merged intervals: exact union length in the plane.  A run that one
            # member spans alone counts as that member's own shadow, since
            # hi - lo can round under it (a disk's (c + r) - (c - r) under 2r).
            spans = {(float(o.lo[0]), float(o.hi[0])): leaf for o, leaf in zip(self._solid, solid_leaves)}
            runs = []
            for lo, hi in sorted(spans):
                if runs and lo <= runs[-1][1]:
                    runs[-1][1] = max(runs[-1][1], hi)
                else:
                    runs.append([lo, hi])
            return sum(float(shadow_values_batch(spans[lo, hi], self.direction[None])[0]) if (lo, hi) in spans
                       else hi - lo for lo, hi in runs)
        return None

    @property
    def exact_area(self) -> float | None:
        return self._exact

    def contains(self, y: np.ndarray) -> np.ndarray:
        y = np.atleast_2d(y)
        out = np.zeros(len(y), dtype=bool)
        for o in self._solid:
            out |= o.contains(y)
        return out

    def area(self, samples: int = _SHADOW_SAMPLES, seed: int = 0) -> tuple[float, float]:
        """(measure, standard error); exact values report zero error."""
        if self._exact is not None:
            return self._exact, 0.0
        samples = _check_samples(samples)
        return _box_estimate(self.contains, *_extent(self._solid), samples, seed, TAG_SHADOW)


def shadow_area(s: Shape, direction, samples: int = _SHADOW_SAMPLES, seed: int = 0) -> float:
    """Measure of the projection of s onto the hyperplane orthogonal to d."""
    return Shadow(s, direction).area(samples=samples, seed=seed)[0]


def _cauchy_terms(leaf: Shape) -> tuple[np.ndarray, np.ndarray, float]:
    """(normals, weights, constant): along a unit d the leaf's shadow measures
    constant + 1/2 sum_i weights_i |normals_i . d| (Cauchy's formula).  A ball
    gives gamma_(n-1) r^(n-1), a cloud 0, a cuboid its axes weighted by their
    two faces' measure, a polytope its facets weighted by their measures."""
    if isinstance(leaf, Ball):
        m = leaf.dim - 1
        return np.zeros((0, leaf.dim)), np.zeros(0), unit_ball_volume(m) * leaf.radius ** m
    if isinstance(leaf, Cuboid):
        full = 2.0 * leaf.half_lengths
        return leaf.axes, 2.0 * (np.prod(full) / full), 0.0  # finite wherever the faces are
    if isinstance(leaf, ConvexPolytope):
        return *leaf.facet_arrays, 0.0
    return np.zeros((0, leaf.dim)), np.zeros(0), 0.0  # a cloud: ``_leaves`` admits no other kind


def shadow_values_batch(s: Shape, directions: np.ndarray) -> np.ndarray | None:
    """Vectorized exact shadows over many unit directions, or None.

    Exact for one leaf, alone or as a union, from its ``_cauchy_terms``;
    None for a union of more leaves.  ``directions`` has unit rows.
    """
    D = np.atleast_2d(directions)
    leaves = _leaves(s)
    if len(leaves) > 1:
        return None
    if not leaves:
        return np.zeros(len(D))
    normals, weights, constant = _cauchy_terms(leaves[0])
    return constant + 0.5 * np.abs(D @ normals.T) @ weights
