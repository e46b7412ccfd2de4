"""Answers the benchmark computes by its own methods.

None of these functions imports ``tubemeasure``.  Each one derives the
quantity a report must match (or bound) from first principles, so a
check built on it does not share a bug with the program it checks.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.spatial import ConvexHull


def unit_ball_volume(m: int) -> float:
    return math.pi ** (m / 2) / math.gamma(m / 2 + 1)


def complement_basis(d) -> np.ndarray:
    """Orthonormal rows spanning the hyperplane orthogonal to d."""
    d = np.asarray(d, dtype=float)
    _, _, vt = np.linalg.svd(d[None, :] / np.linalg.norm(d))
    return vt[1:]


def projected_shadow(vertices, d) -> float:
    """(n-1)-volume of the projection of conv(vertices) along d.

    The projection of a polytope is the hull of its projected vertices;
    in the plane it is an interval, measured by its extent.
    """
    y = np.asarray(vertices, dtype=float) @ complement_basis(d).T
    if y.shape[1] == 1:
        return float(y.max() - y.min())
    return float(ConvexHull(y).volume)


def polytope_volume(vertices) -> float:
    return float(ConvexHull(np.asarray(vertices, dtype=float)).volume)


def point_set_diameter(points) -> float:
    p = np.asarray(points, dtype=float)
    gaps = p[:, None, :] - p[None, :, :]
    return float(np.sqrt(np.max(np.einsum("ijk,ijk->ij", gaps, gaps))))


def _facets(vertices):
    """Unit normals and (n-1)-measures of the boundary facets.

    Coplanar simplices from qhull are merged; normals are identified up
    to sign, since the shadow weighs |n . d|.
    """
    v = np.asarray(vertices, dtype=float)
    n = v.shape[1]
    hull = ConvexHull(v)
    simplex = v[hull.simplices]
    edges = simplex[:, 1:, :] - simplex[:, :1, :]
    gram = edges @ np.swapaxes(edges, 1, 2)
    measure = np.sqrt(np.maximum(np.linalg.det(gram), 0.0)) / math.factorial(n - 1)
    normals = hull.equations[:, :n]
    first = np.argmax(np.abs(normals) > 1e-9, axis=1)
    normals = normals * np.sign(normals[np.arange(len(normals)), first])[:, None]
    _, group = np.unique(np.round(normals, 9), axis=0, return_inverse=True)
    group = group.ravel()
    merged_normals = np.array([normals[group == g][0] for g in range(group.max() + 1)])
    merged_measure = np.bincount(group, weights=measure)
    return merged_normals, merged_measure


def cauchy_shadow(normals, measures, directions) -> np.ndarray:
    """Cauchy's projection formula 1/2 sum_F |F| |n_F . d|, for unit rows d."""
    return 0.5 * (np.abs(np.atleast_2d(directions) @ normals.T) @ measures)


def min_shadow_polytope(vertices) -> tuple[float, np.ndarray]:
    """Exact minimum shadow of a convex polytope over all directions.

    The shadow is a support function (of the projection body), linear on
    each cell of the arrangement {d : n_F . d = 0}; its minimum over the
    sphere sits at a vertex of that arrangement, a direction orthogonal
    to n - 1 independent facet normals.  Every such direction is tried.
    """
    normals, measures = _facets(vertices)
    n = normals.shape[1]
    combos = np.array(list(itertools.combinations(range(len(normals)), n - 1)))
    best_value, best_dir = math.inf, None
    for start in range(0, len(combos), 20_000):
        rows = normals[combos[start : start + 20_000]]
        _, sv, vt = np.linalg.svd(rows)
        independent = sv[:, -1] > 1e-9
        dirs = vt[independent, -1, :]
        if not len(dirs):
            continue
        values = cauchy_shadow(normals, measures, dirs)
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_value, best_dir = float(values[i]), dirs[i]
    return best_value, best_dir


def min_shadow_cuboid(half_lengths) -> float:
    """Smallest face of a box: its volume over its longest edge."""
    edges = 2.0 * np.asarray(half_lengths, dtype=float)
    return float(np.prod(edges) / np.max(edges))


def two_ball_union_volume(c1, r1, c2, r2) -> float:
    """|B1 u B2| = |B1| + |B2| - lens, in R^3."""
    d = float(np.linalg.norm(np.subtract(c1, c2)))
    v1 = 4.0 / 3.0 * math.pi * r1 ** 3
    v2 = 4.0 / 3.0 * math.pi * r2 ** 3
    if d >= r1 + r2:
        lens = 0.0
    elif d <= abs(r1 - r2):
        lens = min(v1, v2)
    else:
        lens = (
            math.pi
            * (r1 + r2 - d) ** 2
            * (d * d + 2 * d * (r1 + r2) - 3 * (r1 - r2) ** 2)
            / (12.0 * d)
        )
    return v1 + v2 - lens


def two_ball_union_diameter(c1, r1, c2, r2) -> float:
    d = float(np.linalg.norm(np.subtract(c1, c2)))
    return max(2 * r1, 2 * r2, d + r1 + r2)


def sample_polytope(vertices, count: int, rng) -> np.ndarray:
    """Uniform interior points of conv(vertices) by rejection from its box."""
    v = np.asarray(vertices, dtype=float)
    eq = ConvexHull(v).equations
    lo, hi = v.min(axis=0), v.max(axis=0)
    out, got = [], 0
    while got < count:
        pts = lo + rng.random((4 * count, v.shape[1])) * (hi - lo)
        keep = pts[np.all(pts @ eq[:, :-1].T + eq[:, -1] < 0.0, axis=1)]
        out.append(keep)
        got += len(keep)
    return np.vstack(out)[:count]


def _isqrt(x: np.ndarray) -> np.ndarray:
    """Exact floor square root of nonnegative int64 values."""
    s = np.floor(np.sqrt(x.astype(np.float64))).astype(np.int64)
    s -= s * s > x
    s += (s + 1) * (s + 1) <= x
    return s


def positive_lattice_count(m: int, bound: int) -> int:
    """#{j in Z^m, all j_i >= 1, sum j_i^2 <= bound}."""
    budgets = np.array([bound], dtype=np.int64)
    for _ in range(m - 1):
        top = int(_isqrt(budgets.max(initial=0)[None])[0])
        squares = np.arange(1, top + 1, dtype=np.int64) ** 2
        budgets = (budgets[:, None] - squares[None, :]).ravel()
        budgets = budgets[budgets >= 1]
    return int(_isqrt(budgets).sum())


def inside_cells(m: int, depth: int) -> int:
    """Odd-lattice cells of depth d inside the unit ball of R^m.

    A depth-d cell has center k / 2^d (k odd) and half-width 1 / 2^d; it
    lies inside iff sum (|k_i| + 1)^2 <= 4^d.  With |k_i| = 2 j_i - 1 this
    counts positive j with sum j_i^2 <= 4^(d-1), once per sign pattern.
    """
    if depth < 1:
        return 0
    return 2 ** m * positive_lattice_count(m, 4 ** (depth - 1))


def packing_census(m: int, max_depth: int) -> dict[int, int]:
    """Squares kept at each depth: inside cells whose parent is not inside.

    Every inside cell splits into 2^m inside children, so the newly kept
    cells of depth d number I_d - 2^m I_(d-1).  Depths with no squares are
    left out.
    """
    counts = {}
    previous = 0
    for d in range(1, max_depth + 1):
        current = inside_cells(m, d)
        if current - 2 ** m * previous:
            counts[d] = current - 2 ** m * previous
        previous = current
    return counts


def packed_fraction(m: int, census: dict[int, int]) -> float:
    """Packed share of the unit ball: depth-d squares have side 2^(1-d)."""
    packed = sum(c * Fraction(1, 2 ** (d - 1)) ** m for d, c in census.items())
    return float(packed) / unit_ball_volume(m)


def rational_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Largest rational g with a / g and b / g both integers.

    Over the common denominator L, a = A / L and b = B / L with integers
    A, B, and g = gcd(A, B) / L.
    """
    common = math.lcm(a.denominator, b.denominator)
    return Fraction(math.gcd(int(a * common), int(b * common)), common)


def walkthrough_rhs(n: int, p: float, eps: float) -> float:
    """2 (sqrt(1 - (n-1) p^2) - eps p^-(n-1)), the closing comparison."""
    return 2.0 * (math.sqrt(1.0 - (n - 1) * p * p) - eps * p ** -(n - 1))


def squares_overlap(lo: np.ndarray, hi: np.ndarray) -> tuple[int, int] | None:
    """First pair of integer boxes whose interiors meet, or None.

    Two closed boxes have interior-disjoint interiors iff on some axis one
    ends where (or before) the other starts.
    """
    total = len(lo)
    chunk = max(1, 2_000_000 // max(total, 1))
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        meet = np.all(
            (lo[start:stop, None, :] < hi[None, :, :])
            & (lo[None, :, :] < hi[start:stop, None, :]),
            axis=2,
        )
        meet[np.arange(stop - start), np.arange(start, stop)] = False
        if meet.any():
            i, j = np.argwhere(meet)[0]
            return int(start + i), int(j)
    return None
