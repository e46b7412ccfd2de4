"""Upper and lower bounds for the tube measure of a bounded set.

The tube measure mu(E) is the infimum of sum gamma_{n-1} r_i^{n-1} over
countable tube covers of E; each tube evaluates its own cost once, at
construction.  Two workhorse inequalities bracket it:

* any single direction d gives mu(E) <= measure of the shadow of E
  along d, because a parallel bundle of tubes over the shadow covers E;
* a bounded E satisfies mu(E) >= |E| / diam(E), since one tube can hold
  at most diam(E) * gamma_{n-1} r^{n-1} of E's volume.

The upper bound is best at the least shadow, which
``upper_bound_min_projection`` finds in closed form for balls and
cuboids.  A polytope's shadow, and an upper bound for a union's, is a
sum of its leaves' Cauchy terms (``projection._cauchy_terms``), whose
least value sits at a vertex of the arrangement of their normals; in
R^2 and R^3 the union's exact shadows along 256 fixed directions join
in.  Every candidate is an exact shadow, so the reported least one is a
valid upper bound.  In the plane the least shadow is the minimal width
(the plank problem).
Product sets A x R have mu = |A| exactly, with an explicit lower bound
for truncated cylinders A x [-R, R].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DegenerateShapeError,
    DimensionError,
    InvariantError,
    ParameterError,
)
from .geometry import (
    Ball,
    ConvexPolytope,
    Cuboid,
    PointCloud,
    Shape,
    SquareTubes,
    Tube,
    _leaves,
    canonical_direction,
    diameter,
)
from .montecarlo import VOLUME_SAMPLES, mc_volume
from .projection import Shadow, _cauchy_terms, shadow_values_batch

_VERTEX_BUDGET = 1 << 18  # arrangement vertices enumerated per polytope
_EVAL_CHUNK = 1 << 20  # direction-by-generator products held at once
_PARALLEL_DECIMALS = 9  # unit normals equal to this many decimals are parallel
_RANK_TOL = 1e-9  # least singular value of an independent set of unit normals
_UNION_DIRECTIONS = 256  # fixed directions of a union's own shadow in R^2 and R^3


def tube_exact_measure(tube: Tube) -> float:
    """Cost gamma_{n-1} r^{n-1} of one round tube, as it keeps it: its exact tube measure."""
    return tube._cost


def square_tube_exact_measure(tubes: SquareTubes) -> float:
    """Cost (2 delta)^{n-1} of each one of the square tubes, as they keep it."""
    return tubes._cost


def sphere_directions(n: int, count: int) -> np.ndarray:
    """Deterministic quasi-uniform unit directions, one per projective class.

    n = 2 uses evenly spaced angles on the half-circle, n = 3 the
    Fibonacci sphere; other dimensions raise ``DimensionError``.
    """
    if count < 1:
        raise ParameterError("direction count must be positive")
    if n == 2:
        theta = math.pi * (np.arange(count) + 0.5) / count
        d = np.column_stack([np.cos(theta), np.sin(theta)])
    elif n == 3:
        i = np.arange(count)
        z = 1.0 - 2.0 * (i + 0.5) / count
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        d = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    else:
        raise DimensionError(f"sphere directions are defined for n = 2 and 3, got {n}")
    return np.array([canonical_direction(row) for row in d])


def _least(values: np.ndarray, directions: np.ndarray, best: tuple) -> tuple:
    """Fold the smallest of ``values`` into ``best`` = (value, direction);
    exact ties go to the lexicographically smallest canonical direction."""
    v = float(values.min())
    if v > best[0]:
        return best
    tied = [tuple(canonical_direction(d)) for d in directions[values == v]]
    if v == best[0]:
        tied.append(tuple(best[1]))
    return v, np.array(min(tied)) + 0.0  # no -0.0 in reports


def _generators(normals: np.ndarray, measures: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Facet normals merged up to sign (m, n), with their summed measures (m,);
    qhull triangulates facets, so a cube's 12 normals become 3 generators."""
    first = np.argmax(np.abs(normals) > 1e-9, axis=1)
    signed = normals * np.sign(normals[np.arange(len(normals)), first])[:, None]
    _, pick, group = np.unique(
        np.round(signed, _PARALLEL_DECIMALS) + 0.0, axis=0, return_index=True, return_inverse=True
    )
    return signed[pick], np.bincount(group.ravel(), weights=measures)


def _subset_blocks(m: int, k: int):
    """k-subsets of range(m) grouped by their last element, each group with
    the index of the first generator that may close its subsets."""
    if k == 0:
        yield np.zeros((1, 0), dtype=int), 0
        return
    for last in range(k - 1, m - 1):
        heads = list(combinations(range(last), k - 1))
        heads = np.array(heads, dtype=int).reshape(len(heads), k - 1)
        yield np.column_stack([heads, np.full(len(heads), last)]), last + 1


def _arrangement_minimum(gens: np.ndarray, weights: np.ndarray, pool: np.ndarray) -> tuple:
    """Least shadow over the directions orthogonal to n - 1 generators of ``pool``.

    Each (n-2)-subset of the pool gets one orthonormal basis of its 2-D
    complement; the vertex it forms with a later pool generator g is the
    perpendicular, inside that plane, of g's projection.  Vertices are
    evaluated with all generators, in blocks of bounded size.
    """
    n = gens.shape[1]
    k = n - 2
    pooled = gens[pool]
    best = (math.inf, None)
    for subsets, start in _subset_blocks(len(pool), k):
        tail = pooled[start:]
        _, sv, vt = np.linalg.svd(pooled[subsets])
        bases = vt[np.all(sv > _RANK_TOL, axis=1), k:, :]
        step = max(1, _EVAL_CHUNK // (len(gens) * len(tail)))
        for lo in range(0, len(bases), step):
            q = bases[lo : lo + step]
            c = q @ tail.T
            d = np.einsum("sat,san->stn", np.stack([-c[:, 1], c[:, 0]], axis=1), q).reshape(-1, n)
            norms = np.linalg.norm(d, axis=1)
            keep = norms > _RANK_TOL
            if np.any(keep):
                d = d[keep] / norms[keep, None]
                best = _least(0.5 * np.abs(d @ gens.T) @ weights, d, best)
    return best


def _cauchy_minimum(gens, weights, constant) -> tuple:
    """(value, direction, path) of the least constant + 1/2 sum_i w_i |g_i . d|.

    The minimum sits at a vertex of the arrangement {g_i . d = 0}.  Above
    ``_VERTEX_BUDGET`` vertices only a pool forms vertices: the k heaviest
    generators, plus each further one, heaviest first, that raises the
    pool's rank, until the pool spans n - 1 dimensions.  With fewer than
    n - 1 generators every direction orthogonal to all of them is a
    minimizer.
    """
    n = gens.shape[1]
    m = len(gens)
    if m < n - 1:
        d = canonical_direction(np.linalg.svd(np.vstack([gens, np.zeros(n)]))[2][-1])
        return constant + float(0.5 * np.abs(gens @ d) @ weights), d, "closed form"
    k = m
    while math.comb(k, n - 1) > _VERTEX_BUDGET:
        k -= 1
    order = np.argsort(-weights, kind="stable")
    pool = list(order[:k])  # the k heaviest
    rank = np.linalg.matrix_rank(gens[pool], tol=_RANK_TOL)
    for i in order[k:]:
        if rank >= n - 1:
            break
        if np.linalg.matrix_rank(gens[pool + [i]], tol=_RANK_TOL) > rank:
            pool.append(i)
            rank += 1
    value, direction = _arrangement_minimum(gens, weights, np.sort(pool))
    if k == m:
        return constant + value, direction, f"exact arrangement vertices of {m} generators"
    return constant + value, direction, f"truncated arrangement, {len(pool)} of {m} generators"


def _min_shadow(s: Shape) -> tuple:
    """(value, direction, method) behind ``upper_bound_min_projection``."""
    n = s.dim
    if n < 2:
        raise DimensionError("projection bounds need ambient dimension >= 2")
    e1 = canonical_direction(np.eye(n)[0])
    leaves = _leaves(s)
    if len(leaves) == 1 and leaves[0] is not s:
        return _min_shadow(leaves[0])
    if isinstance(s, (Ball, PointCloud)) or not leaves:
        return float(shadow_values_batch(s, e1[None])[0]), e1, "closed form"
    if isinstance(s, Cuboid):
        full = 2.0 * s.half_lengths
        longest = canonical_direction(s.axes[int(np.argmax(full))])
        return float(np.prod(full) / full.max()), longest, "closed form"
    # a polytope or a union: the least sum of its leaves' Cauchy terms
    normals, measures, constants = zip(*map(_cauchy_terms, leaves))
    gens, weights = _generators(np.concatenate(normals), np.concatenate(measures))
    value, direction, path = _cauchy_minimum(gens, weights, sum(constants))
    if isinstance(s, ConvexPolytope):
        return value, direction, path
    if n > 3:
        return value, direction, f"sum of member shadows, {path}"
    # the union's own shadow is exact in R^2 and R^3, and never above the sum
    grid = sphere_directions(n, _UNION_DIRECTIONS)
    directions = np.vstack([grid, direction])
    values = np.array([Shadow(s, d).exact_area for d in directions])
    best = _least(values, directions, (math.inf, None))
    return (*best, f"grid {len(grid)} of exact shadows, plus the member-sum minimizer")


def upper_bound_min_projection(s: Shape) -> tuple[float, np.ndarray]:
    """Smallest shadow over all directions, with a direction attaining it.

    Balls and cuboids have closed forms; a cuboid shows its largest face
    along its longest edge.  A polytope's shadow along d is Cauchy's sum
    1/2 sum_i w_i |g_i . d| over its facet normals g_i merged up to sign,
    w_i their facet measures; its minimum over the sphere sits at a
    vertex of the arrangement {g_i . d = 0}, and all vertices are tried.
    Above ``_VERTEX_BUDGET`` vertices only the k heaviest generators form
    vertices, joined, heaviest first, by those that raise their rank
    until they span n - 1 dimensions; every candidate is an exact shadow.  A union is
    bounded by the least sum of its members' shadows, found on the
    arrangement of all members' generators; in R^2 and R^3 the union's
    exact shadows along 256 fixed directions and along that minimizer
    take its place, so the value is never above the sum.  Ties go to the lexicographically smallest
    canonical direction.
    """
    value, direction, _ = _min_shadow(s)
    return value, direction


def lower_bound_volume_diam(
    s: Shape, samples: int = VOLUME_SAMPLES, seed: int = 0
) -> tuple[float, float]:
    """Volume-over-diameter lower bound with propagated standard error."""
    diam = diameter(s)
    if diam <= 0.0:
        raise DegenerateShapeError("zero diameter; volume/diameter bound undefined")
    volume, se = mc_volume(s, samples=samples, seed=seed)
    return volume / diam, se / diam


def product_measure(base: Shape, samples: int = VOLUME_SAMPLES, seed: int = 0) -> float:
    """Tube measure of base x R: exactly the measure of the base.

    Exact for bases with closed-form volume, seeded Monte Carlo
    otherwise.
    """
    value, _ = mc_volume(base, samples=samples, seed=seed)
    return value


def truncated_product_lower(
    base: Shape, r_half: float, samples: int = VOLUME_SAMPLES, seed: int = 0
) -> float:
    """Lower bound 2R|A| / (2R + diam A) for the cylinder A x [-R, R].

    Monotone in R and converging to |A|: a finite cylinder already
    carries almost the full product measure once R dwarfs diam(A).
    """
    r_half = float(r_half)
    if r_half <= 0.0:
        raise ParameterError(f"truncation half-length must be positive, got {r_half}")
    measure = product_measure(base, samples=samples, seed=seed)
    if measure == 0.0:
        return 0.0
    diam = diameter(base)
    return 2.0 * r_half * measure / (2.0 * r_half + diam)


def _plank_2d(s: Shape) -> tuple:
    """(width, direction, method) behind ``plank_value_2d``.

    The width is the least shadow in the plane: a disk's in closed form,
    and a polygon's at the arrangement vertices of the minimum-shadow
    search, which are the hull-edge directions rotating calipers visit;
    the witness points along the minimizing edge.
    """
    if s.dim != 2:
        raise DimensionError("plank width is a planar computation")
    if not isinstance(s, (Ball, ConvexPolytope)):
        raise ParameterError("plank width needs a convex polygon or a disk")
    width, direction, method = _min_shadow(s)
    if width <= 0.0:
        raise DegenerateShapeError("degenerate polygon: zero width")
    if isinstance(s, ConvexPolytope):  # its arrangement vertices are the calipers' edges
        method = "exact arrangement vertices: the hull-edge directions of rotating calipers"
    return width, direction, method


def plank_value_2d(s: Shape) -> tuple[float, np.ndarray]:
    """Exact minimal width of a planar convex body, with witness direction."""
    return _plank_2d(s)[:2]


@dataclass(frozen=True)
class BoundReport:
    """Certified bracket lower <= mu(E) <= upper for one shape.

    ``witness_direction`` attains the reported upper bound; the lower
    bound carries the Monte Carlo standard error of the volume estimate
    (zero when the volume is closed form).
    """

    lower: float
    lower_std_error: float
    upper: float
    witness_direction: tuple[float, ...]
    method: str = ""

    def __post_init__(self):
        if self.lower - 3.0 * self.lower_std_error > self.upper + 1e-12:
            raise InvariantError(
                f"bound ordering violated: lower {self.lower} (se {self.lower_std_error}) "
                f"exceeds upper {self.upper}"
            )


def compute_bounds(
    s: Shape,
    *,
    mc_samples: int = VOLUME_SAMPLES,
    seed: int = 0,
) -> BoundReport:
    """Both tube-measure bounds for a bounded shape, as one report."""
    upper, direction, path = _min_shadow(s)
    methods = [f"upper: min shadow, {path}"]
    try:
        lower, lower_se = lower_bound_volume_diam(s, samples=mc_samples, seed=seed)
        methods.append("lower: volume / diameter" + (" (mc)" if lower_se else " (exact)"))
    except DegenerateShapeError:
        lower, lower_se = 0.0, 0.0
        methods.append("lower: degenerate shape, 0")
    return BoundReport(
        lower=lower,
        lower_std_error=lower_se,
        upper=upper,
        witness_direction=tuple(float(x) for x in direction),
        method="; ".join(methods),
    )
