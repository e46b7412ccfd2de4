"""Constructive ingredients for the tube-measure contradiction argument.

The argument that a set cannot be split into two "large" halves by any
tube decomposition runs through a chain of concrete, checkable builds:

1. pack the cross-section ball of a tube with dyadic squares, turning
   the tube into countably many square tubes (truncated at a depth, with
   the measure deficit reported);
2. pick, by pigeonhole, a square tube that keeps at least a (1 - eps)
   share of its mass;
3. refine two selected square widths to an exact common rational width;
4. place disjoint balls of that width inside the two tubes, inscribe an
   eccentric cuboid of cross width eta in each, and align the pair
   inside a single enclosing square tube of half-width eta / 2;
5. compare the cuboid volume against the enclosing tube's cost: with
   parameters chosen here the comparison lands strictly above 1, the
   desired contradiction.

``run_proof_walkthrough`` executes the chain end to end with synthetic
mass data standing in for the unknowable intersection measures, and
reports every step.  Each numbered piece is also exposed on its own.

Packing cells live on an integer lattice: a cell of depth d has center
k * r / 2^d with every component of k odd, so disjointness and ball
containment are integer comparisons, exact at any depth.  The canonical
cell order is depth-major; within a depth it is parent-major, children
in sign-vector order, which is Z-order (Morton order) on the lattice, so
listing it needs no global sort.  The walkthrough never lists cells: it
counts them per depth by lattice points in the ball and finds the cell
at a given rank by descending the Z-order tree, counting each subtree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bounds import square_tube_exact_measure, tube_exact_measure
from .errors import (
    DimensionError,
    GeometryError,
    InvariantError,
    NoWitnessError,
    ParameterError,
    StepFailureError,
)
from .geometry import (
    Ball,
    Cuboid,
    Frame,
    MAX_DIM,
    SquareTube,
    Tube,
    orthonormal_frame,
    unit_ball_volume,
    unit_vector,
    volume_exact,
)
from .montecarlo import TAG_PROOF, batch_rng
from .serialization import _jsonable

_SCAN_CHUNK = 1 << 20
_MAX_STORED_CELLS = 8_000_000
_MAX_SUBDIVISION_TUBES = 1_000_000
AGREEMENT_TOL = 1e-12  # the two forms of the final inequality must agree within this


# ---------------------------------------------------------------------------
# dyadic square packing of a ball


def _sign_vectors(m: int) -> np.ndarray:
    """All +/-1 vectors, lexicographically sorted: the depth-1 cells, and
    the offsets of a cell's children from twice its index."""
    return np.array(sorted(itertools.product((-1, 1), repeat=m)), dtype=np.int32)


def _classify(cells: np.ndarray, depth: int, need_boundary: bool = True):
    """Masks (inside, boundary) for integer cells against the unit sphere.

    A cell at depth d with center index k (odd components) has corners
    (|k| +/- 1) * r / 2^d, so it lies inside the radius-r ball iff
    sum (|k_i| + 1)^2 <= 4^d and fully outside iff
    sum max(|k_i| - 1, 0)^2 >= 4^d.  Radius-free by design.  float64
    keeps these integer comparisons exact: depth <= 20 bounds |k| by
    2^20, so every square-sum stays far below 2^53.
    """
    thr = float(4 ** depth)
    a = np.abs(cells).astype(np.float64)
    a += 1.0
    far = np.einsum("ij,ij->i", a, a)
    inside = far <= thr
    if not need_boundary:
        return inside, None
    a -= 2.0
    np.maximum(a, 0.0, out=a)
    near = np.einsum("ij,ij->i", a, a)
    boundary = (~inside) & (near < thr)
    return inside, boundary


def _scan_packing(m: int, max_depth: int):
    """Yield (depth, inside_cells) chunks in canonical order.

    Canonical order is depth-major; within a depth it is parent-major with
    children in ``_sign_vectors`` order (Z-order), which is what expanding
    the frontier parent by parent produces.  It is not lexicographic: for
    m = 2 the last depth-6 cell is (53, 33), not (61, 13).
    """
    offsets = _sign_vectors(m)
    frontier = offsets
    for depth in range(1, max_depth + 1):
        last = depth == max_depth
        next_frontier = []
        for start in range(0, len(frontier), _SCAN_CHUNK):
            block = frontier[start : start + _SCAN_CHUNK]
            inside, boundary = _classify(block, depth, need_boundary=not last)
            if np.any(inside):
                yield depth, block[inside]
            if not last and np.any(boundary):
                parents = block[boundary]
                children = (2 * parents)[:, None, :] + offsets[None, :, :]
                next_frontier.append(children.reshape(-1, m))
        if last or not next_frontier:
            return
        frontier = np.concatenate(next_frontier, axis=0)


def _validate_packing_args(m: int, radius: float, max_depth: int) -> float:
    if not isinstance(m, (int, np.integer)) or not 1 <= m <= MAX_DIM - 1:
        raise DimensionError(f"cross-section dimension must be 1..{MAX_DIM - 1}, got {m}")
    radius = float(radius)
    if not (math.isfinite(radius) and radius > 0):
        raise ParameterError(f"radius must be positive, got {radius}")
    if not isinstance(max_depth, (int, np.integer)) or not 1 <= max_depth <= 20:
        raise ParameterError(f"max_depth must be 1..20, got {max_depth}")
    # boundary cells multiply by ~2^(m-1) per level; the cell limits are
    # checked against the lattice census, so this bound is what keeps the
    # census near 10^6 budget rows and the walkthrough's share stream (one
    # share per cell) practical
    if (m - 1) * (max_depth - 1) > 21:
        raise ParameterError(
            f"max_depth {max_depth} too deep for cross dimension {m}; "
            "the subdivision would not fit in memory"
        )
    return radius


@dataclass(frozen=True)
class SquarePacking:
    """Dyadic squares inside a ball of R^m, in canonical order.

    Pairwise interior-disjoint by lattice construction, each cell inside
    the closed ball by the exact corner check.  ``covered_fraction`` is
    the packed share of the ball volume; it can only grow with depth.
    """

    m: int
    radius: float
    max_depth: int
    cells: dict[int, np.ndarray]
    covered_fraction: float

    @property
    def depth_counts(self) -> dict[int, int]:
        return {d: len(rows) for d, rows in sorted(self.cells.items())}

    @property
    def n_squares(self) -> int:
        return sum(len(rows) for rows in self.cells.values())

    def half_width(self, depth: int) -> Fraction:
        return Fraction(self.radius) / 2 ** depth

    @property
    def squares(self) -> list[tuple[np.ndarray, Fraction]]:
        """(center array, half-width Fraction) in canonical order."""
        return [
            (row * (self.radius / 2 ** depth), self.half_width(depth))
            for depth in sorted(self.cells)
            for row in self.cells[depth]
        ]

    def _exact_center(self, row: np.ndarray, depth: int) -> list[Fraction]:
        r = Fraction(self.radius)
        return [r * int(k) / 2 ** depth for k in row]

    def square_exact(self, index: int) -> tuple[tuple[Fraction, ...], Fraction]:
        """Exact rational center and half-width of one square."""
        remaining = int(index)
        for depth in sorted(self.cells):
            rows = self.cells[depth]
            if remaining < len(rows):
                center = tuple(self._exact_center(rows[remaining], depth))
                return center, self.half_width(depth)
            remaining -= len(rows)
        raise ParameterError("square index out of range")

    def to_dict(self) -> dict:
        """JSON-ready summary; squares listed with exact rationals.

        Squares are listed only up to 100000 cells; the census fields
        remain exact either way.
        """
        out = {
            "m": self.m,
            "radius": self.radius,
            "max_depth": self.max_depth,
            "n_squares": self.n_squares,
            "depth_counts": {str(d): c for d, c in self.depth_counts.items()},
            "covered_fraction": self.covered_fraction,
        }
        if self.n_squares <= 100_000:
            squares = []
            for depth in sorted(self.cells):
                hw = self.half_width(depth)
                for row in self.cells[depth]:
                    center = self._exact_center(row, depth)
                    squares.append({"center": center, "half_width": hw})
            out["squares"] = _jsonable(squares)
        return out


def _covered_fraction(m: int, counts: dict[int, int]) -> float:
    scaled = sum(
        count * Fraction(1, 2 ** (depth - 1)) ** m for depth, count in counts.items()
    )
    return float(scaled) / unit_ball_volume(m)


def ball_square_packing(m: int, radius: float, max_depth: int) -> SquarePacking:
    """Whitney-style dyadic square packing of the radius-r ball in R^m.

    Cells start at side r (depth 1) and halve per depth; a cell is kept
    once it fits entirely inside the ball, otherwise subdivided until
    max_depth.  Deep packings in high dimension can hold millions of
    cells; beyond a sanity limit, counted by the lattice census before
    any cell is listed, storage is refused.
    """
    radius = _validate_packing_args(m, radius, max_depth)
    counts = _packing_census(m, max_depth)
    if sum(counts.values()) > _MAX_STORED_CELLS:
        raise ParameterError(
            f"packing exceeds {_MAX_STORED_CELLS} stored cells; "
            "reduce max_depth for this dimension"
        )
    cells: dict[int, list[np.ndarray]] = {}
    for depth, block in _scan_packing(m, max_depth):
        cells.setdefault(depth, []).append(block)
    packed = {d: np.concatenate(blocks, axis=0) for d, blocks in cells.items()}
    return SquarePacking(
        m=m,
        radius=radius,
        max_depth=max_depth,
        cells=packed,
        covered_fraction=_covered_fraction(m, counts),
    )


def _isqrt(x: np.ndarray) -> np.ndarray:
    """Exact floor square root of nonnegative int64 values.

    Rounding x to float can lift the root to the next integer (2^62 - 1
    gives 2^31), never lower it below the floor root, so one downward
    step fixes it."""
    s = np.floor(np.sqrt(x.astype(np.float64))).astype(np.int64)
    s -= s * s > x
    return s


def _box_lattice_counts(lo: np.ndarray, hi: np.ndarray, bound: int) -> np.ndarray:
    """#{j in Z^m : lo <= j <= hi, sum j_i^2 <= bound} for each row of lo, hi.

    Needs lo >= 1.  The first m - 1 axes are enumerated as (box, remaining
    budget) rows, keeping only values that leave room for the least values
    of the later axes; the last axis is counted by an integer square root.
    Under the packing guard the rows stay near 10^6.
    """
    m = lo.shape[1]
    least_after = np.cumsum((lo**2)[:, ::-1], axis=1)[:, ::-1]
    box = np.arange(len(lo))
    budget = np.full(len(lo), bound, dtype=np.int64)
    for i in range(m - 1):
        start = lo[box, i]
        room = np.maximum(budget - least_after[box, i + 1], 0)
        length = np.maximum(np.minimum(hi[box, i], _isqrt(room)) - start + 1, 0)
        offset = np.arange(length.sum()) - np.repeat(np.cumsum(length) - length, length)
        value = np.repeat(start, length) + offset
        budget = np.repeat(budget, length) - value * value
        box = np.repeat(box, length)
    last = np.minimum(hi[box, -1], _isqrt(budget)) - lo[box, -1] + 1
    counts = np.zeros(len(lo), dtype=np.int64)
    np.add.at(counts, box, np.maximum(last, 0))
    return counts


def _kept_below(cells: np.ndarray, level: int, depth: int) -> np.ndarray:
    """Kept cells of ``depth`` under each cell of ``level`` (rows of k).

    With |k_i| = 2 j_i - 1 a cell's corner test sum (|k_i| + 1)^2 <= 4^level
    reads sum j_i^2 <= 4^(level-1), j >= 1.  A cell never straddles an axis,
    so the cell with j = (|k| + 1) / 2 holds the depth-d cells whose own j
    lies in ((j - 1) 2^(d - level), j 2^(d - level)].  Every inside cell
    splits into 2^m inside children, so the cells kept at depth d (inside,
    parent not inside) number I_d - 2^m I_(d-1), with I_d the inside count
    over those boxes.  A cell inside the ball was kept at its own level and
    has none below it.  The count depends on the multiset of j alone, so it
    is taken once per sorted j.
    """
    m = cells.shape[1]
    j = (np.abs(cells).astype(np.int64) + 1) // 2
    inside = (j * j).sum(axis=1) <= 4 ** (level - 1)
    if level == depth:
        return inside.astype(np.int64)
    keys, inverse = np.unique(np.sort(j[~inside], axis=1), axis=0, return_inverse=True)

    def inside_below(d: int) -> np.ndarray:
        side = 2 ** (d - level)
        return _box_lattice_counts((keys - 1) * side + 1, keys * side, 4 ** (d - 1))

    kept = np.zeros(len(cells), dtype=np.int64)
    kept[~inside] = (inside_below(depth) - 2**m * inside_below(depth - 1))[inverse.ravel()]
    return kept


def _kept_counts(m: int, max_depth: int):
    """Yield (depth, cells kept at that depth) for depth = 1..max_depth: the
    kept cells below the 2^m depth-1 cells."""
    orthants = _sign_vectors(m)
    for depth in range(1, max_depth + 1):
        yield depth, int(_kept_below(orthants, 1, depth).sum())


def _packing_census(m: int, max_depth: int) -> dict[int, int]:
    """Cell counts per depth without listing the cells; depths that keep
    none are left out."""
    return {depth: kept for depth, kept in _kept_counts(m, max_depth) if kept}


def _packing_cell_by_rank(m: int, max_depth: int, rank: int) -> tuple[int, np.ndarray]:
    """(depth, integer cell) of the rank-th cell in canonical order.

    The census of the shallower depths gives the rank within the cell's
    depth; the cell is then found from the depth-1 cells down, skipping
    each child whose subtree holds too few kept cells of that depth.  The
    cost does not depend on the rank.
    """
    remaining = int(rank)
    for depth, kept in _kept_counts(m, max_depth):
        if 0 <= remaining < kept:
            break
        remaining -= kept
    else:
        raise ParameterError("cell rank out of range")
    offsets = _sign_vectors(m)
    children = offsets
    for level in range(1, depth + 1):
        kept = np.cumsum(_kept_below(children, level, depth))
        i = int(np.searchsorted(kept, remaining, side="right"))
        remaining -= int(kept[i - 1]) if i else 0
        cell = children[i]
        children = 2 * cell + offsets
    return depth, cell


def _cell_tube(tube: Tube, frame: Frame, cell: np.ndarray, depth: int) -> SquareTube:
    """Square tube over one packing cell of ``tube`` at ``depth``."""
    anchor = tube.point + (cell * (tube.radius / 2 ** depth)) @ frame.cross
    return SquareTube(frame=frame, anchor=anchor, half_width=Fraction(tube.radius) / 2 ** depth)


def subdivide_tube(tube: Tube, max_depth: int) -> list[SquareTube]:
    """Square tubes packing a round tube, one per cross-section square.

    The union of the returned tubes sits inside the round tube and their
    total cost equals the packed share of its exact measure.
    """
    m = tube.dim - 1
    _validate_packing_args(m, tube.radius, max_depth)
    if sum(_packing_census(m, max_depth).values()) > _MAX_SUBDIVISION_TUBES:
        raise ParameterError("subdivision too large to materialize; lower max_depth")
    frame = orthonormal_frame(tube.axis)
    return [
        _cell_tube(tube, frame, cell, depth)
        for depth, block in _scan_packing(m, max_depth)
        for cell in block
    ]


# ---------------------------------------------------------------------------
# pigeonhole and refinement


def pigeonhole_select(masses, weights, eps: float) -> int:
    """Smallest index i with weights[i] >= (1 - eps) * masses[i].

    Precondition: sum(weights) >= (1 - eps) * sum(masses); under it a
    qualifying index must exist (else the total would fall short), and
    the scan returns the first one.
    """
    m = np.asarray(masses, dtype=float)
    w = np.asarray(weights, dtype=float)
    if m.ndim != 1 or m.size == 0 or w.shape != m.shape:
        raise ParameterError("masses and weights must be equal-length nonempty vectors")
    if not (0.0 < eps < 1.0):
        raise ParameterError(f"eps must lie in (0, 1), got {eps}")
    if np.any(m <= 0) or np.any(w < 0):
        raise ParameterError("masses must be positive and weights nonnegative")
    if math.fsum(w) < (1.0 - eps) * math.fsum(m):
        raise NoWitnessError(
            "total weight falls below (1 - eps) of total mass; no witness guaranteed"
        )
    hits = np.nonzero(w >= (1.0 - eps) * m)[0]
    if hits.size == 0:
        raise NoWitnessError("no index qualifies despite the mass precondition")
    return int(hits[0])


def common_refinement(delta_a, delta_b) -> tuple[Fraction, int, int]:
    """Largest rational width dividing both inputs, with the two counts.

    Exact: gcd(a/b, c/d) = gcd(a d, c b) / (b d), reduced by Fraction.
    """
    da, db = Fraction(delta_a), Fraction(delta_b)
    if da <= 0 or db <= 0:
        raise ParameterError("widths must be positive rationals")
    g = Fraction(
        math.gcd(da.numerator * db.denominator, db.numerator * da.denominator),
        da.denominator * db.denominator,
    )
    ca, cb = da / g, db / g
    if ca.denominator != 1 or cb.denominator != 1:  # cannot happen
        raise InvariantError("refinement counts are not integral")
    return g, int(ca), int(cb)


# ---------------------------------------------------------------------------
# cuboids in balls


def cuboid_in_ball(ball: Ball, axis, eta: float, frame: Frame | None = None) -> Cuboid:
    """Inscribed eccentric cuboid: cross edges eta, long edge along axis.

    The long half-edge is set by Pythagoras so that every vertex lies at
    distance exactly ball.radius from the center; the cuboid's diameter
    is then the ball's diameter.
    """
    n = ball.dim
    if n < 2:
        raise DimensionError("inscribed cuboids need ambient dimension >= 2")
    eta = float(eta)
    delta = ball.radius
    if not (math.isfinite(eta) and eta > 0):
        raise ParameterError(f"eta must be positive, got {eta}")
    if (n - 1) * eta * eta >= 4.0 * delta * delta:
        raise GeometryError(
            f"cross width eta={eta} too large: (n-1) eta^2 must stay below (2 delta)^2"
        )
    long_edge = math.sqrt(4.0 * delta * delta - (n - 1) * eta * eta)
    if frame is None:
        frame = orthonormal_frame(axis)
    half = np.concatenate([np.full(n - 1, eta / 2.0), [long_edge / 2.0]])
    return Cuboid(center=ball.center, frame=frame, half_lengths=half)


@dataclass(frozen=True)
class AlignedCuboidPair:
    """Two congruent inscribed cuboids sharing one enclosing square tube.

    Both cuboids use the same frame (axis along the center-to-center
    direction), so the enclosing tube of half-width eta / 2 contains
    every vertex of both.
    """

    first: Cuboid
    second: Cuboid
    enclosing: SquareTube


def align_cuboids(b1: Ball, b2: Ball, eta: float) -> AlignedCuboidPair:
    """Inscribe congruent cuboids in two disjoint equal balls, aligned
    along the center-to-center direction, inside one square tube.

    The cross half-widths are nudged inward by a few ulps if needed so
    that the closed membership test of the enclosing tube holds exactly
    in floating point for all 2^n vertices; the nudge is far below every
    stated tolerance.  Cross coordinates are rounded at the scale of the
    world coordinates, so when eight nudges at the scale of the tube's
    half-width do not suffice, later nudges step at the world scale.
    """
    if b1.dim != b2.dim:
        raise DimensionError("balls must share one ambient dimension")
    if abs(b1.radius - b2.radius) > 1e-12 * max(b1.radius, b2.radius):
        raise ParameterError("balls must have equal radii")
    dvec = b2.center - b1.center
    dist = float(np.linalg.norm(dvec))
    if dist <= b1.radius + b2.radius:
        raise ParameterError("balls overlap or coincide; alignment needs disjoint balls")
    n = b1.dim
    eta = float(eta)
    axis = dvec / dist
    frame = orthonormal_frame(axis)
    # validates the eta bound and fixes the long edge
    ideal = cuboid_in_ball(b1, axis, eta, frame=frame)
    long_half = float(ideal.half_lengths[-1])
    tube = SquareTube(frame=frame, anchor=b1.center, half_width=Fraction(eta) / 2)
    target = float(tube.half_width)

    cross_half = eta / 2.0
    for attempt in range(16):
        half = np.concatenate([np.full(n - 1, cross_half), [long_half]])
        c1 = Cuboid(center=b1.center, frame=frame, half_lengths=half)
        c2 = Cuboid(center=b2.center, frame=frame, half_lengths=half)
        verts = np.vstack([c1.vertices, c2.vertices])
        coords = np.abs(tube.cross_coordinates(verts))
        overshoot = float(coords.max()) - target
        if overshoot <= 0.0:
            return AlignedCuboidPair(first=c1, second=c2, enclosing=tube)
        scale = target if attempt < 8 else float(np.abs(verts).max())
        cross_half -= overshoot + 4.0 * np.spacing(scale)
    raise InvariantError("could not fit cuboid vertices inside the enclosing tube")


# ---------------------------------------------------------------------------
# parameters and the final inequality


@dataclass(frozen=True)
class ProofParameters:
    """Parameter pack (n, p, eps, delta, eta) for the final comparison.

    Constructed values keep sqrt(1 - (n-1) p^2) > 1/2 via the upper
    bound on p, keep eta = 2 delta p, and keep the cross width feasible
    for the inscribed cuboid.  Whether eps is small enough for the
    contradiction is exactly what ``contradiction_check`` evaluates, so
    that inequality is deliberately not a construction invariant.
    """

    n: int
    p: float
    eps: float
    delta: Fraction
    eta: float

    def __post_init__(self):
        if not 2 <= self.n <= MAX_DIM:
            raise DimensionError(f"n must be 2..{MAX_DIM}, got {self.n}")
        delta = self.delta
        if not isinstance(delta, Fraction):
            delta = Fraction(delta)
            object.__setattr__(self, "delta", delta)
        if delta <= 0:
            raise ParameterError("delta must be a positive rational")
        p_max = math.sqrt(3.0 / (4.0 * (self.n - 1)))
        if not (0.0 < self.p < p_max):
            raise ParameterError(f"p must lie in (0, {p_max:.7f}), got {self.p}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ParameterError(f"eps must be positive, got {self.eps}")
        expected_eta = 2.0 * float(delta) * self.p
        if abs(self.eta - expected_eta) > 1e-12 * max(1.0, expected_eta):
            raise ParameterError("eta must equal 2 * delta * p")
        if (self.n - 1) * self.eta ** 2 >= 4.0 * float(delta) ** 2:
            raise ParameterError("cross width infeasible: (n-1) eta^2 >= (2 delta)^2")


def _p_eps(n: int) -> tuple[float, float]:
    """(p, eps) of ``choose_parameters``; they depend on n alone."""
    p = 0.5 * math.sqrt(3.0 / (4.0 * (n - 1)))
    root = math.sqrt(1.0 - (n - 1) * p * p)
    return p, 0.5 * p ** (n - 1) * (root - 0.5)


def choose_parameters(n: int, delta) -> ProofParameters:
    """Midpoint defaults: p at half its allowed range, eps at half the slack.

    With p^2 = 3 / (16 (n-1)) the root sqrt(1 - (n-1) p^2) is sqrt(13)/4
    for every n, and eps = p^{n-1} (root - 1/2) / 2 leaves half the gap,
    so the final comparison lands at 1.4013876 regardless of n.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ParameterError("delta must be a positive rational")
    if not 2 <= n <= MAX_DIM:
        raise DimensionError(f"n must be 2..{MAX_DIM}, got {n}")
    p, eps = _p_eps(n)
    eta = 2.0 * float(delta) * p
    return ProofParameters(n=n, p=p, eps=eps, delta=delta, eta=eta)


def contradiction_check(params: ProofParameters) -> tuple[float, bool]:
    """Evaluate 2 (sqrt(1 - (n-1)(eta / 2 delta)^2) - eps (2 delta / eta)^{n-1}).

    Computed twice: from the closed form above and from the volume of an
    actual inscribed cuboid via |C| / (2 delta eta^{n-1}); the two must
    agree to ``AGREEMENT_TOL``.  A return above 1 is the contradiction:
    two disjoint cuboids would each carry more than half the enclosing
    tube's cost.
    """
    n = params.n
    m = n - 1
    delta = float(params.delta)
    x = params.eta / (2.0 * delta)
    tail = params.eps * (1.0 / x) ** m
    simplified = 2.0 * (math.sqrt(1.0 - m * x * x) - tail)

    ball = Ball(center=np.zeros(n), radius=delta)
    cuboid = cuboid_in_ball(ball, np.eye(n)[-1], params.eta)
    volume = volume_exact(cuboid)
    raw = 2.0 * (volume / (2.0 * delta * params.eta ** m) - tail)
    if abs(raw - simplified) > AGREEMENT_TOL:
        raise InvariantError(
            f"final inequality forms disagree: {raw!r} vs {simplified!r}"
        )
    return simplified, simplified > 1.0


# ---------------------------------------------------------------------------
# the walkthrough


_RADII_FIRST = (Fraction(1), Fraction(3, 2), Fraction(2))
_RADII_SECOND = (Fraction(3, 4), Fraction(5, 4), Fraction(1, 2))


@dataclass
class WalkthroughStep:
    name: str
    passed: bool
    inputs: dict
    outputs: dict


@dataclass
class WalkthroughReport:
    n: int
    depth: int
    seed: int
    steps: list[WalkthroughStep] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.steps)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "depth": self.depth,
            "seed": self.seed,
            "all_passed": self.all_passed,
            "steps": [
                {
                    "name": s.name,
                    "passed": s.passed,
                    "inputs": _jsonable(s.inputs),
                    "outputs": _jsonable(s.outputs),
                }
                for s in self.steps
            ],
        }


def _stream_pigeonhole(
    groups: list[tuple[int, float]], eps: float, seed: int, key: int
) -> tuple[int, float, int]:
    """First qualifying index over synthetic per-cell shares.

    Cells get shares q ~ U[1 - 1.5 eps, 1] of their masses, drawn in
    chunks so arbitrarily large packings stream in constant memory.  A
    draw must satisfy the mass precondition sum(q m) >= (1 - eps) sum(m)
    (expected margin eps/4 of the total); rare shortfalls retry with a
    fresh subseed.  Returns (global index, its share, retries used).
    """
    total_mass = math.fsum(count * mass for count, mass in groups)
    threshold = 1.0 - eps
    low = 1.0 - 1.5 * eps
    for retry in range(8):
        first = None
        first_q = 0.0
        acc = 0.0
        base = 0
        bindex = 0
        for count, mass in groups:
            done = 0
            while done < count:
                c = min(_SCAN_CHUNK, count - done)
                rng = batch_rng(seed, TAG_PROOF, key, retry, bindex)
                q = low + rng.random(c) * (1.0 - low)
                acc += mass * float(q.sum())
                if first is None:
                    hits = np.nonzero(q >= threshold)[0]
                    if hits.size:
                        first = base + done + int(hits[0])
                        first_q = float(q[hits[0]])
                done += c
                bindex += 1
            base += count
        if acc >= threshold * total_mass and first is not None:
            return first, first_q, retry
    raise NoWitnessError("synthetic shares kept missing the mass precondition")


def _select_square_tube(
    tube: Tube, depth: int, counts: dict[int, int], eps: float, seed: int, key: int
):
    """Pigeonhole a square tube out of a packed subdivision.

    Shares stream from (seed, key); the cell is found by its rank, without
    listing the packing.  Returns (SquareTube, detail dict).
    """
    m = tube.dim - 1
    radius = Fraction(tube.radius)
    groups = [
        (counts[d], float((2 * radius / 2 ** d) ** m)) for d in sorted(counts)
    ]
    index, share, retries = _stream_pigeonhole(groups, eps, seed, key)
    cell_depth, cell = _packing_cell_by_rank(m, depth, index)
    square = _cell_tube(tube, orthonormal_frame(tube.axis), cell, cell_depth)
    outputs = {
        "selected_index": index,
        "cell_depth": cell_depth,
        "half_width": square.half_width,
        "share": share,
        "retries": retries,
        "anchor": square.anchor,
    }
    return square, outputs


def run_proof_walkthrough(n: int, depth: int, seed: int = 0) -> WalkthroughReport:
    """Execute the whole construction on synthetic data and report each step.

    Two seeded tubes are subdivided to ``depth``; synthetic mass shares,
    streamed from the seed, drive the pigeonhole selections; the selected
    widths are refined to a common rational delta; disjoint delta-balls go
    on the tubes' axes (stepping along the second axis until separated,
    erroring if the tubes are too entangled to separate at the default
    spacing); aligned inscribed cuboids then feed the final inequality.
    Any failing step raises StepFailureError naming the step, with the
    partial report attached; a selection that finds no witness chains
    the NoWitnessError as its cause.
    """
    if not 2 <= n <= MAX_DIM:
        raise DimensionError(f"n must be 2..{MAX_DIM}, got {n}")
    m = n - 1
    _validate_packing_args(m, 1.0, depth)
    # the integer-lattice census is radius-free, so both tubes share it
    counts = _packing_census(m, depth)
    if not counts:
        raise ParameterError(
            f"depth {depth} too shallow for n = {n}: no dyadic cell fits inside the "
            "ball unless 4^(depth-1) >= n-1"
        )
    report = WalkthroughReport(n=n, depth=depth, seed=int(seed))

    def step(name: str, passed: bool, inputs: dict, outputs: dict, message="", cause=None):
        report.steps.append(
            WalkthroughStep(name=name, passed=bool(passed), inputs=inputs, outputs=outputs)
        )
        if not passed:
            raise StepFailureError(name, message or "check failed", report=report) from cause

    _, eps = _p_eps(n)

    rng = batch_rng(seed, TAG_PROOF, 0)
    r1 = _RADII_FIRST[int(rng.integers(len(_RADII_FIRST)))]
    r2 = _RADII_SECOND[int(rng.integers(len(_RADII_SECOND)))]
    tube1, tube2 = (
        Tube(
            point=rng.uniform(-2.0, 2.0, n),
            axis=unit_vector(rng.standard_normal(n)),
            radius=float(r),
        )
        for r in (r1, r2)
    )

    # 1: dyadic subdivision of both tubes (census only; cells streamed)
    squares = sum(counts.values())
    step(
        "subdivide_tubes",
        squares >= 1,
        {
            "depth": depth,
            "radius_first": r1,
            "radius_second": r2,
            "axis_first": tube1.axis,
            "axis_second": tube2.axis,
        },
        {"squares_first": squares, "squares_second": squares},
        "subdivision produced no interior squares at this depth",
    )

    # 2: partial sums against the exact tube measures
    frac = _covered_fraction(m, counts)
    mu1 = tube_exact_measure(tube1)
    mu2 = tube_exact_measure(tube2)
    sum1 = frac * mu1
    sum2 = frac * mu2
    ok = 0.0 < sum1 <= mu1 * (1 + 1e-12) and 0.0 < sum2 <= mu2 * (1 + 1e-12)
    step(
        "partial_sums",
        ok,
        {"squares_first": squares, "squares_second": squares},
        {
            "tube_measure_first": mu1,
            "packed_sum_first": sum1,
            "deficit_first": 1.0 - frac,
            "tube_measure_second": mu2,
            "packed_sum_second": sum2,
            "deficit_second": 1.0 - frac,
        },
        "packed square-tube measures must stay within the tube measure",
    )

    # 3, 4: pigeonhole selection on synthetic mass shares
    select_inputs = {"eps": eps, "synthetic": True}
    selected = []
    for name, tube, key in (
        ("select_square_tube", tube1, 1),
        ("select_square_tube_complement", tube2, 2),
    ):
        try:
            square, outputs = _select_square_tube(tube, depth, counts, eps, seed, key)
        except NoWitnessError as exc:
            step(name, False, select_inputs, {"error": str(exc)}, str(exc), cause=exc)
        step(name, True, select_inputs, outputs)
        selected.append(square)
    square1, square2 = selected
    delta_a, delta_b = square1.half_width, square2.half_width

    # 5: exact common refinement of the two selected widths
    delta, count_a, count_b = common_refinement(delta_a, delta_b)
    ok = count_a * delta == delta_a and count_b * delta == delta_b
    step(
        "refine_widths",
        ok,
        {"delta_first": delta_a, "delta_second": delta_b},
        {
            "delta": delta,
            "count_first": count_a,
            "count_second": count_b,
            "cells_per_cross_section_first": count_a ** m,
            "cells_per_cross_section_second": count_b ** m,
        },
        "refined width must divide both selected widths exactly",
    )

    # 6: disjoint delta-balls on the axes of the two selected square tubes
    delta_f = float(delta)
    ball1 = Ball(center=square1.anchor, radius=delta_f)
    ball2 = None
    separation = 0.0
    for k in range(0, 65):
        for sign in (1, -1) if k else (1,):
            cand = Ball(
                center=square2.anchor + sign * k * 4.0 * delta_f * tube2.axis,
                radius=delta_f,
            )
            separation = float(np.linalg.norm(cand.center - ball1.center))
            if separation > 2.0 * delta_f * (1.0 + 1e-9):
                ball2 = cand
                break
        if ball2 is not None:
            break
    step(
        "place_balls",
        ball2 is not None,
        {"radius": delta},
        {
            "center_first": ball1.center,
            "center_second": None if ball2 is None else ball2.center,
            "separation_over_diameter": separation / (2.0 * delta_f) if delta_f else 0.0,
        },
        "tubes too entangled to separate the balls at the default spacing",
    )

    # 7: parameters for the chosen delta (cuboids below need eta = 2 delta p)
    params = choose_parameters(n, delta)
    root = math.sqrt(1.0 - m * params.p ** 2)
    step(
        "choose_parameters",
        root > 0.5,
        {"n": n, "delta": delta},
        {"p": params.p, "eps": params.eps, "eta": params.eta, "root": root},
        "sqrt(1 - (n-1) p^2) must exceed 1/2",
    )

    # 8: aligned inscribed cuboids inside one enclosing square tube
    pair = align_cuboids(ball1, ball2, params.eta)
    verts = np.vstack([pair.first.vertices, pair.second.vertices])
    contained = bool(np.all(pair.enclosing.contains(verts)))
    diam = float(np.linalg.norm(2.0 * pair.first.half_lengths))
    step(
        "build_cuboids",
        contained and abs(diam - 2.0 * delta_f) <= 1e-9 * max(1.0, delta_f),
        {"eta": params.eta, "ball_radius": delta},
        {
            "cuboid_volume": volume_exact(pair.first),
            "cuboid_diameter": diam,
            "ball_diameter": 2.0 * delta_f,
            "enclosing_half_width": pair.enclosing.half_width,
            "enclosing_cost": square_tube_exact_measure(pair.enclosing),
            "vertices_contained": contained,
        },
        "cuboid vertices must sit inside the enclosing tube with ball diameter",
    )

    # 9: the final comparison must exceed 1
    rhs, contradiction = contradiction_check(params)
    step(
        "final_inequality",
        contradiction,
        {"p": params.p, "eps": params.eps, "eta": params.eta, "delta": delta},
        {"rhs": rhs, "margin": rhs - 1.0},
        "final comparison failed to exceed 1",
    )
    return report
