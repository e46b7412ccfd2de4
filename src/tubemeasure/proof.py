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
   the rational parameters chosen here, a point (p, q) of the ellipse
   (n-1) p^2 + q^2 = 1, the comparison lands at q + 1/2 > 1, the desired
   contradiction.

``run_proof_walkthrough`` executes the chain end to end with synthetic
mass data standing in for the unknowable intersection measures, and
reports every step.  Each numbered piece is also exposed on its own.
Each check is a comparison of Fractions, every float being a rational, or
the closed membership test of the float cuboid vertices actually built.

Packing cells live on an integer lattice: a cell of depth d has
half-width r / 2^d and center k times that half-width, every component
of k odd, so disjointness and ball containment are integer comparisons,
exact at any depth.  The canonical cell order is depth-major; within a
depth it is parent-major, children in sign-vector order, which is
Z-order (Morton order) on the lattice, so listing it needs no global
sort.  Cells are counted per depth by lattice points in the ball and
listed only when read; the walkthrough never lists them, finding the
cell at a given rank by descending the Z-order tree, counting each
subtree.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .bounds import square_tube_exact_measure, tube_exact_measure
from .covers import TubeCover
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
    SquareTubes,
    Tube,
    _square_cost,
    orthonormal_frame,
    unit_ball_volume,
    unit_vector,
    volume_exact,
)
from .montecarlo import TAG_PROOF, batch_rng
from .serialization import Listing, _jsonable

_SCAN_CHUNK = 1 << 20  # frontier cells the packing scan tests at once
_SHARE_CHUNK = 1 << 20  # shares per subseed of the pigeonhole stream; it fixes the draws
_MAX_STORED_CELLS = 8_000_000
_MAX_SUBDIVISION_TUBES = 1_000_000
_MAX_LISTED_SQUARES = 100_000  # a packing report lists its squares up to this many


# ---------------------------------------------------------------------------
# dyadic square packing of a ball


def _sign_vectors(m: int) -> np.ndarray:
    """All +/-1 vectors, lexicographically sorted: the depth-1 cells, and
    the offsets of a cell's children from twice its index."""
    return np.array(sorted(itertools.product((-1, 1), repeat=m)), dtype=np.int32)


def _classify(cells: np.ndarray, depth: int, need_boundary: bool = True):
    """Masks (inside, boundary) for integer cells against the unit sphere.

    A cell at depth d with center index k (odd components) has corners
    (|k| +/- 1) * r / 2^d.  With j = (|k| + 1) / 2 it lies inside the
    radius-r ball iff sum j_i^2 <= 4^(d-1) and fully outside iff
    sum (j_i - 1)^2 >= 4^(d-1).  Radius-free, and exact in int64.
    """
    j = (np.abs(cells).astype(np.int64) + 1) // 2
    bound = 4 ** (depth - 1)
    inside = np.einsum("ij,ij->i", j, j) <= bound
    if not need_boundary:
        return inside, None
    j -= 1
    boundary = ~inside & (np.einsum("ij,ij->i", j, j) < bound)
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
    # boundary cells multiply by ~2^(m-1) per level; this bound keeps the
    # census rows (lattice points of an (m-1)-ball of radius 2^(depth-1))
    # near 10^6 and the walkthrough's last-rank lookup practical
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
    the closed ball by the exact corner check.  ``depth_counts`` is the
    lattice census; the cells themselves are listed on first use.
    ``covered_fraction`` is the packed share of the ball volume; it can
    only grow with depth.
    """

    m: int
    radius: float
    max_depth: int
    depth_counts: dict[int, int]

    @property
    def n_squares(self) -> int:
        return sum(self.depth_counts.values())

    @property
    def covered_fraction(self) -> float:
        scaled = sum(c * Fraction(1, 2 ** (d - 1)) ** self.m for d, c in self.depth_counts.items())
        return float(scaled) / unit_ball_volume(self.m)

    @functools.cached_property
    def cells(self) -> dict[int, np.ndarray]:
        """Integer cell rows per depth, listed by the scan below the storage limit."""
        if self.n_squares > _MAX_STORED_CELLS:
            raise ParameterError(
                f"packing exceeds {_MAX_STORED_CELLS} stored cells; "
                "reduce max_depth for this dimension"
            )
        blocks: dict[int, list[np.ndarray]] = {}
        for depth, block in _scan_packing(self.m, self.max_depth):
            blocks.setdefault(depth, []).append(block)
        return {d: np.concatenate(rows, axis=0) for d, rows in blocks.items()}

    def half_width(self, depth: int) -> Fraction:
        """Lattice scale r / 2^depth: the half-width, and the unit of the odd centres."""
        return Fraction(self.radius) / 2 ** depth

    @property
    def squares(self) -> list[tuple[np.ndarray, Fraction]]:
        """(center array, half-width Fraction) in canonical order."""
        return [
            (row * (self.radius / 2 ** depth), self.half_width(depth))
            for depth in sorted(self.cells)
            for row in self.cells[depth]
        ]

    def square_exact(self, index: int) -> tuple[tuple[Fraction, ...], Fraction]:
        """Exact rational center and half-width of one square.

        The square is read from the listing below the storage limit, and
        found by rank from the census above it, where nothing is listed (a
        rank lookup costs about 1.7 ms at m = 7, depth 3, far more than one
        listed row)."""
        if self.n_squares > _MAX_STORED_CELLS:
            depth, cell = _packing_cell_by_rank(self.m, self.depth_counts, index)
        else:
            depth, rank = _rank_in_depth(self.depth_counts, index)
            cell = self.cells[depth][rank]
        hw = self.half_width(depth)
        return tuple(hw * k for k in cell.tolist()), hw

    def report(self) -> dict:
        """JSON-ready summary; squares listed with exact rationals.

        Each centre coordinate is k times the half-width num / den of its
        depth.  With k odd and den a power of two, {k num, den} is already
        the reduced pair that ``square_exact`` gives as a Fraction.  Up to
        ``_MAX_LISTED_SQUARES`` squares are listed, one run per depth: rows
        of k num, and an entry function whose squares share one half_width
        dict.  The census fields remain exact either way.
        """
        out = {
            "m": self.m,
            "radius": self.radius,
            "max_depth": self.max_depth,
            "n_squares": self.n_squares,
            "depth_counts": {str(d): c for d, c in self.depth_counts.items()},
            "covered_fraction": self.covered_fraction,
        }
        if self.n_squares <= _MAX_LISTED_SQUARES:
            def run(depth, cells):
                num, den = self.half_width(depth).as_integer_ratio()
                half_width = {"num": num, "den": den}
                return ((lambda ks: {"center": [{"num": k, "den": den} for k in ks], "half_width": half_width}),
                        (cells.astype(object) * num).tolist())
            out["squares"] = Listing([run(depth, cells) for depth, cells in sorted(self.cells.items())])
        return out

    def to_dict(self) -> dict:
        """``report`` with its squares expanded to a list of dicts."""
        return {k: v.expand() if isinstance(v, Listing) else v for k, v in self.report().items()}


def ball_square_packing(m: int, radius: float, max_depth: int) -> SquarePacking:
    """Whitney-style dyadic square packing of the radius-r ball in R^m.

    Cells start at side r (depth 1) and halve per depth; a cell is kept
    once it fits entirely inside the ball, otherwise subdivided until
    max_depth.  Deep packings in high dimension hold millions of cells, so
    none is listed until one is read (see ``SquarePacking.cells``).
    """
    radius = _validate_packing_args(m, radius, max_depth)
    counts = _packing_census(m, max_depth)
    return SquarePacking(m=m, radius=radius, max_depth=max_depth, depth_counts=counts)


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

    A cell never straddles an axis, so the cell with j = (|k| + 1) / 2
    (the j of ``_classify``) holds the depth-d cells whose own j lies in ((j - 1) 2^(d - level), j 2^(d - level)].  Every inside cell
    splits into 2^m inside children, so the cells kept at depth d (inside,
    parent not inside) number I_d - 2^m I_(d-1), with I_d the inside count
    over those boxes.  A cell inside the ball was kept at its own level and
    has none below it.  The count depends on the multiset of j alone, so it
    is taken once per sorted j.
    """
    m = cells.shape[1]
    inside, _ = _classify(cells, level, need_boundary=False)
    if level == depth:
        return inside.astype(np.int64)
    j = (np.abs(cells[~inside]).astype(np.int64) + 1) // 2
    keys, inverse = np.unique(np.sort(j, axis=1), axis=0, return_inverse=True)

    def inside_below(d: int) -> np.ndarray:
        side = 2 ** (d - level)
        return _box_lattice_counts((keys - 1) * side + 1, keys * side, 4 ** (d - 1))

    kept = np.zeros(len(cells), dtype=np.int64)
    kept[~inside] = (inside_below(depth) - 2**m * inside_below(depth - 1))[inverse.ravel()]
    return kept


def _packing_census(m: int, max_depth: int) -> dict[int, int]:
    """Cell counts per depth without listing the cells; depths that keep
    none are left out.

    The I_d = 2^m #{j >= 1 : sum j_i^2 <= 4^(d-1)} inside cells of depth d,
    one lattice count over the positive orthant, hold the 2^m I_(d-1)
    children of the inside cells of depth d - 1; the rest are kept at d.
    """
    counts = {}
    inside_above = 0
    for depth in range(1, max_depth + 1):
        side = np.full((1, m), 2 ** (depth - 1), dtype=np.int64)
        inside = 2**m * int(_box_lattice_counts(np.ones_like(side), side, 4 ** (depth - 1))[0])
        kept = inside - 2**m * inside_above
        if kept:
            counts[depth] = kept
        inside_above = inside
    return counts


def _rank_in_depth(counts: dict[int, int], rank: int) -> tuple[int, int]:
    """(depth, rank within that depth) of the rank-th cell in canonical
    order, from the census alone."""
    remaining = int(rank)
    for depth, count in sorted(counts.items()):
        if 0 <= remaining < count:
            return depth, remaining
        remaining -= count
    raise ParameterError(f"square index {rank} out of range")


def _packing_cell_by_rank(m: int, counts: dict[int, int], rank: int) -> tuple[int, np.ndarray]:
    """(depth, integer cell) of the rank-th cell in canonical order.

    The census gives the cell's depth and its rank within that depth; the
    cell is then found from the depth-1 cells down, skipping each child
    whose subtree holds too few kept cells of that depth.  The cost does
    not depend on the rank.
    """
    depth, remaining = _rank_in_depth(counts, rank)
    offsets = _sign_vectors(m)
    children = offsets
    for level in range(1, depth + 1):
        kept = np.cumsum(_kept_below(children, level, depth))
        i = int(np.searchsorted(kept, remaining, side="right"))
        remaining -= int(kept[i - 1]) if i else 0
        cell = children[i]
        children = 2 * cell + offsets
    return depth, cell


def _cell_tube(tube: Tube, frame: Frame, cells: np.ndarray, half_width: Fraction) -> SquareTubes:
    """Square tubes over packing cells of ``tube``, one per row of cells,
    each centred at cell * half_width."""
    anchors = tube.point + (cells * float(half_width)) @ frame.cross
    return SquareTubes(frame=frame, anchors=anchors, half_width=half_width)


def subdivide_tube(tube: Tube, max_depth: int) -> TubeCover:
    """Square tubes packing a round tube, one per cross-section square, in
    one group per depth.

    The union of the returned tubes sits inside the round tube and their
    total cost equals the packed share of its exact measure.  A depth at
    which no square fits leaves an empty cover, which is a ParameterError.
    """
    packing = ball_square_packing(tube.dim - 1, tube.radius, max_depth)
    if packing.n_squares > _MAX_SUBDIVISION_TUBES:
        raise ParameterError("subdivision too large to materialize; lower max_depth")
    frame = orthonormal_frame(tube.axis)
    cells = sorted(packing.cells.items())
    return TubeCover(tubes=tuple(_cell_tube(tube, frame, c, packing.half_width(d)) for d, c in cells))


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


def _apart(b1: Ball, b2: Ball) -> bool:
    """Whether two balls are disjoint, decided in the rationals of their floats."""
    gap = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(b1.center.tolist(), b2.center.tolist()))
    return gap > (Fraction(b1.radius) + Fraction(b2.radius)) ** 2


@dataclass(frozen=True)
class AlignedCuboidPair:
    """Two congruent inscribed cuboids sharing one enclosing square tube.

    Both cuboids use the same frame (axis along the center-to-center
    direction), so the enclosing tube of half-width eta / 2 contains
    every vertex of both.
    """

    first: Cuboid
    second: Cuboid
    enclosing: SquareTubes


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
    if not _apart(b1, b2):
        raise ParameterError("balls overlap or coincide; alignment needs disjoint balls")
    dvec = b2.center - b1.center
    dist = float(np.linalg.norm(dvec))
    n = b1.dim
    eta = float(eta)
    axis = dvec / dist
    frame = orthonormal_frame(axis)
    # validates the eta bound and fixes the long edge
    ideal = cuboid_in_ball(b1, axis, eta, frame=frame)
    long_half = float(ideal.half_lengths[-1])
    tube = SquareTubes(frame=frame, anchors=b1.center[None], half_width=Fraction(eta) / 2)
    target = float(tube.half_width)

    cross_half = eta / 2.0
    for attempt in range(16):
        half = np.concatenate([np.full(n - 1, cross_half), [long_half]])
        c1 = Cuboid(center=b1.center, frame=frame, half_lengths=half)
        c2 = Cuboid(center=b2.center, frame=frame, half_lengths=half)
        verts = np.vstack([c1.vertices, c2.vertices])
        coords = np.abs((verts - b1.center) @ frame.cross.T)
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

    Constructed values keep 4 (n-1) p^2 < 3 in Fractions, so that
    sqrt(1 - (n-1) p^2) > 1/2, and eta = 2 delta p, which keeps the cross
    width feasible for the inscribed cuboid.  Whether eps is small enough
    for the contradiction is exactly what ``contradiction_check``
    evaluates, so that inequality is deliberately not a construction
    invariant.
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
        # p < 1 first, which 4 (n-1) p^2 < 3 implies: Fraction takes no nan or infinity
        if not (0.0 < self.p < 1.0 and 4 * (self.n - 1) * Fraction(self.p) ** 2 < 3):
            raise ParameterError(f"p must lie in (0, sqrt(3 / (4 (n-1)))), got {self.p}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ParameterError(f"eps must be positive, got {self.eps}")
        expected_eta = 2.0 * float(delta) * self.p
        if abs(self.eta - expected_eta) > 1e-12 * max(1.0, expected_eta):
            raise ParameterError("eta must equal 2 * delta * p")


def _p_q_eps(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """The exact (p, q, eps) of ``choose_parameters``; they depend on n alone.

    With k = n - 1, p = 2s / (k + s^2) and q = (k - s^2) / (k + s^2) lie on
    the ellipse k p^2 + q^2 = 1 for any rational s, the half-angle tangent
    of (p sqrt(k), q) times sqrt(k).  s is the rational of denominator at
    most 16 nearest that of p0 = sqrt(3 / (16 k)), half of p's allowed
    range; eps = p^k (q - 1/2) / 2 leaves half the gap.
    """
    k = n - 1
    p0 = math.sqrt(3.0 / (16 * k))
    s = Fraction(k * p0 / (1.0 + math.sqrt(13.0) / 4.0)).limit_denominator(16)
    p, q = 2 * s / (k + s * s), (k - s * s) / (k + s * s)
    return p, q, p**k * (q - Fraction(1, 2)) / 2


def choose_parameters(n: int, delta) -> ProofParameters:
    """Rational defaults from ``_p_q_eps``, as floats.

    eta = 2 delta p, the root sqrt(1 - (n-1) p^2) = q and the final value
    q + 1/2, 1.3987 to 1.4069 for n = 2..8, are exact rationals, and
    (n-1) eta^2 + (2 delta q)^2 = (2 delta)^2 holds exactly.  n = 6, for
    example, takes p = 4/21 and q = 19/21, and lands at 59/42.
    """
    delta = Fraction(delta)
    if not 2 <= n <= MAX_DIM:  # guards _p_q_eps; ProofParameters checks delta
        raise DimensionError(f"n must be 2..{MAX_DIM}, got {n}")
    p, _, eps = _p_q_eps(n)
    return ProofParameters(n=n, p=float(p), eps=float(eps), delta=delta, eta=float(2 * delta * p))


def contradiction_check(params: ProofParameters) -> tuple[float, bool]:
    """Evaluate 2 (sqrt(1 - (n-1) x^2) - t), x = eta / (2 delta) and t = eps / x^(n-1).

    A value above 1 is the contradiction: two disjoint cuboids would each
    carry more than half the enclosing tube's cost.  x and t are the
    Fractions of the pack's floats.  The value is their float evaluation;
    whether it exceeds 1 is decided exactly: as t > 0, it does iff
    1 - (n-1) x^2 > (1/2 + t)^2.
    """
    m = params.n - 1
    x = Fraction(params.eta) / (2 * params.delta)
    t = Fraction(params.eps) / x**m
    return 2.0 * (math.sqrt(1 - m * x * x) - t), 1 - m * x * x > (Fraction(1, 2) + t) ** 2


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

    A try stops after the chunk at which its outcome is certain: the
    first qualifying index is known, and the shares drawn so far plus
    the least possible share 1 - 1.5 eps of every undrawn mass already
    reach the threshold, with a relative margin of 1e-9 for rounding.
    The chunks and their subseeds do not depend on where a try stops,
    so the undrawn shares could neither move the first qualifying index
    nor turn the try into a retry: the result is that of the full stream.
    """
    total_mass = math.fsum(count * mass for count, mass in groups)
    if not total_mass > 0.0:
        raise InvariantError("the share stream needs cells of positive total mass")
    threshold = 1.0 - eps
    low = 1.0 - 1.5 * eps
    certain = threshold * total_mass * (1.0 + 1e-9)
    # mass of the groups after each group, for the mass not yet drawn
    after = [math.fsum(c * w for c, w in groups[g + 1 :]) for g in range(len(groups))]
    for retry in range(8):
        first = None
        first_q = 0.0
        acc = 0.0
        base = 0
        bindex = 0
        for (count, mass), rest in zip(groups, after):
            done = 0
            while done < count:
                c = min(_SHARE_CHUNK, count - done)
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
                if first is not None and acc + low * ((count - done) * mass + rest) >= certain:
                    return first, first_q, retry
            base += count
        if acc >= threshold * total_mass and first is not None:
            return first, first_q, retry
    raise NoWitnessError("synthetic shares kept missing the mass precondition")


def _select_square_tube(tube: Tube, packing: SquarePacking, eps: float, seed: int, key: int):
    """Pigeonhole a square tube out of a packed subdivision.

    ``packing`` gives the census and is scaled to the tube's radius.
    Shares stream from (seed, key); the cell is found by its rank, without
    listing the packing.  Returns (one-tube SquareTubes, detail dict).
    """
    packing = replace(packing, radius=tube.radius)
    m, counts = packing.m, packing.depth_counts
    groups = [
        (counts[d], _square_cost(*packing.half_width(d).as_integer_ratio(), m))
        for d in sorted(counts)
    ]
    index, share, retries = _stream_pigeonhole(groups, eps, seed, key)
    cell_depth, cell = _packing_cell_by_rank(m, counts, index)
    square = _cell_tube(tube, orthonormal_frame(tube.axis), cell[None], packing.half_width(cell_depth))
    outputs = {
        "selected_index": index,
        "cell_depth": cell_depth,
        "half_width": square.half_width,
        "share": share,
        "retries": retries,
        "anchor": square.anchors[0],
    }
    return square, outputs


def run_proof_walkthrough(n: int, depth: int, seed: int = 0) -> WalkthroughReport:
    """Execute the whole construction on synthetic data and report each step.

    Two seeded tubes are subdivided to ``depth``; synthetic mass shares,
    streamed from the seed, drive the pigeonhole selections; the selected
    widths are refined to a common rational delta; disjoint delta-balls go
    on the tubes' axes (the second ball at its anchor, else moved 4 delta
    along the second axis, forward and then back, one of which always
    separates them; a step that still fails reports the tubes too
    entangled); aligned inscribed cuboids then feed the final inequality.
    Any failing step raises StepFailureError naming the step, with the
    partial report attached; a selection that finds no witness chains
    the NoWitnessError as its cause.
    """
    if not 2 <= n <= MAX_DIM:
        raise DimensionError(f"n must be 2..{MAX_DIM}, got {n}")
    m = n - 1
    # the integer-lattice census is radius-free, so both tubes share it
    packing = ball_square_packing(m, 1.0, depth)
    if not packing.depth_counts:
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

    p, q, eps = _p_q_eps(n)

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
    squares = packing.n_squares
    step(
        "subdivide_tubes",
        True,  # an empty census was refused above
        {
            "depth": depth,
            "radius_first": r1,
            "radius_second": r2,
            "axis_first": tube1.axis,
            "axis_second": tube2.axis,
        },
        {"squares_first": squares, "squares_second": squares},
    )

    # 2: partial sums against the exact tube measures
    frac = packing.covered_fraction
    mu1 = tube_exact_measure(tube1)
    mu2 = tube_exact_measure(tube2)
    sum1 = frac * mu1
    sum2 = frac * mu2
    # rounding is monotone, so a share of at most 1 keeps each sum at most its measure
    step(
        "partial_sums",
        0.0 < frac <= 1.0,
        {"squares_first": squares, "squares_second": squares},
        {
            "tube_measure_first": mu1,
            "packed_sum_first": sum1,
            "deficit_first": 1.0 - frac,
            "tube_measure_second": mu2,
            "packed_sum_second": sum2,
            "deficit_second": 1.0 - frac,
        },
        "the packed share of the ball volume must lie in (0, 1]",
    )

    # 3, 4: pigeonhole selection on synthetic mass shares
    select_inputs = {"eps": float(eps), "synthetic": True}
    selected = []
    for name, tube, key in (
        ("select_square_tube", tube1, 1),
        ("select_square_tube_complement", tube2, 2),
    ):
        try:
            square, outputs = _select_square_tube(tube, packing, select_inputs["eps"], seed, key)
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
    ball1 = Ball(center=square1.anchors[0], radius=delta_f)
    ball2 = None
    # v the second anchor less the first centre, u the unit axis: the k of
    # v . u's sign gives |v + 4 delta k u|^2 >= 16 delta^2, 4 times the need
    for k in (0, 1, -1):
        cand = Ball(center=square2.anchors[0] + k * 4.0 * delta_f * tube2.axis, radius=delta_f)
        separation = float(np.linalg.norm(cand.center - ball1.center))
        if _apart(ball1, cand):
            ball2 = cand
            break
    step(
        "place_balls",
        ball2 is not None,
        {"radius": delta},
        {
            "center_first": ball1.center,
            "center_second": None if ball2 is None else ball2.center,
            "separation_over_diameter": separation / (2.0 * delta_f),
        },
        "tubes too entangled to separate the balls at the default spacing",
    )

    # 7: parameters for the chosen delta (cuboids below need eta = 2 delta p)
    params = choose_parameters(n, delta)
    step(
        "choose_parameters",
        q > Fraction(1, 2),
        {"n": n, "delta": delta},
        {"p": params.p, "eps": params.eps, "eta": params.eta, "root": float(q)},
        "the root q = sqrt(1 - (n-1) p^2) must exceed 1/2",
    )

    # 8: aligned inscribed cuboids inside one enclosing square tube
    pair = align_cuboids(ball1, ball2, params.eta)
    verts = np.vstack([pair.first.vertices, pair.second.vertices])
    contained = bool(np.all(pair.enclosing.contains(verts)))
    diam = float(np.linalg.norm(2.0 * pair.first.half_lengths))
    # the cross width eta = 2 delta p and the long edge 2 delta q span the ball's diameter
    spans = m * (2 * delta * p) ** 2 + (2 * delta * q) ** 2 == (2 * delta) ** 2
    step(
        "build_cuboids",
        contained and spans,
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
