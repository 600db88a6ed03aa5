"""Boundary sets: analytic descriptors plus quadrature sample clouds.

A boundary set E is represented doubly: an analytic descriptor (used for
exact or near-exact distance queries) and a finite sample cloud with
per-sample quadrature weights (used for every surface integral).  All
surface measures are weight sums; the weight of a sample is the local
arclength/area element times the sample spacing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Window:
    """Axis-aligned box in the plane; `lo`/`hi` are (x, y) bounds."""

    lo: tuple[float, float]
    hi: tuple[float, float]

    def __post_init__(self):
        if len(self.lo) != 2 or len(self.hi) != 2:
            raise ValueError(
                f"window lo={list(self.lo)} hi={list(self.hi)} is not 2-D; "
                "only planar windows are supported"
            )

    @property
    def span(self) -> float:
        return max(h - l for l, h in zip(self.lo, self.hi))

    @staticmethod
    def from_json(obj) -> "Window":
        return Window(tuple(obj["lo"]), tuple(obj["hi"]))


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


class Descriptor:
    """Analytic boundary description. Subclasses fill in sampling/distance."""

    lipschitz = 0.0

    def sample(self, window: Window, resolution: float):
        raise NotImplementedError

    def graph_value(self, x):
        """Height of the graph over parameter x; None if not graph-like."""
        return None

    def polyline(self, window: Window, step: float):
        """Dense polyline of the graph over the window's x-range, None if E
        is not graph-like."""
        if self.graph_value(0.0) is None:
            return None
        lo, hi = window.lo[0], window.hi[0]
        n = max(2, int(np.ceil((hi - lo) / step)) + 1)
        xs = np.linspace(lo, hi, n)
        return np.column_stack([xs, self.graph_value(xs)])

    def diameter(self, window: Window) -> float:
        return float("inf")


@dataclass(frozen=True)
class Hyperplane(Descriptor):
    """The x-axis {y = 0} of the plane."""

    lipschitz = 0.0

    def graph_value(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def sample(self, window: Window, resolution: float):
        lo, hi = window.lo[0], window.hi[0]
        n = int(round((hi - lo) / resolution)) + 1
        xs = np.linspace(lo, hi, n)
        pts = np.column_stack([xs, np.zeros_like(xs)])
        w = np.full(n, resolution)
        return pts, w, xs


_PROFILES = {
    "linear": (lambda x, s: s * x, lambda s: abs(s)),
    "abs": (lambda x, s: s * np.abs(x), lambda s: abs(s)),
    "sin": (lambda x, s: s * np.sin(x), lambda s: abs(s)),
}


@dataclass(frozen=True)
class LipschitzGraph(Descriptor):
    """Graph {(x, g(x))} for a named slope profile with constant `slope`."""

    profile: str
    slope: float

    def __post_init__(self):
        if self.profile not in _PROFILES:
            raise ValueError(f"unknown graph profile {self.profile!r}")

    @property
    def lipschitz(self) -> float:
        return _PROFILES[self.profile][1](self.slope)

    def graph_value(self, x):
        return _PROFILES[self.profile][0](np.asarray(x, dtype=float), self.slope)

    def sample(self, window: Window, resolution: float):
        lo, hi = window.lo[0], window.hi[0]
        n = int(round((hi - lo) / resolution)) + 1
        xs = np.linspace(lo, hi, n)
        pts = np.column_stack([xs, self.graph_value(xs)])
        seg = paired_distances(pts[1:], pts[:-1])  # secant lengths
        h = (hi - lo) / (n - 1)
        s = np.empty(n)
        s[1:-1] = (seg[:-1] + seg[1:]) / (2 * h)
        s[0] = seg[0] / h
        s[-1] = seg[-1] / h
        return pts, h * s, xs


@dataclass(frozen=True)
class Segment(Descriptor):
    """Bounded piece [a,b] of the x-axis: the bounded graph-like catalog item."""

    a: float
    b: float

    lipschitz = 0.0

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"segment needs a < b, got a={self.a!r}, b={self.b!r}")

    def graph_value(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def sample(self, window: Window, resolution: float):
        # midpoint sampling: each sample owns [x - h/2, x + h/2] inside
        # [a,b], so the weights sum to the exact length
        lo = max(self.a, window.lo[0])
        hi = min(self.b, window.hi[0])
        n = max(0, int(round((hi - lo) / resolution)))
        xs = lo + (np.arange(n) + 0.5) * resolution
        pts = np.column_stack([xs, np.zeros_like(xs)])
        return pts, np.full(n, resolution), xs

    def polyline(self, window: Window, step: float):
        """The whole segment's polyline, over [a, b]."""
        return super().polyline(Window((self.a, window.lo[1]), (self.b, window.hi[1])), step)

    def diameter(self, window: Window) -> float:
        return float(self.b - self.a)


@dataclass(frozen=True)
class CantorSet(Descriptor):
    """Four-corner Cantor construction at a finite level on the unit square.

    Level k keeps 4^k squares of side 4^{-k}; the sample cloud is the
    lower-left corner of each square, total weight 1 split self-similarly.
    """

    level: int

    def corners(self) -> np.ndarray:
        pts = np.zeros((1, 2))
        offsets = np.array([[0.0, 0.0], [0.75, 0.0], [0.0, 0.75], [0.75, 0.75]])
        for _ in range(self.level):
            pts = (pts[:, None, :] / 4.0 + offsets[None, :, :]).reshape(-1, 2)
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        return pts[order]

    def sample(self, window: Window, resolution: float):
        pts = self.corners()
        w = np.full(len(pts), 1.0 / len(pts))
        return pts, w, None

    def diameter(self, window: Window) -> float:
        return float(np.sqrt(2.0))


@dataclass(frozen=True)
class PointList(Descriptor):
    """Explicit sample cloud with quadrature weights; no analytic surface."""

    points: tuple
    weights: tuple

    def sample(self, window: Window, resolution: float):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        return pts, w, None

    def diameter(self, window: Window) -> float:
        pts = np.asarray(self.points, dtype=float)
        blocks = row_blocks(len(pts), len(pts))
        return max((float(pair_distances(pts[r], pts).max()) for r in blocks), default=0.0)


def descriptor_from_json(obj) -> Descriptor:
    t = obj["type"]
    p = obj.get("params", {})
    if t == "hyperplane":
        return Hyperplane()
    if t == "lipschitz_graph":
        return LipschitzGraph(profile=p["profile"], slope=p["slope"])
    if t == "segment":
        return Segment(a=p["a"], b=p["b"])
    if t == "cantor_set":
        return CantorSet(level=p["level"])
    if t == "point_list":
        return PointList(
            points=tuple(tuple(q) for q in p["points"]),
            weights=tuple(p["weights"]),
        )
    raise ValueError(f"unknown boundary descriptor type {t!r}")


# ---------------------------------------------------------------------------
# boundary set
# ---------------------------------------------------------------------------


@dataclass
class BoundarySet:
    """Discretized boundary: sample cloud + weights + analytic descriptor."""

    descriptor: Descriptor
    window: Window
    resolution: float
    points: np.ndarray
    weights: np.ndarray
    params: np.ndarray | None
    _polyline: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        return len(self.points)

    @property
    def diameter(self) -> float:
        return self.descriptor.diameter(self.window)

    @property
    def bounded(self) -> bool:
        return np.isfinite(self.diameter)

    def polyline(self) -> np.ndarray | None:
        if self._polyline is None:
            pl = self.descriptor.polyline(self.window, self.resolution / 4.0)
            object.__setattr__(self, "_polyline", pl)
        return self._polyline


def build_boundary(
    descriptor: Descriptor,
    resolution: float,
    window: Window,
    lip_budget: float = 0.5,
) -> BoundarySet:
    """Sample a descriptor into a BoundarySet.

    Graph descriptors with Lipschitz constant >= `lip_budget` are rejected:
    the trivial corona provider downstream would be invalid for them.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if descriptor.lipschitz >= lip_budget:
        raise ValueError(
            f"Lipschitz constant {descriptor.lipschitz} exceeds budget {lip_budget}"
        )
    pts, w, params = descriptor.sample(window, resolution)
    if len(pts) == 0:
        raise ValueError(
            f"{type(descriptor).__name__} boundary has no samples in the window "
            f"lo={list(window.lo)} hi={list(window.hi)}"
        )
    if np.any(w <= 0):
        raise ValueError("quadrature weights must be positive")
    return BoundarySet(
        descriptor=descriptor,
        window=window,
        resolution=resolution,
        points=np.asarray(pts, dtype=float),
        weights=np.asarray(w, dtype=float),
        params=params if params is None else np.asarray(params, dtype=float),
    )


# ---------------------------------------------------------------------------
# distance queries
# ---------------------------------------------------------------------------


# elements per temporary of every chunked array pass: (center, point) pairs
# in `ball_sums` and `balls`, (box, target) pairs in `nearest`, (sample,
# centre) pairs in `dyadic._net_forest`, (box, grid point) pairs in
# `FunctionalSuite.owners` (the fat-grid pass) and
# `FunctionalSuite.grad_integrals`, owner entries of whole boxes in
# `FunctionalSuite.anc_scatter`, neighbour entries of whole cubes in
# `whitney._component_labels`, and members of whole components in the
# region signs and X boxes of `whitney.build_regions`
CHUNK = 1 << 16


def row_blocks(n_rows: int, n_cols: int) -> list:
    """Slices of consecutive rows holding at most CHUNK (row, column) pairs."""
    step = max(1, CHUNK // max(1, n_cols))
    return [slice(r, min(r + step, n_rows)) for r in range(0, n_rows, step)]


def ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The runs start[i], ..., start[i] + count[i] - 1, one after another."""
    return np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())


def csr_rows(indptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Entry positions of the CSR rows `ids`, row after row."""
    start = indptr[ids]
    return ranges(start, indptr[ids + 1] - start)


def distinct(a, return_index: bool = False, return_inverse: bool = False):
    """np.unique of a 1-D array by one sort and a diff: the distinct values
    ascending and, if asked, the index of each one's first occurrence and
    each entry's position among them.  Not np.unique, whose first call
    (numpy 2.4) imports numpy.ma: 10-30 ms and about 1 MB."""
    a = np.asarray(a).ravel()
    order = np.argsort(a, kind="stable" if return_index else None)
    s = a[order]
    head = np.ones(len(s), dtype=bool)
    head[1:] = s[1:] != s[:-1]
    out = [s[head]]
    if return_index:
        out.append(order[head])
    if return_inverse:
        inverse = np.empty(len(a), dtype=np.intp)
        inverse[order] = np.cumsum(head) - 1
        out.append(inverse)
    return out[0] if len(out) == 1 else tuple(out)


def row_spans(count: np.ndarray) -> list:
    """(lo, hi) spans of consecutive rows with `count` entries each, holding
    at most CHUNK entries together (or one row, if it alone has more)."""
    ends = np.cumsum(count)
    out, lo = [], 0
    while lo < len(count):
        hi = int(np.searchsorted(ends, ends[lo] - count[lo] + CHUNK, side="right"))
        out.append((lo, max(hi, lo + 1)))
        lo = out[-1][1]
    return out


def pair_distances(P: np.ndarray, Q: np.ndarray, out=None) -> np.ndarray:
    """|Q_j - P_i| as a (len(P), len(Q)) block, written into out[0] (with
    out[1] as scratch) if a (2, len(P), len(Q)) buffer is given.

    Row i is bit-identical to ``np.linalg.norm(Q - P[i], axis=1)``, which
    also squares each coordinate difference and adds the two squares.
    """
    d, dy = np.empty((2, len(P), len(Q))) if out is None else out
    np.subtract(Q[None, :, 0], P[:, None, 0], out=d)
    np.subtract(Q[None, :, 1], P[:, None, 1], out=dy)
    d *= d
    dy *= dy
    d += dy
    return np.sqrt(d, out=d)


def ball_sums(centers: np.ndarray, points: np.ndarray, radii: np.ndarray, weights: np.ndarray):
    """Weight sums over the balls B(centers[i], r_j), radii ascending, per
    block of centers: yields ``(rows, cell, sums)`` with

    * `rows`, the slice of centers in the block;
    * ``cell[i, c]``, the bin of the pair (i, c): i * (m + 1) for the m radii
      plus the index of the first radius above d = |points[c] - centers[i]|
      (`pair_distances`);
    * ``sums[h, i, j]``, per row h of the (k, len(points)) `weights` stack,
      the weight sum over the points with d < r_j.

    A block holds at most CHUNK (center, point) pairs (`row_blocks`), and
    its bins serve all k weight rows.  Each row's weights are binned adding
    in point order, and the bins add in radius order: O(pairs), no sort.  A
    zero weight adds +0.0 to its bin, so each row of a stack gets the bits
    of that row alone.

    The block arrays are views of buffers allocated once per call and
    refilled block after block, so no block array outlives its block or
    depends on how the caller holds one: read a block before taking the
    next.
    """
    n, m = len(points), len(radii)
    blocks = row_blocks(len(centers), n)
    top = blocks[0].stop if blocks else 0
    dist = np.empty((2, top, n))
    cells = np.empty((top, n), dtype=np.intp)
    sums = np.empty((len(weights), top, m))
    for rows in blocks:
        k = rows.stop - rows.start
        d = pair_distances(centers[rows], points, dist[:, :k])
        cell = np.add(
            np.searchsorted(radii, d, side="right"),
            np.arange(0, k * (m + 1), m + 1)[:, None],
            out=cells[:k],
        )
        # the distances are binned: their scratch plane takes each weight row
        row_w = dist[1, :k]
        for h, w in enumerate(weights):
            np.copyto(row_w, w)
            binned = np.bincount(cell.ravel(), weights=row_w.ravel(), minlength=k * (m + 1))
            np.cumsum(binned.reshape(k, m + 1)[:, :m], axis=1, out=sums[h, :k])
        yield rows, cell, sums[:, :k]


# relative widening of the half-width of every x-window below: a target
# exactly at the bound must stay in the window through the rounding of the
# half-width and edges
_WINDOW_SLACK = 1e-9


def paired_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_i - b_i| row by row (either may be one broadcast row): the bits of
    ``np.linalg.norm(a - b, axis=1)`` (see `pair_distances`) without its
    (n, 2) temporaries.  The package's one row-norm kernel."""
    d = a[:, 0] - b[:, 0]
    dy = a[:, 1] - b[:, 1]
    d *= d
    dy *= dy
    d += dy
    return np.sqrt(d, out=d)


def _window_blocks(start: np.ndarray, count: np.ndarray):
    """Blocks of consecutive windows T[start[i]:start[i] + count[i]] holding
    at most CHUNK (row, target) pairs together (`row_spans`): per block its
    rows i:j, the row and target position of each pair, and each row's
    first pair."""
    for i, j in row_spans(count):
        c = count[i:j]
        yield i, j, np.repeat(np.arange(i, j), c), ranges(start[i:j], c), np.cumsum(c) - c


def nearest(los: np.ndarray, his: np.ndarray, targets: np.ndarray, r=None, skip=None):
    """Per box [los[i], his[i]] (a point P is the box [P, P]), the least
    clip-and-norm distance |t - clip(t, los[i], his[i])| to the targets
    t = targets[j] that `skip(i, j)` does not mark, and the index j of the
    first such target in x order at that distance: (dist, idx), with inf
    and -1 where no target is left.

    Exact: the targets are sorted by x here, and box i scans those within
    r_i of its x-range (widened by the slack).  A target within r_i of the
    box lies at least the box's y-gap to the targets' y-range away in y,
    so the window's reach is narrowed to sqrt(r_i^2 - gap^2), with r_i
    widened by the slack before gap^2 is taken, so the cancellation of a
    target exactly at r_i cannot drop it.  If the least distance found is
    at most r_i, any target left out is farther, so it cannot be nearer;
    otherwise r_i doubles and the box is scanned again, until the window
    holds every target.  r defaults to the distance of the nearer of the
    two targets beside the box's lower x, which a window of that reach
    holds.  Each pair distance is the same arithmetic as a full scan's,
    and a min does not depend on scan order, so the result is
    bit-identical to the all-pairs min.
    """
    # rows are gathered by np.take: for a 2-D array it is several times
    # faster than fancy indexing (numpy 2.4), with the same values
    order = np.argsort(targets[:, 0], kind="stable")
    T = np.take(targets, order, axis=0)
    xs, n = T[:, 0].copy(), len(T)
    gap = np.maximum(np.maximum(T[:, 1].min() - his[:, 1], los[:, 1] - T[:, 1].max()), 0.0)
    if r is None:
        k = np.searchsorted(xs, los[:, 0])
        r = np.inf
        for t in np.take(T, [np.maximum(k - 1, 0), np.minimum(k, n - 1)], axis=0):
            r = np.minimum(r, paired_distances(t, np.minimum(np.maximum(t, los), his)))
    r = np.broadcast_to(np.asarray(r, dtype=float), (len(los),))
    dist, pos = np.full(len(los), np.inf), np.zeros(len(los), dtype=np.intp)
    todo, lo, hi = np.arange(len(los)), los, his
    while len(todo):
        reach = r + _WINDOW_SLACK * (r + np.abs(lo[:, 0]) + np.abs(hi[:, 0]))
        reach = np.sqrt(np.maximum(reach * reach - gap * gap, 0.0))
        start = np.searchsorted(xs, lo[:, 0] - reach, side="left")
        stop = np.searchsorted(xs, hi[:, 0] + reach, side="right")
        count = stop - start
        best, first = np.full(len(todo), np.inf), np.zeros(len(todo), dtype=np.intp)
        for i, j, row, at, offsets in _window_blocks(start, count):
            t, c = np.take(T, at, axis=0), np.take(lo, row, axis=0)
            # the clip to the box as a maximum and a minimum, in place:
            # np.clip's values at about half its cost
            np.maximum(t, c, out=c)
            d = paired_distances(t, np.minimum(c, np.take(hi, row, axis=0), out=c))
            # free the pair blocks before the next ones are gathered
            del t, c
            if skip is not None:
                d[skip(todo[row], order[at])] = np.inf
            live = count[i:j] > 0
            best[i:j][live] = np.minimum.reduceat(d, offsets[live])
            # the first position of each window at its row's minimum
            hit = np.flatnonzero(d == np.take(best, row))
            head = hit[np.flatnonzero(np.diff(row[hit], prepend=-1))]
            first[row[head]] = at[head]
        done = (best <= r) | ((start == 0) & (stop == n))
        dist[todo[done]], pos[todo[done]] = best[done], first[done]
        todo, lo, hi, gap, r = todo[~done], lo[~done], hi[~done], gap[~done], r[~done]
        r = np.where(r > 0, 2 * r, np.inf)
    return dist, np.where(dist < np.inf, order[pos], -1)


def balls(points: np.ndarray, centers: np.ndarray, r: np.ndarray):
    """The closed balls B(centers[i], r[i]) over `points`, as a CSR: ball i
    holds the points ids[ptr[i]:ptr[i + 1]], ascending, at distances
    d[ptr[i]:ptr[i + 1]].

    The points are sorted by x here, and only each center's x-window of
    half-width r[i] (widened by the slack) is scanned: a point outside it
    is more than r[i] away in x alone.  Each distance is the same
    arithmetic as a full scan's row, so every ball is the full row
    filtered by d <= r[i], in index order.
    """
    order = np.argsort(points[:, 0], kind="stable")
    T = np.take(points, order, axis=0)
    reach = r + _WINDOW_SLACK * (r + np.abs(centers[:, 0]))
    start = np.searchsorted(T[:, 0], centers[:, 0] - reach, side="left")
    stop = np.searchsorted(T[:, 0], centers[:, 0] + reach, side="right")
    ids, d, rows = [np.zeros(0, dtype=np.intp)], [np.zeros(0)], [np.zeros(0, dtype=np.intp)]
    for _, _, row, idx, _ in _window_blocks(start, stop - start):
        dist = paired_distances(np.take(T, idx, axis=0), np.take(centers, row, axis=0))
        keep = np.flatnonzero(dist <= r[row])
        ids.append(order[idx[keep]])
        d.append(dist[keep])
        rows.append(row[keep])
    ids, d, rows = np.concatenate(ids), np.concatenate(d), np.concatenate(rows)
    s = np.lexsort((ids, rows))
    ptr = np.zeros(len(centers) + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=len(centers)), out=ptr[1:])
    return ptr, ids[s], d[s]


def box_distance_many(
    los: np.ndarray, his: np.ndarray, E: BoundarySet, bound=None
) -> tuple[np.ndarray, np.ndarray]:
    """Distances from stacked boxes [los[i], his[i]] (m, 2) to E, and for
    each box a nearest point of E, (m, 2).

    Flat E, [a, b] x {0} (a, b = -inf, inf for the line), is closed-form and
    exact: sqrt(dx^2 + dy^2) with dx = max(a - hi_x, lo_x - b, 0), dy =
    max(lo_y, -hi_y, 0), and (clip(lo_x, a, b), 0) nearest.  A scan of the
    segment's polyline vertices gives the same bits on boxes aligned to its
    step with sides a multiple of it (every Whitney box of a shipped config),
    and overestimates the distance of a box that falls between two vertices.

    Otherwise the targets are the polyline vertices or cloud points, and
    the distance and nearest target are those of `nearest`, whose search
    starts from `bound`, if given: for each box an upper bound on its
    distance.
    """
    desc = E.descriptor
    if isinstance(desc, (Hyperplane, Segment)):
        a, b = (desc.a, desc.b) if isinstance(desc, Segment) else (-np.inf, np.inf)
        dx = np.maximum(np.maximum(a - his[:, 0], los[:, 0] - b), 0.0)
        dy = np.maximum(np.maximum(los[:, 1], -his[:, 1]), 0.0)
        near = np.column_stack([np.clip(los[:, 0], a, b), np.zeros(len(los))])
        return np.sqrt(dx * dx + dy * dy), near
    targets = E.polyline()
    if targets is None:
        targets = E.points
    d, idx = nearest(los, his, targets, bound)
    return d, targets[idx]


# ---------------------------------------------------------------------------
# surface measure and ADR certification
# ---------------------------------------------------------------------------


# the ADR sweep: about this many strided centers, each with this many
# log-spaced radii
_ADR_CENTERS = 32
_ADR_RADII = 12


@dataclass
class ADRReport:
    tested_radii: list
    ratios: list
    lower_constant: float
    upper_constant: float
    budget: float
    passed: bool

    def to_json(self):
        return {
            "lower_constant": self.lower_constant,
            "upper_constant": self.upper_constant,
            "budget": self.budget,
            "pass": self.passed,
            "n_pairs": sum(len(r) for r in self.tested_radii),
        }


def check_adr(E: BoundarySet, budget: float) -> ADRReport:
    """Sweep sigma-hat(B(x,r))/r over a log-spaced radius grid from
    8 * resolution to half the diameter (bounded E) or half the window span.

    Pairs whose ball leaves the sampled window are skipped (the mass there is
    truncated, not small).  pass <=> 1/budget - q <= ratio <= budget + q for
    all pairs, where q = 2*resolution/r is the quadrature error of the
    weight sum against the continuum surface measure (the ball boundary cuts
    at most two sample-owned segments per sheet).

    sigma-hat(B(x,r)) is the weight sum of the samples with |sample - x| < r,
    every radius's sum read off one `ball_sums` row per center.
    """
    if budget < 1:
        raise ValueError("ADR budget must be >= 1")
    stride = max(1, E.n_samples // _ADR_CENTERS)
    centers = E.points[::stride]
    r_min = 8 * E.resolution
    r_max = (E.diameter if E.bounded else E.window.span) / 2.0
    if r_min >= r_max:
        raise ValueError(
            f"empty ADR radius range: 8 * resolution = {r_min!r} is not below "
            f"r_max = {r_max!r}; refine the resolution"
        )
    lo = np.asarray(E.window.lo)
    hi = np.asarray(E.window.hi)
    grid = np.geomspace(r_min, r_max, _ADR_RADII)
    if E.bounded:
        edge = np.full(len(centers), r_max)
    else:
        edge = np.minimum(np.min(centers - lo, axis=1), np.min(hi - centers, axis=1))
    mass = np.empty((len(centers), len(grid)))
    for rows, _, sums in ball_sums(centers, E.points, grid, E.weights[None]):
        mass[rows] = sums[0]
    # per center the radii up to its edge
    tested = grid <= edge[:, None]
    if (tested & (mass == 0)).any():
        warnings.warn("surface ball with zero mass skipped", stacklevel=2)
    tested &= mass > 0
    if not tested.any():
        raise ValueError("no admissible (center, radius) pairs inside the window")
    ratio = mass / grid
    q = 2 * E.resolution / grid
    passed = bool(((1.0 / budget - q <= ratio) & (ratio <= budget + q))[tested].all())
    return ADRReport(
        tested_radii=[grid[t].tolist() for t in tested],
        ratios=[r[t].tolist() for r, t in zip(ratio, tested)],
        lower_constant=float(ratio[tested].min()),
        upper_constant=float(ratio[tested].max()),
        budget=budget,
        passed=passed,
    )
