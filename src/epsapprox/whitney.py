"""Whitney decomposition, Whitney regions, corona provider, Carleson boxes.

Boxes live on an integer lattice (unit = the finest box side, offsets from
the window corner), so facet areas, volumes and cell bookkeeping downstream
are exact dyadic arithmetic.  Fattened copies (1+tau)I, (1+2tau)I, (1+3tau)I
are used only for connectivity and for sup/quadrature grids; the partition
and all total-variation accounting run on the disjoint core boxes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .carleson import packing_constant
from .config import RegionParams, RunConfig
from .dyadic import CubeSystem
from .geometry import (
    BoundarySet,
    Window,
    balls,
    box_distance_many,
    csr_rows,
    descriptor_from_json,
    distinct,
    nearest,
    paired_distances,
    ranges,
    row_spans,
)

# packing bound of the corona's bad cubes and regime tops: checked when the
# corona is built and again in verification, after demotions re-cohere it
CORONA_PACKING_BUDGET = 16.0


@dataclass
class WhitneyComplex:
    """Accepted boxes as arrays indexed by box id, in (size, lo) order, so
    each size group is a contiguous id range."""

    E: BoundarySet
    window: Window
    unit: float
    base: np.ndarray
    ij: np.ndarray  # (n, 2) int64 lattice corners, units of `unit` from base
    size: np.ndarray  # (n,) int64 sides in units; powers of two
    dist: np.ndarray  # (n,) dist(I, E)
    lo: np.ndarray  # (n, 2) float corners, base + unit * ij
    hi: np.ndarray  # (n, 2) float corners, lo + unit * size
    # neighbour CSR: the boxes in closed-box contact with box b, ascending,
    # are nbr[nbr_ptr[b]:nbr_ptr[b + 1]]
    nbr_ptr: np.ndarray  # (n + 1,) int64
    nbr: np.ndarray  # int32
    # facet table sorted by (a, b): rows (a, b, axis) with a.hi == b.lo on
    # the axis and a positive overlap, whose length is the facet's area
    facets: np.ndarray  # (m, 3) int32
    facet_area: np.ndarray  # (m,) float

    def __getstate__(self):
        # the float corners follow from the lattice, so a pickle (the cached
        # `regions` stage) leaves them out and loading recomputes them
        return {k: v for k, v in self.__dict__.items() if k not in ("lo", "hi")}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.lo, self.hi = _corners(self.base, self.unit, self.ij, self.size)

    @property
    def n_boxes(self) -> int:
        return len(self.size)

    def size_groups(self) -> dict:
        """Box size -> its ids (a contiguous range), ascending."""
        sizes, starts = distinct(self.size, return_index=True)
        stops = [*starts[1:].tolist(), self.n_boxes]
        return {
            s: np.arange(a, b) for s, a, b in zip(sizes.tolist(), starts.tolist(), stops)
        }


def whitney_decompose(
    E: BoundarySet, window: Window, min_side: float
) -> WhitneyComplex:
    """Dyadic Whitney boxes of window \\ E: accept I iff dist(I,E) >= diam(I).

    The parent-rejection structure then gives dist <= 4 diam for every
    accepted box.  Boxes finer than min_side are dropped (a thin collar near
    E below the working resolution); boxes must meet the open window.

    The quadtree is walked one level at a time: the live candidates of one
    size are integer-lattice arrays, measured by one `box_distance_many`
    call and accepted or split together.  A child is no farther from E than
    from its parent's nearest target, and that clip-and-norm distance
    bounds the part of E the call scans.
    """
    span = max(h - l for l, h in zip(window.lo, window.hi))
    n_units = 2 ** int(np.ceil(np.log2(span / min_side)))
    unit = min_side
    # anchor the lattice to the global dyadic grid so boxes align across
    # root cells and the hyperplane {y=0} is a box boundary at every scale
    cell = unit * n_units
    base = cell * np.floor(np.asarray(window.lo, dtype=float) / cell)
    sq2 = np.sqrt(2.0)

    levels = []  # (lattice corners, size, dist) of the accepted boxes per level
    size = n_units
    lo = n_units * _CORNERS
    # the parent's nearest target per candidate; none above the roots
    near = np.full(lo.shape, np.inf)
    while True:
        glo = base + unit * lo.astype(float)
        ghi = glo + unit * size
        live = ~(np.any(glo >= window.hi, axis=1) | np.any(ghi <= window.lo, axis=1))
        if not live.any():
            break
        lo, glo, ghi, near = lo[live], glo[live], ghi[live], near[live]
        bound = paired_distances(near, np.clip(near, glo, ghi))
        d, near = box_distance_many(glo, ghi, E, bound)
        diam = sq2 * unit * size
        ok = d >= diam
        levels.append((lo[ok], np.full(int(ok.sum()), size, dtype=np.int64), d[ok]))
        if size == 1:
            break
        half = size // 2
        lo = (lo[~ok][:, None, :] + half * _CORNERS[None]).reshape(-1, 2)
        near = np.repeat(near[~ok], len(_CORNERS), axis=0)
        size = half

    ij, sizes, dist = (np.concatenate(a) for a in zip(*levels))
    order = np.lexsort((ij[:, 1], ij[:, 0], sizes))
    ij, sizes, dist = ij[order], sizes[order], dist[order]
    nbr_ptr, nbr, facets, facet_area = _adjacency(ij, sizes, unit)
    blo, bhi = _corners(base, unit, ij, sizes)
    return WhitneyComplex(
        E=E,
        window=window,
        unit=unit,
        base=base,
        ij=ij,
        size=sizes,
        dist=dist,
        lo=blo,
        hi=bhi,
        nbr_ptr=nbr_ptr,
        nbr=nbr,
        facets=facets,
        facet_area=facet_area,
    )


def _corners(base, unit, ij, size):
    """Float (lo, hi) corners of lattice boxes."""
    lo = base + unit * ij.astype(float)
    return lo, lo + unit * size[:, None].astype(float)


# lattice offsets of the four children of a dyadic square, in units of
# the child side
_CORNERS = np.array(((0, 0), (1, 0), (0, 1), (1, 1)), dtype=np.int64)


def _adjacency(ij, size, unit):
    """Face sweep: closed-box contacts (corner touches included) and the
    positive-area facets among them.

    Two boxes touch iff, on one axis, the upper face of one lies in the
    plane of the lower face of the other and their intervals across it
    meet.  The boxes touching a plane from one side have disjoint
    interiors, so sorted by (plane, start) their ends ascend too, and two
    searches per box find the boxes meeting its upper faces.
    """
    n = len(size)
    # lattice coordinates lie in [0, span), so plane * span + coordinate
    # orders faces by plane, then along it
    span = int((ij + size[:, None]).max(initial=0)) + 1
    ids = np.arange(n)
    links, facets, areas = [], [], []
    for axis in (0, 1):
        start = ij[:, 1 - axis]
        end = start + size
        # boxes by (lower plane, start), against every box's upper plane
        above = np.lexsort((start, ij[:, axis]))
        base = ij[above, axis] * span
        top = (ij[:, axis] + size) * span
        first = np.searchsorted(base + end[above], top + start)
        count = np.maximum(np.searchsorted(base + start[above], top + end, side="right") - first, 0)
        a = np.repeat(ids, count)
        b = above[ranges(first, count)]
        overlap = np.minimum(end[a], end[b]) - np.maximum(start[a], start[b])
        face = overlap > 0
        links += [a * n + b, b * n + a]
        facets.append(np.column_stack([a, b, np.full(len(a), axis)])[face])
        areas.append(overlap[face] * unit)
    # a corner touch across both axes is found twice
    link = np.sort(np.concatenate(links))
    link = link[np.diff(link, prepend=-1) != 0]
    facets, areas = np.concatenate(facets), np.concatenate(areas)
    order = np.lexsort((facets[:, 1], facets[:, 0]))
    ptr = np.searchsorted(link // n, np.arange(n + 1))
    return ptr, (link % n).astype(np.int32), facets[order].astype(np.int32), areas[order]


# ---------------------------------------------------------------------------
# corona decomposition
# ---------------------------------------------------------------------------


@dataclass
class CoronaDecomposition:
    """Good cubes in coherent regimes, as arrays indexed by cube id.

    regime[q] is cube q's regime, -1 for a bad cube or a cube off the
    relevant tree.  Regime i has the maximal cube top[i] and the graph
    descriptor graph[i]; the tops ascend, except in an annotated corona,
    whose regimes keep the file's order.
    """

    regime: np.ndarray  # (n_cubes,) int32
    top: np.ndarray  # (n_regimes,) int64
    graph: list
    eta: float
    K: float
    demoted: np.ndarray  # (n_cubes,) bool: good cubes `build_regions` made bad
    packing_measured: float = 0.0
    property3_sup: float = 0.0

    def bad(self, S: CubeSystem) -> np.ndarray:
        """Per cube: True at a bad cube of the relevant tree."""
        return S.relevant & (self.regime < 0)

    def to_json(self, S: CubeSystem):
        return {
            "eta": self.eta,
            "K": self.K,
            "n_regimes": len(self.top),
            "n_bad": int(self.bad(S).sum()),
            "n_demoted": int(self.demoted.sum()),
            "packing_measured": self.packing_measured,
            "property3_sup": self.property3_sup,
        }


def corona_provider(
    E: BoundarySet,
    S: CubeSystem,
    mode: str = "trivial_graph",
    eta: float = RunConfig.eta,
    K: float = RunConfig.K,
    path=None,
) -> CoronaDecomposition:
    """Good/bad cube partition into coherent regimes with Lipschitz graphs.

    trivial_graph: E itself is the graph of every regime; all cubes good;
    `property3_sup` is read on a stride of each regime's cubes.
    annotated: decomposition read from JSON and validated against coherency,
    the packing budget, and the two-sided graph-approximation property,
    whose full sup is `property3_sup`.
    """
    if mode == "trivial_graph":
        lip = E.descriptor.lipschitz
        if E.descriptor.graph_value(0.0) is None:
            raise ValueError("trivial_graph corona requires a graph-like boundary")
        if lip > eta:
            raise ValueError(
                f"graph Lipschitz constant {lip} exceeds corona eta {eta}"
            )
        regime = np.full(S.n_cubes, -1, dtype=np.int32)
        for i, root in enumerate(S.roots):
            regime[S.subtree(root)] = i
        corona = CoronaDecomposition(
            regime=regime,
            top=np.array(S.roots, dtype=np.int64),
            graph=[E.descriptor] * len(S.roots),
            eta=eta,
            K=K,
            demoted=np.zeros(S.n_cubes, dtype=bool),
        )
        corona.property3_sup = _property3_sup(E, S, corona)
    elif mode == "annotated":
        with open(path) as fh:
            spec = json.load(fh)
        corona = _validate_annotated(E, S, spec, eta, K)
    else:
        raise ValueError(f"unknown corona mode {mode!r}")

    corona.packing_measured = _corona_packing(S, corona)
    if corona.packing_measured > CORONA_PACKING_BUDGET:
        raise ValueError(
            f"corona packing {corona.packing_measured:.6g} exceeds budget "
            f"{CORONA_PACKING_BUDGET:g} by {corona.packing_measured - CORONA_PACKING_BUDGET:.3g}"
        )
    return corona


def _corona_packing(S, corona) -> float:
    """Packing constant of the bad cubes and the regime tops."""
    return packing_constant(S, np.concatenate([np.flatnonzero(corona.bad(S)), corona.top]))


def _cube_ids(S, values, what: str) -> np.ndarray:
    """The cube ids of a JSON list; any that is not a relevant cube id is
    rejected by name."""
    ids = [int(q) for q in values]
    for q in ids:
        if not (0 <= q < S.n_cubes and S.relevant[q]):
            raise ValueError(f"{what} {q} is not a relevant cube id")
    return distinct(np.array(ids, dtype=np.int64))


def _validate_annotated(E, S, spec, eta, K) -> CoronaDecomposition:
    n_kids = np.diff(S.child_ptr)
    regime = np.full(S.n_cubes, -1, dtype=np.int32)
    taken = np.zeros(S.n_cubes, dtype=bool)
    taken[_cube_ids(S, spec.get("bad", []), "bad cube")] = True
    tops, graphs = [], []
    for i, r in enumerate(spec["regimes"]):
        ids = _cube_ids(S, r["cubes"], f"regime {i} cube")
        if taken[ids].any():
            raise ValueError(f"regime {i} overlaps earlier cubes")
        taken[ids] = True
        regime[ids] = i
        # the extra last slot is what a root's parent -1 reads
        inside = np.append(regime == i, False)
        maxima = ids[~inside[S.rparent[ids]]]
        if len(maxima) != 1:
            raise ValueError(f"regime {i} is not coherent: maxima {maxima.tolist()}")
        # one maximum puts the parent of every other cube in the regime, so
        # the regime holds every cube between its top and its members;
        # children all-in or all-out (coherence)
        n_in = np.bincount(S.rparent[ids[ids != maxima[0]]], minlength=S.n_cubes)
        split = ids[(n_in[ids] > 0) & (n_in[ids] < n_kids[ids])]
        if len(split):
            ch = S.children(split[0])
            raise ValueError(
                f"regime {i} violates coherency at cube {split[0]}: "
                f"children split {ch[inside[ch]].tolist()} vs {ch.tolist()}"
            )
        tops.append(maxima[0])
        graphs.append(descriptor_from_json(r["graph"]) if "graph" in r else E.descriptor)
    missing = np.flatnonzero(S.relevant & ~taken)
    if len(missing):
        raise ValueError(f"decomposition does not cover relevant cubes: {missing[:5].tolist()}...")
    corona = CoronaDecomposition(
        regime=regime,
        top=np.array(tops, dtype=np.int64),
        graph=graphs,
        eta=eta,
        K=K,
        demoted=np.zeros(S.n_cubes, dtype=bool),
    )
    corona.property3_sup = _property3_sup(E, S, corona, reject=True)
    return corona


def _property3_sup(E, S, corona, reject: bool = False) -> float:
    """sup over regime cubes of the two one-sided graph distances / (eta l(Q)).

    Exhaustive when validating an annotated decomposition (a violation must
    name its cube); for the trivial provider, which is not rejected,
    strided: every max(1, n // 64)-th of a regime's n cubes in id order, so
    all of them when n < 128 and 64 to 96 otherwise.  Its distances do not
    vanish: the graph is sampled at half the resolution, so a graph point
    midway between two samples lies about resolution / 2 from the sample
    cloud, which is eta l(Q) at a finest cube of side 2 * resolution with
    eta = 1/4.

    The samples and graph points within K l(Q) of z_Q are the `balls` of
    radius K l(Q), in index order, since `_sup_dist` strides them; both
    one-sided sups take the exact distances of `nearest`.  So the sup, and
    the first violating cube, are those of full scans.
    """
    worst = 0.0
    for i, graph in enumerate(corona.graph):
        pl = graph.polyline(E.window, E.resolution / 2)
        if pl is None:
            pl = E.points
        cubes = np.flatnonzero(corona.regime == i)
        if not reject:
            cubes = cubes[:: max(1, len(cubes) // 64)]
        side = S.side[cubes]
        r = corona.K * side
        ptr, near, _ = balls(E.points, S.z[cubes], r)
        a = _sup_dist(E.points[near], pl, ptr)
        ptr, on_ball, _ = balls(pl, S.z[cubes], r)
        b = _sup_dist(pl[on_ball], E.points, ptr)
        val = (a + b) / (corona.eta * side)
        worst = max(worst, float(val.max(initial=0.0)))
        bad = np.flatnonzero(val >= 1.0)
        if reject and len(bad):
            k = bad[0]
            raise ValueError(
                f"regime {i} violates the graph-approximation "
                f"property at cube {cubes[k]}: (sup_dist {a[k] + b[k]:.4g}) >= "
                f"eta*l(Q) = {corona.eta * side[k]:.4g}"
            )
    return worst


def _sup_dist(pts: np.ndarray, targets: np.ndarray, ptr):
    """Per row pts[ptr[k]:ptr[k + 1]] of the CSR, the max over about 64 of
    its points, strided on its own, of their distance to the targets (0.0
    for an empty row), with one `nearest` search for all rows."""
    count = np.diff(ptr)
    row = np.repeat(np.arange(len(count)), count)
    at = np.arange(len(pts)) - np.repeat(np.cumsum(count) - count, count)
    pick = np.flatnonzero(at % np.maximum(1, count // 64)[row] == 0)
    p = pts[pick]
    near = nearest(p, p, targets)[0]
    out = np.zeros(len(count))
    live = count > 0
    n_pick = np.bincount(row[pick], minlength=len(count))[live]
    if live.any():
        out[live] = np.maximum.reduceat(near, np.cumsum(n_pick) - n_pick)
    return out


# ---------------------------------------------------------------------------
# Whitney regions
# ---------------------------------------------------------------------------


@dataclass
class RegionComplex:
    """Whitney regions and their components as CSR arrays.

    The member boxes of cube q, ascending, are
    region_box[region_ptr[q]:region_ptr[q + 1]] (an empty row off the
    relevant tree); the cubes whose region holds box b, ascending, are
    owner_cube[owner_ptr[b]:owner_ptr[b + 1]].  Components are numbered in
    (cube, least box) order: cube q's are region_comp_ptr[q] up to
    region_comp_ptr[q + 1], and component c holds the boxes
    comp_box[comp_ptr[c]:comp_ptr[c + 1]], ascending.
    """

    S: CubeSystem
    W: WhitneyComplex
    corona: CoronaDecomposition
    params: RegionParams
    region_ptr: np.ndarray  # (n_cubes + 1,) int64
    region_box: np.ndarray  # int32
    owner_ptr: np.ndarray  # (n_boxes + 1,) int64
    owner_cube: np.ndarray  # int32
    region_comp_ptr: np.ndarray  # (n_cubes + 1,) int64
    comp_ptr: np.ndarray  # (n_comps + 1,) int64
    comp_box: np.ndarray  # int32
    comp_center: np.ndarray  # int32: the largest box, least id first (the X point)
    pm_comp: np.ndarray  # (n_cubes, 2) int32: a good cube's '+' and '-' components, else -1
    stats: dict

    def comps(self, qid: int) -> range:
        """Ids of the components of cube qid's region, in order."""
        return range(self.region_comp_ptr[qid], self.region_comp_ptr[qid + 1])

    def comp(self, c: int) -> np.ndarray:
        """The boxes of component c, ascending."""
        return self.comp_box[self.comp_ptr[c] : self.comp_ptr[c + 1]]

    def signed_comp(self, qid, sign: str):
        """Id of the '+' or '-' component of a good cube's region (of each
        cube, for an id array)."""
        c = self.pm_comp[qid, "+-".index(sign)]
        if np.any(c < 0):
            q = np.atleast_1d(qid)[np.atleast_1d(c) < 0][0]
            raise ValueError(f"cube {q} has no {sign!r} component")
        return c

    def x_point(self, qid, sign: str) -> np.ndarray:
        """X_Q^{sign}: center of the largest box of the signed component
        ((n, 2) for an id array)."""
        bid = self.comp_center[self.signed_comp(qid, sign)]
        return (self.W.lo[bid] + self.W.hi[bid]) / 2.0

    def y_point(self, qid, sign: str) -> np.ndarray:
        """Y_Q^{sign} = X of the parent, or of Q itself at a regime top or
        a root ((n, 2) for an id array)."""
        p = self.S.rparent[qid]
        r = self.corona.regime
        own = (p < 0) | ((r[qid] >= 0) & (r[p] != r[qid]))
        return self.x_point(np.where(own, qid, p), sign)

    def region_max(self, per_box: np.ndarray, empty: float) -> np.ndarray:
        """Per cube: max of a per-box array over its region, else `empty`."""
        out = np.full(self.S.n_cubes, empty)
        live = np.flatnonzero(np.diff(self.region_ptr))
        out[live] = np.maximum.reduceat(per_box[self.region_box], self.region_ptr[live])
        return out

    def carleson_box(self, qid: int) -> np.ndarray:
        """T_Q: member boxes over the relevant descendants of Q, ascending."""
        return self.sawtooth(np.flatnonzero(self.S.subtree(qid)))

    def sawtooth(self, ids) -> np.ndarray:
        """Member boxes over the cubes `ids`, ascending."""
        ids = np.fromiter(ids, dtype=np.int64)
        return _union(self.W.n_boxes, self.region_box[csr_rows(self.region_ptr, ids)])

    def sawtooth_halves(self, ids):
        """(+ half, - half) of a sawtooth over good cubes, ascending."""
        ids = np.fromiter(ids, dtype=np.int64)
        c = self.pm_comp[ids]
        if (c < 0).any():
            raise ValueError(f"cube {ids[(c < 0).any(axis=1)][0]} has no signed region")
        return tuple(
            _union(self.W.n_boxes, self.comp_box[csr_rows(self.comp_ptr, half)]) for half in c.T
        )


def _union(n: int, ids: np.ndarray) -> np.ndarray:
    """The distinct ids in [0, n), ascending."""
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return np.flatnonzero(mask)


def build_regions(
    S: CubeSystem,
    W: WhitneyComplex,
    corona: CoronaDecomposition,
    params: RegionParams,
) -> RegionComplex:
    """Allocate Whitney boxes to cubes and split regions into components.

    Membership rule: I in W_Q iff c_w <= l(I)/l(Q) <= C_w and
    dist(I, bbox(Q)) <= C_d*l(Q).  Components by closed-box contact of the
    members.  Good cubes must split into exactly two components of uniform
    sign against the regime graph; defective ones are demoted to the bad set
    and the regimes are re-cohered.
    """
    n_cubes = S.n_cubes
    cubes, boxes = _memberships(S, W, params)
    # CSR row pointers: rows are ascending ids
    region_ptr = np.searchsorted(cubes, np.arange(n_cubes + 1))
    # the owners of each box: the members in (box, cube) order
    owner_ptr = np.append(0, np.cumsum(np.bincount(boxes, minlength=W.n_boxes)))
    key = boxes.astype(np.int64)
    key *= n_cubes
    key += cubes
    key.sort()
    owner_cube = np.remainder(key, n_cubes, out=key).astype(np.int32)
    del key
    order, starts = _component_labels(W, region_ptr, boxes)
    comp_ptr = np.append(starts, len(boxes))
    comp_box, comp_cube = boxes[order], cubes[order[starts]]
    del order

    # per block of whole components: the X box, the largest box of each
    # component, least id first; and the sign, the side of its cube's
    # regime graph that holds all its box centres (0 for neither, or for a
    # cube without a regime)
    regime = corona.regime[comp_cube]
    comp_center = np.empty(len(starts), dtype=comp_box.dtype)
    sign = np.zeros(len(starts), dtype=np.int8)
    for c0, c1 in row_spans(np.diff(comp_ptr)):
        lo = comp_ptr[c0]
        count = np.diff(comp_ptr[c0 : c1 + 1])
        cut = comp_ptr[c0:c1] - lo
        box = comp_box[lo : comp_ptr[c1]]
        size = W.size[box]
        big = size == np.repeat(np.maximum.reduceat(size, cut), count)
        first = np.minimum.reduceat(np.where(big, np.arange(len(box)), len(box)), cut)
        comp_center[c0:c1] = box[first]
        at = np.repeat(regime[c0:c1], count)
        side = np.zeros(len(box))
        for i in distinct(at[at >= 0]).tolist():
            b = np.flatnonzero(at == i)
            mid = (W.lo[box[b]] + W.hi[box[b]]) / 2.0
            side[b] = np.sign(mid[:, 1] - corona.graph[i].graph_value(mid[:, 0]))
        sign[c0:c1][np.minimum.reduceat(side, cut) > 0] = 1
        sign[c0:c1][np.maximum.reduceat(side, cut) < 0] = -1
    # a good cube keeps its labels on two components of opposite signs
    good = corona.regime >= 0
    region_comp_ptr = np.searchsorted(comp_cube, np.arange(n_cubes + 1))
    two = np.flatnonzero(np.diff(region_comp_ptr) == 2)
    ok = np.zeros(n_cubes, dtype=bool)
    ok[two] = sign[region_comp_ptr[two]] * sign[region_comp_ptr[two] + 1] == -1
    parent = S.rparent
    scale_defect = (parent >= 0) & (S.side[parent] > params.max_parent_ratio * S.side * (1 + 1e-9))
    keep = good & ok & ~scale_defect
    pm_comp = np.full((n_cubes, 2), -1, dtype=np.int32)
    c = np.flatnonzero(keep[comp_cube])
    pm_comp[comp_cube[c], (sign[c] < 0).astype(np.int64)] = c
    return RegionComplex(
        S=S,
        W=W,
        corona=_recohere(S, corona, good & ~keep),
        params=params,
        region_ptr=region_ptr,
        region_box=boxes,
        owner_ptr=owner_ptr,
        owner_cube=owner_cube,
        region_comp_ptr=region_comp_ptr,
        comp_ptr=comp_ptr,
        comp_box=comp_box,
        comp_center=comp_center,
        pm_comp=pm_comp,
        stats=_region_stats(S, W, region_ptr, boxes, region_comp_ptr),
    )


def _memberships(S: CubeSystem, W: WhitneyComplex, params: RegionParams):
    """(cubes, boxes), int32 in (cube, box) order: the pairs of the
    membership rule, found for all relevant cubes one box size at a time.
    A box within C_d l(Q) of the sample bbox of Q has its centre within
    that reach plus both half-diagonals of the bbox's centre, so the
    candidates are the `balls` of that radius (widened by 1e-9) over the
    group's box centres; the exact gap test then runs on them."""
    rel = np.flatnonzero(S.relevant)
    count = S.member_ptr[rel + 1] - S.member_ptr[rel]
    cut = np.cumsum(count) - count
    pts = np.take(S.E.points, S.member_sample[ranges(S.member_ptr[rel], count)], axis=0)
    # sample bounding box of each cube
    qlo = np.minimum.reduceat(pts, cut, axis=0)
    qhi = np.maximum.reduceat(pts, cut, axis=0)
    mid, half = (qlo + qhi) / 2.0, paired_distances(qhi, qlo) / 2.0
    cside = S.side[rel]
    reach = params.C_d * cside * (1 + 1e-9)
    pairs = [rel[:0]]
    for size, ids in W.size_groups().items():
        side = size * W.unit
        ratio = side / cside
        sel = np.flatnonzero(
            (ratio >= params.c_w * (1 - 1e-9)) & (ratio <= params.C_w * (1 + 1e-9))
        )
        r = (reach[sel] + side * np.sqrt(0.5) + half[sel]) * (1 + 1e-9)
        ptr, at, _ = balls((W.lo[ids] + W.hi[ids]) / 2.0, mid[sel], r)
        k, cand = np.repeat(sel, np.diff(ptr)), ids[at]
        # distance from box to the sample bbox of Q
        gap = np.maximum(np.take(qlo, k, axis=0) - np.take(W.hi, cand, axis=0), 0.0)
        gap += np.maximum(np.take(W.lo, cand, axis=0) - np.take(qhi, k, axis=0), 0.0)
        keep = paired_distances(gap, np.zeros((1, 2))) <= reach[k]
        pairs.append(rel[k[keep]] * W.n_boxes + cand[keep])
    pairs = np.concatenate(pairs)
    pairs.sort()
    cubes = (pairs // W.n_boxes).astype(np.int32)
    return cubes, np.remainder(pairs, W.n_boxes, out=pairs).astype(np.int32)


def _component_labels(W: WhitneyComplex, region_ptr, boxes):
    """The members, in (cube, box) order, grouped into the components of
    their cube's region, the members of one cube being linked by the
    neighbour CSR: (order, starts), int64, with the members of component c
    at order[starts[c]:starts[c + 1]] ascending (the last up to the end).
    Components come in (cube, least box) order.

    Min-label propagation with pointer jumping, on whole cubes at a time,
    about CHUNK neighbour entries together: a member's label ends as the
    position of the least member of its component.  A span's members, keyed
    (rank of the cube in the span, box), are in ascending key order, so a
    neighbour entry finds its linked member, if any, by binary search.
    """
    deg = np.diff(W.nbr_ptr).astype(np.int32)[boxes]
    live = np.flatnonzero(np.diff(region_ptr))
    bounds = np.append(region_ptr[live], len(boxes))
    count = np.diff(bounds)
    order = np.empty(len(boxes), dtype=np.int64)
    starts = [order[:0]]
    for c0, c1 in row_spans(np.add.reduceat(deg, bounds[:-1], dtype=np.int64)):
        lo, hi = bounds[c0], bounds[c1]
        rank = np.repeat(np.arange(c1 - c0), count[c0:c1])
        slot = rank * W.n_boxes + boxes[lo:hi]
        src = np.repeat(np.arange(hi - lo), deg[lo:hi])
        nbr = W.nbr[csr_rows(W.nbr_ptr, boxes[lo:hi])]
        # each contact is searched once, from its lesser box, and
        # propagates both ways
        up = nbr > boxes[lo:hi][src]
        src = src[up]
        key = rank[src] * W.n_boxes + nbr[up]
        dst = np.minimum(np.searchsorted(slot, key), hi - lo - 1)
        hit = slot[dst] == key
        src, dst = src[hit], dst[hit]
        part = np.arange(hi - lo)
        while True:
            new = part.copy()
            np.minimum.at(new, src, part[dst])
            np.minimum.at(new, dst, part[src])
            while True:
                jump = new[new]
                if np.array_equal(jump, new):
                    break
                new = jump
            if np.array_equal(new, part):
                break
            part = new
        # a component's least member is its label and sorts first
        o = np.argsort(part, kind="stable")
        order[lo:hi] = o + lo
        starts.append(lo + np.flatnonzero(part[o] == o))
    return order, np.concatenate(starts)


def _recohere(S: CubeSystem, corona: CoronaDecomposition, demoted) -> CoronaDecomposition:
    """Demote the cubes of the mask `demoted` and split regimes so coherency
    survives: a good cube joins its parent's new regime when the parent is
    good, both had the same old regime and all the parent's children are
    good, and starts a new regime otherwise; the new tops are numbered in id
    order."""
    if not demoted.any() and not corona.demoted.any():
        return corona
    old, parent = corona.regime, S.rparent
    # the extra last slot is what a root's parent -1 reads
    good = np.append((old >= 0) & ~demoted, False)
    kids_good = np.ones(S.n_cubes + 1, dtype=bool)
    kids_good[parent[S.relevant & ~good[:-1] & (parent >= 0)]] = False
    joins = good[:-1] & good[parent] & (old[parent] == old) & kids_good[parent]
    top = np.flatnonzero(good[:-1] & ~joins)
    regime = np.full(S.n_cubes, -1, dtype=np.int32)
    regime[top] = np.arange(len(top))
    for ids, par in S.levels:
        regime[ids] = np.where(joins[ids], regime[par], regime[ids])
    out = CoronaDecomposition(
        regime=regime,
        top=top,
        graph=[corona.graph[i] for i in old[top].tolist()],
        eta=corona.eta,
        K=corona.K,
        demoted=demoted | corona.demoted,
        property3_sup=corona.property3_sup,
    )
    out.packing_measured = _corona_packing(S, out)
    return out


def _region_stats(S, W, region_ptr, boxes, region_comp_ptr) -> dict:
    """Measured comparability constants of the region complex.

    Volumes are summed in lattice units, exact integers, and scaled once;
    on a dyadic lattice this equals the float sum box by box.
    """
    live = np.flatnonzero(np.diff(region_ptr))
    start, count = region_ptr[live], np.diff(region_ptr)[live]
    sq = W.size**2
    cell = W.unit**2
    side = S.side[live]
    vol = np.add.reduceat(sq[boxes], start) * cell
    ratio = vol / side**2
    covered = _union(W.n_boxes, boxes)
    union_vol = float(sq[covered].sum() * cell)
    # about eight boxes of each region: dist(I,E) ~ delta at the box within a diam
    step = np.maximum(1, count // 8)
    m = -(-count // step)
    b = boxes[np.repeat(start, m) + ranges(np.zeros_like(m), m) * np.repeat(step, m)]
    cs = np.repeat(side, m)
    delta_lo = (W.dist[b] / cs).min(initial=np.inf)
    delta_hi = ((W.dist[b] + np.sqrt(2.0) * (W.unit * W.size[b])) / cs).max(initial=0.0)
    return {
        "volume_ratio_range": (float(ratio.min(initial=np.inf)), float(ratio.max(initial=0.0))),
        "delta_over_side_range": (float(delta_lo), float(delta_hi)),
        "bounded_overlap": float(sq[boxes].sum() * cell / union_vol) if union_vol else 0.0,
        "max_components": int(np.diff(region_comp_ptr).max(initial=0)),
        "n_boxes_covered": len(covered),
    }
