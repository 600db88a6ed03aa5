"""Whitney decomposition, Whitney regions, corona provider, Carleson boxes.

Boxes live on an integer lattice (unit = the finest box side, offsets from
the window corner), so facet areas, volumes and cell bookkeeping downstream
are exact dyadic arithmetic.  Fattened copies (1+tau)I, (1+2tau)I, (1+3tau)I
are used only for connectivity and for sup/quadrature grids; the partition
and all total-variation accounting run on the disjoint core boxes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .carleson import packing_constant
from .config import RegionParams
from .dyadic import CubeSystem
from .geometry import (
    BoundarySet,
    Window,
    box_distance_many,
    descriptor_from_json,
    dist_to_cloud,
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
    neighbors: list  # per box: sorted ids with closed-box contact
    facets: list  # (a, b, axis, area) with a.hi == b.lo on axis, overlap > 0

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
        sizes, starts = np.unique(self.size, return_index=True)
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
    call and accepted or split together.  A child's distance is at most its
    parent's distance plus the parent's diameter (the parent's nearest
    point of E is that close to all of the child), and that bound limits
    the part of E the call scans.
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
    bound = np.full(len(lo), np.inf)
    while True:
        glo = base + unit * lo.astype(float)
        ghi = glo + unit * size
        live = ~(np.any(glo >= window.hi, axis=1) | np.any(ghi <= window.lo, axis=1))
        if not live.any():
            break
        lo, glo, ghi, bound = lo[live], glo[live], ghi[live], bound[live]
        d = box_distance_many(glo, ghi, E, bound)
        diam = sq2 * unit * size
        ok = d >= diam
        levels.append((lo[ok], np.full(int(ok.sum()), size, dtype=np.int64), d[ok]))
        if size == 1:
            break
        half = size // 2
        lo = (lo[~ok][:, None, :] + half * _CORNERS[None]).reshape(-1, 2)
        bound = np.repeat(d[~ok] + diam, len(_CORNERS))
        size = half

    ij, sizes, dist = (np.concatenate(a) for a in zip(*levels))
    order = np.lexsort((ij[:, 1], ij[:, 0], sizes))
    ij, sizes, dist = ij[order], sizes[order], dist[order]
    neighbors, facets = _adjacency(ij, sizes, unit)
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
        neighbors=neighbors,
        facets=facets,
    )


def _corners(base, unit, ij, size):
    """Float (lo, hi) corners of lattice boxes."""
    lo = base + unit * ij.astype(float)
    return lo, lo + unit * size[:, None].astype(float)


# lattice offsets of the four children of a dyadic square, in units of
# the child side
_CORNERS = np.array(((0, 0), (1, 0), (0, 1), (1, 1)), dtype=np.int64)


def _adjacency(ij, size, unit):
    """Face sweep: contacts (incl. corner touch) and positive-area facets.

    Faces sharing a plane form two sequences of non-overlapping intervals
    (the boxes on either side tile), so a sorted two-pointer merge finds all
    contacts in linear time.
    """
    lo, s = ij.tolist(), size.tolist()
    ids = range(len(s))
    neighbors = [set() for _ in ids]
    facets = []
    for axis in (0, 1):
        perp = 1 - axis
        plane: dict = {}
        for b in ids:
            plane.setdefault(lo[b][axis] + s[b], ([], []))[0].append(b)
            plane.setdefault(lo[b][axis], ([], []))[1].append(b)
        for _, (plus, minus) in plane.items():
            if not plus or not minus:
                continue
            plus.sort(key=lambda b: lo[b][perp])
            minus.sort(key=lambda b: lo[b][perp])
            i = j = 0
            while i < len(plus) and j < len(minus):
                a, c = plus[i], minus[j]
                a_end, c_end = lo[a][perp] + s[a], lo[c][perp] + s[c]
                overlap = min(a_end, c_end) - max(lo[a][perp], lo[c][perp])
                if overlap > 0:
                    neighbors[a].add(c)
                    neighbors[c].add(a)
                    facets.append((a, c, axis, float(overlap * unit)))
                if a_end <= c_end:
                    i += 1
                else:
                    j += 1
    # corner contacts (zero-overlap, incl. diagonal) via shared corner points
    corner_map: dict = {}
    for b in ids:
        x0, y0 = lo[b]
        for corner in ((x0, y0), (x0 + s[b], y0), (x0, y0 + s[b]), (x0 + s[b], y0 + s[b])):
            corner_map.setdefault(corner, []).append(b)
    for group in corner_map.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                neighbors[group[i]].add(group[j])
                neighbors[group[j]].add(group[i])
    facets.sort()
    return [sorted(n) for n in neighbors], facets


# ---------------------------------------------------------------------------
# corona decomposition
# ---------------------------------------------------------------------------


@dataclass
class Regime:
    idx: int
    cubes: set
    max_cube: int
    graph: object  # descriptor with graph_value()

    def side_of(self, pts: np.ndarray) -> np.ndarray:
        g = self.graph.graph_value(pts[:, 0])
        return np.sign(pts[:, -1] - g)


@dataclass
class CoronaDecomposition:
    good: set
    bad: set
    regimes: list
    regime_of: dict  # qid -> regime idx
    eta: float
    K: float
    packing_measured: float = 0.0
    property3_sup: float = 0.0
    demoted: set = field(default_factory=set)

    def regime(self, qid: int) -> Regime | None:
        i = self.regime_of.get(qid)
        return None if i is None else self.regimes[i]

    def to_json(self):
        return {
            "eta": self.eta,
            "K": self.K,
            "n_regimes": len(self.regimes),
            "n_bad": len(self.bad),
            "n_demoted": len(self.demoted),
            "packing_measured": self.packing_measured,
            "property3_sup": self.property3_sup,
        }


def corona_provider(
    E: BoundarySet,
    S: CubeSystem,
    mode: str = "trivial_graph",
    eta: float = 0.25,
    K: float = 4.0,
    path=None,
) -> CoronaDecomposition:
    """Good/bad cube partition into coherent regimes with Lipschitz graphs.

    trivial_graph: E itself is the graph of every regime; all cubes good.
    annotated: decomposition read from JSON and validated against coherency,
    the packing budget, and the two-sided graph-approximation property.
    """
    if mode == "trivial_graph":
        lip = E.descriptor.lipschitz
        if E.descriptor.graph_value(0.0) is None:
            raise ValueError("trivial_graph corona requires a graph-like boundary")
        if lip > eta:
            raise ValueError(
                f"graph Lipschitz constant {lip} exceeds corona eta {eta}"
            )
        regimes = []
        regime_of = {}
        for i, root in enumerate(S.roots):
            cubes = set(S.descendants(root))
            regimes.append(
                Regime(idx=i, cubes=cubes, max_cube=root, graph=E.descriptor)
            )
            for q in cubes:
                regime_of[q] = i
        corona = CoronaDecomposition(
            good=set(S.relevant_ids()),
            bad=set(),
            regimes=regimes,
            regime_of=regime_of,
            eta=eta,
            K=K,
        )
    elif mode == "annotated":
        with open(path) as fh:
            spec = json.load(fh)
        corona = _validate_annotated(E, S, spec, eta, K)
    else:
        raise ValueError(f"unknown corona mode {mode!r}")

    corona.packing_measured = packing_constant(
        S, list(corona.bad) + [r.max_cube for r in corona.regimes]
    )
    if corona.packing_measured > CORONA_PACKING_BUDGET:
        raise ValueError(
            f"corona packing {corona.packing_measured:.3g} exceeds budget"
        )
    corona.property3_sup = _property3_sup(E, S, corona)
    return corona


def _validate_annotated(E, S, spec, eta, K) -> CoronaDecomposition:
    relevant = set(S.relevant_ids())
    bad = set(int(q) for q in spec.get("bad", []))
    regimes = []
    regime_of = {}
    seen = set(bad)
    for i, r in enumerate(spec["regimes"]):
        cubes = set(int(q) for q in r["cubes"])
        if cubes & seen:
            raise ValueError(f"regime {i} overlaps earlier cubes")
        seen |= cubes
        maxima = [q for q in cubes if S.cube(q).rparent not in cubes]
        if len(maxima) != 1:
            raise ValueError(f"regime {i} is not coherent: maxima {sorted(maxima)}")
        top = maxima[0]
        for q in cubes:
            # intermediate cubes present (semicoherence)
            p = S.cube(q).rparent
            while p is not None and p != top:
                if p not in cubes and S.contains(top, p):
                    raise ValueError(
                        f"regime {i} misses intermediate cube {p} over {q}"
                    )
                p = S.cube(p).rparent
            # children all-in or all-out (coherence)
            ch = S.cube(q).rchildren
            inside = [c for c in ch if c in cubes]
            if inside and len(inside) != len(ch):
                raise ValueError(
                    f"regime {i} violates coherency at cube {q}: "
                    f"children split {sorted(inside)} vs {sorted(ch)}"
                )
        graph = descriptor_from_json(r["graph"]) if "graph" in r else E.descriptor
        regimes.append(Regime(idx=i, cubes=cubes, max_cube=top, graph=graph))
        for q in cubes:
            regime_of[q] = i
    if seen != relevant:
        missing = sorted(relevant - seen)[:5]
        raise ValueError(f"decomposition does not cover relevant cubes: {missing}...")
    corona = CoronaDecomposition(
        good=relevant - bad,
        bad=bad,
        regimes=regimes,
        regime_of=regime_of,
        eta=eta,
        K=K,
    )
    sup = _property3_sup(E, S, corona, reject=True)
    corona.property3_sup = sup
    return corona


def _property3_sup(E, S, corona, reject: bool = False) -> float:
    """sup over regime cubes of the two one-sided graph distances / (eta l(Q)).

    Exhaustive when validating an annotated decomposition (a violation must
    name its cube); sampled (<= 64 cubes per regime) for the trivial
    provider, whose distances vanish by construction.
    """
    worst = 0.0
    for reg in corona.regimes:
        pl = reg.graph.polyline(E.window, E.resolution / 2)
        if pl is None:
            pl = E.points
        cubes = sorted(reg.cubes)
        if not reject:
            cubes = cubes[:: max(1, len(cubes) // 64)]
        for q in cubes:
            c = S.cube(q)
            r = corona.K * c.side
            d = np.linalg.norm(E.points - c.z, axis=1)
            near = E.points[d <= r]
            a = _sup_dist(near, pl) if len(near) else 0.0
            dg = np.linalg.norm(pl - c.z, axis=1)
            on_ball = pl[dg <= r]
            b = _sup_dist(on_ball, E.points) if len(on_ball) else 0.0
            val = (a + b) / (corona.eta * c.side)
            worst = max(worst, val)
            if reject and val >= 1.0:
                raise ValueError(
                    f"regime {reg.idx} violates the graph-approximation "
                    f"property at cube {q}: (sup_dist {a + b:.4g}) >= "
                    f"eta*l(Q) = {corona.eta * c.side:.4g}"
                )
    return worst


def _sup_dist(pts: np.ndarray, targets: np.ndarray) -> float:
    """max over about 64 strided points of their distance to the targets."""
    near = dist_to_cloud(pts[:: max(1, len(pts) // 64)], targets)
    return float(near.max(initial=0.0))


# ---------------------------------------------------------------------------
# Whitney regions
# ---------------------------------------------------------------------------


@dataclass
class WhitneyRegion:
    boxes: list  # all member box ids, sorted
    components: list  # list of sorted box-id lists
    labels: list  # per component: '+', '-', or 'i<k>'
    centers: list  # per component: box id of the largest box (the X point)
    good: bool


@dataclass
class RegionComplex:
    S: CubeSystem
    W: WhitneyComplex
    corona: CoronaDecomposition
    params: RegionParams
    regions: dict  # qid -> WhitneyRegion, ascending qid
    stats: dict

    def x_point(self, qid: int, sign: str) -> np.ndarray:
        """X_Q^{sign}: center of the largest box of the signed component."""
        r = self.regions[qid]
        bid = r.centers[r.labels.index(sign)]
        return (self.W.lo[bid] + self.W.hi[bid]) / 2.0

    def y_point(self, qid: int, sign: str) -> np.ndarray:
        """Y_Q^{sign} = X of the parent (or of Q itself at a regime top)."""
        reg = self.corona.regime(qid)
        p = self.S.cube(qid).rparent
        if reg is not None and qid == reg.max_cube or p is None:
            return self.x_point(qid, sign)
        return self.x_point(p, sign)

    def carleson_box(self, qid: int) -> frozenset:
        """T_Q: member boxes over the relevant descendants of Q."""
        return self.sawtooth(self.S.descendants(qid))

    def sawtooth(self, ids) -> frozenset:
        out = set()
        for q in ids:
            r = self.regions.get(q)
            if r is not None:
                out.update(r.boxes)
        return frozenset(out)

    def sawtooth_halves(self, ids):
        """(+ half, - half) of a sawtooth over good cubes."""
        plus, minus = set(), set()
        for q in ids:
            r = self.regions.get(q)
            if r is None or not r.good:
                raise ValueError(f"cube {q} has no signed region")
            for comp, lab in zip(r.components, r.labels):
                (plus if lab == "+" else minus).update(comp)
        return frozenset(plus), frozenset(minus)


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
    # per size group: ids sorted by geometric lo-x for windowed slicing
    size_index = {}
    for size, ids in W.size_groups().items():
        ids = ids[np.argsort(W.lo[ids, 0], kind="stable")]
        size_index[size] = (ids, W.lo[ids, 0])

    regions: dict = {}
    demoted = set()
    for q in sorted(S.relevant_ids()):
        c = S.cube(q)
        pts = S.E.points[c.sample_idx]
        qlo = pts.min(axis=0)
        qhi = pts.max(axis=0)
        members = []
        for size, (ids, lox) in size_index.items():
            side = size * W.unit
            ratio = side / c.side
            if ratio < params.c_w * (1 - 1e-9) or ratio > params.C_w * (1 + 1e-9):
                continue
            reach = params.C_d * c.side * (1 + 1e-9)
            a = np.searchsorted(lox, qlo[0] - reach - side)
            b = np.searchsorted(lox, qhi[0] + reach, side="right")
            ids_w = ids[a:b]
            # distance from box to the sample bbox of Q
            gap_lo = np.maximum(qlo[None, :] - W.hi[ids_w], 0.0)
            gap_hi = np.maximum(W.lo[ids_w] - qhi[None, :], 0.0)
            gap = np.sqrt(((gap_lo + gap_hi) ** 2).sum(axis=1))
            keep = ids_w[gap <= reach]
            members.extend(int(i) for i in keep)
        members.sort()
        comps = _components(members, W.neighbors)
        reg = corona.regime(q)
        good = q in corona.good
        p = c.rparent
        scale_defect = (
            p is not None
            and S.side[p] > params.max_parent_ratio * c.side * (1 + 1e-9)
        )
        labels, centers, ok = _label_components(W, comps, reg, good)
        if good and (not ok or scale_defect):
            demoted.add(q)
            good = False
            labels, centers, _ = _label_components(W, comps, None, False)
        regions[q] = WhitneyRegion(
            boxes=members,
            components=comps,
            labels=labels,
            centers=centers,
            good=good,
        )

    corona2 = _recohere(S, corona, demoted)
    stats = _region_stats(S, W, regions)
    stats["demoted"] = sorted(demoted)
    return RegionComplex(
        S=S,
        W=W,
        corona=corona2,
        params=params,
        regions=regions,
        stats=stats,
    )


def _components(members, neighbors):
    member_set = set(members)
    seen = set()
    comps = []
    for b in members:
        if b in seen:
            continue
        comp = []
        stack = [b]
        seen.add(b)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in neighbors[x]:
                if y in member_set and y not in seen:
                    seen.add(y)
                    stack.append(y)
        comps.append(sorted(comp))
    comps.sort()
    return comps


def _label_components(W: WhitneyComplex, comps, reg, good):
    """Label components by graph side (good) or index (bad); find X boxes."""
    # the largest box, smallest id first (components are sorted)
    centers = [comp[int(np.argmax(W.size[comp]))] for comp in comps]
    if not good or reg is None:
        return [f"i{k}" for k in range(len(comps))], centers, False
    if len(comps) != 2:
        return [f"i{k}" for k in range(len(comps))], centers, False
    labels = []
    for comp in comps:
        side = reg.side_of((W.lo[comp] + W.hi[comp]) / 2.0)
        if np.all(side > 0):
            labels.append("+")
        elif np.all(side < 0):
            labels.append("-")
        else:
            return [f"i{k}" for k in range(len(comps))], centers, False
    if set(labels) != {"+", "-"}:
        return [f"i{k}" for k in range(len(comps))], centers, False
    return labels, centers, True


def _recohere(S: CubeSystem, corona: CoronaDecomposition, demoted) -> CoronaDecomposition:
    """Demote cubes and split regimes so coherency survives."""
    if not demoted and not corona.demoted:
        return corona
    good = corona.good - demoted
    bad = corona.bad | demoted
    regimes: list = []
    regime_of: dict = {}
    for ids, par in S.levels:
        for q, p in zip(ids.tolist(), par.tolist()):
            if q not in good:
                continue
            old = corona.regime_of.get(q)
            # a root's parent -1 is in no regime
            joins = (
                p in regime_of
                and corona.regime_of.get(p) == old
                and all(ch in good for ch in S.cube(p).rchildren)
            )
            if joins:
                i = regime_of[p]
                regimes[i].cubes.add(q)
                regime_of[q] = i
            else:
                graph = corona.regimes[old].graph if old is not None else None
                reg = Regime(idx=len(regimes), cubes={q}, max_cube=q, graph=graph)
                regimes.append(reg)
                regime_of[q] = reg.idx
    return CoronaDecomposition(
        good=good,
        bad=bad,
        regimes=regimes,
        regime_of=regime_of,
        eta=corona.eta,
        K=corona.K,
        packing_measured=packing_constant(
            S, sorted(bad) + [r.max_cube for r in regimes]
        ),
        property3_sup=corona.property3_sup,
        demoted=set(demoted) | corona.demoted,
    )


def _region_stats(S, W, regions) -> dict:
    """Measured comparability constants of the region complex."""
    vol_ratio_lo, vol_ratio_hi = np.inf, 0.0
    delta_lo, delta_hi = np.inf, 0.0
    overlap_num = 0.0
    covered: set = set()
    n_comp_max = 0
    side = [W.unit * s for s in W.size.tolist()]
    volume = [a**2 for a in side]
    dist = W.dist.tolist()
    for q, r in regions.items():
        if not r.boxes:
            continue
        c = S.cube(q)
        vol = sum(volume[b] for b in r.boxes)
        ratio = vol / c.side**2
        vol_ratio_lo = min(vol_ratio_lo, ratio)
        vol_ratio_hi = max(vol_ratio_hi, ratio)
        overlap_num += vol
        covered.update(r.boxes)
        n_comp_max = max(n_comp_max, len(r.components))
        for b in r.boxes[:: max(1, len(r.boxes) // 8)]:
            # dist(I,E) ~ delta at the box within a diam
            delta_lo = min(delta_lo, dist[b] / c.side)
            delta_hi = max(delta_hi, (dist[b] + np.sqrt(2.0) * side[b]) / c.side)
    union_vol = sum(volume[b] for b in covered)
    return {
        "volume_ratio_range": (float(vol_ratio_lo), float(vol_ratio_hi)),
        "delta_over_side_range": (float(delta_lo), float(delta_hi)),
        "bounded_overlap": float(overlap_num / union_vol) if union_vol else 0.0,
        "max_components": n_comp_max,
        "n_boxes_covered": len(covered),
    }
