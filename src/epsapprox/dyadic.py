"""Dyadic cube systems on boundary sample clouds.

Two constructions:

* graph-like boundaries: standard dyadic intervals in parameter space,
  shifted so a single root cube covers the whole window (this keeps the
  forest connected under inclusion);
* point clouds: greedy net-based construction — maximal separated centers
  per generation, nested across generations, samples assigned to the
  nearest admissible center with index-order tie break.

Set-equal cubes across generations are deduplicated by keeping the copy of
maximal generation index; navigation (parent/children/chains) runs on the
deduplicated "relevant" cubes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Budgets
from .geometry import (
    BoundarySet,
    PointList,
    Window,
    csr_rows,
    distinct,
    nearest,
    pair_distances,
    paired_distances,
    row_blocks,
    row_spans,
)


@dataclass
class CubeSystem:
    """The dyadic forest as arrays indexed by cube id.

    Ids run generation after generation, coarsest first.  Cube q holds the
    samples member_sample[member_ptr[q]:member_ptr[q + 1]], ascending; its
    relevant children, ascending, are child_cube[child_ptr[q]:child_ptr[q + 1]]
    (an empty row off the relevant tree).
    """

    E: BoundarySet
    scale: float
    k_min: int
    k_max: int
    c1: float
    C1: float
    z: np.ndarray  # (n_cubes, 2): centre z_Q, a member sample
    side: np.ndarray  # l(Q)
    gen: np.ndarray  # generation k
    measure: np.ndarray  # sigma(Q): the sum of the member weights
    member_ptr: np.ndarray  # (n_cubes + 1,) int64
    member_sample: np.ndarray  # int64
    # of each set-equal chain of cubes only the deepest copy is relevant
    relevant: np.ndarray  # bool
    rparent: np.ndarray  # int32: nearest relevant strict ancestor, -1 for none
    child_ptr: np.ndarray  # (n_cubes + 1,) int64
    child_cube: np.ndarray  # int32
    # the relevant-tree index
    roots: list
    sample_leaf: np.ndarray  # finest relevant cube id containing each sample
    # per generation, coarsest first: (relevant ids, their relevant parents),
    # int32, a root's parent being -1; every parent comes in an earlier level
    levels: list
    # anc_at[q, k - k_min]: cube q's relevant ancestor at generation k (q
    # itself at its own), -1 where there is none; the extra last row, read
    # through a root's parent -1, is all -1
    anc_at: np.ndarray

    # -- navigation -------------------------------------------------------

    @property
    def n_cubes(self) -> int:
        return len(self.side)

    def members(self, qid: int) -> np.ndarray:
        """The member samples of cube qid, ascending."""
        return self.member_sample[self.member_ptr[qid] : self.member_ptr[qid + 1]]

    def children(self, qid: int) -> np.ndarray:
        """The relevant children of cube qid, ascending."""
        return self.child_cube[self.child_ptr[qid] : self.child_ptr[qid + 1]]

    def relevant_ids(self) -> list:
        return np.flatnonzero(self.relevant).tolist()

    def sigma(self, qid: int) -> float:
        return float(self.measure[qid])

    def chain(self, sample: int) -> list:
        """Relevant cubes containing the sample, coarsest first."""
        row = self.anc_at[self.sample_leaf[sample]]
        return row[row >= 0].tolist()

    def descendants(self, qid: int) -> list:
        """The cube, then its relevant descendants, depth first with the
        last child taken first."""
        out = [qid]
        stack = self.children(qid).tolist()
        while stack:
            q = stack.pop()
            out.append(q)
            stack.extend(self.children(q).tolist())
        return out

    def subtree(self, qid: int) -> np.ndarray:
        """Per cube id: True at relevant cube qid and its relevant descendants."""
        return self.anc_at[:-1, self.gen[qid] - self.k_min] == qid

    def relevant_at_gen(self, k: int) -> list:
        return np.flatnonzero(self.relevant & (self.gen == k)).tolist()

    def cube_averages(self, f: np.ndarray, ids=None) -> np.ndarray:
        """Per cube id: weighted average of f over member samples, over the
        relevant cubes or the cubes `ids`, and 0 elsewhere.  One `bincount`
        adds each cube's f*w in ascending member order."""
        ids = np.flatnonzero(self.relevant) if ids is None else np.asarray(ids, dtype=np.int64)
        m = self.member_sample[csr_rows(self.member_ptr, ids)]
        cube = np.repeat(ids, np.diff(self.member_ptr)[ids])
        out = np.bincount(cube, weights=f[m] * self.E.weights[m], minlength=self.n_cubes)
        out[ids] /= self.measure[ids]
        return out

    def radius_grid(self, top: float, n: int) -> np.ndarray:
        """The surface-ball radii C1*l(Q) over the generation range, plus n
        log-spaced radii from half the finest of them to `top`; ascending
        and distinct."""
        rs = [self.C1 * 2.0 ** (-k) * self.scale for k in range(self.k_min, self.k_max + 1)]
        return distinct(np.concatenate([rs, np.geomspace(min(rs) / 2, top, n)]))

    def down_max(self, own: np.ndarray, start: float) -> np.ndarray:
        """Per cube: the max of `start` and of the per-cube `own` over the
        cube and its relevant ancestors, propagated root to leaf one
        generation at a time.  A sample's chain max is the value at its
        `sample_leaf`."""
        # the extra last slot is what a root's parent -1 reads
        val = np.full(self.n_cubes + 1, start)
        for ids, par in self.levels:
            val[ids] = np.maximum(val[par], own[ids])
        return val


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def build_cube_system(
    E: BoundarySet,
    k_min: int,
    k_max: int,
    scale: float = 1.0,
    inclusion_budget: tuple = Budgets.inclusion,
) -> CubeSystem:
    """Build the dyadic forest on E between generations k_min and k_max.

    Side length of generation k is 2^{-k} * scale.  Fails if the finest
    generation falls under twice the sample resolution, or if the measured
    ball-inclusion constants leave the configured budget.
    """
    if k_min > k_max:
        raise ValueError("k_min must be <= k_max")
    if 2.0 ** (-k_max) * scale < 2 * E.resolution - 1e-12:
        raise ValueError(
            "resolution too coarse for k_max: inner-ball constant c1 of the "
            "inclusion Delta(z_Q, c1 l(Q)) subset Q cannot be realized"
        )
    build = _graph_forest if E.params is not None else _net_forest
    system = _finalize(E, build(E, k_min, k_max, scale), k_min, k_max, scale)
    lo, hi = inclusion_budget
    if not (system.c1 >= lo and system.C1 <= hi):
        raise ValueError(
            f"measured inclusion constants (c1={system.c1:.3g}, C1={system.C1:.3g}) "
            f"outside budget {inclusion_budget}"
        )
    return system


def _graph_forest(E: BoundarySet, k_min, k_max, scale) -> list:
    """Standard dyadic intervals in parameter space under one shifted root.

    Per generation, coarsest first: (members, centre sample) per nonempty
    interval, the centre being the member whose parameter is nearest the
    interval's midpoint."""
    params = E.params
    root_len = 2.0 ** (-k_min) * scale
    lo_req, hi_req = float(params.min()), float(params.max())
    center = (lo_req + hi_req) / 2.0
    # root start, aligned to the finest grid so fine cubes stay standard dyadic
    unit = 2.0 ** (-k_max) * scale
    a0 = unit * np.floor((center - root_len / 2.0) / unit)
    if not (a0 <= lo_req and hi_req < a0 + root_len):
        raise ValueError(
            "k_min too fine: a single root cube cannot cover the window; "
            "decrease k_min (larger root) so the forest is connected"
        )
    order = np.argsort(params, kind="stable")
    gens = []
    for k in range(k_min, k_max + 1):
        side = 2.0 ** (-k) * scale
        edges = a0 + side * np.arange(int(round(root_len / side)) + 1)
        idx = np.searchsorted(params[order], edges)
        gen = []
        for m in range(len(edges) - 1):
            members = np.sort(order[idx[m] : idx[m + 1]])
            if len(members):
                mid = (edges[m] + edges[m + 1]) / 2.0
                gen.append((members, members[int(np.argmin(np.abs(params[members] - mid)))]))
        gens.append(gen)
    return gens


def _net_forest(E: BoundarySet, k_min, k_max, scale) -> list:
    """Greedy maximal-separated nets, nested across generations.

    Per generation, coarsest first: (members, centre sample) per cell of a
    net centre.  A sample joins the net when it lies at least r from every
    centre so far (one `paired_distances` row per sample), and each sample
    goes to the nearest centre in its parent's cell, the least on a tie
    (`pair_distances` blocks per parent cell).  A centre lies r or more from
    every other, so it is its own nearest and no cell is empty."""
    pts = E.points
    n = len(pts)
    net, ids = np.empty((n, 2)), np.empty(n, dtype=np.intp)
    m, cell, gens = 0, np.zeros(n, dtype=np.intp), []  # cell: the parent centre
    for k in range(k_min, k_max + 1):
        r = 2.0 ** (-k) * scale
        for i in range(n):
            if (paired_distances(net[:m], pts[i : i + 1]) >= r).all():
                net[m], ids[m], m = pts[i], i, m + 1
        centers = np.sort(ids[:m])
        # the samples and the candidate centres of each parent cell, ascending
        samples = np.argsort(cell, kind="stable")
        cands = centers[np.argsort(cell[centers], kind="stable")]
        s_ptr, c_ptr = (np.searchsorted(cell[a], np.arange(n + 1)) for a in (samples, cands))
        assign = np.empty(n, dtype=np.intp)
        for c in np.flatnonzero(np.diff(s_ptr)).tolist():
            own, C = samples[s_ptr[c] : s_ptr[c + 1]], cands[c_ptr[c] : c_ptr[c + 1]]
            for rows in row_blocks(len(own), len(C)):
                d = pair_distances(np.take(pts, own[rows], axis=0), np.take(pts, C, axis=0))
                assign[own[rows]] = C[np.argmin(d, axis=1)]
        members = np.argsort(assign, kind="stable")
        cut = np.searchsorted(assign[members], centers[1:])
        gens.append(list(zip(np.split(members, cut), centers.tolist())))
        cell = assign
    return gens


def _finalize(E: BoundarySet, gens, k_min, k_max, scale, constants=None) -> CubeSystem:
    """The CubeSystem of per-generation (members, centre sample) lists.

    A cube's parent is the previous generation's cube holding its first
    member.  `constants` fixes (c1, C1); by default they are measured.
    """
    w = E.weights
    members = [m for gen in gens for m, _ in gen]
    count = np.array([len(m) for m in members], dtype=np.int64)
    bounds = np.cumsum([0] + [len(gen) for gen in gens])
    k = np.repeat(np.arange(k_min, k_max + 1), np.diff(bounds))
    member_ptr = np.concatenate([[0], np.cumsum(count)])
    member_sample = np.concatenate(members).astype(np.int64)
    parent = np.full(len(members), -1)
    by_sample = np.full(E.n_samples, -1)
    # each generation's parents, then its cubes as the next one's
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        parent[lo:hi] = by_sample[member_sample[member_ptr[lo:hi]]]
        rows = slice(member_ptr[lo], member_ptr[hi])
        by_sample[member_sample[rows]] = np.repeat(np.arange(lo, hi), count[lo:hi])
    z = E.points[[c for gen in gens for _, c in gen]]
    side = np.ldexp(float(scale), -k)
    tree = _relevant_tree(parent, k, k_min, k_max, member_ptr, member_sample, E.n_samples)
    if constants is None:
        constants = _inclusion_constants(E, z, side, k - k_min, member_ptr, member_sample, tree)
    return CubeSystem(
        E=E,
        scale=scale,
        k_min=k_min,
        k_max=k_max,
        c1=constants[0],
        C1=constants[1],
        z=z,
        side=side,
        gen=k,
        measure=np.array([w[m].sum() for m in members]),
        member_ptr=member_ptr,
        member_sample=member_sample,
        **tree,
    )


def _relevant_tree(parent, k, k_min, k_max, member_ptr, member_sample, n_samples) -> dict:
    """Mark the relevant cubes, link them, and index the relevant tree.

    A cube whose only child holds all its samples is not relevant, so of
    each set-equal chain only the deepest copy stays.  Returns the
    CubeSystem fields from `relevant` on.
    """
    n = len(parent)
    count = np.diff(member_ptr)
    has = parent >= 0
    only = np.full(n, -1)
    only[parent[has]] = np.flatnonzero(has)  # a child; the only one where there is one
    relevant = ~((np.bincount(parent[has], minlength=n) == 1) & (count[only] == count))
    # up[q]: q's nearest relevant ancestor or q itself; the extra last slot
    # is what a root's parent -1 reads, as is the last row of anc_at
    up = np.full(n + 1, -1)
    rparent = np.full(n, -1, dtype=np.int32)
    anc_at = np.full((n + 1, k_max - k_min + 1), -1, dtype=np.int32)
    levels = []
    for g in range(k_max - k_min + 1):
        q = np.flatnonzero(k == k_min + g)
        up[q] = np.where(relevant[q], q, up[parent[q]])
        q = q[relevant[q]].astype(np.int32)
        par = up[parent[q]].astype(np.int32)
        rparent[q] = par
        anc_at[q] = anc_at[par]
        anc_at[q, g] = q
        levels.append((q, par))
    kids = np.flatnonzero(rparent >= 0)
    kids = kids[np.argsort(rparent[kids], kind="stable")]
    child_ptr = np.searchsorted(rparent[kids], np.arange(n + 1))
    leaves = np.flatnonzero(relevant & (np.diff(child_ptr) == 0))
    sample_leaf = np.full(n_samples, -1)
    sample_leaf[member_sample[csr_rows(member_ptr, leaves)]] = np.repeat(leaves, count[leaves])
    return {
        "relevant": relevant,
        "rparent": rparent,
        "child_ptr": child_ptr,
        "child_cube": kids.astype(np.int32),
        "roots": np.flatnonzero(relevant & (rparent < 0)).tolist(),
        "sample_leaf": sample_leaf,
        "levels": levels,
        "anc_at": anc_at,
    }


def _cube_reach(E: BoundarySet, z, side, gen, member_ptr, member_sample, tree) -> tuple:
    """Per relevant cube q, ascending: the distance from z_Q to its farthest
    member and to the nearest sample outside it (inf if there is none);
    `gen` is each cube's generation less k_min.

    The farthest member is a max over the member CSR, taken over
    `row_spans` blocks of at most CHUNK (cube, member) pairs.  The nearest
    outside sample is the `nearest` one that the cube does not hold, searched
    from a window of half-width l(Q).  Sample s is in relevant cube q iff q is
    the ancestor at q's generation of s's finest relevant cube.  Distances
    keep the arithmetic of a full scan and a min or max does not depend on
    order, so both are bit-identical to per-cube full scans.
    """
    pts = E.points
    q = np.flatnonzero(tree["relevant"])
    count = np.diff(member_ptr)[q]
    far = np.empty(len(q))
    for lo, hi in row_spans(count):
        members = np.take(pts, member_sample[csr_rows(member_ptr, q[lo:hi])], axis=0)
        d = paired_distances(members, np.repeat(z[q[lo:hi]], count[lo:hi], axis=0))
        far[lo:hi] = np.maximum.reduceat(d, np.cumsum(count[lo:hi]) - count[lo:hi])
    zq, leaf, anc_at, g = z[q], tree["sample_leaf"], tree["anc_at"], gen[q]
    outside = nearest(
        zq, zq, pts, side[q], skip=lambda row, j: anc_at[leaf[j], g[row]] == q[row]
    )[0]
    return q, far, outside


def _inclusion_constants(E: BoundarySet, z, side, gen, member_ptr, member_sample, tree) -> tuple:
    """Measured (c1, C1) for Delta(z_Q, c1 l) subset Q subset Delta(z_Q, C1 l)
    over the relevant cubes, from `_cube_reach`.

    C1 also absorbs the parent-child center drift so that the surface balls
    Delta_Q nest along inclusions.
    """
    q, far, outside = _cube_reach(E, z, side, gen, member_ptr, member_sample, tree)
    C_member = float(np.max(far / side[q]))
    c1 = float(np.min(outside / side[q]))
    p = tree["rparent"][q]
    kid, p = q[p >= 0], p[p >= 0]
    drift = paired_distances(z[kid], z[p])
    C_nest = float(np.max(drift / (side[p] - side[kid]), initial=0.0))
    C1 = max(C_member, C_nest, 0.5)
    c1 = min(c1, C1) if np.isfinite(c1) else C1
    return c1, C1


# ---------------------------------------------------------------------------
# synthetic systems (abstract trees with unit-weight leaf samples)
# ---------------------------------------------------------------------------


def synthetic_system(depth: int) -> CubeSystem:
    """Full binary tree of the given depth as a CubeSystem.

    Leaves are unit-weight samples at positions i + 0.5 on a line.  Useful
    for packing/embedding experiments where no geometry is needed.
    """
    n = 2**depth
    xs = np.arange(n) + 0.5
    pts = np.column_stack([xs, np.zeros(n)])
    weights = np.ones(n)
    E = BoundarySet(
        descriptor=PointList(
            points=tuple(map(tuple, pts)), weights=tuple(map(float, weights))
        ),
        window=Window((0.0, -1.0), (float(n), 1.0)),
        resolution=1.0,
        points=pts,
        weights=weights,
        params=None,
    )
    gens = []
    for k in range(depth + 1):
        width = n // 2**k
        gens.append(
            [(np.arange(m * width, (m + 1) * width), m * width + width // 2) for m in range(2**k)]
        )
    return _finalize(E, gens, 0, depth, float(n), constants=(0.5, 1.0))
