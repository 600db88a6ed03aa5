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

from dataclasses import dataclass, field

import numpy as np

from .geometry import BoundarySet


@dataclass
class Cube:
    id: int
    k: int
    z: np.ndarray
    side: float
    sample_idx: np.ndarray
    measure: float
    parent: int | None = None
    children: list = field(default_factory=list)
    relevant: bool = True
    # relevant-tree links (set after dedup)
    rparent: int | None = None
    rchildren: list = field(default_factory=list)
    param_range: tuple | None = None  # graph systems: [a, b) in parameter space


@dataclass
class CubeSystem:
    E: BoundarySet
    cubes: list
    scale: float
    k_min: int
    k_max: int
    generations: dict
    c1: float
    C1: float
    # the relevant-tree index, built once by `_relevant_tree`
    roots: list
    sample_leaf: np.ndarray  # finest relevant cube id containing each sample
    # per generation, coarsest first: (relevant ids, their relevant parents),
    # int32, a root's parent being -1; every parent comes in an earlier level
    levels: list
    # anc_at[q, k - k_min]: cube q's relevant ancestor at generation k (q
    # itself at its own), -1 where there is none; the extra last row, read
    # through a root's parent -1, is all -1
    anc_at: np.ndarray
    side: np.ndarray  # l(Q) per cube id
    gen: np.ndarray  # generation k per cube id

    # -- navigation -------------------------------------------------------

    def cube(self, qid: int) -> Cube:
        return self.cubes[qid]

    def relevant_ids(self) -> list:
        return [c.id for c in self.cubes if c.relevant]

    def sigma(self, qid: int) -> float:
        return self.cubes[qid].measure

    def chain(self, sample: int) -> list:
        """Relevant cubes containing the sample, coarsest first."""
        row = self.anc_at[self.sample_leaf[sample]]
        return row[row >= 0].tolist()

    def descendants(self, qid: int) -> list:
        """The cube, then its relevant descendants."""
        out = [qid]
        stack = list(self.cubes[qid].rchildren)
        while stack:
            q = stack.pop()
            out.append(q)
            stack.extend(self.cubes[q].rchildren)
        return out

    def contains(self, qid: int, pid: int) -> bool:
        """True iff cube `pid` is inside cube `qid` (relevant tree)."""
        return pid == qid or bool(self.anc_at[pid, self.gen[qid] - self.k_min] == qid)

    def relevant_at_gen(self, k: int) -> list:
        return [q for q in self.generations.get(k, []) if self.cubes[q].relevant]

    def cube_averages(self, f: np.ndarray) -> np.ndarray:
        """Per cube id: weighted average of f over member samples, 0 off the
        relevant tree."""
        w = self.E.weights
        out = np.zeros(len(self.cubes))
        for q in self.relevant_ids():
            c = self.cubes[q]
            out[q] = np.dot(f[c.sample_idx], w[c.sample_idx]) / c.measure
        return out

    def down_max(self, own: np.ndarray, start: float) -> np.ndarray:
        """Per cube: the max of `start` and of the per-cube `own` over the
        cube and its relevant ancestors, propagated root to leaf one
        generation at a time.  A sample's chain max is the value at its
        `sample_leaf`."""
        # the extra last slot is what a root's parent -1 reads
        val = np.full(len(self.cubes) + 1, start)
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
    inclusion_budget: tuple = (1e-6, 64.0),
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
    if E.params is not None:
        raw = _build_graph_forest(E, k_min, k_max, scale)
    else:
        raw = _build_net_forest(E, k_min, k_max, scale)
    system = _finalize(E, raw, k_min, k_max, scale)
    lo, hi = inclusion_budget
    if not (system.c1 >= lo and system.C1 <= hi):
        raise ValueError(
            f"measured inclusion constants (c1={system.c1:.3g}, C1={system.C1:.3g}) "
            f"outside budget {inclusion_budget}"
        )
    return system


def _build_graph_forest(E: BoundarySet, k_min, k_max, scale):
    """Standard dyadic intervals in parameter space under one shifted root."""
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
    cubes = []
    for k in range(k_min, k_max + 1):
        side = 2.0 ** (-k) * scale
        edges = a0 + side * np.arange(int(round(root_len / side)) + 1)
        idx = np.searchsorted(params[order], edges)
        gen = []
        for m in range(len(edges) - 1):
            members = order[idx[m] : idx[m + 1]]
            if len(members) == 0:
                continue
            gen.append(
                {
                    "k": k,
                    "members": np.sort(members),
                    "param_range": (float(edges[m]), float(edges[m + 1])),
                    "side": side,
                }
            )
        cubes.append(gen)
    return cubes


def _build_net_forest(E: BoundarySet, k_min, k_max, scale):
    """Greedy maximal-separated nets, nested across generations."""
    pts = E.points
    n = len(pts)
    centers_prev: list = []
    gens = []
    assign_prev = None
    for k in range(k_min, k_max + 1):
        r = 2.0 ** (-k) * scale
        centers = list(centers_prev)
        for i in range(n):
            p = pts[i]
            if all(np.linalg.norm(p - pts[c]) >= r for c in centers):
                centers.append(i)
        centers.sort()
        # assign samples to nearest center, restricted to the parent's cell
        assign = np.empty(n, dtype=int)
        if assign_prev is None:
            for i in range(n):
                d = [np.linalg.norm(pts[i] - pts[c]) for c in centers]
                assign[i] = centers[int(np.argmin(d))]
        else:
            cell_centers: dict = {}
            for c in centers:
                cell_centers.setdefault(int(assign_prev[c]), []).append(c)
            for i in range(n):
                cands = cell_centers[int(assign_prev[i])]
                d = [np.linalg.norm(pts[i] - pts[c]) for c in cands]
                assign[i] = cands[int(np.argmin(d))]
        gen = []
        for c in centers:
            members = np.where(assign == c)[0]
            if len(members):
                side = r
                gen.append(
                    {"k": k, "members": members, "center_idx": c, "side": side}
                )
        gens.append(gen)
        centers_prev = centers
        assign_prev = assign
    return gens


def _finalize(E: BoundarySet, raw, k_min, k_max, scale) -> CubeSystem:
    pts, w = E.points, E.weights
    cubes: list[Cube] = []
    generations: dict = {}
    prev_by_sample = None
    for gen in raw:
        ids_this = []
        for spec in gen:
            members = spec["members"]
            if "center_idx" in spec:
                z = pts[spec["center_idx"]]
            else:
                a, b = spec["param_range"]
                mid = (a + b) / 2.0
                mp = E.params[members]
                z = pts[members[int(np.argmin(np.abs(mp - mid)))]]
            c = Cube(
                id=len(cubes),
                k=spec["k"],
                z=np.asarray(z, dtype=float),
                side=spec["side"],
                sample_idx=members,
                measure=float(w[members].sum()),
                param_range=spec.get("param_range"),
            )
            if prev_by_sample is not None:
                c.parent = int(prev_by_sample[members[0]])
                cubes[c.parent].children.append(c.id)
            cubes.append(c)
            ids_this.append(c.id)
        generations.setdefault(gen[0]["k"] if gen else 0, []).extend(ids_this)
        by_sample = np.full(E.n_samples, -1, dtype=int)
        for q in ids_this:
            by_sample[cubes[q].sample_idx] = q
        prev_by_sample = by_sample

    tree = _relevant_tree(cubes, generations, k_min, k_max, E.n_samples)
    c1, C1 = _inclusion_constants(E, cubes)
    return CubeSystem(
        E=E,
        cubes=cubes,
        scale=scale,
        k_min=k_min,
        k_max=k_max,
        generations=generations,
        c1=c1,
        C1=C1,
        **tree,
    )


def _relevant_tree(cubes, generations, k_min, k_max, n_samples) -> dict:
    """Mark the relevant cubes, link them, and index the relevant tree.

    Of each set-equal chain of cubes only the deepest copy stays relevant.
    Returns the CubeSystem fields from `roots` on.
    """
    for c in cubes:
        if len(c.children) == 1:
            child = cubes[c.children[0]]
            if len(child.sample_idx) == len(c.sample_idx):
                c.relevant = False
    for c in cubes:
        if not c.relevant:
            continue
        p = c.parent
        while p is not None and not cubes[p].relevant:
            p = cubes[p].parent
        c.rparent = p
        if p is not None:
            cubes[p].rchildren.append(c.id)
    sample_leaf = np.full(n_samples, -1, dtype=int)
    for c in cubes:
        if c.relevant and not c.rchildren:
            sample_leaf[c.sample_idx] = c.id
    levels = []
    anc_at = np.full((len(cubes) + 1, k_max - k_min + 1), -1, dtype=np.int32)
    for g, k in enumerate(range(k_min, k_max + 1)):
        ids = [q for q in generations.get(k, []) if cubes[q].relevant]
        par = [-1 if cubes[q].rparent is None else cubes[q].rparent for q in ids]
        ids, par = np.array(ids, dtype=np.int32), np.array(par, dtype=np.int32)
        anc_at[ids] = anc_at[par]
        anc_at[ids, g] = ids
        levels.append((ids, par))
    return {
        "roots": [c.id for c in cubes if c.relevant and c.rparent is None],
        "sample_leaf": sample_leaf,
        "levels": levels,
        "anc_at": anc_at,
        "side": np.array([c.side for c in cubes]),
        "gen": np.array([c.k for c in cubes]),
    }


def _inclusion_constants(E: BoundarySet, cubes) -> tuple:
    """Measured (c1, C1) for Delta(z_Q, c1 l) subset Q subset Delta(z_Q, C1 l).

    C1 also absorbs the parent-child center drift so that the surface balls
    Delta_Q nest along inclusions.
    """
    pts = E.points
    C_member = 0.0
    C_nest = 0.0
    c1 = np.inf
    for c in cubes:
        if not c.relevant:
            continue
        d = np.linalg.norm(pts[c.sample_idx] - c.z, axis=1)
        if len(d):
            C_member = max(C_member, float(d.max()) / c.side)
        mask = np.ones(len(pts), dtype=bool)
        mask[c.sample_idx] = False
        if mask.any():
            dout = np.min(np.linalg.norm(pts[mask] - c.z, axis=1))
            c1 = min(c1, float(dout) / c.side)
        if c.rparent is not None:
            p = cubes[c.rparent]
            drift = float(np.linalg.norm(c.z - p.z))
            C_nest = max(C_nest, drift / (p.side - c.side))
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
    from .geometry import BoundarySet, PointList, Window

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
    cubes: list[Cube] = []
    generations: dict = {}
    prev: list = []
    for k in range(depth + 1):
        width = n // 2**k
        ids = []
        for m in range(2**k):
            members = np.arange(m * width, (m + 1) * width)
            c = Cube(
                id=len(cubes),
                k=k,
                z=pts[members[len(members) // 2]],
                side=float(width),
                sample_idx=members,
                measure=float(weights[members].sum()),
            )
            if prev:
                c.parent = prev[m // 2]
                cubes[c.parent].children.append(c.id)
            cubes.append(c)
            ids.append(c.id)
        generations[k] = ids
        prev = ids
    return CubeSystem(
        E=E,
        cubes=cubes,
        scale=float(n),
        k_min=0,
        k_max=depth,
        generations=generations,
        c1=0.5,
        C1=1.0,
        **_relevant_tree(cubes, generations, 0, depth, n),
    )
