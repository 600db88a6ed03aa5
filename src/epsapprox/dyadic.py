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
    roots: list
    generations: dict
    c1: float
    C1: float
    sample_leaf: np.ndarray  # finest relevant cube id containing each sample

    # -- navigation -------------------------------------------------------

    def cube(self, qid: int) -> Cube:
        return self.cubes[qid]

    def relevant_ids(self) -> list:
        return [c.id for c in self.cubes if c.relevant]

    def side(self, qid: int) -> float:
        return self.cubes[qid].side

    def sigma(self, qid: int) -> float:
        return self.cubes[qid].measure

    def chain(self, sample: int) -> list:
        """Relevant cubes containing the sample, coarsest first."""
        out = []
        q = int(self.sample_leaf[sample])
        while q is not None:
            out.append(q)
            q = self.cubes[q].rparent
        return out[::-1]

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
        q = pid
        while q is not None:
            if q == qid:
                return True
            q = self.cubes[q].rparent
        return False

    def relevant_at_gen(self, k: int) -> list:
        return [q for q in self.generations.get(k, []) if self.cubes[q].relevant]

    def cube_averages(self, f: np.ndarray) -> dict:
        """Per relevant cube: weighted average of f over member samples."""
        w = self.E.weights
        out = {}
        for q in self.relevant_ids():
            c = self.cubes[q]
            out[q] = float(np.dot(f[c.sample_idx], w[c.sample_idx]) / c.measure)
        return out


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

    _dedup_relevant(cubes)
    _link_relevant(cubes)
    sample_leaf = np.full(E.n_samples, -1, dtype=int)
    for c in cubes:
        if c.relevant and not c.rchildren:
            sample_leaf[c.sample_idx] = c.id
    c1, C1 = _inclusion_constants(E, cubes)
    roots = [c.id for c in cubes if c.relevant and c.rparent is None]
    return CubeSystem(
        E=E,
        cubes=cubes,
        scale=scale,
        k_min=k_min,
        k_max=k_max,
        roots=roots,
        generations=generations,
        c1=c1,
        C1=C1,
        sample_leaf=sample_leaf,
    )


def _dedup_relevant(cubes):
    """Keep only the deepest copy of each set-equal chain of cubes."""
    for c in cubes:
        if len(c.children) == 1:
            child = cubes[c.children[0]]
            if len(child.sample_idx) == len(c.sample_idx):
                c.relevant = False


def _link_relevant(cubes):
    for c in cubes:
        if not c.relevant:
            continue
        p = c.parent
        while p is not None and not cubes[p].relevant:
            p = cubes[p].parent
        c.rparent = p
        if p is not None:
            cubes[p].rchildren.append(c.id)


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
    _dedup_relevant(cubes)
    _link_relevant(cubes)
    sample_leaf = np.full(n, -1, dtype=int)
    for c in cubes:
        if c.relevant and not c.rchildren:
            sample_leaf[c.sample_idx] = c.id
    return CubeSystem(
        E=E,
        cubes=cubes,
        scale=float(n),
        k_min=0,
        k_max=depth,
        roots=[0],
        generations=generations,
        c1=0.5,
        C1=1.0,
        sample_leaf=sample_leaf,
    )
