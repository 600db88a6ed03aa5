"""Packing constants, sparse witnesses, maximal operators, discrete embedding.

The sparse witness is produced by an exact max-flow (Dinic) on the bipartite
graph (cubes) x (samples): source -> cube with capacity lambda*sigma(Q),
cube -> member sample with unbounded capacity, sample -> sink with capacity
equal to its quadrature weight.  Feasibility of the flow at lambda = 1/Lambda
is the constructive face of the sparse <=> Carleson equivalence; witnesses
are fractional (sample weights may be split between cubes).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .dyadic import CubeSystem
from .geometry import ball_sums, distinct, pair_distances, row_blocks


def _as_ids(collection) -> np.ndarray:
    """The distinct cube ids of a list or array, ascending."""
    return distinct(np.asarray(collection, dtype=np.int64))


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def subtree_sums(S: CubeSystem, collection) -> np.ndarray:
    """Per cube Q0: sum of sigma(Q) over collection cubes inside Q0, 0 off
    the relevant tree.

    Children add into their parents one parent generation at a time,
    finest first, so each child's sum is whole; `add.at` applies a
    parent's adds in ascending child id, after its own sigma.  A
    generation's ids are consecutive, so its cubes' children are one
    stretch of the child CSR.
    """
    ids = _as_ids(collection)
    sums = np.zeros(S.n_cubes)
    sums[ids] = S.measure[ids]
    for level, _ in reversed(S.levels):
        if len(level):
            ch = S.child_cube[S.child_ptr[level[0]] : S.child_ptr[level[-1] + 1]]
            np.add.at(sums, S.rparent[ch], sums[ch])
    return sums


def packing_constant(S: CubeSystem, collection, within: int | None = None) -> float:
    """max over Q0 of sum_{Q in collection, Q inside Q0} sigma(Q) / sigma(Q0).

    `within` restricts both the collection and the candidate Q0 to a subtree.
    Returns 0.0 for an empty collection.
    """
    ids = _as_ids(collection)
    candidates = S.relevant
    if within is not None:
        candidates = S.subtree(within)
        ids = ids[candidates[ids]]
    if not len(ids):
        return 0.0
    return float((subtree_sums(S, ids)[candidates] / S.measure[candidates]).max())


# ---------------------------------------------------------------------------
# max-flow (Dinic) and sparse witnesses
# ---------------------------------------------------------------------------


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.to: list = []
        self.cap: list = []
        self.head: list = [[] for _ in range(n)]

    def add(self, u: int, v: int, c: float) -> int:
        e = len(self.to)
        self.to += [v, u]
        self.cap += [c, 0.0]
        self.head[u].append(e)
        self.head[v].append(e + 1)
        return e

    def maxflow(self, s: int, t: int, eps: float) -> float:
        flow = 0.0
        while True:
            level = [-1] * self.n
            level[s] = 0
            dq = deque([s])
            while dq:
                u = dq.popleft()
                for e in self.head[u]:
                    v = self.to[e]
                    if self.cap[e] > eps and level[v] < 0:
                        level[v] = level[u] + 1
                        dq.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u: int, f: float) -> float:
                if u == t:
                    return f
                while it[u] < len(self.head[u]):
                    e = self.head[u][it[u]]
                    v = self.to[e]
                    if self.cap[e] > eps and level[v] == level[u] + 1:
                        d = dfs(v, min(f, self.cap[e]))
                        if d > eps:
                            self.cap[e] -= d
                            self.cap[e ^ 1] += d
                            return d
                    it[u] += 1
                return 0.0

            while True:
                f = dfs(s, float("inf"))
                if f <= eps:
                    break
                flow += f

    def source_side(self, s: int, eps: float) -> set:
        """Nodes reachable from s in the residual graph (a min cut)."""
        seen = {s}
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > eps and v not in seen:
                    seen.add(v)
                    dq.append(v)
        return seen


@dataclass
class SparseWitness:
    lam: float
    assignments: dict  # qid -> list of (sample index, mass)
    feasible: bool = True

    def mass(self, qid: int) -> float:
        return sum(m for _, m in self.assignments[qid])


@dataclass
class InfeasibleCut:
    lam: float
    cut_cubes: list  # subfamily whose demand exceeds the mass of its union
    demand: float
    capacity: float
    feasible: bool = False


def sparse_witness(S: CubeSystem, collection, lam: float):
    """Disjoint major subsets E_Q with sigma(E_Q) >= lam*sigma(Q), or a cut.

    Decided exactly by max-flow; witnesses are fractional in the sample
    weights.  Infeasibility returns the violating subfamily from the min cut.
    """
    if not (0 < lam <= 1):
        raise ValueError("lambda must be in (0, 1]")
    ids = _as_ids(collection).tolist()
    if not ids:
        return SparseWitness(lam=lam, assignments={})
    rows = [m.tolist() for m in S.member_rows(ids)]
    samples = sorted(set(i for row in rows for i in row))
    samp_node = {s: 1 + len(ids) + j for j, s in enumerate(samples)}
    src = 0
    sink = 1 + len(ids) + len(samples)
    net = _Dinic(sink + 1)
    w = S.E.weights
    demand = 0.0
    src_edges = []
    mid_edges: dict = {}
    for a, (q, sigma) in enumerate(zip(ids, S.measure[ids].tolist())):
        d = lam * sigma
        demand += d
        src_edges.append(net.add(src, 1 + a, d))
        mid_edges[q] = [(net.add(1 + a, samp_node[i], float("inf")), i) for i in rows[a]]
    for s, ws in zip(samples, w[samples].tolist()):
        net.add(samp_node[s], sink, ws)
    eps = 1e-12 * max(demand, 1.0)
    flow = net.maxflow(src, sink, eps)
    if flow >= demand - 1e-9 * max(demand, 1.0):
        assignments = {}
        for q in ids:
            rows = []
            for e, i in mid_edges[q]:
                used = net.cap[e ^ 1]  # flow pushed = reverse capacity
                if used > eps:
                    rows.append((i, float(used)))
            assignments[q] = rows
        return SparseWitness(lam=lam, assignments=assignments)
    side = net.source_side(src, eps)
    cut = [q for a, q in enumerate(ids) if (1 + a) in side]
    members = set()
    for q in cut:
        members.update(S.members(q).tolist())
    return InfeasibleCut(
        lam=lam,
        cut_cubes=cut,
        demand=float(sum(lam * S.sigma(q) for q in cut)),
        capacity=float(sum(w[i] for i in members)),
    )


# ---------------------------------------------------------------------------
# maximal operators
# ---------------------------------------------------------------------------


def dyadic_maximal(S: CubeSystem, f: np.ndarray, cubes=None) -> np.ndarray:
    """M_dyadic f: per sample, sup of |f| cube averages along its chain.

    `cubes` limits the averaging to those ids, which is exact at the
    samples whose chains they hold."""
    avg = S.cube_averages(np.abs(np.asarray(f, dtype=float)), cubes)
    return S.down_max(avg, -np.inf)[S.sample_leaf]


def default_radii(S: CubeSystem) -> np.ndarray:
    """Log radius grid aligned with C1*l(Q) over the generation range, plus
    8 log-spaced radii from half the finest to twice the coarsest."""
    rs = [S.C1 * 2.0 ** (-k) * S.scale for k in range(S.k_min, S.k_max + 1)]
    lo, hi = min(rs), max(rs)
    grid = np.geomspace(lo / 2, hi * 2, 8)
    return distinct(np.concatenate([rs, grid]))


def hl_maximal(S: CubeSystem, f: np.ndarray) -> np.ndarray:
    """Hardy-Littlewood maximal function over a radius/center grid.

    Every sample is a center and `default_radii` are the radii.  A lower
    bound of the true M f; the grid includes the surface-ball radii C1*l(Q)
    so cube averages are always dominated up to the ball/cube mass ratio.

    `f` is one function per sample or a (k, n_samples) stack of them; the
    result has the same shape, and each row is what that row alone gives.
    Centers run in row blocks of one distance block each, searched and
    sorted once for all rows.  A sample x lies in B(c, r) for exactly the
    radii from the first one above |x - c|, so it takes the suffix max of
    c's ball averages over the radii from there.
    """
    E = S.E
    f = np.abs(np.asarray(f, dtype=float))
    radii = default_radii(S)
    pts, w = E.points, E.weights
    # row 0 weighs the balls, rows 1.. weigh f over them
    stack = np.vstack([w, f * w])
    out = np.zeros((len(stack) - 1, E.n_samples))
    for rows in row_blocks(E.n_samples, E.n_samples):
        d = pair_distances(pts[rows], pts)
        count, first, sums = ball_sums(d, radii, stack)
        avg = np.divide(
            sums[1:], sums[0], out=np.zeros_like(sums[1:]), where=count > 0
        )
        # best[..., j]: max average over the radii from r_j up; 0 past the last
        best = np.zeros(avg.shape[:2] + (len(radii) + 1,))
        best[..., :-1] = np.maximum.accumulate(avg[..., ::-1], axis=-1)[..., ::-1]
        hit = np.take_along_axis(best, first[None], axis=-1)
        out = np.maximum(out, hit.max(axis=1))
    return out.reshape(f.shape)


# ---------------------------------------------------------------------------
# discrete Carleson embedding
# ---------------------------------------------------------------------------


def carleson_embedding_check(
    S: CubeSystem, f: np.ndarray, collection, q0: int, md: np.ndarray | None = None
):
    """lhs = sum over collection inside Q0 of int_Q f; rhs = Lambda*int_{Q0} M_dyadic f.

    `md` is M_dyadic f per sample when the caller already has it.  Returns
    (lhs, rhs, holds).  A violation indicates an implementation bug: the
    inequality is unconditional.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f < 0):
        raise ValueError("f must be nonnegative")
    inside = S.subtree(q0)
    ids = _as_ids(collection)
    ids = ids[inside[ids]]
    w = S.E.weights
    lhs = 0.0
    for m in S.member_rows(ids):
        lhs += float(np.dot(f[m], w[m]))
    lam = packing_constant(S, ids, within=q0)
    if md is None:
        # Q0's samples have chains of Q0's ancestors and subtree cubes only
        row, chain = S.anc_at[q0], inside.copy()
        chain[row[row >= 0]] = True
        md = dyadic_maximal(S, f, np.flatnonzero(chain))
    m0 = S.members(q0)
    rhs = lam * float(np.dot(md[m0], w[m0]))
    holds = lhs <= rhs * (1 + 1e-12) + 1e-15
    return lhs, rhs, holds
