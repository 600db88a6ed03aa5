"""Packing constants, sparse witnesses, maximal operators, discrete embedding.

Sparse witnesses.  A collection of cubes of one CubeSystem is laminar: two
of its cubes are disjoint or nested.  For a laminar family, Hall's
condition for disjoint E_Q inside Q with sigma(E_Q) >= lam*sigma(Q) reduces
to one inequality per cube,

    sum of lam*sigma(Q') over collection cubes Q' inside Q  <=  sigma(Q),

which is the packing bound at lam = 1/Lambda: the constructive face of the
sparse <=> Carleson equivalence.  `sparse_witness` builds E_Q finest first,
one generation at a time (the cubes of one generation hold disjoint
samples): each cube takes what is left of its members' weights, in member
order, up to its demand.  Every later cube that meets Q contains Q, so it
does not matter which of Q's samples the cubes inside Q used, and the pass
meets every demand whenever the inequalities hold.  A set-equal copy of a
cube is nested with it both ways, so it needs no special case.  Witnesses
are fractional: a sample's weight may be split between cubes.

If a cube Q falls short, the pass has used all of Q's members, and every
collection cube inside Q took at most its demand, so Q with the collection
cubes inside it demands more than sigma(Q), the mass of their union: that
subfamily is the returned cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import CubeSystem
from .geometry import ball_sums, csr_rows, distinct


def _as_ids(collection) -> np.ndarray:
    """The distinct cube ids of a list or array, ascending."""
    return distinct(np.asarray(collection, dtype=np.int64))


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def relevant_copy(S: CubeSystem, ids: np.ndarray) -> np.ndarray:
    """Per cube id: the relevant cube with the same members, the cube itself
    if relevant.  It is the first relevant cube at or below the cube's
    generation on its first member's chain: a cube there holds that member,
    so it is nested with the cube and its relevant copy, hence set-equal to
    both, and only the deepest set-equal copy is relevant."""
    row = S.anc_at[S.sample_leaf[S.member_sample[S.member_ptr[ids]]]]
    below = np.arange(row.shape[1]) >= (S.gen[ids] - S.k_min)[:, None]
    return row[np.arange(len(ids)), np.argmax(below & (row >= 0), axis=1)]


def subtree_sums(S: CubeSystem, collection) -> np.ndarray:
    """Per cube Q0: sum of sigma(Q) over collection cubes inside Q0, 0 off
    the relevant tree.

    A cube counts at every relevant ancestor of its relevant copy, so a
    non-relevant cube counts where its set-equal copy does.  One `bincount`
    adds each sum's sigmas in ascending collection id.
    """
    ids = _as_ids(collection)
    anc = S.anc_at[relevant_copy(S, ids)]
    live = anc >= 0
    sigma = np.broadcast_to(S.measure[ids][:, None], anc.shape)
    return np.bincount(anc[live], weights=sigma[live], minlength=S.n_cubes)


def packing_constant(S: CubeSystem, collection, within: int | None = None) -> float:
    """max over Q0 of sum_{Q in collection, Q inside Q0} sigma(Q) / sigma(Q0).

    `within` restricts both the collection and the candidate Q0 to a subtree.
    Returns 0.0 for an empty collection.
    """
    ids = _as_ids(collection)
    candidates = S.relevant
    if within is not None:
        candidates = S.subtree(within)
        ids = ids[candidates[relevant_copy(S, ids)]]
    if not len(ids):
        return 0.0
    return float((subtree_sums(S, ids)[candidates] / S.measure[candidates]).max())


# ---------------------------------------------------------------------------
# sparse witnesses
# ---------------------------------------------------------------------------


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

    One finest-first pass over the distinct ids (see the module docstring);
    witnesses are fractional in the sample weights.  The cube furthest
    short of its demand gives the cut: it and the collection cubes inside it.
    """
    if not (0 < lam <= 1):
        raise ValueError("lambda must be in (0, 1]")
    ids = _as_ids(collection)
    if not len(ids):
        return SparseWitness(lam=lam, assignments={})
    need = lam * S.measure[ids]
    count = np.diff(S.member_ptr)[ids]
    start = np.cumsum(count) - count
    sample = S.member_sample[csr_rows(S.member_ptr, ids)]
    take = np.empty(len(sample))
    rem = S.E.weights.copy()
    # ids ascend, so generations do: one run of ids per generation, and the
    # cubes of one generation hold disjoint samples
    runs = np.flatnonzero(np.diff(S.gen[ids])) + 1
    bounds = [0, *runs.tolist(), len(ids)]
    for lo, hi in reversed(list(zip(bounds[:-1], bounds[1:]))):
        a, b = start[lo], start[hi - 1] + count[hi - 1]
        s = sample[a:b]
        r = rem[s]
        # the weight left before each entry within its row
        before = np.cumsum(r) - r
        before -= np.repeat(before[start[lo:hi] - a], count[lo:hi])
        t = np.clip(np.repeat(need[lo:hi], count[lo:hi]) - before, 0.0, r)
        take[a:b] = t
        rem[s] = r - t
    demand = float(need.sum())
    if float(take.sum()) >= demand - 1e-9 * max(demand, 1.0):
        kept = take > 0
        ends = np.cumsum(kept)[start + count - 1].tolist()
        pairs = list(zip(sample[kept].tolist(), take[kept].tolist()))
        return SparseWitness(
            lam=lam,
            assignments={
                q: pairs[lo:hi] for q, lo, hi in zip(ids.tolist(), [0] + ends[:-1], ends)
            },
        )
    # any short cube gives a cut; the furthest short one is short by at least
    # the total shortfall over len(ids), far above rounding
    q = ids[np.argmax(need - np.add.reduceat(take, start))]
    m = S.members(q)
    inside = np.zeros(S.E.n_samples, dtype=bool)
    inside[m] = True
    # a collection cube meeting Q is nested with it, so inside it if no larger
    cut = inside[sample[start]] & (count <= len(m))
    return InfeasibleCut(
        lam=lam,
        cut_cubes=ids[cut].tolist(),
        demand=float(need[cut].sum()),
        capacity=float(S.E.weights[m].sum()),
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


def hl_maximal(S: CubeSystem, f: np.ndarray) -> np.ndarray:
    """Hardy-Littlewood maximal function over a radius/center grid.

    Every sample is a center and the radii are `S.radius_grid` up to twice
    the coarsest C1*l(Q), with 8 log-spaced ones.  A lower bound of the
    true M f; the grid includes the surface-ball radii C1*l(Q) so cube
    averages are always dominated up to the ball/cube mass ratio.

    `f` is one function per sample or a (k, n_samples) stack of them; the
    result has the same shape, and each row is what that row alone gives.
    The ball sums of a block of centers serve all rows (`ball_sums`).  A
    sample x lies in B(c, r) for exactly the radii from the first one above
    |x - c|, so it takes the suffix max of c's ball averages over the radii
    from there.
    """
    E = S.E
    f = np.abs(np.asarray(f, dtype=float))
    radii = S.radius_grid(2 * S.C1 * 2.0 ** (-S.k_min) * S.scale, 8)
    pts, w = E.points, E.weights
    # row 0 weighs the balls, rows 1.. weigh f over them
    stack = np.vstack([w, f * w])
    out = np.zeros((len(stack) - 1, E.n_samples))
    for _, cell, sums in ball_sums(pts, pts, radii, stack):
        # the weights are positive: a ball with mass holds a sample
        avg = np.divide(
            sums[1:], sums[0], out=np.zeros_like(sums[1:]), where=sums[0] > 0
        )
        # best[..., j]: max average over the radii from r_j up; 0 past the last
        best = np.zeros(avg.shape[:2] + (len(radii) + 1,))
        best[..., :-1] = np.maximum.accumulate(avg[..., ::-1], axis=-1)[..., ::-1]
        for row, b in zip(out, best):
            np.maximum(row, np.take(b, cell).max(axis=0), out=row)
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
    ids = ids[inside[relevant_copy(S, ids)]]
    w = S.E.weights
    m = S.member_sample[csr_rows(S.member_ptr, ids)]
    lhs = float((f[m] * w[m]).sum())
    lam = packing_constant(S, ids, within=q0)
    if md is None:
        # Q0's samples have chains of Q0's ancestors and subtree cubes only
        row, chain = S.anc_at[q0], inside.copy()
        chain[row[row >= 0]] = True
        md = dyadic_maximal(S, f, np.flatnonzero(chain))
    m0 = S.members(q0)
    rhs = lam * float((md[m0] * w[m0]).sum())
    holds = lhs <= rhs * (1 + 1e-12) + 1e-15
    return lhs, rhs, holds
