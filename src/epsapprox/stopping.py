"""Stopping-time cube families and their packing certification.

Three constructions drive the approximant:

* principal cubes: stop where the cube numbers sup_{R >= Q} avg_R(N_* u)
  more than double relative to the governing stopping ancestor;
* large-oscillation cubes: components where u oscillates more than
  eps times the cube number, labeled red (else blue);
* generation cubes: per corona regime, stop when the regime is exited or
  the value of u at the region anchor points drifts more than eps times
  the cube number.

Each family is stored as arrays indexed by cube id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .carleson import packing_constant
from .config import Budgets
from .dyadic import CubeSystem
from .functionals import FunctionalSuite
from .geometry import distinct, paired_distances
from .whitney import RegionComplex


# ---------------------------------------------------------------------------
# principal cubes
# ---------------------------------------------------------------------------


@dataclass
class PrincipalFamily:
    """The family as arrays indexed by cube id."""

    member: np.ndarray  # bool
    initial: list  # the increasing chain I
    projection: np.ndarray  # int32: the smallest family cube containing the cube, -1 off the tree
    depth: np.ndarray  # int32: a family cube's chain length to the initial collection, else -1


def initial_chain(S: CubeSystem) -> list:
    """Ancestor chain of the central base cube, coarsest first.

    For bounded boundaries this is just the relevant root.
    """
    if S.E.bounded:
        return [S.roots[0]]
    center = np.asarray(
        [(l + h) / 2 for l, h in zip(S.E.window.lo, S.E.window.hi)]
    )
    i = int(np.argmin(paired_distances(S.E.points, center[None, :])))
    return S.chain(i)


def principal_cubes(S: CubeSystem, numbers: np.ndarray, chain: list) -> PrincipalFamily:
    """Iterated maximal-stopping family for the doubling condition.

    numbers: per-cube value of sup over ancestors of the N_* u average.
    chain: increasing initial collection (finest first in tree order is not
    required; it is sorted internally).
    """
    chain = sorted(chain, key=lambda q: S.gen[q])
    if not chain:
        raise ValueError("initial collection is empty")
    n = S.n_cubes
    member = np.zeros(n, dtype=bool)
    member[chain] = True
    depth = np.full(n, -1, dtype=np.int32)
    depth[chain] = 0
    # the extra last slots are what a root's parent -1 reads
    proj = np.full(n + 1, -1, dtype=np.int32)
    while True:
        # one top-down pass projects every cube onto the family and takes
        # the maximal violators only: anything below a violator is blocked
        # until the next pass re-projects it
        added = np.zeros(n, dtype=bool)
        blocked = np.zeros(n + 1, dtype=bool)
        for ids, par in S.levels:
            proj[ids] = np.where(member[ids], ids, proj[par])
            anchor = proj[ids]
            bad = ~member[ids] & (anchor >= 0) & (numbers[ids] > 2 * numbers[anchor])
            added[ids] = bad & ~blocked[par]
            blocked[ids] = blocked[par] | bad
        if not added.any():
            break
        new = np.flatnonzero(added)
        depth[new] = depth[proj[new]] + 1
        member[new] = True
    if (proj[:-1][S.relevant] < 0).any():
        raise ValueError("initial chain does not cover the forest roots")
    return PrincipalFamily(member=member, initial=chain, projection=proj[:-1], depth=depth)


def verify_principal_packing(
    S: CubeSystem,
    fam: PrincipalFamily,
    numbers: np.ndarray,
    budget_factor: float = Budgets.principal_packing_factor,
) -> dict:
    """Packing of the family against factor * Lambda(initial chain).

    Also checks the per-level geometric decay: the depth-k cubes below any
    family cube carry at most sigma(Q)/2^k (exact in the discrete system),
    and the doubling control numbers[Q] <= 2*numbers[projection(Q)].
    """
    ids = np.flatnonzero(fam.member)
    lam_chain = packing_constant(S, fam.initial)
    lam = packing_constant(S, ids)
    # (Q, R) pairs of family cubes, R strictly below Q at a greater depth
    # (the ancestors of R at every generation), summed per (Q, depth gap)
    q = S.anc_at[ids].ravel()
    r = np.repeat(ids, S.anc_at.shape[1])
    # the trailing slot is what a missing ancestor -1 reads
    member = np.append(fam.member, False)
    depth = np.append(fam.depth, -1)
    keep = member[q] & (q != r) & (depth[r] > depth[q])
    q, r = q[keep], r[keep]
    span = int(depth.max()) + 1
    key, inv = distinct(q.astype(np.int64) * span + depth[r] - depth[q], return_inverse=True)
    q, gap = np.divmod(key, span)
    below = np.bincount(inv, weights=S.measure[r], minlength=len(key))
    level_ok = bool(np.all(below <= S.measure[q] / 2.0**gap * (1 + 1e-9)))
    rest = np.flatnonzero(S.relevant & ~fam.member)
    doubling_ok = bool(
        np.all(numbers[rest] <= 2 * numbers[fam.projection[rest]] * (1 + 1e-12))
    )
    passed = lam <= budget_factor * lam_chain and level_ok and doubling_ok
    return {
        "Lambda": lam,
        "Lambda_initial": lam_chain,
        "level_decay_ok": level_ok,
        "doubling_ok": doubling_ok,
        "pass": bool(passed),
    }


# ---------------------------------------------------------------------------
# oscillation cubes
# ---------------------------------------------------------------------------


@dataclass
class OscillationLabels:
    red: np.ndarray  # per region component: large oscillation
    member: np.ndarray  # per cube: some red component (the collection R)


def oscillation_cubes(
    FS: FunctionalSuite, eps: float, numbers: np.ndarray
) -> OscillationLabels:
    """Label region components red/blue by osc u > eps * cube number."""
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0,1)")
    ptr = FS.RC.region_comp_ptr
    comp_cube = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
    bound = eps * numbers[comp_cube]
    red = FS.oscillations() > bound
    member = np.zeros(len(ptr) - 1, dtype=bool)
    member[comp_cube[red]] = True
    return OscillationLabels(red=red, member=member)


# ---------------------------------------------------------------------------
# generation cubes
# ---------------------------------------------------------------------------


@dataclass
class GenerationForest:
    """top[q]: the generation cube anchoring cube q's subregime, -1 outside
    every regime; the generation cubes G* are its fixed points."""

    top: np.ndarray  # (n_cubes,) int32

    @property
    def member(self) -> np.ndarray:
        """Per cube: True at a generation cube."""
        return self.top == np.arange(len(self.top))

    def subregime(self, t: int) -> np.ndarray:
        """The cubes of generation cube t's subregime, ascending."""
        return np.flatnonzero(self.top == t)


def generation_cubes(
    RC: RegionComplex, eps: float, numbers: np.ndarray, u
) -> GenerationForest:
    """Per-regime stopping on regime exit or anchor drift, one generation at
    a time.

    A regime top starts a subregime.  Another cube of the regime joins its
    parent's subregime unless the value of u at its Y_Q^{+/-} drifts from
    that subregime top's by more than eps * numbers[Q], in which case it
    starts one of its own.  Cubes outside every regime (bad or demoted)
    belong to none.
    """
    S, regime = RC.S, RC.corona.regime
    # u at Y_Q^{+/-} of every regime cube, regime by regime, in one evaluation
    cubes = np.flatnonzero(regime >= 0)
    cubes = cubes[np.argsort(regime[cubes], kind="stable")]
    ys = np.stack([RC.y_point(cubes, "+"), RC.y_point(cubes, "-")], axis=1)
    anchor = np.zeros((S.n_cubes, 2))
    anchor[cubes] = u.eval(ys.reshape(-1, 2)).reshape(-1, 2)
    # the extra last slot is what a root's parent -1 reads
    top = np.full(S.n_cubes + 1, -1, dtype=np.int32)
    for ids, par in S.levels:
        good = regime[ids] >= 0
        ids, par = ids[good], par[good]
        t = top[par]
        drift = np.abs(anchor[ids] - anchor[t]).max(axis=1)
        stop = (t < 0) | (regime[par] != regime[ids]) | (drift > eps * numbers[ids])
        top[ids] = np.where(stop, ids, t)
    return GenerationForest(top=top[:-1])


# ---------------------------------------------------------------------------
# eps^{-2} packing verification
# ---------------------------------------------------------------------------


def verify_eps_packing(
    S: CubeSystem, collection, eps: float, budget: float = Budgets.eps_packing
) -> dict:
    """Lambda = packing constant; pass iff Lambda <= budget / eps^2."""
    lam = packing_constant(S, collection)
    return {
        "eps": eps,
        "Lambda": lam,
        "bound": budget / eps**2,
        "pass": bool(lam <= budget / eps**2),
    }


def eps_scaling_chart(results: list) -> dict:
    """log Lambda vs log(1/eps) slopes across an eps grid."""
    pts = sorted((r["eps"], r["Lambda"]) for r in results if r["Lambda"] > 0)
    slopes = []
    for (e1, l1), (e2, l2) in zip(pts, pts[1:]):
        slopes.append(float(np.log(l2 / l1) / np.log(e1 / e2)))
    return {"points": pts, "slopes": slopes, "max_slope": max(slopes, default=0.0)}
