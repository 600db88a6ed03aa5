"""Stopping-time cube families and their packing certification.

Three constructions drive the approximant:

* principal cubes: stop where the cube numbers sup_{R >= Q} avg_R(N_* u)
  more than double relative to the governing stopping ancestor;
* large-oscillation cubes: components where u oscillates more than
  eps times the cube number, labeled red (else blue);
* generation cubes: per corona regime, stop when the regime is exited or
  the value of u at the region anchor points drifts more than eps times
  the cube number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .carleson import packing_constant
from .dyadic import CubeSystem
from .functionals import FunctionalSuite
from .whitney import RegionComplex


# ---------------------------------------------------------------------------
# principal cubes
# ---------------------------------------------------------------------------


@dataclass
class PrincipalFamily:
    cubes: set
    initial: list  # the increasing chain I
    projection: dict  # qid -> smallest family cube containing it
    depth: dict  # family cube -> chain length to the initial collection


def initial_chain(S: CubeSystem) -> list:
    """Ancestor chain of the central base cube, coarsest first.

    For bounded boundaries this is just the relevant root.
    """
    if S.E.bounded:
        return [S.roots[0]]
    center = np.asarray(
        [(l + h) / 2 for l, h in zip(S.E.window.lo, S.E.window.hi)]
    )
    i = int(np.argmin(np.linalg.norm(S.E.points - center, axis=1)))
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
    fam = set(chain)
    proj: dict = {}
    depth = {q: 0 for q in chain}
    # (cube, relevant parent or -1) one generation after another
    tree = [
        (q, p) for ids, par in S.levels for q, p in zip(ids.tolist(), par.tolist())
    ]

    def project_all():
        for q, p in tree:
            if q in fam:
                proj[q] = q
            else:
                proj[q] = proj[p] if p >= 0 else None

    project_all()
    changed = True
    while changed:
        changed = False
        # maximal violators only: scan top-down; anything below a violator
        # added this round is blocked until the next round re-projects it
        blocked: set = set()
        added = []
        for q, p in tree:
            if p in blocked:
                blocked.add(q)
                continue
            if q in fam or proj[q] is None:
                continue
            anchor = proj[q]
            if numbers[q] > 2 * numbers[anchor]:
                added.append((q, anchor))
                blocked.add(q)
        for q, anchor in added:
            fam.add(q)
            depth[q] = depth[anchor] + 1
            changed = True
        if changed:
            project_all()
    if None in proj.values():
        raise ValueError("initial chain does not cover the forest roots")
    return PrincipalFamily(
        cubes=fam,
        initial=list(chain),
        projection=proj,
        depth=depth,
    )


def verify_principal_packing(
    S: CubeSystem, fam: PrincipalFamily, numbers: np.ndarray, budget_factor: float = 4.0
) -> dict:
    """Packing of the family against factor * Lambda(initial chain).

    Also checks the per-level geometric decay: the depth-k cubes below any
    family cube carry at most sigma(Q)/2^k (exact in the discrete system),
    and the doubling control numbers[Q] <= 2*numbers[projection(Q)].
    """
    lam_chain = packing_constant(S, fam.initial)
    lam = packing_constant(S, sorted(fam.cubes))
    level_ok = True
    for q in fam.cubes:
        below = [
            r
            for r in fam.cubes
            if r != q and fam.depth[r] > fam.depth[q] and S.contains(q, r)
        ]
        by_level: dict = {}
        for r in below:
            by_level.setdefault(fam.depth[r] - fam.depth[q], 0.0)
            by_level[fam.depth[r] - fam.depth[q]] += S.sigma(r)
        for k, s in by_level.items():
            if s > S.sigma(q) / 2**k * (1 + 1e-9):
                level_ok = False
    doubling_ok = all(
        numbers[q] <= 2 * numbers[fam.projection[q]] * (1 + 1e-12)
        for q in S.relevant_ids()
        if q not in fam.cubes
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
    cubes: set  # qids with some red component (the collection R)


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
    return OscillationLabels(red=red, cubes=set(comp_cube[red].tolist()))


# ---------------------------------------------------------------------------
# generation cubes
# ---------------------------------------------------------------------------


@dataclass
class GenerationForest:
    all_cubes: set  # G*: union over regimes and generations
    subregime_top: dict  # qid in a regime -> generation cube anchoring it
    members: dict = field(default_factory=dict)  # gen cube -> its subregime


def generation_cubes(
    RC: RegionComplex, eps: float, numbers: np.ndarray, u
) -> GenerationForest:
    """Per-regime breadth-first stopping on regime exit or anchor drift.

    Stopping at Q: (1) Q outside the regime, or (2)/(3) the value of u at
    Y_Q^{+/-} drifts from the current generation cube's anchor by more than
    eps * numbers[Q].  Cubes without anchor points (demoted) stop via (1).
    """
    S = RC.S
    corona = RC.corona
    subregime_top: dict = {}
    members: dict = {}
    all_cubes: set = set()

    # u at Y_Q^{+/-} of every regime cube, in one evaluation
    cubes = [q for reg in corona.regimes for q in sorted(reg.cubes)]
    ys = [RC.y_point(q, sign) for q in cubes for sign in "+-"]
    vals = u.eval(np.array(ys).reshape(-1, 2)).reshape(-1, 2).tolist()
    anchor = {q: dict(zip("+-", v)) for q, v in zip(cubes, vals)}

    for reg in corona.regimes:
        all_cubes.add(reg.max_cube)
        frontier = [reg.max_cube]
        while frontier:
            next_gen: set = set()
            for top in frontier:
                ref = anchor[top]
                sub = {top}
                stack = S.children(top).tolist()
                while stack:
                    q = stack.pop()
                    stopped = False
                    if q not in reg.cubes:
                        stopped = True  # condition (1); also demoted cubes
                    else:
                        vals = anchor[q]
                        drift = max(
                            abs(vals["+"] - ref["+"]), abs(vals["-"] - ref["-"])
                        )
                        if drift > eps * numbers[q]:
                            stopped = True  # conditions (2)/(3)
                    if stopped:
                        if q in reg.cubes:
                            next_gen.add(q)  # stop cube inside the regime
                        continue
                    sub.add(q)
                    stack.extend(S.children(q).tolist())
                members[top] = sub
                for q in sub:
                    subregime_top[q] = top
            all_cubes.update(next_gen)
            frontier = sorted(next_gen)
    return GenerationForest(
        all_cubes=all_cubes,
        subregime_top=subregime_top,
        members=members,
    )


# ---------------------------------------------------------------------------
# eps^{-2} packing verification
# ---------------------------------------------------------------------------


def verify_eps_packing(
    S: CubeSystem, collection, eps: float, budget: float = 64.0
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
