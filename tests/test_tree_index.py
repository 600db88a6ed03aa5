"""The cube arrays and relevant-tree index of a CubeSystem against the
object builder they replaced and against rparent-walk oracles.

The old builder (one `Cube` object per cube, parent and child lists, the
`generations` dict) is copied here as the oracle; the walks read only plain
per-cube arrays.  Every comparison is exact (`==`): each oracle adds its
floats in the order the array passes do.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from epsapprox.carleson import (
    carleson_embedding_check,
    dyadic_maximal,
    packing_constant,
    subtree_sums,
)
from epsapprox.config import RunConfig
from epsapprox.dyadic import build_cube_system, synthetic_system
from epsapprox.geometry import PointList, Window, build_boundary
from epsapprox.pipeline import stage_grid

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# the object builder the arrays replaced
# ---------------------------------------------------------------------------


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
    rparent: int | None = None
    rchildren: list = field(default_factory=list)


def _old_graph_forest(E, k_min, k_max, scale):
    params = E.params
    root_len = 2.0 ** (-k_min) * scale
    center = (float(params.min()) + float(params.max())) / 2.0
    unit = 2.0 ** (-k_max) * scale
    a0 = unit * np.floor((center - root_len / 2.0) / unit)
    order = np.argsort(params, kind="stable")
    gens = []
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
        gens.append(gen)
    return gens


def _old_net_forest(E, k_min, k_max, scale):
    pts = E.points
    n = len(pts)
    centers_prev: list = []
    gens = []
    assign_prev = None
    for k in range(k_min, k_max + 1):
        r = 2.0 ** (-k) * scale
        centers = list(centers_prev)
        for i in range(n):
            if all(np.linalg.norm(pts[i] - pts[c]) >= r for c in centers):
                centers.append(i)
        centers.sort()
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
                gen.append({"k": k, "members": members, "center_idx": c, "side": r})
        gens.append(gen)
        centers_prev = centers
        assign_prev = assign
    return gens


def _old_finalize(E, raw):
    pts, w = E.points, E.weights
    cubes: list = []
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
                z = pts[members[int(np.argmin(np.abs(E.params[members] - mid)))]]
            c = Cube(
                id=len(cubes),
                k=spec["k"],
                z=np.asarray(z, dtype=float),
                side=spec["side"],
                sample_idx=members,
                measure=float(w[members].sum()),
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
    return cubes, generations


def _old_synthetic(E, depth):
    n, weights, pts = 2**depth, E.weights, E.points
    cubes: list = []
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
    return cubes, generations


def _old_relevant_tree(cubes, generations, k_min, k_max, n_samples) -> dict:
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
    }


def old_build(S, synthetic: bool):
    """(cubes, generations, index) of the object builder on S's boundary."""
    E = S.E
    if synthetic:
        cubes, generations = _old_synthetic(E, S.k_max)
    else:
        forest = _old_graph_forest if E.params is not None else _old_net_forest
        cubes, generations = _old_finalize(E, forest(E, S.k_min, S.k_max, S.scale))
    index = _old_relevant_tree(cubes, generations, S.k_min, S.k_max, E.n_samples)
    return cubes, generations, index


def old_relevant_at_gen(cubes, generations, k) -> list:
    return [q for q in generations.get(k, []) if cubes[q].relevant]


def old_descendants(cubes, qid) -> list:
    out = [qid]
    stack = list(cubes[qid].rchildren)
    while stack:
        q = stack.pop()
        out.append(q)
        stack.extend(cubes[q].rchildren)
    return out


# ---------------------------------------------------------------------------
# oracles on plain arrays
# ---------------------------------------------------------------------------


def _rparent(S) -> list:
    return [None if p < 0 else p for p in S.rparent.tolist()]


def _rchildren(S) -> list:
    """Relevant children per cube, ascending, from the rparent links."""
    out = [[] for _ in range(S.n_cubes)]
    for q, p in enumerate(_rparent(S)):
        if p is not None:
            out[p].append(q)
    return out


def chain_oracle(S, sample: int) -> list:
    """Relevant cubes containing the sample, coarsest first."""
    parent = _rparent(S)
    out = []
    q = int(S.sample_leaf[sample])
    while q is not None:
        out.append(q)
        q = parent[q]
    return out[::-1]


def contains_oracle(parent, qid: int, pid: int) -> bool:
    q = pid
    while q is not None:
        if q == qid:
            return True
        q = parent[q]
    return False


def relevant_copies(S) -> list:
    """Per cube id: the relevant cube with the same member set."""
    by_members = {
        S.members(q).tobytes(): q for q in np.flatnonzero(S.relevant).tolist()
    }
    return [by_members[S.members(q).tobytes()] for q in range(S.n_cubes)]


def subtree_sums_oracle(S, collection) -> dict:
    """Per relevant cube Q0: sigma(Q) added one at a time, in ascending id,
    over the collection cubes Q whose relevant copy lies inside Q0."""
    parent, copy, measure = _rparent(S), relevant_copies(S), S.measure.tolist()
    sums = {q: 0.0 for q in np.flatnonzero(S.relevant).tolist()}
    for q in sorted(set(int(i) for i in collection)):
        a = copy[q]
        while a is not None:
            sums[a] += measure[q]
            a = parent[a]
    return sums


def dyadic_maximal_oracle(S, f: np.ndarray) -> np.ndarray:
    f = np.abs(np.asarray(f, dtype=float))
    w = S.E.weights
    parent, kids, gen = _rparent(S), _rchildren(S), S.gen.tolist()
    rel = np.flatnonzero(S.relevant).tolist()
    members = {q: S.member_sample[S.member_ptr[q] : S.member_ptr[q + 1]] for q in rel}
    # f*w added one member at a time, in ascending sample id
    avg = {q: sum((f[members[q]] * w[members[q]]).tolist()) / S.measure[q] for q in rel}
    best: dict = {}
    out = np.zeros(S.E.n_samples)
    order = sorted(rel, key=lambda q: gen[q])
    for q in order:
        p = parent[q]
        best[q] = max(avg[q], best[p]) if p is not None else avg[q]
    for q in order:
        if not kids[q]:
            out[members[q]] = best[q]
    return out


def packing_oracle(S, collection, within) -> float:
    parent, copy = _rparent(S), relevant_copies(S)
    inside = {q for q in np.flatnonzero(S.relevant).tolist() if contains_oracle(parent, within, q)}
    ids = sorted(q for q in set(collection) if copy[q] in inside)
    if not ids:
        return 0.0
    sums = subtree_sums_oracle(S, ids)
    return max(sums[q] / S.measure[q] for q in sums if q in inside)


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------


def _cloud_system():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 1.0, size=(120, 2))
    wts = rng.uniform(0.5, 1.5, size=120) / 120
    desc = PointList(tuple(map(tuple, pts)), tuple(map(float, wts)))
    E = build_boundary(desc, 0.05, Window((-1, -1), (1, 1)))
    return build_cube_system(E, k_min=0, k_max=3)


def _bench_grid():
    with open(ROOT / "benchmark" / "inputs" / "halfplane_poisson.json") as fh:
        return stage_grid(RunConfig.from_json(json.load(fh)))["S"]


@pytest.fixture(
    scope="module", params=["synthetic", "line_rc", "segment_rc", "sin_rc", "bench", "cloud"]
)
def system(request):
    return {
        "synthetic": lambda: synthetic_system(depth=5),
        "line_rc": lambda: request.getfixturevalue("line_rc").S,
        "segment_rc": lambda: request.getfixturevalue("segment_rc").S,
        "sin_rc": lambda: request.getfixturevalue("sin_rc").S,
        "bench": _bench_grid,
        "cloud": _cloud_system,
    }[request.param]()


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def test_arrays_match_object_builder(system, request):
    S = system
    cubes, _, index = old_build(S, request.node.callspec.params["system"] == "synthetic")
    assert S.n_cubes == len(cubes)
    assert S.z.tolist() == [c.z.tolist() for c in cubes]
    assert S.side.tolist() == [c.side for c in cubes]
    assert S.gen.tolist() == [c.k for c in cubes]
    assert S.measure.tolist() == [c.measure for c in cubes]
    assert S.relevant.tolist() == [c.relevant for c in cubes]
    assert S.rparent.dtype == np.int32
    assert S.rparent.tolist() == [-1 if c.rparent is None else c.rparent for c in cubes]
    for c in cubes:
        assert S.members(c.id).tolist() == c.sample_idx.tolist()
        assert S.children(c.id).tolist() == c.rchildren
    assert S.roots == index["roots"]
    assert np.array_equal(S.sample_leaf, index["sample_leaf"])
    assert np.array_equal(S.anc_at, index["anc_at"])
    for (ids, par), (old_ids, old_par) in zip(S.levels, index["levels"], strict=True):
        assert ids.dtype == par.dtype == np.int32
        assert ids.tolist() == old_ids.tolist() and par.tolist() == old_par.tolist()


def test_benchmark_lists_keep_their_order(sparse_bench_system):
    """relevant_at_gen and descendants return today's lists in today's order
    (the benchmark draws its collections by zipping over them), and sigma a
    Python float (the benchmark's witness checks compare against it)."""
    S = sparse_bench_system
    cubes, generations, _ = old_build(S, synthetic=False)
    for k in range(S.k_min - 1, S.k_max + 2):
        assert S.relevant_at_gen(k) == old_relevant_at_gen(cubes, generations, k)
    for q in S.relevant_ids():
        assert S.descendants(q) == old_descendants(cubes, q)
        assert type(S.sigma(q)) is float
    assert S.relevant_ids() == [c.id for c in cubes if c.relevant]


def test_levels_list_each_generation(system):
    S = system
    assert len(S.levels) == S.k_max - S.k_min + 1
    for k, (ids, par) in zip(range(S.k_min, S.k_max + 1), S.levels):
        assert ids.dtype == par.dtype == np.int32
        assert ids.tolist() == S.relevant_at_gen(k)
        assert par.tolist() == S.rparent[ids].tolist()
        assert (S.gen[ids] == k).all()


def test_anc_at_chain_and_contains(system):
    S = system
    ids = S.relevant_ids()
    parent, gen = _rparent(S), S.gen.tolist()
    for q in range(S.n_cubes):
        row = [-1] * (S.k_max - S.k_min + 1)
        a = q if S.relevant[q] else None
        while a is not None:
            row[gen[a] - S.k_min] = a
            a = parent[a]
        assert S.anc_at[q].tolist() == row
    assert (S.anc_at[-1] == -1).all()
    for i in range(S.E.n_samples):
        assert S.chain(i) == chain_oracle(S, i)
    rng = np.random.default_rng(2)
    probe = rng.choice(ids, size=min(len(ids), 40), replace=False).tolist()
    below = {p: S.subtree(p) for p in probe}
    for q in ids:
        inside = S.subtree(q)
        for p in probe:
            assert inside[p] == contains_oracle(parent, q, p)
            assert below[p][q] == contains_oracle(parent, p, q)


def test_dyadic_maximal_and_subtree_sums(system):
    S = system
    rng = np.random.default_rng(5)
    ids = S.relevant_ids()
    for _ in range(3):
        f = rng.normal(size=S.E.n_samples)
        assert np.array_equal(dyadic_maximal(S, f), dyadic_maximal_oracle(S, f))
    # each sum adds its sigmas in ascending collection id, which a sum over
    # the tree (children into parents) would round differently wherever
    # the weights are not dyadic (cloud, sin_rc); the last collections hold
    # non-relevant cubes, which count where their relevant copies do
    colls = [[q for q in ids if rng.random() < p] for p in np.linspace(0.1, 0.9, 24)]
    colls += [[q for q in range(S.n_cubes) if rng.random() < p] for p in (0.2, 0.6)]
    for coll in ([], ids, *colls):
        new, old = subtree_sums(S, coll), subtree_sums_oracle(S, coll)
        assert new[list(old)].tolist() == list(old.values())
        assert not new[~S.relevant].any()
    coll = [q for q in range(S.n_cubes) if rng.random() < 0.4]
    for q0 in [S.roots[0], *rng.choice(ids, size=min(len(ids), 10), replace=False)]:
        q0 = int(q0)
        assert packing_constant(S, coll, within=q0) == packing_oracle(S, coll, q0)


def test_embedding_check_averages_only_q0s_chains(system):
    """Without `md`, the embedding check averages f over Q0's ancestors and
    subtree only; its rhs is still the full M_dyadic f's, bit for bit."""
    S = system
    rng = np.random.default_rng(9)
    ids = S.relevant_ids()
    f = rng.random(S.E.n_samples) * 3.0
    md = dyadic_maximal(S, f)
    for q0 in [*S.roots, *rng.choice(ids, size=min(len(ids), 10), replace=False).tolist()]:
        coll = [q for q in ids if rng.random() < 0.3] or [q0]
        assert carleson_embedding_check(S, f, coll, q0) == carleson_embedding_check(
            S, f, coll, q0, md=md
        )
        chain = S.chain(int(S.members(q0)[0]))
        cubes = np.union1d(chain[: chain.index(q0) + 1], np.flatnonzero(S.subtree(q0)))
        m0 = S.members(q0)
        assert np.array_equal(dyadic_maximal(S, f, cubes)[m0], md[m0])


def test_sin_grid_has_children_across_generations(sin_rc):
    # as on the benchmark grid below, but with weights that are not dyadic,
    # so that a sum over the tree, child by child, would round differently
    # from the ascending-id sums of subtree_sums
    S = sin_rc.S
    spans = [q for q in S.relevant_ids() if len(set(S.gen[S.children(q)].tolist())) > 1]
    assert spans


def test_bench_grid_has_children_across_generations():
    # a tree sum taken one generation at a time adds a child before its
    # sibling's subtree is whole only where a parent's children sit in two
    # generations; the benchmark grid has such parents, and the ascending-id
    # oracle above matches subtree_sums on it too
    S = _bench_grid()
    spans = [q for q in S.relevant_ids() if len(set(S.gen[S.children(q)].tolist())) > 1]
    assert spans
