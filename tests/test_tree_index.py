"""The relevant-tree index of a CubeSystem against rparent-walk oracles.

The oracles are the dict and rparent-walk sweeps the index replaced; every
comparison is exact (`==`), since the index must not move a float.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from epsapprox.carleson import dyadic_maximal, packing_constant, subtree_sums
from epsapprox.config import RunConfig
from epsapprox.dyadic import build_cube_system, synthetic_system
from epsapprox.geometry import PointList, Window, build_boundary
from epsapprox.pipeline import stage_grid

ROOT = Path(__file__).resolve().parent.parent


def chain_oracle(S, sample: int) -> list:
    """Relevant cubes containing the sample, coarsest first."""
    out = []
    q = int(S.sample_leaf[sample])
    while q is not None:
        out.append(q)
        q = S.cube(q).rparent
    return out[::-1]


def contains_oracle(S, qid: int, pid: int) -> bool:
    q = pid
    while q is not None:
        if q == qid:
            return True
        q = S.cube(q).rparent
    return False


def subtree_sums_oracle(S, collection) -> dict:
    ids = set(int(i) for i in collection)
    sums: dict = {}
    for q in sorted(S.relevant_ids(), key=lambda q: -S.cube(q).k):
        s = S.sigma(q) if q in ids else 0.0
        for ch in S.cube(q).rchildren:
            s += sums[ch]
        sums[q] = s
    return sums


def dyadic_maximal_oracle(S, f: np.ndarray) -> np.ndarray:
    f = np.abs(np.asarray(f, dtype=float))
    w = S.E.weights
    avg = {
        q: float(np.dot(f[S.cube(q).sample_idx], w[S.cube(q).sample_idx]) / S.sigma(q))
        for q in S.relevant_ids()
    }
    best: dict = {}
    out = np.zeros(S.E.n_samples)
    order = sorted(S.relevant_ids(), key=lambda q: S.cube(q).k)
    for q in order:
        p = S.cube(q).rparent
        best[q] = max(avg[q], best[p]) if p is not None else avg[q]
    for q in order:
        if not S.cube(q).rchildren:
            out[S.cube(q).sample_idx] = best[q]
    return out


def packing_oracle(S, collection, within) -> float:
    inside = set(S.descendants(within))
    ids = sorted(q for q in set(collection) if q in inside)
    if not ids:
        return 0.0
    sums = subtree_sums_oracle(S, ids)
    return max(sums[q] / S.sigma(q) for q in sums if q in inside)


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
    scope="module", params=["synthetic", "line_rc", "segment_rc", "bench", "cloud"]
)
def system(request):
    return {
        "synthetic": lambda: synthetic_system(depth=5),
        "line_rc": lambda: request.getfixturevalue("line_rc").S,
        "segment_rc": lambda: request.getfixturevalue("segment_rc").S,
        "bench": _bench_grid,
        "cloud": _cloud_system,
    }[request.param]()


def test_levels_list_each_generation(system):
    S = system
    assert len(S.levels) == S.k_max - S.k_min + 1
    for k, (ids, par) in zip(range(S.k_min, S.k_max + 1), S.levels):
        assert ids.dtype == par.dtype == np.int32
        assert ids.tolist() == S.relevant_at_gen(k)
        assert par.tolist() == [
            -1 if S.cube(q).rparent is None else S.cube(q).rparent for q in ids.tolist()
        ]
    assert S.side.tolist() == [c.side for c in S.cubes]
    assert S.gen.tolist() == [c.k for c in S.cubes]


def test_anc_at_chain_and_contains(system):
    S = system
    ids = S.relevant_ids()
    for c in S.cubes:
        row = [-1] * (S.k_max - S.k_min + 1)
        a = c.id if c.relevant else None
        while a is not None:
            row[S.cube(a).k - S.k_min] = a
            a = S.cube(a).rparent
        assert S.anc_at[c.id].tolist() == row
    assert (S.anc_at[-1] == -1).all()
    for i in range(S.E.n_samples):
        assert S.chain(i) == chain_oracle(S, i)
    rng = np.random.default_rng(2)
    probe = rng.choice(ids, size=min(len(ids), 40), replace=False).tolist()
    for q in ids:
        for p in probe:
            assert S.contains(q, p) == contains_oracle(S, q, p)
            assert S.contains(p, q) == contains_oracle(S, p, q)


def test_dyadic_maximal_and_subtree_sums(system):
    S = system
    rng = np.random.default_rng(5)
    ids = S.relevant_ids()
    for _ in range(3):
        f = rng.normal(size=S.E.n_samples)
        assert np.array_equal(dyadic_maximal(S, f), dyadic_maximal_oracle(S, f))
    for coll in ([], ids, [q for q in ids if rng.random() < 0.3]):
        new, old = subtree_sums(S, coll), subtree_sums_oracle(S, coll)
        assert list(new.items()) == list(old.items())
    coll = [q for q in ids if rng.random() < 0.4]
    for q0 in [S.roots[0], *rng.choice(ids, size=min(len(ids), 10), replace=False)]:
        q0 = int(q0)
        assert packing_constant(S, coll, within=q0) == packing_oracle(S, coll, q0)


def test_bench_grid_has_children_across_generations():
    # the float order of subtree_sums matters only where a parent's
    # children sit in two generations; the benchmark grid has such parents
    S = _bench_grid()
    spans = [
        q
        for q in S.relevant_ids()
        if len({S.cube(ch).k for ch in S.cube(q).rchildren}) > 1
    ]
    assert spans
