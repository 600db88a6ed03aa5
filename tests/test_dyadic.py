"""Dyadic cube systems: nesting, partition, inclusions, navigation."""

import math
import tracemalloc

import numpy as np
import pytest

from epsapprox import dyadic, geometry
from epsapprox.dyadic import build_cube_system, synthetic_system
from epsapprox.geometry import (
    CantorSet,
    Hyperplane,
    LipschitzGraph,
    PointList,
    Segment,
    Window,
    build_boundary,
    paired_distances,
)

from conftest import param_range

W2 = Window((-4.0, -4.0), (4.0, 4.0))


def surface_ball(S, qid: int, kappa: float = 1.0):
    """kappa-dilate of the closed surface ball Delta_Q = Delta(z_Q, C1 l(Q)).

    Returns (center, radius, member sample indices).
    """
    r = kappa * S.C1 * S.side[qid]
    d = np.linalg.norm(S.E.points - S.z[qid], axis=1)
    return S.z[qid], float(r), np.where(d <= r)[0]


@pytest.fixture(scope="module")
def line_system():
    E = build_boundary(Hyperplane(), resolution=1 / 128, window=W2)
    return build_cube_system(E, k_min=-4, k_max=5)


@pytest.fixture(scope="module")
def cantor_system():
    E = build_boundary(
        CantorSet(level=2), resolution=1 / 16, window=Window((0, 0), (1, 1))
    )
    return build_cube_system(E, k_min=-1, k_max=3, scale=np.sqrt(2.0))


@pytest.fixture(scope="module")
def graph_system():
    E = build_boundary(LipschitzGraph("sin", 0.1), resolution=1 / 64, window=W2)
    return build_cube_system(E, k_min=-4, k_max=4)


def cube_sets(S):
    return {q: frozenset(S.members(q).tolist()) for q in S.relevant_ids()}


class TestBuild:
    def test_standard_dyadic_interval_gen2(self, line_system):
        S = line_system
        # the generation-2 cube containing x=0.3 is the interval [0.25, 0.5)
        i = int(np.argmin(np.abs(S.E.points[:, 0] - 0.3)))
        chain = S.chain(i)
        gen2 = [q for q in chain if S.gen[q] == 2]
        assert len(gen2) == 1
        a, b = param_range(S, gen2[0])
        assert (a, b) == (0.25, 0.5)
        xs = S.E.points[S.members(gen2[0]), 0]
        assert xs.min() >= 0.25 and xs.max() < 0.5

    def test_single_relevant_root(self, line_system):
        assert len(line_system.roots) == 1

    def test_bounded_root_carries_full_measure(self, cantor_system):
        S = cantor_system
        assert len(S.roots) == 1
        assert S.sigma(S.roots[0]) == pytest.approx(S.E.weights.sum())

    def test_nestedness_brute_force(self, graph_system):
        # any two relevant cubes are disjoint or comparable as sample sets
        sets = cube_sets(graph_system)
        ids = sorted(sets)
        for i, q in enumerate(ids):
            for p in ids[i + 1 :]:
                a, b = sets[q], sets[p]
                inter = a & b
                assert inter in (frozenset(), a, b)

    def test_generation_partition_exact(self, line_system):
        S = line_system
        total = S.E.weights.sum()
        for k in range(S.k_min, S.k_max + 1):
            gen = np.flatnonzero(S.gen == k).tolist()
            sigma = sum(S.sigma(q) for q in gen)
            idx = np.concatenate([S.members(q) for q in gen])
            assert len(idx) == S.E.n_samples
            assert len(np.unique(idx)) == len(idx)
            assert sigma == pytest.approx(total, rel=1e-12)

    def test_children_partition_parent(self, graph_system):
        S = graph_system
        for q in S.relevant_ids():
            children = S.children(q).tolist()
            if not children:
                continue
            child_idx = np.concatenate([S.members(ch) for ch in children])
            assert sorted(child_idx.tolist()) == sorted(S.members(q).tolist())

    def test_bounded_child_count(self, graph_system):
        S = graph_system
        for q in S.relevant_ids():
            assert len(S.children(q)) <= 4

    def test_resolution_guard(self):
        E = build_boundary(Hyperplane(), resolution=0.25, window=W2)
        with pytest.raises(ValueError, match="c1"):
            build_cube_system(E, k_min=-4, k_max=6)

    def test_measure_comparable_to_side(self, line_system):
        S = line_system
        for q in S.relevant_ids():
            a, b = param_range(S, q)
            # sampled window truncates the root; interior cubes are exact
            if a >= -4.0 and b <= 4.0:
                assert S.sigma(q) == pytest.approx(S.side[q], rel=0.05)


class TestNavigation:
    def test_chain_coarsest_first_and_ordered(self, line_system):
        S = line_system
        chain = S.chain(137)
        sides = [S.side[q] for q in chain]
        assert sides == sorted(sides, reverse=True)
        sets = [frozenset(S.members(q).tolist()) for q in chain]
        for a, b in zip(sets, sets[1:]):
            assert b <= a

    def test_root_chain_on_bounded(self, cantor_system):
        S = cantor_system
        chain = S.chain(0)
        assert chain[0] == S.roots[0]

    def test_chain_length_after_dedup(self, line_system):
        S = line_system
        # right half: endpoint sample 4.0 distinguishes [0,8) from [0,4),
        # so the chain has full length
        i = int(np.argmin(np.abs(S.E.points[:, 0] - 0.3)))
        assert len(S.chain(i)) == S.k_max - S.k_min + 1
        # left half: [-8,0) and [-4,0) hold the same samples; one is dropped
        j = int(np.argmin(np.abs(S.E.points[:, 0] + 0.875)))
        chain = S.chain(j)
        assert len(chain) == S.k_max - S.k_min
        sets = [frozenset(S.members(q).tolist()) for q in chain]
        for a, b in zip(sets, sets[1:]):
            assert b < a  # strictly decreasing: no set-equal copies survive


@pytest.mark.parametrize("system", ["line_system", "cantor_system", "graph_system"])
def test_radius_grid_keeps_both_grids(system, request):
    # the maximal grid (8 radii up to twice the coarsest C1 l(Q)) and the
    # ball-Carleson grid (12 radii up to twice a span), written out
    S = request.getfixturevalue(system)
    rs = [S.C1 * 2.0 ** (-k) * S.scale for k in range(S.k_min, S.k_max + 1)]
    for top, n, extra in (
        (2 * S.C1 * 2.0 ** (-S.k_min) * S.scale, 8, np.geomspace(min(rs) / 2, max(rs) * 2, 8)),
        (2 * 8.0, 12, np.geomspace(min(rs) / 2, 2 * 8.0, 12)),
    ):
        want = np.unique(np.concatenate([rs, extra]))
        assert S.radius_grid(top, n).tolist() == want.tolist()


class TestSurfaceBall:
    def test_kappa_one_contains_cube(self, line_system):
        S = line_system
        for q in S.relevant_ids()[::7]:
            _, _, members = surface_ball(S, q, kappa=1.0)
            assert set(S.members(q).tolist()) <= set(members.tolist())

    def test_nested_monotonicity(self, graph_system):
        S = graph_system
        for q in S.relevant_ids():
            p = S.rparent[q]
            if p < 0:
                continue
            _, _, mq = surface_ball(S, q, 1.0)
            _, _, mp = surface_ball(S, p, 1.0)
            assert set(mq.tolist()) <= set(mp.tolist())

    def test_kappa_scaling(self, line_system):
        S = line_system
        q = S.relevant_ids()[10]
        _, r1, _ = surface_ball(S, q, 1.0)
        _, r2, _ = surface_ball(S, q, 2.0)
        assert r2 == pytest.approx(2 * r1)
        assert r1 == pytest.approx(S.C1 * S.side[q])


class TestSynthetic:
    def test_full_binary_tree_counts(self):
        S = synthetic_system(depth=3)
        assert len(S.relevant_ids()) == 2**4 - 1
        assert S.sigma(S.roots[0]) == 8.0

    def test_partition_per_generation(self):
        S = synthetic_system(depth=4)
        for k in range(5):
            assert sum(S.sigma(q) for q in np.flatnonzero(S.gen == k).tolist()) == 16.0


def _reach_loop(S):
    """Reference: per relevant cube, a full scan of its members and of every
    sample outside it, as the per-cube inclusion loop measured them."""
    pts = S.E.points
    far, outside = [], []
    for q in S.relevant_ids():
        m = S.members(q)
        far.append(float(np.linalg.norm(pts[m] - S.z[q], axis=1).max()))
        mask = np.ones(len(pts), dtype=bool)
        mask[m] = False
        d = np.linalg.norm(pts[mask] - S.z[q], axis=1)
        outside.append(float(d.min()) if mask.any() else np.inf)
    return far, outside


def _row_norm(a, b) -> float:
    """|a - b| by the package's row-norm arithmetic, sqrt(dx*dx + dy*dy)."""
    dx, dy = (np.asarray(a) - np.asarray(b)).tolist()
    return math.sqrt(dx * dx + dy * dy)


def _inclusion_loop(S):
    """Reference (c1, C1): the per-cube loop, drift by the row norm."""
    far, outside = _reach_loop(S)
    C_member, C_nest, c1 = 0.0, 0.0, np.inf
    for q, f, o in zip(S.relevant_ids(), far, outside):
        l = float(S.side[q])
        C_member = max(C_member, f / l)
        c1 = min(c1, o / l)
        p = S.rparent[q]
        if p >= 0:
            drift = _row_norm(S.z[q], S.z[p])
            C_nest = max(C_nest, drift / (float(S.side[p]) - l))
    C1 = max(C_member, C_nest, 0.5)
    return (min(c1, C1) if np.isfinite(c1) else C1), C1


def _stacked_columns():
    """Samples on vertical columns: many share one x, and a cube's members
    are not a run of the x-sorted samples."""
    xs = np.repeat(np.linspace(0.0, 1.0, 6), 5)
    ys = np.tile(np.linspace(0.0, 0.5, 5), 6)
    pts = np.column_stack([xs, ys])
    return build_boundary(
        PointList(points=tuple(map(tuple, pts)), weights=tuple([1.0 / 30] * 30)),
        resolution=1 / 16,
        window=Window((0.0, 0.0), (1.0, 1.0)),
    )


REACH_SYSTEMS = {
    "graph": lambda: build_cube_system(
        build_boundary(LipschitzGraph("sin", 0.2), 1 / 64, W2), k_min=-4, k_max=4
    ),
    "segment": lambda: build_cube_system(
        build_boundary(Segment(-1.0, 1.0), 1 / 64, Window((-1, -1), (1, 1))), k_min=-1, k_max=4
    ),
    "cantor": lambda: build_cube_system(
        build_boundary(CantorSet(level=3), 1 / 64, Window((0, 0), (1, 1))),
        k_min=-1, k_max=4, scale=np.sqrt(2.0),
    ),
    "stacked_x": lambda: build_cube_system(_stacked_columns(), k_min=0, k_max=2),
}


class TestInclusionConstants:
    @pytest.mark.parametrize("name", sorted(REACH_SYSTEMS))
    def test_per_cube_reach_matches_full_scans(self, name):
        S = REACH_SYSTEMS[name]()
        q, far, outside = dyadic._cube_reach(
            S.E, S.z, S.side, S.gen - S.k_min, S.member_ptr, S.member_sample, vars(S)
        )
        ref_far, ref_outside = _reach_loop(S)
        assert q.tolist() == S.relevant_ids()
        assert far.tolist() == ref_far
        assert outside.tolist() == ref_outside
        assert np.isfinite(outside).sum() > len(q) // 2
        assert (S.c1, S.C1) == _inclusion_loop(S)

    def test_no_outside_sample_falls_back_to_C1(self):
        # one generation whose one cube, [0, 4), holds every sample
        E = build_boundary(Hyperplane(), resolution=1 / 16, window=Window((0.5, -1.0), (3.5, 1.0)))
        S = build_cube_system(E, k_min=-2, k_max=-2)
        assert S.relevant_ids() == S.roots == [0]
        assert _reach_loop(S)[1] == [np.inf]
        assert S.c1 == S.C1 == _inclusion_loop(S)[1]

    def test_drift_is_the_row_norm_of_each_centre_pair(self):
        # on the Cantor cloud the parent-child centre drift sets C1, which
        # is then the largest drift ratio of `paired_distances` rows
        S = REACH_SYSTEMS["cantor"]()
        q = np.flatnonzero(S.relevant & (S.rparent >= 0))
        p = S.rparent[q]
        ratio = paired_distances(S.z[q], S.z[p]) / (S.side[p] - S.side[q])
        far = np.array(_reach_loop(S)[0]) / S.side[S.relevant]
        assert far.max() < ratio.max() == S.C1


def _net_forest_loop(E, k_min, k_max, scale) -> list:
    """Reference: the greedy net and the nearest-centre assignment as
    per-pair loops, every distance by the row norm; per generation
    (members, centre) lists."""
    pts = E.points
    n = len(pts)
    centers, assign, gens = [], None, []
    for k in range(k_min, k_max + 1):
        r = 2.0 ** (-k) * scale
        for i in range(n):
            if all(_row_norm(pts[i], pts[c]) >= r for c in centers):
                centers.append(i)
        centers.sort()
        nearest = []
        for i in range(n):
            cands = [c for c in centers if assign is None or assign[c] == assign[i]]
            d = [_row_norm(pts[i], pts[c]) for c in cands]
            nearest.append(cands[d.index(min(d))])
        assign = nearest
        cells = [([i for i in range(n) if assign[i] == c], c) for c in centers]
        gens.append([cell for cell in cells if cell[0]])
    return gens


def _random_cloud(n: int, seed: int):
    pts = np.random.default_rng(seed).random((n, 2))
    return build_boundary(
        PointList(points=tuple(map(tuple, pts)), weights=tuple([1.0 / n] * n)),
        resolution=1 / 256,
        window=Window((0.0, 0.0), (1.0, 1.0)),
    )


NET_CLOUDS = {
    **{
        f"cantor{level}": (
            lambda level=level: build_boundary(CantorSet(level), 1 / 64, Window((0, 0), (1, 1))),
            (-1, 2 * level, np.sqrt(2.0)),
        )
        for level in (2, 3, 4)
    },
    "stacked_x": (_stacked_columns, (0, 4, 1.0)),
    "random300": (lambda: _random_cloud(300, 7), (-1, 5, 1.0)),
}


class TestNetForest:
    @pytest.mark.parametrize("name", sorted(NET_CLOUDS))
    def test_matches_per_pair_loop(self, name, monkeypatch):
        make, (k_min, k_max, scale) = NET_CLOUDS[name]
        E = make()
        want = _net_forest_loop(E, k_min, k_max, scale)
        assert len(want[-1]) > len(want[0])
        for chunk in (None, 7):
            if chunk is not None:
                monkeypatch.setattr(geometry, "CHUNK", chunk)
            got = dyadic._net_forest(E, k_min, k_max, scale)
            assert [[(m.tolist(), c) for m, c in gen] for gen in got] == want


def _reach_args(S):
    return S.E, S.z, S.side, S.gen - S.k_min, S.member_ptr, S.member_sample, vars(S)


class TestCubeReachBlocks:
    @pytest.mark.parametrize("name", sorted(REACH_SYSTEMS))
    def test_blocks_keep_the_bits(self, name, monkeypatch):
        S = REACH_SYSTEMS[name]()
        whole = dyadic._cube_reach(*_reach_args(S))
        monkeypatch.setattr(geometry, "CHUNK", 7)
        for a, b in zip(whole, dyadic._cube_reach(*_reach_args(S)), strict=True):
            assert a.tolist() == b.tolist()

    def test_transient_memory_bounded(self):
        # 16 385 samples in 15 generations: 245 775 (cube, member) pairs,
        # which taken in one block traced a 12.5 MB peak
        E = build_boundary(Hyperplane(), 2.0**-10, Window((-8.0, -8.0), (8.0, 8.0)))
        S = build_cube_system(E, k_min=-5, k_max=9)
        args = _reach_args(S)
        tracemalloc.start()
        try:
            dyadic._cube_reach(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
