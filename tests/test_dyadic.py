"""Dyadic cube systems: nesting, partition, inclusions, navigation."""

import numpy as np
import pytest

from epsapprox.dyadic import build_cube_system, synthetic_system
from epsapprox.geometry import (
    CantorSet,
    Hyperplane,
    LipschitzGraph,
    Window,
    build_boundary,
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
