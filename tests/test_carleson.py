"""Packing constants, sparse witnesses, maximal operators, embedding."""

import os
import subprocess
import sys
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsapprox import carleson, geometry
from epsapprox.carleson import (
    InfeasibleCut,
    SparseWitness,
    carleson_embedding_check,
    default_radii,
    dyadic_maximal,
    hl_maximal,
    packing_constant,
    sparse_witness,
)
from epsapprox.dyadic import build_cube_system, synthetic_system
from epsapprox.functionals import FunctionalSuite
from epsapprox.geometry import Hyperplane, PointList, Segment, Window, build_boundary
from epsapprox.harmonic import PoissonIndicator

from conftest import param_range

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def line_system():
    E = build_boundary(
        Hyperplane(), resolution=1 / 64, window=Window((-4.0, -4.0), (4.0, 4.0))
    )
    return build_cube_system(E, k_min=-4, k_max=4)


def interval_cube(S, a, b):
    """Relevant cube with the given parameter range."""
    for q in S.relevant_ids():
        if param_range(S, q) == (a, b):
            return q
    raise AssertionError(f"no cube [{a},{b})")


def check_witness(S, ids, wit: SparseWitness):
    lam = wit.lam
    used = {}
    for q in ids:
        rows = wit.assignments[q]
        members = set(S.members(q).tolist())
        mass = 0.0
        for i, m in rows:
            assert i in members  # E_Q inside Q
            used[i] = used.get(i, 0.0) + m
            mass += m
        assert mass >= lam * S.sigma(q) * (1 - 1e-9)
    for i, m in used.items():
        assert m <= S.E.weights[i] * (1 + 1e-9)  # disjoint in measure


# ---------------------------------------------------------------------------
# max-flow: the independent oracle of the sparse witness
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


def maxflow_oracle(S, ids, lam):
    """(flow, demand, cut) of the exact max-flow on (cubes) x (samples):
    source -> cube with capacity lam*sigma(Q), cube -> member sample
    unbounded, sample -> sink with capacity its weight.  `cut` holds the
    cubes on the source side of a min cut."""
    ids = sorted(set(ids))
    rows = [S.members(q).tolist() for q in ids]
    samples = sorted(set(i for row in rows for i in row))
    samp_node = {s: 1 + len(ids) + j for j, s in enumerate(samples)}
    src, sink = 0, 1 + len(ids) + len(samples)
    net = _Dinic(sink + 1)
    demand = 0.0
    for a, q in enumerate(ids):
        d = lam * S.sigma(q)
        demand += d
        net.add(src, 1 + a, d)
        for i in rows[a]:
            net.add(1 + a, samp_node[i], float("inf"))
    for s, ws in zip(samples, S.E.weights[samples].tolist()):
        net.add(samp_node[s], sink, ws)
    eps = 1e-12 * max(demand, 1.0)
    flow = net.maxflow(src, sink, eps)
    side = net.source_side(src, eps)
    return flow, demand, [q for a, q in enumerate(ids) if (1 + a) in side]


def tolerance(demand):
    return 1e-9 * max(demand, 1.0)


def union_weight(S, ids):
    members = set()
    for q in ids:
        members.update(S.members(q).tolist())
    return float(sum(S.E.weights[i] for i in members))


def check_pairs(S, wit):
    """Every id maps to (member sample, mass > 0) pairs of Python numbers."""
    for q, rows in wit.assignments.items():
        members = set(S.members(q).tolist())
        for i, m in rows:
            assert type(i) is int and type(m) is float
            assert i in members and m > 0


def check_cut(S, coll, cut: InfeasibleCut):
    """The cut is a subfamily of the collection, closed under the collection
    cubes inside each of its cubes, demanding more than its union holds."""
    coll = set(coll)
    cut_ids = set(cut.cut_cubes)
    assert cut_ids and cut_ids <= coll
    for c in cut_ids:
        inside = set(S.members(c).tolist())
        for q in coll:
            if set(S.members(q).tolist()) <= inside:
                assert q in cut_ids
    assert cut.capacity == pytest.approx(union_weight(S, cut_ids), rel=1e-12)
    assert cut.demand == pytest.approx(
        cut.lam * sum(S.sigma(q) for q in cut_ids), rel=1e-12
    )
    assert cut.demand > cut.capacity


def check_against_maxflow(S, coll, lam):
    """The witness decides as max-flow does; a witness carries the whole
    demand and a cut is a certificate."""
    ids = sorted(set(coll))
    wit = sparse_witness(S, coll, lam)
    flow, demand, oracle_cut = maxflow_oracle(S, ids, lam)
    assert wit.feasible == (flow >= demand - tolerance(demand))
    if wit.feasible:
        assert sorted(wit.assignments) == ids
        check_witness(S, ids, wit)
        check_pairs(S, wit)
        total = sum(wit.mass(q) for q in ids)
        assert total == pytest.approx(demand, rel=1e-9)
    else:
        check_cut(S, coll, wit)
        # the min cut certifies the same verdict
        assert lam * sum(S.sigma(q) for q in oracle_cut) > union_weight(S, oracle_cut)
    return wit


class TestPacking:
    def test_single_cube(self, line_system):
        q = interval_cube(line_system, 0.0, 1.0)
        assert packing_constant(line_system, [q]) == pytest.approx(1.0)

    def test_parent_plus_children(self, line_system):
        S = line_system
        q = interval_cube(S, 0.0, 1.0)
        fam = [q, interval_cube(S, 0.0, 0.5), interval_cube(S, 0.5, 1.0)]
        assert packing_constant(S, fam) == pytest.approx(2.0)

    @pytest.mark.parametrize("depth", [2, 3, 5])
    def test_full_tree_depth(self, depth):
        S = synthetic_system(depth=depth)
        assert packing_constant(S, S.relevant_ids()) == pytest.approx(depth + 1.0)

    def test_empty_collection(self, line_system):
        assert packing_constant(line_system, []) == 0.0

    def test_non_relevant_copies_count(self, sparse_bench_system):
        # a non-relevant cube counts where its relevant set-equal copy does:
        # the pair is 2-Carleson, sparse at 1/2 and not above it
        S = sparse_bench_system
        every = np.arange(S.n_cubes)
        want = [relevant_copy(S, q) for q in every.tolist()]
        assert carleson.relevant_copy(S, every).tolist() == want
        copies = np.flatnonzero(~S.relevant).tolist()
        assert copies
        f = np.random.default_rng(1).random(S.E.n_samples)
        for q in copies:
            pair = [q, relevant_copy(S, q)]
            lam = packing_constant(S, pair)
            assert lam == 2.0
            assert packing_constant(S, pair, within=pair[1]) == 2.0
            wit = sparse_witness(S, pair, 1.0 / lam)
            assert wit.feasible
            check_witness(S, pair, wit)
            assert isinstance(sparse_witness(S, pair, (1 + 1e-6) / lam), InfeasibleCut)
            lhs, _, holds = carleson_embedding_check(S, f, pair, S.roots[0])
            one, _, _ = carleson_embedding_check(S, f, pair[1:], S.roots[0])
            assert holds and lhs == pytest.approx(2 * one, rel=1e-12)


class TestSparseWitness:
    def test_three_cube_family_feasible(self, line_system):
        S = line_system
        fam = [
            interval_cube(S, 0.0, 1.0),
            interval_cube(S, 0.0, 0.5),
            interval_cube(S, 0.5, 1.0),
        ]
        wit = sparse_witness(S, fam, 0.5)
        assert wit.feasible
        check_witness(S, fam, wit)

    def test_single_cube_lambda_one(self, line_system):
        q = interval_cube(line_system, 0.0, 1.0)
        wit = sparse_witness(line_system, [q], 1.0)
        assert wit.feasible
        check_witness(line_system, [q], wit)
        assert wit.mass(q) == pytest.approx(line_system.sigma(q))

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_full_tree_threshold(self, depth):
        # the full tree is (depth+1)-Carleson: feasible at 1/(depth+1),
        # infeasible just above
        S = synthetic_system(depth=depth)
        ids = S.relevant_ids()
        lam_star = 1.0 / (depth + 1)
        wit = sparse_witness(S, ids, lam_star)
        assert wit.feasible
        check_witness(S, ids, wit)
        bad = sparse_witness(S, ids, lam_star * 1.05)
        assert isinstance(bad, InfeasibleCut)
        assert bad.demand > bad.capacity * (1 - 1e-12)
        assert bad.cut_cubes

    def test_lambda_out_of_range(self, line_system):
        with pytest.raises(ValueError):
            sparse_witness(line_system, [0], 0.0)


class TestDyadicMaximal:
    def test_indicator_of_left_half(self, line_system):
        S = line_system
        q = interval_cube(S, 0.0, 1.0)
        left = interval_cube(S, 0.0, 0.5)
        f = np.zeros(S.E.n_samples)
        f[S.members(left)] = 1.0
        md = dyadic_maximal(S, f)
        x = S.E.points[:, 0]
        at = np.argmin(np.abs(x - 0.7))
        # at x=0.7 the best cube average among cubes containing x within
        # [0,1) is the root average of the indicator
        inside = S.members(q)
        expect = S.E.weights[S.members(left)].sum() / S.sigma(q)
        assert md[at] >= expect - 1e-12
        assert md[at] == pytest.approx(0.5, abs=0.02)

    def test_constant(self, line_system):
        f = np.full(line_system.E.n_samples, 3.0)
        assert np.allclose(dyadic_maximal(line_system, f), 3.0)

    def test_matches_brute_force(self):
        S = synthetic_system(depth=3)
        rng = np.random.default_rng(0)
        f = rng.random(8)
        md = dyadic_maximal(S, f)
        w = S.E.weights
        for s in range(8):
            best = 0.0
            for q in S.relevant_ids():
                m = S.members(q)
                if s in m:
                    best = max(best, np.dot(f[m], w[m]) / S.sigma(q))
            assert md[s] == pytest.approx(best)

    def test_sublinear_and_idempotent_dominating(self):
        S = synthetic_system(depth=4)
        rng = np.random.default_rng(1)
        f = rng.random(16)
        g = rng.random(16)
        mf, mg = dyadic_maximal(S, f), dyadic_maximal(S, g)
        mfg = dyadic_maximal(S, f + g)
        assert np.all(mfg <= mf + mg + 1e-12)
        assert np.all(dyadic_maximal(S, mf) >= mf - 1e-12)


class TestHLMaximal:
    def test_constant(self, line_system):
        f = np.full(line_system.E.n_samples, 2.0)
        assert np.allclose(hl_maximal(line_system, f), 2.0)

    def test_dominates_dyadic_up_to_ball_constant(self, line_system):
        S = line_system
        rng = np.random.default_rng(2)
        f = rng.random(S.E.n_samples)
        md = dyadic_maximal(S, f)
        mhl = hl_maximal(S, f)
        # cube averages are dominated by averages over Delta(z_Q, C1 l(Q))
        # at the cost of the worst mass ratio sigma(Delta)/sigma(Q)
        ratio = 0.0
        for q in S.relevant_ids():
            d = np.linalg.norm(S.E.points - S.z[q], axis=1)
            ball = S.E.weights[d < S.C1 * S.side[q]].sum()
            if ball > 0:
                ratio = max(ratio, ball / S.sigma(q))
        assert np.all(md <= ratio * mhl + 1e-9)

    def test_point_mass_decay(self, line_system):
        # direct-sup oracle: the continuum sup over balls containing both the
        # mass at 0 and x is attained centered midway, value w/|x|; the grid
        # estimator is a lower bound within the dyadic radius quantization
        S = line_system
        i0 = int(np.argmin(np.linalg.norm(S.E.points, axis=1)))
        f = np.zeros(S.E.n_samples)
        w = 1.0
        f[i0] = w / S.E.weights[i0]
        mhl = hl_maximal(S, f)
        x = np.abs(S.E.points[:, 0])
        sel = (x > 0.5) & (x < 2.0)
        h = S.E.resolution
        assert np.all(mhl[sel] <= w / (x[sel] - 2 * h))
        assert np.all(mhl[sel] >= 0.9 * w / (4 * x[sel]))


def _hl_loop(S, f):
    """Reference: one full distance row per center; per radius, the weights
    binned by the first radius above their distance (in index order) and
    the bins summed in radius order."""
    E = S.E
    f = np.abs(np.asarray(f, dtype=float))
    radii = default_radii(S)
    pts, w = E.points, E.weights
    fw = f * w
    out = np.zeros(E.n_samples)
    for c in pts:
        d = np.linalg.norm(pts - c, axis=1)
        first = np.searchsorted(radii, d, side="right")
        dw, dfw = np.zeros(len(radii) + 1), np.zeros(len(radii) + 1)
        np.add.at(dw, first, w)
        np.add.at(dfw, first, fw)
        dw, dfw = np.cumsum(dw), np.cumsum(dfw)
        for j, r in enumerate(radii):
            if dw[j] == 0:
                continue
            avg = dfw[j] / dw[j]
            inside = d < r
            out[inside] = np.maximum(out[inside], avg)
    return out


def _segment_system():
    E = build_boundary(Segment(-1.0, 1.0), 1 / 64, Window((-1, -1), (1, 1)))
    return build_cube_system(E, k_min=-1, k_max=3)


def _cloud_system():
    # a weighted cloud whose points are not sorted by x
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1.0, 1.0, size=(150, 2))
    wts = rng.uniform(0.5, 1.5, size=150) / 150
    desc = PointList(tuple(map(tuple, pts)), tuple(map(float, wts)))
    E = build_boundary(desc, 0.05, Window((-1, -1), (1, 1)))
    return build_cube_system(E, k_min=0, k_max=3)


class TestHLMaximalBlocks:
    @pytest.mark.parametrize("chunk", [None, 1])
    @pytest.mark.parametrize("system", ["line", "segment", "cloud"])
    def test_matches_per_center_loop(self, system, chunk, line_system, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(geometry, "CHUNK", chunk)
        S = {"line": lambda: line_system, "segment": _segment_system,
             "cloud": _cloud_system}[system]()
        f = np.random.default_rng(6).normal(size=S.E.n_samples)
        assert np.array_equal(hl_maximal(S, f), _hl_loop(S, f))

    @pytest.mark.parametrize("chunk", [None, 1])
    @pytest.mark.parametrize("system", ["line", "segment", "cloud"])
    def test_stack_matches_single_rows(self, system, chunk, line_system, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(geometry, "CHUNK", chunk)
        S = {"line": lambda: line_system, "segment": _segment_system,
             "cloud": _cloud_system}[system]()
        F = np.random.default_rng(7).normal(size=(3, S.E.n_samples))
        F[1, ::2] = 0.0  # rows differ in where they vanish
        stacked = hl_maximal(S, F)
        assert stacked.shape == F.shape
        for f, row in zip(F, stacked):
            assert np.array_equal(row, hl_maximal(S, f))
            assert np.array_equal(row, _hl_loop(S, f))

    def test_transient_memory_bounded(self):
        # 4097 samples: the full distance matrix alone would be 134 MB; one
        # row and a stack of three stay under the same bound
        E = build_boundary(Hyperplane(), 1 / 512, Window((-4.0, -4.0), (4.0, 4.0)))
        S = build_cube_system(E, k_min=-4, k_max=4)
        for shape in ((E.n_samples,), (3, E.n_samples)):
            f = np.random.default_rng(8).random(shape)
            tracemalloc.start()
            try:
                hl_maximal(S, f)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20


class TestEmbedding:
    def test_equality_witness_full_tree(self):
        S = synthetic_system(depth=2)
        f = np.ones(4)
        lhs, rhs, holds = carleson_embedding_check(
            S, f, S.relevant_ids(), S.roots[0]
        )
        assert holds
        assert lhs == 3 * S.sigma(S.roots[0])
        assert lhs == rhs  # exact equality witness

    def test_root_only(self, line_system):
        S = line_system
        rng = np.random.default_rng(3)
        f = rng.random(S.E.n_samples)
        q0 = S.roots[0]
        lhs, rhs, holds = carleson_embedding_check(S, f, [q0], q0)
        assert holds

    def test_randomized_instances(self):
        rng = np.random.default_rng(4)
        S = synthetic_system(depth=5)
        ids = S.relevant_ids()
        for _ in range(200):
            f = rng.random(32) * rng.integers(1, 10)
            take = rng.random(len(ids)) < rng.random()
            coll = [q for q, t in zip(ids, take) if t]
            lhs, rhs, holds = carleson_embedding_check(S, f, coll, S.roots[0])
            assert holds, (lhs, rhs)

    def test_cube_numbers_as_dyadic_maximal(self, line_rc):
        # the pipeline passes M_D(N_* u) as its pointwise cube numbers
        fs = FunctionalSuite(line_rc, PoissonIndicator(-1.0, 1.0))
        S = fs.S
        f = fs.n_star(None)
        _, m_point = fs.cube_numbers(None)
        coll = sorted(S.relevant_ids())[::3]
        for q0 in (S.roots[0], coll[5]):
            got = carleson_embedding_check(S, f, coll, q0, md=m_point)
            assert got == carleson_embedding_check(S, f, coll, q0)

    def test_result_does_not_depend_on_blas_threads(self):
        # 32 768 samples: a BLAS dot of that length splits across threads and
        # adds the partial sums in another order; at 1 and 2 threads its rhs
        # read 64372.688083961264 and ...27
        script = (
            "import numpy as np; from epsapprox.carleson import carleson_embedding_check; "
            "from epsapprox.dyadic import synthetic_system; S = synthetic_system(15); "
            "f = np.random.default_rng(0).random(S.E.n_samples); "
            "print(repr(carleson_embedding_check(S, f, S.relevant_ids()[::7], S.roots[0])))"
        )
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            out.append(run.stdout.strip())
        assert out[0] == out[1]

    def test_negative_f_rejected(self, line_system):
        with pytest.raises(ValueError):
            carleson_embedding_check(
                line_system, -np.ones(line_system.E.n_samples), [0], 0
            )


@st.composite
def tree_collections(draw):
    depth = draw(st.integers(min_value=1, max_value=5))
    n_cubes = 2 ** (depth + 1) - 1
    mask = draw(
        st.lists(st.booleans(), min_size=n_cubes, max_size=n_cubes).filter(any)
    )
    return depth, mask


class TestEquivalence:
    """Sparse <=> Carleson, both directions, via independent routes."""

    @settings(max_examples=120, deadline=None)
    @given(tree_collections())
    def test_carleson_implies_sparse_at_inverse_packing(self, tc):
        depth, mask = tc
        S = synthetic_system(depth=depth)
        ids = [q for q, t in zip(S.relevant_ids(), mask) if t]
        lam = packing_constant(S, ids)
        wit = sparse_witness(S, ids, 1.0 / lam)
        assert wit.feasible
        check_witness(S, ids, wit)

    @settings(max_examples=60, deadline=None)
    @given(tree_collections(), st.floats(min_value=0.05, max_value=1.0))
    def test_sparse_implies_packing_bound(self, tc, lam):
        depth, mask = tc
        S = synthetic_system(depth=depth)
        ids = [q for q, t in zip(S.relevant_ids(), mask) if t]
        wit = sparse_witness(S, ids, lam)
        if isinstance(wit, SparseWitness):
            assert packing_constant(S, ids) <= 1.0 / lam + 1e-9


def draw_lambda(draw, Lambda):
    """1/Lambda exactly, just below or above it, or uniform in [0.05, 1]."""
    kind = draw(st.sampled_from(["exact", "below", "above", "uniform"]))
    if kind == "uniform":
        return draw(st.floats(min_value=0.05, max_value=1.0))
    factor = {"exact": 1.0, "below": 1 - 1e-6, "above": 1 + 1e-6}[kind]
    return min(1.0, 1.0 / Lambda * factor)


@st.composite
def synthetic_collections(draw):
    """(system, collection with duplicates, lambda) on a full binary tree."""
    depth, mask = draw(tree_collections())
    S = synthetic_system(depth=depth)
    ids = [q for q, t in zip(S.relevant_ids(), mask) if t]
    coll = ids + draw(st.lists(st.sampled_from(ids), max_size=4))
    return S, draw(st.permutations(coll)), draw_lambda(draw, packing_constant(S, ids))


def relevant_copy(S, q):
    """The relevant cube set-equal to cube q."""
    first, n = int(S.members(q)[0]), len(S.members(q))
    return next(c for c in S.chain(first) if len(S.members(c)) == n)


@st.composite
def bench_collections(draw, S):
    """(collection, lambda) as the benchmark draws them: the cubes under a
    cube of a drawn generation, kept at a drawn density, with duplicates
    and, half the time, a non-relevant cube and its relevant set-equal copy."""
    gen = draw(st.integers(S.k_min, S.k_max))
    root = draw(st.sampled_from(S.relevant_at_gen(gen)))
    desc = S.descendants(root)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coll = [q for q, t in zip(desc, rng.random(len(desc)) < draw(st.floats(0, 1))) if t]
    coll = coll or [root]
    coll += draw(st.lists(st.sampled_from(coll), max_size=3))
    if draw(st.booleans()):
        copy = draw(st.sampled_from(np.flatnonzero(~S.relevant).tolist()))
        coll += [copy, relevant_copy(S, copy)]
    return coll, draw_lambda(draw, packing_constant(S, coll))


class TestWitnessAgainstMaxFlow:
    """The finest-first witness against the max-flow oracle."""

    @settings(max_examples=300, deadline=None)
    @given(synthetic_collections())
    def test_synthetic_trees(self, case):
        S, coll, lam = case
        check_against_maxflow(S, coll, lam)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_benchmark_system(self, sparse_bench_system, data):
        S = sparse_bench_system
        coll, lam = data.draw(bench_collections(S))
        check_against_maxflow(S, coll, lam)

    def test_non_relevant_copies(self, sparse_bench_system):
        # a cube and its set-equal copy share its mass: tight at lambda 1/2
        S = sparse_bench_system
        copies = np.flatnonzero(~S.relevant).tolist()
        assert copies
        for q in copies:
            pair = [q, relevant_copy(S, q)]
            assert check_against_maxflow(S, pair, 0.5).feasible
            cut = check_against_maxflow(S, pair, 0.5 * (1 + 1e-6))
            assert sorted(cut.cut_cubes) == sorted(pair)
        # every cube: each generation covers the root once, so only the
        # root is overfull, and its cut holds the copies inside it too
        (root,) = S.roots
        lam = S.measure[root] / S.measure.sum() * (1 + 1e-6)
        cut = check_against_maxflow(S, range(S.n_cubes), lam)
        assert sorted(cut.cut_cubes) == list(range(S.n_cubes))

    def test_duplicates_decide_as_distinct(self, sparse_bench_system):
        S = sparse_bench_system
        coll = S.descendants(S.roots[0])[::7]
        lam = 1.0 / packing_constant(S, coll)
        for c in (coll, coll + coll[::2], coll[::-1] + coll[:5]):
            wit = check_against_maxflow(S, c, lam)
            assert wit.feasible
            assert wit.assignments == sparse_witness(S, coll, lam).assignments


class TestInfeasibleCut:
    @pytest.mark.parametrize("depth", [1, 3, 5])
    def test_full_tree_above_threshold(self, depth):
        S = synthetic_system(depth=depth)
        ids = S.relevant_ids()
        cut = sparse_witness(S, ids, 1.0 / (depth + 1) * (1 + 1e-6))
        assert isinstance(cut, InfeasibleCut)
        check_cut(S, ids, cut)

    def test_cut_under_a_deep_cube(self, sparse_bench_system):
        # only the subtree of one fine cube is overfull
        S = sparse_bench_system
        q = S.relevant_at_gen(3)[5]
        deep = S.descendants(q)
        coll = S.roots + deep
        lam = 1.0 / packing_constant(S, deep) * (1 + 1e-6)
        cut = sparse_witness(S, coll, lam)
        assert isinstance(cut, InfeasibleCut)
        check_cut(S, coll, cut)
        assert set(cut.cut_cubes) <= set(deep)
