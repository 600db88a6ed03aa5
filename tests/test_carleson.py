"""Packing constants, sparse witnesses, maximal operators, embedding."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsapprox import geometry
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
    """Reference: one sorted distance scan per center, radius by radius."""
    E = S.E
    f = np.abs(np.asarray(f, dtype=float))
    radii = default_radii(S)
    pts, w = E.points, E.weights
    fw = f * w
    out = np.zeros(E.n_samples)
    for c in pts:
        d = np.linalg.norm(pts - c, axis=1)
        order = np.argsort(d, kind="stable")
        dw = np.cumsum(w[order])
        dfw = np.cumsum(fw[order])
        pos = np.searchsorted(d[order], radii, side="left")
        for j, r in enumerate(radii):
            k = pos[j]
            if k == 0:
                continue
            avg = dfw[k - 1] / dw[k - 1]
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
