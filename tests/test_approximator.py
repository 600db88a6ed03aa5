"""Approximant construction: cells, values, evaluation, TV, certification."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from epsapprox import approximator, geometry, pipeline
from epsapprox.approximator import (
    Approximant,
    assemble_approximant,
    build_global_approximant,
    build_partition,
    deviation_sups,
    find_alpha0,
    lp_samples,
    nontangential_deviation,
    order_good_cubes,
    verify_approximation,
)
from epsapprox.carleson import hl_maximal, packing_constant
from epsapprox.config import RegionParams, RunConfig
from epsapprox.dyadic import build_cube_system
from epsapprox.functionals import FunctionalSuite
from epsapprox.geometry import Hyperplane, Window, build_boundary
from epsapprox.harmonic import Constant, Coordinate, FundamentalPole, PoissonIndicator
from epsapprox.stopping import generation_cubes, oscillation_cubes
from epsapprox.whitney import RegionComplex, build_regions, corona_provider, whitney_decompose

from conftest import ancestors, box_owners, certified_mask, region
from test_dyadic import surface_ball
from test_functionals import _per_box_owners
from test_whitney import facet_rows, locate

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def eval_approximant(A: Approximant, X) -> float:
    """phi(X): locate the core box, apply its cell rule; u on facets."""
    X = np.asarray(X, dtype=float)
    W = A.RC.W
    bid = locate(W, X)
    if bid is None:
        raise ValueError(f"point {X} is outside the box complex")
    if A.cell[bid] < 0:
        raise ValueError(f"point {X} is outside the approximant's cells")
    value = A.cells[A.cell[bid]]["value"]
    lo, hi = W.lo[bid], W.hi[bid]
    if np.any(X == lo) or np.any(X == hi):
        return float(A.u.eval(X[None, :])[0])
    if np.isnan(value):
        return float(A.u.eval(X[None, :])[0])
    return float(value)


def boxes_of(A: Approximant, i: int) -> np.ndarray:
    """The boxes of cell i, ascending."""
    return np.flatnonzero(A.cell == i)


def cell_rows(A: Approximant) -> list:
    """(kind, anchor, value, boxes) per cell, in id order."""
    return [(*A.cells[i].tolist(), boxes_of(A, i)) for i in range(len(A.cells))]


def jump_rows(A: Approximant) -> list:
    """The jump facets as (a, b, axis, area, mass) tuples of Python scalars."""
    return list(zip(*(x.tolist() for x in A.jump_facets)))


def total_variation(FS: FunctionalSuite, A: Approximant, boxset) -> dict:
    """TV of phi over the open interior of the box union.

    Jump part: facets with both sides in the set (exact areas).  Gradient
    part: the suite's quadrature of |grad u| over member boxes whose rule
    is u.
    """
    boxset = set(boxset)
    jump = 0.0
    for a, b, _, _, mass in jump_rows(A):
        if a in boxset and b in boxset:
            jump += mass
    grad = 0.0
    g1, _ = FS.grad_integrals()
    for b in boxset:
        if A.cell[b] >= 0 and np.isnan(A.cells[A.cell[b]]["value"]):
            grad += g1[b]
    return {"jump": jump, "grad": grad, "total": jump + grad}


def make_state(rc, u, eps, far=None):
    fs = FunctionalSuite(rc, u, far_ball_factor=far)
    numbers, _ = fs.cube_numbers()
    labels = oscillation_cubes(fs, eps, numbers)
    gf = generation_cubes(rc, eps, numbers, fs.u)
    return fs, numbers, labels, gf


def partition_of(fs, gf, labels, q0):
    """The (kind, anchor, value) cells of phi on all of T_{q0} and the
    per-box cell id, -1 outside T_{q0}."""
    cells, cell = [], np.full(fs.W.n_boxes, -1)
    build_partition(fs, gf, labels, fs.S.subtree(q0), cells, cell)
    return cells, cell


def build_local_approximant(fs, gf, labels, q0) -> Approximant:
    """phi on T_{q0} alone, its jumps assembled."""
    return assemble_approximant(fs, "local", *partition_of(fs, gf, labels, q0), q0)


@pytest.fixture(scope="module")
def state_t(line_rc):
    return make_state(line_rc, Coordinate(1), 0.5)


@pytest.fixture(scope="module")
def local_t(line_rc, state_t):
    fs, numbers, labels, gf = state_t
    return build_local_approximant(fs, gf, labels, line_rc.S.roots[0])


class TestOrderedFamily:
    def test_constant_field_single_subregime(self, line_rc):
        # constant u: one subregime per (re-cohered) regime, whole regimes
        fs, numbers, labels, gf = make_state(line_rc, Constant(1.0), 0.3)
        root = line_rc.S.roots[0]
        fam = order_good_cubes(line_rc, gf, line_rc.S.subtree(root))
        assert fam[0] == root
        corona = line_rc.corona
        assert fam == corona.top.tolist()
        for i, top in enumerate(corona.top.tolist()):
            assert gf.subregime(top).tolist() == np.flatnonzero(corona.regime == i).tolist()

    def test_replay_of_maximal_selection(self, line_rc, state_t):
        fs, numbers, labels, gf = state_t
        S = line_rc.S
        root = S.roots[0]
        fam = order_good_cubes(line_rc, gf, S.subtree(root))
        # independent replay: repeatedly take the maximal-side good cube not
        # yet covered; its generation-forest subregime joins the cover
        good = set(q for q in S.descendants(root) if line_rc.corona.regime[q] >= 0)
        expect = []
        rem = set(good)
        while rem:
            q = min(rem, key=lambda i: (-S.side[i], i))
            top = gf.top[q]
            assert top == q
            expect.append(q)
            rem -= set(gf.subregime(q).tolist())
        assert fam == expect

    def test_sides_non_increasing(self, line_rc, state_t):
        fs, numbers, labels, gf = state_t
        fam = order_good_cubes(line_rc, gf, line_rc.S.subtree(line_rc.S.roots[0]))
        sides = [line_rc.S.side[q] for q in fam]
        assert sides == sorted(sides, reverse=True)


class TestPartition:
    def test_constant_field_single_a_cell(self, line_rc):
        fs, numbers, labels, gf = make_state(line_rc, Constant(2.0), 0.3)
        root = line_rc.S.roots[0]
        A = build_local_approximant(fs, gf, labels, root)
        kinds = set(A.cells["kind"].tolist())
        # one A pair over the single subregime; demoted edge cubes appear as
        # (all-blue) V cells since u is constant
        assert {"A+", "A-"} <= kinds <= {"A+", "A-", "blue"}
        t_boxes = line_rc.carleson_box(root)
        assert sum(len(boxes) for *_, boxes in cell_rows(A)) == len(t_boxes)

    def test_volume_bookkeeping_exact(self, line_rc, local_t):
        # integer dyadic volumes: cell volumes sum exactly to |T_{Q0}|
        A = local_t
        W = line_rc.W
        t_boxes = line_rc.carleson_box(A.q0)
        total = sum(int(W.size[b]) ** 2 for b in t_boxes)
        cells = sum(int(W.size[b]) ** 2 for *_, boxes in cell_rows(A) for b in boxes)
        assert cells == total

    def test_cells_disjoint(self, local_t):
        seen = set()
        for *_, boxes in cell_rows(local_t):
            for b in boxes.tolist():
                assert b not in seen
                seen.add(b)

    def test_coverage_probes_land_in_one_cell(self, line_rc, local_t):
        W = line_rc.W
        rng = np.random.default_rng(8)
        t_boxes = sorted(line_rc.carleson_box(local_t.q0))
        lo, hi = W.lo[t_boxes], W.hi[t_boxes]
        for _ in range(300):
            b = t_boxes[rng.integers(len(t_boxes))]
            p = rng.uniform(W.lo[b] + 1e-9, W.hi[b] - 1e-9)
            inside = np.where(np.all(p >= lo, axis=1) & np.all(p < hi, axis=1))[0]
            assert len(inside) == 1
            assert local_t.cell[t_boxes[inside[0]]] >= 0

    def test_a_cells_inside_sawtooth_halves(self, line_rc, state_t, local_t):
        gf = state_t[3]
        a_cells = [c for c in cell_rows(local_t) if c[0] in ("A+", "A-")]
        assert a_cells
        for kind, anchor, _, boxes in a_cells:
            plus, minus = line_rc.sawtooth_halves(gf.subregime(anchor))
            assert set(boxes.tolist()) <= set((plus if kind == "A+" else minus).tolist())

    def test_red_cells_carved_from_a_cells(self, line_rc, state_t, local_t):
        fs, numbers, labels, gf = state_t
        if not labels.member.any():
            pytest.skip("no red cubes at this eps")
        rows = cell_rows(local_t)
        red_boxes = {b for kind, *_, boxes in rows if kind == "red" for b in boxes.tolist()}
        a_boxes = {
            b
            for kind, *_, boxes in rows
            if kind in ("A+", "A-")
            for b in boxes.tolist()
        }
        assert red_boxes and not (red_boxes & a_boxes)


class TestValues:
    def test_constant_field_phi_equals_u_exactly(self, line_rc):
        fs, numbers, labels, gf = make_state(line_rc, Constant(2.5), 0.3)
        A = build_local_approximant(fs, gf, labels, line_rc.S.roots[0])
        value = A.cells["value"]
        assert np.all(value[~np.isnan(value)] == 2.5)
        assert len(A.jump_facets[0]) == 0
        assert float(A.tv_box.sum()) == 0.0

    def test_a_cell_values_are_anchor_heights(self, line_rc, local_t):
        # u = t: the frozen constant of an A-cell is the height of Y_{Q_k}
        RC = line_rc
        for kind, anchor, value in local_t.cells.tolist():
            if kind in ("A+", "A-"):
                y = RC.y_point(anchor, kind[1])
                assert value == pytest.approx(y[1], rel=1e-12)

    def test_blue_cell_value_is_largest_box_center(self, line_rc, state_t, local_t):
        fs = state_t[0]
        for kind, anchor, value, boxes in cell_rows(local_t):
            if kind == "blue":
                found = False
                for ci in line_rc.comps(anchor):
                    if set(boxes.tolist()) <= set(line_rc.comp(ci).tolist()):
                        W = line_rc.W
                        b = line_rc.comp_center[ci]
                        x_i = (W.lo[b] + W.hi[b]) / 2
                        assert value == pytest.approx(x_i[1], rel=1e-12)
                        found = True
                assert found

    def test_per_cell_error_bounded_by_eps_number(self, line_rc, state_t, local_t):
        # blue cells: sup |u - phi| <= osc(component) <= eps*M(anchor), exact
        # by labeling; A cells carry the additional anchor drift <= eps*M
        fs, numbers, labels, gf = state_t
        mx, mn = fs.box_extrema()
        eps = 0.5
        for kind, anchor, value, boxes in cell_rows(local_t):
            if not len(boxes) or np.isnan(value):
                continue
            dev = max(abs(mx[boxes].max() - value), abs(value - mn[boxes].min()))
            if kind == "blue":
                assert dev <= eps * numbers[anchor] * (1 + 1e-9)
            else:
                assert dev <= 2 * eps * numbers[anchor] * (1 + 1e-9)


class TestEval:
    def test_a_cell_rule(self, line_rc, local_t):
        _, _, value, boxes = next(c for c in cell_rows(local_t) if c[0] == "A+" and len(c[3]))
        X = (line_rc.W.lo[boxes[0]] + line_rc.W.hi[boxes[0]]) / 2
        assert eval_approximant(local_t, X) == value

    def test_red_cell_rule_returns_u(self, line_rc, state_t, local_t):
        fs = state_t[0]
        reds = [boxes for kind, *_, boxes in cell_rows(local_t) if kind == "red" and len(boxes)]
        if not reds:
            pytest.skip("no red cells")
        b = reds[0][0]
        X = (line_rc.W.lo[b] + line_rc.W.hi[b]) / 2
        assert eval_approximant(local_t, X) == float(fs.u.eval(X[None, :])[0])

    def test_facet_point_returns_u(self, line_rc, state_t, local_t):
        fs = state_t[0]
        b = boxes_of(local_t, 0)[0]
        lo, hi = line_rc.W.lo[b], line_rc.W.hi[b]
        X = np.array([lo[0], (lo[1] + hi[1]) / 2])  # on the left face
        assert eval_approximant(local_t, X) == float(fs.u.eval(X[None, :])[0])

    def test_matches_slow_path(self, line_rc, local_t):
        W = line_rc.W
        rng = np.random.default_rng(9)
        t_boxes = sorted(line_rc.carleson_box(local_t.q0))
        rows = cell_rows(local_t)
        for _ in range(200):
            b = t_boxes[rng.integers(len(t_boxes))]
            X = rng.uniform(W.lo[b] + 1e-9, W.hi[b] - 1e-9)
            fast = eval_approximant(local_t, X)
            # slow path: scan all cells for the box containing X
            hit = [
                value
                for _, _, value, boxes in rows
                for bb in boxes
                if np.all(X >= W.lo[bb]) and np.all(X < W.hi[bb])
            ]
            assert len(hit) == 1
            value = hit[0]
            slow = (
                float(local_t.u.eval(X[None, :])[0]) if np.isnan(value) else value
            )
            assert fast == slow


class TestTotalVariation:
    def test_single_jump_exact(self, line_rc, local_t):
        a, b, axis, area, mass = jump_rows(local_t)[0]
        va, vb = (local_t.cells[local_t.cell[x]]["value"] for x in (a, b))
        if not np.isnan(va) and not np.isnan(vb):
            assert mass == abs(va - vb) * area

    def test_red_cell_contribution_is_volume(self, line_rc, state_t, local_t):
        # |grad t| = 1: the gradient part over a red cell equals its volume
        reds = [boxes for kind, *_, boxes in cell_rows(local_t) if kind == "red" and len(boxes)]
        if not reds:
            pytest.skip("no red cells")
        W = line_rc.W
        tv = total_variation(state_t[0], local_t, set(reds[0].tolist()))
        vol = sum((W.unit * W.size[b]) ** 2 for b in reds[0])
        assert tv["grad"] == pytest.approx(vol, rel=1e-12)

    def test_monotone_under_inclusion(self, line_rc, state_t, local_t):
        fs = state_t[0]
        t_boxes = sorted(line_rc.carleson_box(local_t.q0))
        small = set(t_boxes[: len(t_boxes) // 2])
        big = set(t_boxes)
        assert total_variation(fs, local_t, small)["total"] <= (
            total_variation(fs, local_t, big)["total"] + 1e-12
        )

    def test_additive_over_separated_sets(self, line_rc, state_t, local_t):
        fs = state_t[0]
        W = line_rc.W
        lo, hi = W.lo, W.hi
        left = {b for b in range(W.n_boxes) if hi[b][0] <= -0.5}
        right = {b for b in range(W.n_boxes) if lo[b][0] >= 0.5}
        tv_l = total_variation(fs, local_t, left)["total"]
        tv_r = total_variation(fs, local_t, right)["total"]
        tv_both = total_variation(fs, local_t, left | right)["total"]
        assert tv_both == pytest.approx(tv_l + tv_r, rel=1e-12)


@pytest.fixture(scope="module")
def bounded_pole(segment_rc):
    # the pole sits on the segment, so u is harmonic on its complement
    fs, numbers, labels, gf = make_state(
        segment_rc, FundamentalPole((0.0, 0.0)), 0.3, far=4.0
    )
    return fs, build_global_approximant(fs, gf, labels)


@pytest.mark.parametrize("mode", ["local", "bounded", "unbounded"])
def test_cell_array_indexes_cells(mode, request, line_rc, state_t, local_t):
    if mode == "local":
        A = local_t
    elif mode == "bounded":
        A = request.getfixturevalue("bounded_pole")[1]
    else:
        fs, numbers, labels, gf = state_t
        A = build_global_approximant(fs, gf, labels, gamma0=4.0)
    assert A.mode == mode
    in_cell = np.zeros(A.RC.W.n_boxes, dtype=bool)
    for i in range(len(A.cells)):
        boxes = boxes_of(A, i)
        # every cell id holds a box
        assert len(boxes) and np.all(A.cell[boxes] == i)
        in_cell[boxes] = True
    assert np.all(A.cell[~in_cell] == -1)
    if mode == "bounded":
        assert np.all(A.cell >= 0)
    # ids run 0..n-1 in carving order: ring by ring (the first ring cube's
    # Carleson box holding the cell's boxes; the outer cell last), in each
    # ring the V cells by anchor, then the A cells by anchor, A+ before A-
    assert set(A.cell[A.cell >= 0].tolist()) == set(range(len(A.cells)))
    kind, anchor, value = (A.cells[f] for f in ("kind", "anchor", "value"))
    rings = A.rings or [A.q0]
    ring_of = np.full(A.RC.W.n_boxes, len(rings))
    for k in reversed(range(len(rings))):
        ring_of[A.RC.carleson_box(rings[k])] = k
    keys = []
    for i in range(len(A.cells)):
        ring = set(ring_of[boxes_of(A, i)].tolist())
        assert len(ring) == 1
        keys.append((ring.pop(), kind[i][0] == "A", int(anchor[i]), kind[i] == "A-"))
    assert keys == sorted(keys)
    assert (kind == "outer").sum() == (mode == "bounded")
    if mode == "bounded":
        assert kind[-1] == "outer"
    # nan exactly where the rule is u, -1 exactly at the outer cell
    assert np.array_equal(np.isnan(value), np.isin(kind, ["red", "outer"]))
    assert np.array_equal(anchor == -1, kind == "outer")
    assert set(kind.tolist()) <= {"A+", "A-", "blue", "red", "outer"}


class TestGlobalModes:
    def test_bounded_outside_is_u_exactly(self, segment_rc, bounded_pole):
        fs, A = bounded_pole
        assert A.mode == "bounded"
        t_root = segment_rc.carleson_box(segment_rc.S.roots[0])
        X = np.array([3.5, 2.5])
        assert locate(segment_rc.W, X) not in t_root
        assert eval_approximant(A, X) == float(fs.u.eval(X[None, :])[0])

    def test_ring_chain_spacing_and_disjointness(self, line_rc, state_t):
        fs, numbers, labels, gf = state_t
        A = build_global_approximant(fs, gf, labels, gamma0=4.0)
        S = line_rc.S
        sides = [S.side[q] for q in A.rings]
        for a, b in zip(sides, sides[1:-1]):
            assert b >= 4.0 * a - 1e-12
        # rings tile: every covered box belongs to exactly one cell
        seen = set()
        for *_, boxes in cell_rows(A):
            for b in boxes.tolist():
                assert b not in seen
                seen.add(b)
        # and the union covers the root Carleson box
        assert seen == set(line_rc.carleson_box(S.roots[0]))

    def test_ring_ball_packing(self, line_rc, state_t):
        fs, numbers, labels, gf = state_t
        A = build_global_approximant(fs, gf, labels, gamma0=4.0)
        S = line_rc.S
        beta = 2.0
        masses = []
        for q in A.rings:
            _, r, members = surface_ball(S, q, beta)
            masses.append(S.E.weights[members].sum())
        # increasing balls: packing constant of the family is the worst
        # prefix-sum ratio; ~4/3 untruncated, slightly above 2 with the
        # window-truncated top ball
        worst = max(
            sum(masses[: i + 1]) / masses[i] for i in range(len(masses))
        )
        assert worst <= 3.0

    def test_window_too_small_for_rings(self):
        # one generation, the root [0, 4): the central chain is the root
        # alone, so the unbounded gluing finds no second ring cube
        params = RegionParams(tau=0.05, c_w=0.25, C_w=4.0, C_d=4.0)
        E = build_boundary(Hyperplane(), 1 / 64, Window((0.5, -2), (3.5, 2)))
        S = build_cube_system(E, k_min=-2, k_max=-2)
        W = whitney_decompose(E, Window((0.5, -6.5), (3.5, 6.5)), min_side=1.0)
        rc = build_regions(S, W, corona_provider(E, S), params)
        fs, numbers, labels, gf = make_state(rc, Constant(1.0), 0.3)
        with pytest.raises(ValueError, match="ring"):
            build_global_approximant(fs, gf, labels)


def verify(fs, A, eps, alpha0, cert, **kw):
    """`verify_approximation` with the functionals it takes computed for
    this one approximant, as the verify stage computes them for all."""
    return verify_approximation(
        fs,
        A,
        eps,
        alpha0,
        cert,
        fs.carleson_dyadic(A.tv_box),
        hl_maximal(fs.S, fs.cube_numbers(alpha0)[1]),
        fs.carleson_ball(A.tv_box, lp_samples(cert)),
        **kw,
    )


class TestVerification:
    def test_constant_field_all_zero(self, line_rc):
        fs, numbers, labels, gf = make_state(line_rc, Constant(3.0), 0.2)
        A = build_global_approximant(fs, gf, labels, gamma0=4.0)
        ndev = nontangential_deviation(fs, deviation_sups(fs, A))
        assert np.all(ndev == 0.0)
        rep = verify(fs, A, 0.2, 1.0, certified_mask(line_rc), c1_budget=4.0)
        assert rep["C1"] == 0.0 and rep["C1_pass"] and rep["C_local_pass"]
        assert rep["tv_total"] == 0.0

    def test_height_field_certifies(self, line_rc, state_t):
        fs, numbers, labels, gf = state_t
        A = build_global_approximant(fs, gf, labels, gamma0=4.0)
        a0 = find_alpha0(fs, gf)
        rep = verify(fs, A, 0.5, a0, certified_mask(line_rc))
        assert rep["C1_pass"]
        assert rep["C2"] > 0
        for p, d in rep["lp"].items():
            assert d["C1p"] <= 4.0
            assert np.isfinite(d["C2p"])

    def test_alpha0_reported(self, line_rc, state_t):
        fs, numbers, labels, gf = state_t
        assert find_alpha0(fs, gf) >= 1.0

    def test_alpha0_matches_brute_force(self, state_t):
        fs, numbers, labels, gf = state_t
        assert find_alpha0(fs, gf) == _alpha0_oracle(fs, gf)

    def test_alpha0_matches_brute_force_quick_t(self):
        cfg = RunConfig.load(CONFIGS / "quick_t.json")
        approx = pipeline.run(cfg, until="approximate")["approximate"]
        alphas = {}
        for eps, st in approx["per_eps"].items():
            alphas[eps] = find_alpha0(approx["FS"], st["gf"])
            assert alphas[eps] == _alpha0_oracle(approx["FS"], st["gf"])
        # eps = 0.1 lands above the clamp at 1, so the ratio itself is checked
        assert alphas[0.1] == 14.250000014250002

    @pytest.mark.parametrize(
        "fixture, field, eps",
        [("segment_rc", FundamentalPole((0.0, 0.0)), 0.1), ("sin_rc", Coordinate(1), 0.3)],
    )
    def test_alpha0_matches_brute_force_bounded_and_curved(
        self, fixture, field, eps, request
    ):
        rc = request.getfixturevalue(fixture)
        fs, _, _, gf = make_state(rc, field, eps, far=4.0 if rc.S.E.bounded else None)
        assert find_alpha0(fs, gf) == _alpha0_oracle(fs, gf)

    def test_deviation_sups_once_per_verification(self, line_rc, state_t, monkeypatch):
        fs, numbers, labels, gf = state_t
        A = build_global_approximant(fs, gf, labels, gamma0=4.0)
        calls = []
        inner = approximator.deviation_sups
        monkeypatch.setattr(
            approximator, "deviation_sups", lambda FS, A: calls.append(A) or inner(FS, A)
        )
        verify(fs, A, 0.5, 1.0, certified_mask(line_rc))
        assert len(calls) == 1 and calls[0] is A

    def test_ball_sums_once_per_verify_stage(self, monkeypatch):
        # quick_t has two distinct alpha0 over three eps: one maximal call
        # with two rows, one ball call and one dyadic Carleson call with three
        cfg = RunConfig.load(CONFIGS / "quick_t.json")
        state = pipeline.run(cfg, until="approximate")
        calls = {"hl": [], "ball": [], "dyadic": []}
        hl, ball = pipeline.hl_maximal, FunctionalSuite.carleson_ball
        dyadic = FunctionalSuite.carleson_dyadic
        monkeypatch.setattr(
            pipeline, "hl_maximal", lambda S, f: calls["hl"].append(f.shape) or hl(S, f)
        )
        monkeypatch.setattr(
            FunctionalSuite,
            "carleson_ball",
            lambda self, m, ids: calls["ball"].append(m.shape) or ball(self, m, ids),
        )
        monkeypatch.setattr(
            FunctionalSuite,
            "carleson_dyadic",
            lambda self, m: calls["dyadic"].append(m.shape) or dyadic(self, m),
        )
        pipeline.stage_verify(cfg, state["grid"], state["regions"], state["approximate"])
        n = state["grid"]["E"].n_samples
        n_boxes = state["regions"]["RC"].W.n_boxes
        assert calls["hl"] == [(2, n)]
        assert calls["ball"] == [(3, n_boxes)]
        assert calls["dyadic"] == [(3, n_boxes)]


def _assemble_jumps_loop(FS, A):
    """Reference: facet by facet, a u-against-constant jump by nine nodes
    evaluated on their own, half of each jump added to a, then to b.
    Returns the jump tuples, the TV measure and the number of
    u-against-constant facets."""
    W, u = A.RC.W, A.u
    g1, _ = FS.grad_integrals()
    values = [None if np.isnan(v) else v for v in A.cells["value"].tolist()]
    is_u = np.array([v is None for v in values] + [False])[A.cell]
    tv = np.zeros(W.n_boxes)
    tv[is_u] += g1[is_u]
    jumps, n_mixed = [], 0
    cell = A.cell.tolist()
    for a, b, axis, area in facet_rows(W):
        ia, ib = cell[a], cell[b]
        if ia < 0 or ib < 0 or ia == ib:
            continue
        va, vb = values[ia], values[ib]
        if va is None and vb is None:
            continue
        if va is not None and vb is not None:
            mass = abs(va - vb) * area
        else:
            n_mixed += 1
            const = va if va is not None else vb
            perp = 1 - axis
            t0 = max(W.lo[a][perp], W.lo[b][perp])
            t1 = min(W.hi[a][perp], W.hi[b][perp])
            nodes = np.empty((9, 2))
            nodes[:, axis] = W.hi[a][axis]
            nodes[:, perp] = t0 + (np.arange(9) + 0.5) / 9 * (t1 - t0)
            mass = float(np.mean(np.abs(u.eval(nodes) - const))) * area
        if mass > 0.0:
            jumps.append((a, b, axis, area, mass))
            tv[a] += mass / 2
            tv[b] += mass / 2
    return jumps, tv, n_mixed


@pytest.mark.parametrize("mode", ["local", "bounded", "unbounded"])
def test_jumps_match_facet_loop(mode, request, line_rc, state_t, local_t):
    if mode == "local":
        fs, A = state_t[0], local_t
    elif mode == "bounded":
        fs, A = request.getfixturevalue("bounded_pole")
    else:
        fs, numbers, labels, gf = make_state(line_rc, PoissonIndicator(-0.5, 0.5), 0.2)
        A = build_global_approximant(fs, gf, labels, gamma0=4.0)
    jumps, tv, n_mixed = _assemble_jumps_loop(fs, A)
    assert jump_rows(A) == jumps
    assert np.array_equal(A.tv_box, tv)
    # u against a constant: red cells in the Poisson field, the outer cell
    # of the bounded mode
    assert n_mixed > 0 or mode == "local"


@pytest.mark.parametrize(
    "rc, u, far",
    [
        ("line_rc", PoissonIndicator(-0.5, 0.5), None),
        ("segment_rc", FundamentalPole((0.0, 0.0)), 4.0),
    ],
    ids=["unbounded", "bounded"],
)
def test_global_approximant_assembles_jumps_once(rc, u, far, request, monkeypatch):
    fs, numbers, labels, gf = make_state(request.getfixturevalue(rc), u, 0.3, far=far)
    modes = []
    inner = approximator._assemble_jumps
    monkeypatch.setattr(
        approximator, "_assemble_jumps", lambda FS, A: modes.append(A.mode) or inner(FS, A)
    )
    A = build_global_approximant(fs, gf, labels)
    # no local approximant is assembled on the way
    assert modes == [A.mode]


GLUE_CASES = {
    "t-0.5": ("line_rc", Coordinate(1), 0.5, None),
    "t-0.2": ("line_rc", Coordinate(1), 0.2, None),
    "poisson-0.3": ("line_rc", PoissonIndicator(-0.5, 0.5), 0.3, None),
    "poisson-0.2": ("line_rc", PoissonIndicator(-0.5, 0.5), 0.2, None),
    "bounded": ("segment_rc", FundamentalPole((0.0, 0.0)), 0.3, 4.0),
}


@pytest.fixture(scope="module")
def glued(request):
    """Per GLUE_CASES name: the suite, generation forest, labels and glued
    approximant (gamma0 = 4)."""
    out = {}
    for name, (rc, u, eps, far) in GLUE_CASES.items():
        fs, _, labels, gf = make_state(request.getfixturevalue(rc), u, eps, far=far)
        out[name] = fs, gf, labels, build_global_approximant(fs, gf, labels)
    return out


def _glue_rings(S):
    """The ring cubes of the glued approximant, innermost first."""
    return [S.roots[0]] if S.E.bounded else approximator._ring_chain(S, 4.0)


def _rule(kind, anchor, value):
    """A cell's (kind, anchor, value), None for a nan value (the rule is u),
    so that rules compare with ==."""
    return (kind, int(anchor), None if np.isnan(value) else float(value))


def _ring_loop_rules(fs, gf, labels):
    """Reference: per box phi's (kind, anchor, value), or None outside the
    domain.  Per ring cube Q_k, the partition of all of T_{Q_k}, cut to the
    boxes of T_{Q_k} outside every earlier Carleson box; u outside T_root
    in bounded mode."""
    RC = fs.RC
    rules = [None] * RC.W.n_boxes
    earlier = set()
    for q in _glue_rings(fs.S):
        cells, cell = partition_of(fs, gf, labels, q)
        t_k = RC.carleson_box(q).tolist()
        for b in set(t_k) - earlier:
            rules[b] = _rule(*cells[cell[b]])
        earlier.update(t_k)
    if fs.S.E.bounded:
        rules = [("outer", -1, None) if r is None else r for r in rules]
    return rules


@pytest.mark.parametrize("case", list(GLUE_CASES))
def test_glued_cells_match_ring_loop(case, glued):
    fs, gf, labels, A = glued[case]
    got = [None if i < 0 else _rule(*A.cells[i].tolist()) for i in A.cell.tolist()]
    assert got == _ring_loop_rules(fs, gf, labels)


def test_some_subregime_spans_two_rings(glued):
    # the glue drops a ring's tops whose good cubes all lie in earlier
    # rings; a subregime with good cubes in two rings must stay in both
    spans = []
    for fs, gf, _, _ in glued.values():
        S = fs.S
        ring_of = np.full(S.n_cubes, -1)
        for k, q in reversed(list(enumerate(_glue_rings(S)))):
            ring_of[S.subtree(q)] = k
        good = (fs.RC.corona.regime >= 0) & (ring_of >= 0)
        pairs = set(zip(gf.top[good].tolist(), ring_of[good].tolist()))
        spans.append(len(pairs) > len({t for t, _ in pairs}))
    assert any(spans)


@pytest.mark.parametrize("case", ["poisson-0.3", "bounded"])
def test_global_approximant_carves_each_cube_once(case, glued, monkeypatch):
    fs, gf, labels, _ = glued[case]
    boxes, comps = [], []
    carleson_box, cube_comps = RegionComplex.carleson_box, RegionComplex.comps
    monkeypatch.setattr(
        RegionComplex, "carleson_box", lambda self, q: boxes.append(q) or carleson_box(self, q)
    )
    monkeypatch.setattr(
        RegionComplex, "comps", lambda self, q: comps.append(q) or cube_comps(self, q)
    )
    build_global_approximant(fs, gf, labels)
    assert boxes == []
    assert comps and len(comps) == len(set(comps))


def test_partition_names_uncovered_boxes(line_rc, state_t, monkeypatch):
    # A cells that take nothing leave every box no V cell took
    fs, _, labels, gf = state_t
    empty = np.zeros(0, dtype=np.int64)
    monkeypatch.setattr(RegionComplex, "sawtooth_halves", lambda self, ids: (empty, empty))
    cells, cell = [], np.full(fs.W.n_boxes, -1)
    with pytest.raises(RuntimeError) as err:
        build_partition(fs, gf, labels, fs.S.subtree(fs.S.roots[0]), cells, cell)
    t_root = line_rc.carleson_box(fs.S.roots[0])
    left = t_root[cell[t_root] < 0]
    assert len(left) and str(err.value) == (
        f"partition leaves {len(left)} boxes of the ring uncovered, the first box {left[0]}"
    )


def _deviation_loop(fs, A):
    """Reference: |u - phi| at every fat-grid point, phi read through the
    point's owner (0 where the owner's rule is u, the owner is outside the
    domain or no candidate holds the point), then the max per box."""
    values = [None if np.isnan(v) else v for v in A.cells["value"].tolist()]
    value = {b: values[i] for b, i in enumerate(A.cell.tolist()) if i >= 0}
    out = np.zeros(fs.W.n_boxes)
    for size, own in _per_box_owners(fs).items():
        ids, pts = fs.fat_points(size)
        vals = fs.u.eval(pts.reshape(-1, 2)).reshape(own.shape)
        for row, bid in enumerate(ids.tolist()):
            dev = [
                abs(x - value[o]) if value.get(o) is not None else 0.0
                for x, o in zip(vals[row].tolist(), own[row].tolist())
            ]
            out[bid] = max(dev)
    return out


@pytest.mark.parametrize("mode", ["unbounded", "bounded"])
def test_deviation_sups_match_pointwise_loop(mode, request, state_t, monkeypatch):
    if mode == "bounded":
        fs, A = request.getfixturevalue("bounded_pole")
    else:
        fs, numbers, labels, gf = state_t
        A = build_global_approximant(fs, gf, labels, gamma0=4.0)
    dev = deviation_sups(fs, A)
    assert dev.max() > 0.0
    assert np.array_equal(dev, _deviation_loop(fs, A))
    # the owner segments (about ten per box here) are taken in blocks of
    # whole boxes of at most CHUNK segments: the same bits, and no array
    # spans every segment
    n_segments = len(fs.owners()[1])
    assert n_segments > 4 * len(dev)
    for chunk in (1, 64):
        monkeypatch.setattr(geometry, "CHUNK", chunk)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = deviation_sups(fs, A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, dev)
        assert peak - before < 8 * n_segments


def _ndev_loop(fs, dev, restrict_to=None):
    """Reference: per region the max sup over its (listed) boxes, then per
    sample the max over its chain."""
    per_region = {}
    for q in fs.S.relevant_ids():
        boxes = region(fs.RC, q)
        if restrict_to is not None:
            boxes = [b for b in boxes if b in restrict_to]
        per_region[q] = float(dev[boxes].max()) if boxes else 0.0
    out = np.zeros(fs.E.n_samples)
    for i, chain in enumerate(map(fs.S.chain, range(fs.E.n_samples))):
        out[i] = max((per_region[q] for q in chain), default=0.0)
    return out


@pytest.mark.parametrize("mode", ["unbounded", "bounded"])
def test_nontangential_deviation_matches_region_loop(mode, request, line_rc, state_t):
    if mode == "bounded":
        fs, A = request.getfixturevalue("bounded_pole")
    else:
        fs, numbers, labels, gf = state_t
        A = build_global_approximant(fs, gf, labels, gamma0=4.0)
    dev = deviation_sups(fs, A)
    assert dev.max() > 0.0
    got = nontangential_deviation(fs, dev)
    assert np.array_equal(got, _ndev_loop(fs, dev))
    S = fs.S
    for q in (S.roots[0], int(S.sample_leaf[0])):
        t = A.RC.carleson_box(q)
        within = np.zeros(fs.W.n_boxes, dtype=bool)
        within[list(t)] = True
        local = nontangential_deviation(fs, dev, within=within)
        assert np.array_equal(local, _ndev_loop(fs, dev, restrict_to=set(t.tolist())))
    # the last restriction drops boxes some cone sees
    assert (local < got).any()


def _alpha0_oracle(fs, gf):
    """find_alpha0 by brute force: every (Q, anchor box, owner) distance
    is recomputed and each ancestor found by walking up from Q."""
    S, RC = fs.S, fs.RC
    owners_of = box_owners(RC)
    box_anc = {}
    for bid, owners in owners_of.items():
        box_anc[bid] = sorted({a for q, _ in owners for a in ancestors(S, q)})
    needed = 1.0
    good = set(np.flatnonzero(RC.corona.regime >= 0).tolist())
    subregimes: dict = {}
    for q, t in enumerate(gf.top.tolist()):
        subregimes.setdefault(t, []).append(q)
    for p in sorted(t for t in subregimes if t >= 0):
        if p not in good:
            continue
        qs = set()
        for b in RC.sawtooth(subregimes[p]).tolist():
            qs.update(box_anc.get(b, ()))
        anchor_boxes = []
        for sign in "+-":
            anchor_boxes.append(int(RC.comp_center[RC.signed_comp(p, sign)]))
            pr = S.rparent[p]
            if pr in good:
                anchor_boxes.append(int(RC.comp_center[RC.signed_comp(pr, sign)]))
        for q in sorted(qs):
            if S.side[q] > S.side[p]:
                continue
            for b in anchor_boxes:
                best = np.inf
                for p_own, _ in owners_of.get(b, ()):
                    anc = q  # walk up from q to the owner's generation
                    while anc >= 0 and S.gen[anc] != S.gen[p_own]:
                        anc = S.rparent[anc]
                    if anc < 0:
                        continue
                    pts = S.E.points[S.members(p_own)]
                    d = np.linalg.norm(pts - S.z[anc], axis=1)
                    best = min(best, float(np.min(d)) / (S.C1 * float(S.side[anc])))
                a = 1.0 if best == np.inf else max(1.0, best * (1 + 1e-9))
                needed = max(needed, a)
    return needed


class TestRemarkLocality:
    def test_tv_over_carved_intersections(self, line_rc, state_t):
        # TV over (T_{Q'} cap T_{Q1}) \ T_{Q2} against the eps^{-2} integral
        # budget of either governing cube, on random triples
        fs, numbers, labels, gf = state_t
        eps = 0.5
        A = build_global_approximant(fs, gf, labels, gamma0=4.0)
        S = line_rc.S
        ns = fs.n_star(None)
        rng = np.random.default_rng(12)
        ids = [q for q in S.relevant_ids() if line_rc.corona.regime[q] >= 0]
        t = {q: set(line_rc.carleson_box(q).tolist()) for q in ids}
        worst = 0.0
        for _ in range(40):
            qp, q1, q2 = (ids[rng.integers(len(ids))] for _ in range(3))
            boxset = (t[qp] & t[q1]) - t[q2]
            if not boxset:
                continue
            tv = total_variation(fs, A, boxset)["total"]
            budgets = []
            for q in (qp, q1):
                _, _, members = surface_ball(S, q, 4.0)
                budgets.append(
                    float((ns[members] * S.E.weights[members]).sum()) / eps**2
                )
            if min(budgets) > 0:
                worst = max(worst, tv / min(budgets))
        assert worst <= 64.0  # configured locality budget
