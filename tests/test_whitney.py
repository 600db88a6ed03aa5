"""Whitney boxes, corona provider, regions, Carleson boxes, sawtooths."""

import json

import numpy as np
import pytest

from epsapprox import geometry
from epsapprox.carleson import packing_constant
from epsapprox.config import RegionParams
from epsapprox.dyadic import build_cube_system
from epsapprox.geometry import (
    Hyperplane,
    LipschitzGraph,
    PointList,
    Segment,
    Window,
    box_distance_many,
    build_boundary,
)
from epsapprox.whitney import (
    _adjacency,
    _sup_dist,
    build_regions,
    corona_provider,
    whitney_decompose,
)

W2 = Window((-2.0, -2.0), (2.0, 2.0))
# ambient box for the Whitney complex: tall enough that the top-generation
# cubes (side 2^3 here) own boxes of side c_w*l at heights ~2 c_w*l
AMBIENT = Window((-2.0, -6.5), (2.0, 6.5))
PARAMS = RegionParams(tau=0.05, c_w=0.25, C_w=4.0, C_d=4.0)


def locate(W, p):
    """Id of the core box containing p (lo <= p < hi), else None."""
    hit = np.nonzero(np.all((p >= W.lo) & (p < W.hi), axis=1))[0]
    return int(hit[0]) if len(hit) else None


@pytest.fixture(scope="module")
def line_setup():
    E = build_boundary(Hyperplane(), resolution=1 / 64, window=W2)
    S = build_cube_system(E, k_min=-3, k_max=3)
    W = whitney_decompose(E, AMBIENT, min_side=PARAMS.c_w * 2.0**-3)
    return E, S, W


def _per_box_decompose(E, window, min_side):
    """Reference: depth-first walk, one full scan of E per candidate box."""
    span = max(h - l for l, h in zip(window.lo, window.hi))
    n_units = 2 ** int(np.ceil(np.log2(span / min_side)))
    unit = min_side
    cell = unit * n_units
    base = cell * np.floor(np.asarray(window.lo, dtype=float) / cell)
    targets = E.polyline()
    if targets is None:
        targets = E.points
    corners = ((0, 0), (1, 0), (0, 1), (1, 1))
    boxes = []
    stack = [((n_units * i, n_units * j), n_units) for i, j in corners]
    while stack:
        lo, size = stack.pop()
        glo = base + unit * np.asarray(lo, dtype=float)
        ghi = glo + unit * size
        if np.any(glo >= window.hi) or np.any(ghi <= window.lo):
            continue
        if isinstance(E.descriptor, Hyperplane):
            d = -ghi[1] if ghi[1] < 0 else glo[1] if glo[1] > 0 else 0.0
        else:
            c = np.clip(targets, glo, ghi)
            d = np.min(np.linalg.norm(targets - c, axis=1))
        if d >= np.sqrt(2.0) * unit * size:
            boxes.append((size, lo, float(d)))
        elif size > 1:
            half = size // 2
            stack.extend(
                ((lo[0] + half * i, lo[1] + half * j), half) for i, j in corners
            )
    boxes.sort()
    ij = np.array([lo for _, lo, _ in boxes], dtype=np.int64)
    sizes = np.array([s for s, _, _ in boxes], dtype=np.int64)
    dist = np.array([d for _, _, d in boxes])
    return ij, sizes, dist, *_adjacency(ij, sizes, unit)


# a cloud whose points are not sorted by x
_CLOUD = np.random.default_rng(3).uniform(-1.0, 1.0, size=(40, 2))


@pytest.fixture(scope="module")
def line_regions(line_setup):
    E, S, W = line_setup
    corona = corona_provider(E, S, "trivial_graph", eta=0.25)
    return build_regions(S, W, corona, PARAMS)


class TestWhitneyDecompose:
    def test_halfplane_row_pattern(self, line_setup):
        E, S, W = line_setup
        # with the diam-rule, side-s boxes sit at heights {2s, 3s}
        for lo, hi in zip(W.lo, W.hi):
            s = hi[1] - lo[1]
            bottom = min(abs(lo[1]), abs(hi[1]))
            assert bottom / s in (2.0, 3.0)

    def test_disjoint_interiors_and_coverage(self, line_setup):
        E, S, W = line_setup
        rng = np.random.default_rng(5)
        pts = rng.uniform([-1.8, -1.8], [1.8, 1.8], size=(3000, 2))
        floor = 4 * np.sqrt(2) * W.unit
        pts = pts[np.abs(pts[:, 1]) >= floor]
        lo, hi = W.lo, W.hi
        for p in pts[:400]:
            inside = np.where(
                np.all(p >= lo, axis=1) & np.all(p < hi, axis=1)
            )[0]
            assert len(inside) == 1

    def test_distance_property(self, line_setup):
        E, S, W = line_setup
        dists = box_distance_many(W.lo, W.hi, E)
        for lo, hi, d in zip(W.lo, W.hi, dists):
            diam = float(np.linalg.norm(hi - lo))
            assert diam <= d + 1e-12
            assert d <= 4 * diam + 1e-12

    def test_distance_property_segment(self, segment_rc):
        W = segment_rc.W
        span = max(h - l for l, h in zip(W.window.lo, W.window.hi))
        root = 2 ** int(np.ceil(np.log2(span / W.unit)))
        assert W.n_boxes > 0
        dists = box_distance_many(W.lo, W.hi, W.E)
        for lo, hi, size, d in zip(W.lo, W.hi, W.size, dists):
            diam = float(np.linalg.norm(hi - lo))
            assert diam <= d + 1e-12
            if size < root:
                assert d <= 4 * diam + 1e-12

    def test_fattened_boxes_stay_off_boundary(self, line_setup):
        E, S, W = line_setup
        step = max(1, W.n_boxes // 100)
        lo, hi = W.lo[::step], W.hi[::step]
        c = (lo + hi) / 2
        half = (hi - lo) / 2 * (1 + 3 * PARAMS.tau)
        assert np.all(box_distance_many(c - half, c + half, E) > 0)

    @pytest.mark.parametrize(
        "desc, sample_window, ambient",
        [
            (Hyperplane(), W2, AMBIENT),
            (Segment(-1, 1), Window((-1, -1), (1, 1)), Window((-4, -3.5), (4, 3.5))),
            (LipschitzGraph("sin", 0.3), W2, Window((-2, -3), (2, 3))),
            (PointList(tuple(map(tuple, _CLOUD)), (1 / 40,) * 40), W2, W2),
        ],
        ids=["hyperplane", "segment", "sin_graph", "cloud"],
    )
    def test_matches_per_box_walk(self, desc, sample_window, ambient):
        E = build_boundary(desc, 1 / 64, sample_window)
        W = whitney_decompose(E, ambient, min_side=1 / 32)
        ij, size, dist, neighbors, facets = _per_box_decompose(E, ambient, 1 / 32)
        assert W.ij.shape == ij.shape and np.all(W.ij == ij)
        assert W.size.shape == size.shape and np.all(W.size == size)
        assert W.dist.shape == dist.shape and np.all(W.dist == dist)
        assert W.neighbors == neighbors
        assert W.facets == facets


def _sup_dist_loop(pts, targets):
    """Reference: one distance scan per strided point."""
    worst = 0.0
    for p in pts[:: max(1, len(pts) // 64)]:
        worst = max(worst, float(np.min(np.linalg.norm(targets - p, axis=1))))
    return worst


@pytest.mark.parametrize("chunk", [None, 1000])
@pytest.mark.parametrize("n_pts", [0, 1, 50, 300])
def test_sup_dist_matches_per_point_loop(n_pts, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(geometry, "CHUNK", chunk)
    rng = np.random.default_rng(n_pts)
    pts = rng.uniform(-1.0, 1.0, size=(n_pts, 2))
    targets = rng.uniform(-1.5, 1.5, size=(700, 2))
    assert _sup_dist(pts, targets) == _sup_dist_loop(pts, targets)


class TestCoronaProvider:
    def test_halfplane_single_regime(self, line_setup):
        E, S, W = line_setup
        corona = corona_provider(E, S, "trivial_graph", eta=0.25)
        assert len(corona.regimes) == 1
        assert corona.bad == set()
        assert corona.regimes[0].max_cube == S.roots[0]
        tops = [r.max_cube for r in corona.regimes]
        assert packing_constant(S, tops) == pytest.approx(1.0)

    def test_slope_passes_property3(self):
        E = build_boundary(LipschitzGraph("linear", 0.05), 1 / 64, W2)
        S = build_cube_system(E, k_min=-3, k_max=2)
        corona = corona_provider(E, S, "trivial_graph", eta=0.1)
        assert corona.property3_sup < 1.0  # strict graph-approximation margin

    def test_steep_graph_rejected(self):
        E = build_boundary(LipschitzGraph("linear", 0.2), 1 / 64, W2)
        S = build_cube_system(E, k_min=-3, k_max=2)
        with pytest.raises(ValueError, match="eta"):
            corona_provider(E, S, "trivial_graph", eta=0.1)

    def test_annotated_regime_split_accepted(self, line_setup, tmp_path):
        E, S, W = line_setup
        root = S.roots[0]
        children = S.cube(root).rchildren
        spec = {
            "bad": [],
            "regimes": [{"cubes": [root]}]
            + [{"cubes": S.descendants(c)} for c in children],
        }
        f = tmp_path / "corona.json"
        f.write_text(json.dumps(spec))
        corona = corona_provider(E, S, "annotated", eta=0.25, path=f)
        assert len(corona.regimes) == 1 + len(children)
        tops = [r.max_cube for r in corona.regimes]
        lam = packing_constant(S, tops)
        assert lam == pytest.approx(2.0)  # root + its children partition

    def test_annotated_incoherent_rejected(self, line_setup, tmp_path):
        E, S, W = line_setup
        root = S.roots[0]
        children = S.cube(root).rchildren
        # root plus only one child: split sibling set violates coherency
        bad_spec = {
            "bad": [],
            "regimes": [
                {"cubes": [root, children[0]]},
                {"cubes": S.descendants(children[0])[1:]},
            ]
            + [{"cubes": S.descendants(c)} for c in children[1:]],
        }
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(bad_spec))
        with pytest.raises(ValueError, match="coherency"):
            corona_provider(E, S, "annotated", eta=0.25, path=f)


class TestRegions:
    def test_membership_rule_reproduced(self, line_regions):
        RC = line_regions
        S, W = RC.S, RC.W
        q = S.relevant_ids()[len(S.relevant_ids()) // 2]
        r = RC.regions[q]
        c = S.cube(q)
        pts = S.E.points[c.sample_idx]
        qlo, qhi = pts.min(axis=0), pts.max(axis=0)
        expect = []
        for b, (lo, hi) in enumerate(zip(W.lo, W.hi)):
            side = hi[0] - lo[0]
            if not (
                PARAMS.c_w * c.side * (1 - 1e-9)
                <= side
                <= PARAMS.C_w * c.side * (1 + 1e-9)
            ):
                continue
            gap = np.linalg.norm(
                np.maximum(qlo - hi, 0) + np.maximum(lo - qhi, 0)
            )
            if gap <= PARAMS.C_d * c.side * (1 + 1e-9):
                expect.append(b)
        assert r.boxes == sorted(expect)

    def test_two_signed_components_symmetric(self, line_regions):
        RC = line_regions
        # the only demotions are the window-edge singleton chains (the
        # inclusive endpoint sample behaves like an isolated point)
        for q in RC.stats["demoted"]:
            assert len(RC.S.cube(q).sample_idx) == 1
        for q in RC.S.relevant_ids():
            r = RC.regions[q]
            if q in RC.stats["demoted"]:
                continue
            assert r.good
            assert sorted(r.labels) == ["+", "-"]
            plus = r.components[r.labels.index("+")]
            minus = r.components[r.labels.index("-")]
            vol_p = sum((RC.W.unit * RC.W.size[b]) ** 2 for b in plus)
            vol_m = sum((RC.W.unit * RC.W.size[b]) ** 2 for b in minus)
            assert vol_p == pytest.approx(vol_m)  # half-plane symmetry

    def test_x_points_at_scale(self, line_regions):
        RC = line_regions
        for q in RC.S.relevant_ids():
            if not RC.regions[q].good:
                continue
            c = RC.S.cube(q)
            for sign in "+-":
                X = RC.x_point(q, sign)
                delta = abs(X[1])
                assert 0.2 * c.side <= delta <= 16 * c.side

    def test_y_point_is_parent_x(self, line_regions):
        RC = line_regions
        root = RC.S.roots[0]
        assert np.allclose(RC.y_point(root, "+"), RC.x_point(root, "+"))
        child = RC.S.cube(root).rchildren[0]
        assert np.allclose(RC.y_point(child, "+"), RC.x_point(root, "+"))

    def test_bounded_overlap_reported(self, line_regions):
        stats = line_regions.stats
        assert stats["bounded_overlap"] >= 1.0
        assert stats["bounded_overlap"] < 64.0

    def test_overlapping_regions_have_comparable_scale(self, line_regions):
        RC = line_regions
        seen: dict = {}
        for q, r in RC.regions.items():
            for b in r.boxes:
                seen.setdefault(b, []).append(q)
        for b, qs in list(seen.items())[::17]:
            sides = [RC.S.side[q] for q in qs]
            assert max(sides) / min(sides) <= PARAMS.C_w / PARAMS.c_w + 1e-9


class TestBoxesAndSawtooths:
    def test_carleson_box_monotone(self, line_regions):
        RC = line_regions
        root = RC.S.roots[0]
        child = RC.S.cube(root).rchildren[0]
        assert RC.carleson_box(child) <= RC.carleson_box(root)

    def test_carleson_box_bounded(self, line_regions):
        RC = line_regions
        worst = 0.0
        for q in RC.S.relevant_ids():
            c = RC.S.cube(q)
            t = RC.carleson_box(q)
            for b in list(t)[:: max(1, len(t) // 16)]:
                lo, hi = RC.W.lo[b], RC.W.hi[b]
                far = max(np.linalg.norm(lo - c.z), np.linalg.norm(hi - c.z))
                worst = max(worst, far / c.side)
        assert worst < 16 * (PARAMS.C_d + PARAMS.C_w)

    def test_sawtooth_of_descendants_is_carleson_box(self, line_regions):
        RC = line_regions
        q = RC.S.cube(RC.S.roots[0]).rchildren[0]
        assert RC.sawtooth(RC.S.descendants(q)) == RC.carleson_box(q)

    def test_sawtooth_single_cube_is_region(self, line_regions):
        RC = line_regions
        q = RC.S.relevant_ids()[5]
        assert RC.sawtooth([q]) == frozenset(RC.regions[q].boxes)

    def test_carleson_box_covers_dyadic_box_probe(self, line_regions):
        RC = line_regions
        S = RC.S
        # cube [0,1): T_Q contains probes of [0,1) x (floor, 1)
        q = next(
            q for q in S.relevant_ids() if S.cube(q).param_range == (0.0, 1.0)
        )
        t = RC.carleson_box(q)
        lo, hi = RC.W.lo[sorted(t)], RC.W.hi[sorted(t)]
        rng = np.random.default_rng(6)
        floor = 8 * RC.W.unit
        probes = rng.uniform([0.05, floor], [0.95, 0.95], size=(200, 2))
        for p in probes:
            assert np.any(np.all(p >= lo, axis=1) & np.all(p < hi, axis=1))

    def test_halves_of_sawtooth(self, line_regions):
        RC = line_regions
        ids = [
            q for q in RC.S.descendants(RC.S.roots[0]) if RC.regions[q].good
        ]
        plus, minus = RC.sawtooth_halves(ids)
        assert plus and minus and not (plus & minus)
        for b in list(plus)[::29]:
            assert RC.W.lo[b][1] >= 0


class TestCoverage:
    def test_certified_zone_covered_by_regions(self, line_regions):
        # every probe in the shrunk window above the resolution collar lies
        # in some Whitney region (the windowed form of "the regions cover")
        RC = line_regions
        W = RC.W
        rng = np.random.default_rng(21)
        floor = 6 * W.unit
        pts = rng.uniform([-1.5, -1.5], [1.5, 1.5], size=(500, 2))
        pts = pts[np.abs(pts[:, 1]) >= floor]
        owned = {b for r in RC.regions.values() for b in r.boxes}
        for p in pts:
            b = locate(W, p)
            assert b is not None
            assert b in owned, f"box {b} at {p} in no region"
