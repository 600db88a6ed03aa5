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
from epsapprox import whitney
from epsapprox.whitney import (
    CoronaDecomposition,
    _sup_dist,
    build_regions,
    corona_provider,
    whitney_decompose,
)

from conftest import param_range, region

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
    return ij, sizes, dist, *_adjacency_loop(ij, sizes, unit)


def _adjacency_loop(ij, size, unit):
    """Reference: per face plane, a two-pointer merge of the sorted faces on
    either side; corner contacts through a dict of corner points.  Returns
    the sorted neighbour list of each box and the sorted (a, b, axis, area)
    facet tuples."""
    lo, s = ij.tolist(), size.tolist()
    ids = range(len(s))
    neighbors = [set() for _ in ids]
    facets = []
    for axis in (0, 1):
        perp = 1 - axis
        plane: dict = {}
        for b in ids:
            plane.setdefault(lo[b][axis] + s[b], ([], []))[0].append(b)
            plane.setdefault(lo[b][axis], ([], []))[1].append(b)
        for _, (plus, minus) in plane.items():
            if not plus or not minus:
                continue
            plus.sort(key=lambda b: lo[b][perp])
            minus.sort(key=lambda b: lo[b][perp])
            i = j = 0
            while i < len(plus) and j < len(minus):
                a, c = plus[i], minus[j]
                a_end, c_end = lo[a][perp] + s[a], lo[c][perp] + s[c]
                overlap = min(a_end, c_end) - max(lo[a][perp], lo[c][perp])
                if overlap > 0:
                    neighbors[a].add(c)
                    neighbors[c].add(a)
                    facets.append((a, c, axis, float(overlap * unit)))
                if a_end <= c_end:
                    i += 1
                else:
                    j += 1
    corner_map: dict = {}
    for b in ids:
        x0, y0 = lo[b]
        for corner in ((x0, y0), (x0 + s[b], y0), (x0, y0 + s[b]), (x0 + s[b], y0 + s[b])):
            corner_map.setdefault(corner, []).append(b)
    for group in corner_map.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                neighbors[group[i]].add(group[j])
                neighbors[group[j]].add(group[i])
    facets.sort()
    return [sorted(n) for n in neighbors], facets


def neighbor_lists(W):
    """The neighbour CSR as one list per box."""
    return [W.nbr[a:b].tolist() for a, b in zip(W.nbr_ptr[:-1], W.nbr_ptr[1:])]


def facet_rows(W):
    """The facet table as (a, b, axis, area) tuples."""
    return list(zip(*W.facets.T.tolist(), W.facet_area.tolist()))


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
        dists, _ = box_distance_many(W.lo, W.hi, E)
        for lo, hi, d in zip(W.lo, W.hi, dists):
            diam = float(np.linalg.norm(hi - lo))
            assert diam <= d + 1e-12
            assert d <= 4 * diam + 1e-12

    def test_distance_property_segment(self, segment_rc):
        W = segment_rc.W
        span = max(h - l for l, h in zip(W.window.lo, W.window.hi))
        root = 2 ** int(np.ceil(np.log2(span / W.unit)))
        assert W.n_boxes > 0
        dists, _ = box_distance_many(W.lo, W.hi, W.E)
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
        assert np.all(box_distance_many(c - half, c + half, E)[0] > 0)

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
        assert neighbor_lists(W) == neighbors
        assert facet_rows(W) == facets


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
    assert _sup_dist(pts, targets, [0, n_pts]).tolist() == [_sup_dist_loop(pts, targets)]


def _property3_loop(E, S, corona, reject=False):
    """Reference: per cube, full distance rows pick the samples and graph
    points within K l(Q), and each one-sided sup is a per-point loop."""
    worst = 0.0
    for i, graph in enumerate(corona.graph):
        pl = graph.polyline(E.window, E.resolution / 2)
        if pl is None:
            pl = E.points
        cubes = np.flatnonzero(corona.regime == i).tolist()
        if not reject:
            cubes = cubes[:: max(1, len(cubes) // 64)]
        for q in cubes:
            z, side = S.z[q], float(S.side[q])
            r = corona.K * side
            near = E.points[np.linalg.norm(E.points - z, axis=1) <= r]
            a = _sup_dist_loop(near, pl) if len(near) else 0.0
            on_ball = pl[np.linalg.norm(pl - z, axis=1) <= r]
            b = _sup_dist_loop(on_ball, E.points) if len(on_ball) else 0.0
            val = (a + b) / (corona.eta * side)
            worst = max(worst, val)
            if reject and val >= 1.0:
                raise ValueError(
                    f"regime {i} violates the graph-approximation "
                    f"property at cube {q}: (sup_dist {a + b:.4g}) >= "
                    f"eta*l(Q) = {corona.eta * side:.4g}"
                )
    return worst


def _one_regime(S, graph):
    """Every relevant cube in one regime with the given graph."""
    return CoronaDecomposition(
        regime=np.where(S.relevant, 0, -1).astype(np.int32),
        top=np.array(S.roots, dtype=np.int64),
        graph=[graph],
        eta=0.25,
        K=4.0,
        demoted=np.zeros(S.n_cubes, dtype=bool),
    )


def _columns_cloud():
    """Samples stacked on vertical columns, so many share one x."""
    xs = np.repeat(np.linspace(-1.0, 1.0, 9), 4)
    ys = np.tile(np.linspace(-0.01, 0.02, 4), 9)
    pts = np.column_stack([xs, ys])
    return build_boundary(
        PointList(points=tuple(map(tuple, pts)), weights=tuple([1.0 / 36] * 36)),
        resolution=1 / 16,
        window=Window((-1.0, -1.0), (1.0, 1.0)),
    )


def _shuffled_graph():
    E = build_boundary(LipschitzGraph("sin", 0.2), 1 / 32, Window((-2, -2), (2, 2)))
    perm = np.random.default_rng(1).permutation(E.n_samples)
    return build_boundary(
        PointList(tuple(map(tuple, E.points[perm])), tuple(E.weights[perm])),
        E.resolution,
        E.window,
    )


PROPERTY3_CASES = {
    # strided: more than 128 cubes in the one regime
    "graph": lambda: (
        build_boundary(LipschitzGraph("sin", 0.2), 1 / 64, Window((-4, -4), (4, 4))),
        dict(k_min=-4, k_max=4),
        None,
    ),
    "segment": lambda: (
        build_boundary(Segment(-1.0, 1.0), 1 / 64, Window((-1, -1), (1, 1))),
        dict(k_min=-1, k_max=4),
        None,
    ),
    # graph points against a cloud with stacked x values
    "columns": lambda: (_columns_cloud(), dict(k_min=-1, k_max=2), Hyperplane()),
    # a graph's samples in random order: index order is not x order, and a
    # cube's ball holds more than 64 samples, so the stride picks among them
    "shuffled": lambda: (_shuffled_graph(), dict(k_min=-2, k_max=1), LipschitzGraph("sin", 0.2)),
}


@pytest.mark.parametrize("reject", [False, True])
@pytest.mark.parametrize("case", sorted(PROPERTY3_CASES))
def test_property3_sup_matches_full_scans(case, reject):
    E, gens, graph = PROPERTY3_CASES[case]()
    S = build_cube_system(E, **gens)
    corona = _one_regime(S, graph or E.descriptor)
    if case == "graph":
        assert corona.regime.max() == 0 and (corona.regime == 0).sum() >= 128

    def outcome(f):
        try:
            return f(E, S, corona, reject)
        except ValueError as e:
            return str(e)

    assert outcome(whitney._property3_sup) == outcome(_property3_loop)


def test_property3_violation_names_the_same_cube(line_setup):
    E, S, W = line_setup
    # the regime graph tilts away from E: small cubes far from the origin fail
    corona = _one_regime(S, LipschitzGraph("linear", 0.2))
    with pytest.raises(ValueError) as ref:
        _property3_loop(E, S, corona, reject=True)
    assert f"cube {S.roots[0]}:" not in str(ref.value)
    with pytest.raises(ValueError) as got:
        whitney._property3_sup(E, S, corona, reject=True)
    assert str(got.value) == str(ref.value)
    assert whitney._property3_sup(E, S, corona) == _property3_loop(E, S, corona)


class TestCoronaProvider:
    def test_halfplane_single_regime(self, line_setup):
        E, S, W = line_setup
        corona = corona_provider(E, S, "trivial_graph", eta=0.25)
        assert corona.top.tolist() == [S.roots[0]]
        assert not corona.bad(S).any()
        assert (corona.regime[S.relevant] == 0).all()
        assert (corona.regime[~S.relevant] == -1).all()
        assert packing_constant(S, corona.top) == pytest.approx(1.0)

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
        children = S.children(root).tolist()
        spec = {
            "bad": [],
            "regimes": [{"cubes": [root]}]
            + [{"cubes": S.descendants(c)} for c in children],
        }
        f = tmp_path / "corona.json"
        f.write_text(json.dumps(spec))
        corona = corona_provider(E, S, "annotated", eta=0.25, path=f)
        assert corona.top.tolist() == [root, *children]
        lam = packing_constant(S, corona.top)
        assert lam == pytest.approx(2.0)  # root + its children partition

    def test_annotated_reports_its_full_property3_pass(self, line_setup, tmp_path, monkeypatch):
        # the validating pass is exhaustive; no strided pass follows it
        E, S, W = line_setup
        spec = {"bad": [], "regimes": [{"cubes": S.relevant_ids()}]}
        f = tmp_path / "corona.json"
        f.write_text(json.dumps(spec))
        calls = []
        sup = whitney._property3_sup
        monkeypatch.setattr(
            whitney,
            "_property3_sup",
            lambda *a, **k: calls.append(k.get("reject", False)) or sup(*a, **k),
        )
        corona = corona_provider(E, S, "annotated", eta=0.25, path=f)
        assert calls == [True]
        assert corona.property3_sup == _property3_loop(E, S, corona, reject=True)

    def test_annotated_incoherent_rejected(self, line_setup, tmp_path):
        E, S, W = line_setup
        root = S.roots[0]
        children = S.children(root).tolist()
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

    @pytest.mark.parametrize(
        "where, cube, message",
        [
            ("bad", 10**6, "bad cube 1000000 is not a relevant cube id"),
            ("bad", -1, "bad cube -1 is not a relevant cube id"),
            ("regime", -1, "regime 0 cube -1 is not a relevant cube id"),
            ("regime", "irrelevant", "regime 0 cube {} is not a relevant cube id"),
        ],
    )
    def test_annotated_rejects_cube_ids_off_the_tree(self, line_setup, tmp_path, where, cube, message):
        E, S, W = line_setup
        if cube == "irrelevant":
            cube = int(np.flatnonzero(~S.relevant)[0])
            message = message.format(cube)
        spec = {"bad": [], "regimes": [{"cubes": S.relevant_ids()}]}
        if where == "bad":
            spec["bad"].append(cube)
        else:
            spec["regimes"][0]["cubes"].append(cube)
        f = tmp_path / "corona.json"
        f.write_text(json.dumps(spec))
        with pytest.raises(ValueError, match=f"^{message}$"):
            corona_provider(E, S, "annotated", eta=0.25, path=f)

    def test_packing_overrun_names_measure_budget_and_margin(self, line_setup, tmp_path, monkeypatch):
        E, S, W = line_setup
        root = S.roots[0]
        spec = {"bad": [], "regimes": [{"cubes": [root]}] + [
            {"cubes": S.descendants(c)} for c in S.children(root).tolist()
        ]}
        f = tmp_path / "corona.json"
        f.write_text(json.dumps(spec))
        monkeypatch.setattr(whitney, "CORONA_PACKING_BUDGET", 1.5)
        # the root and its children's partition pack at 2
        with pytest.raises(ValueError, match=r"^corona packing 2 exceeds budget 1\.5 by 0\.5$"):
            corona_provider(E, S, "annotated", eta=0.25, path=f)


class TestRegions:
    def test_membership_rule_reproduced(self, line_regions):
        RC = line_regions
        S, W = RC.S, RC.W
        q = S.relevant_ids()[len(S.relevant_ids()) // 2]
        lq = S.side[q]
        pts = S.E.points[S.members(q)]
        qlo, qhi = pts.min(axis=0), pts.max(axis=0)
        expect = []
        for b, (lo, hi) in enumerate(zip(W.lo, W.hi)):
            side = hi[0] - lo[0]
            if not (
                PARAMS.c_w * lq * (1 - 1e-9)
                <= side
                <= PARAMS.C_w * lq * (1 + 1e-9)
            ):
                continue
            gap = np.linalg.norm(
                np.maximum(qlo - hi, 0) + np.maximum(lo - qhi, 0)
            )
            if gap <= PARAMS.C_d * lq * (1 + 1e-9):
                expect.append(b)
        assert region(RC, q) == sorted(expect)

    def test_two_signed_components_symmetric(self, line_regions):
        RC = line_regions
        # the only demotions are the window-edge singleton chains (the
        # inclusive endpoint sample behaves like an isolated point)
        for q in np.flatnonzero(RC.corona.demoted):
            assert len(RC.S.members(q)) == 1
        for q in RC.S.relevant_ids():
            if RC.corona.demoted[q]:
                continue
            assert RC.corona.regime[q] >= 0
            assert sorted(RC.pm_comp[q].tolist()) == list(RC.comps(q))
            plus = RC.comp(RC.signed_comp(q, "+"))
            minus = RC.comp(RC.signed_comp(q, "-"))
            vol_p = sum((RC.W.unit * RC.W.size[b]) ** 2 for b in plus)
            vol_m = sum((RC.W.unit * RC.W.size[b]) ** 2 for b in minus)
            assert vol_p == pytest.approx(vol_m)  # half-plane symmetry

    def test_x_points_at_scale(self, line_regions):
        RC = line_regions
        for q in RC.S.relevant_ids():
            if RC.corona.regime[q] < 0:
                continue
            lq = RC.S.side[q]
            for sign in "+-":
                X = RC.x_point(q, sign)
                delta = abs(X[1])
                assert 0.2 * lq <= delta <= 16 * lq

    def test_y_point_is_parent_x(self, line_regions):
        RC = line_regions
        root = RC.S.roots[0]
        assert np.allclose(RC.y_point(root, "+"), RC.x_point(root, "+"))
        child = RC.S.children(root)[0]
        assert np.allclose(RC.y_point(child, "+"), RC.x_point(root, "+"))

    def test_bounded_overlap_reported(self, line_regions):
        stats = line_regions.stats
        assert stats["bounded_overlap"] >= 1.0
        assert stats["bounded_overlap"] < 64.0

    def test_overlapping_regions_have_comparable_scale(self, line_regions):
        RC = line_regions
        seen: dict = {}
        for q in RC.S.relevant_ids():
            for b in region(RC, q):
                seen.setdefault(b, []).append(q)
        for b, qs in list(seen.items())[::17]:
            sides = [RC.S.side[q] for q in qs]
            assert max(sides) / min(sides) <= PARAMS.C_w / PARAMS.c_w + 1e-9


class TestBoxesAndSawtooths:
    def test_carleson_box_monotone(self, line_regions):
        RC = line_regions
        root = RC.S.roots[0]
        child = RC.S.children(root)[0]
        assert set(RC.carleson_box(child)) <= set(RC.carleson_box(root))

    def test_carleson_box_bounded(self, line_regions):
        RC = line_regions
        worst = 0.0
        for q in RC.S.relevant_ids():
            zq, lq = RC.S.z[q], RC.S.side[q]
            t = RC.carleson_box(q)
            for b in list(t)[:: max(1, len(t) // 16)]:
                lo, hi = RC.W.lo[b], RC.W.hi[b]
                far = max(np.linalg.norm(lo - zq), np.linalg.norm(hi - zq))
                worst = max(worst, far / lq)
        assert worst < 16 * (PARAMS.C_d + PARAMS.C_w)

    def test_sawtooth_of_descendants_is_carleson_box(self, line_regions):
        RC = line_regions
        q = RC.S.children(RC.S.roots[0])[0]
        assert np.array_equal(RC.sawtooth(RC.S.descendants(q)), RC.carleson_box(q))

    def test_sawtooth_single_cube_is_region(self, line_regions):
        RC = line_regions
        q = RC.S.relevant_ids()[5]
        assert np.array_equal(RC.sawtooth([q]), region(RC, q))

    def test_carleson_box_covers_dyadic_box_probe(self, line_regions):
        RC = line_regions
        S = RC.S
        # cube [0,1): T_Q contains probes of [0,1) x (floor, 1)
        q = next(
            q for q in S.relevant_ids() if param_range(S, q) == (0.0, 1.0)
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
            q for q in RC.S.descendants(RC.S.roots[0]) if RC.corona.regime[q] >= 0
        ]
        plus, minus = RC.sawtooth_halves(ids)
        assert len(plus) and len(minus) and not set(plus) & set(minus)
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
        owned = set(RC.region_box.tolist())
        for p in pts:
            b = locate(W, p)
            assert b is not None
            assert b in owned, f"box {b} at {p} in no region"


# ---------------------------------------------------------------------------
# region arrays against the per-cube loops
# ---------------------------------------------------------------------------


def _components_loop(members, neighbors):
    """Reference: depth-first search per unvisited member; components sorted."""
    member_set = set(members)
    seen = set()
    comps = []
    for b in members:
        if b in seen:
            continue
        comp = []
        stack = [b]
        seen.add(b)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in neighbors[x]:
                if y in member_set and y not in seen:
                    seen.add(y)
                    stack.append(y)
        comps.append(sorted(comp))
    comps.sort()
    return comps


def _label_components_loop(W, comps, graph, good):
    """Reference: '+'/'-' by the graph side of every box centre (good cubes
    with two components), else 'i<k>'; the X box of each component."""
    centers = [comp[int(np.argmax(W.size[comp]))] for comp in comps]
    indexed = [f"i{k}" for k in range(len(comps))]
    if not good or graph is None or len(comps) != 2:
        return indexed, centers, False
    labels = []
    for comp in comps:
        mid = (W.lo[comp] + W.hi[comp]) / 2.0
        side = np.sign(mid[:, 1] - graph.graph_value(mid[:, 0]))
        if np.all(side > 0):
            labels.append("+")
        elif np.all(side < 0):
            labels.append("-")
        else:
            return indexed, centers, False
    if set(labels) != {"+", "-"}:
        return indexed, centers, False
    return labels, centers, True


def _region_stats_loop(S, W, regions) -> dict:
    """Reference: the comparability constants summed region by region."""
    vol_ratio_lo, vol_ratio_hi = np.inf, 0.0
    delta_lo, delta_hi = np.inf, 0.0
    overlap_num = 0.0
    covered: set = set()
    n_comp_max = 0
    side = [W.unit * s for s in W.size.tolist()]
    volume = [a**2 for a in side]
    dist = W.dist.tolist()
    for q, (boxes, comps, _, _, _) in regions.items():
        if not boxes:
            continue
        lq = float(S.side[q])
        vol = sum(volume[b] for b in boxes)
        ratio = vol / lq**2
        vol_ratio_lo = min(vol_ratio_lo, ratio)
        vol_ratio_hi = max(vol_ratio_hi, ratio)
        overlap_num += vol
        covered.update(boxes)
        n_comp_max = max(n_comp_max, len(comps))
        for b in boxes[:: max(1, len(boxes) // 8)]:
            delta_lo = min(delta_lo, dist[b] / lq)
            delta_hi = max(delta_hi, (dist[b] + np.sqrt(2.0) * side[b]) / lq)
    union_vol = sum(volume[b] for b in covered)
    return {
        "volume_ratio_range": (float(vol_ratio_lo), float(vol_ratio_hi)),
        "delta_over_side_range": (float(delta_lo), float(delta_hi)),
        "bounded_overlap": float(overlap_num / union_vol) if union_vol else 0.0,
        "max_components": n_comp_max,
        "n_boxes_covered": len(covered),
    }


def _regions_loop(S, W, corona, params):
    """Reference: per cube, the membership window of each size group, the
    depth-first components and their labels.  Returns {q: (boxes,
    components, labels, centers, good)} and the stats with the demoted
    cubes."""
    neighbors, _ = _adjacency_loop(W.ij, W.size, W.unit)
    size_index = {}
    for size, ids in W.size_groups().items():
        ids = ids[np.argsort(W.lo[ids, 0], kind="stable")]
        size_index[size] = (ids, W.lo[ids, 0])
    regions, demoted = {}, set()
    for q in sorted(S.relevant_ids()):
        lq = float(S.side[q])
        pts = S.E.points[S.members(q)]
        qlo, qhi = pts.min(axis=0), pts.max(axis=0)
        members = []
        for size, (ids, lox) in size_index.items():
            side = size * W.unit
            ratio = side / lq
            if ratio < params.c_w * (1 - 1e-9) or ratio > params.C_w * (1 + 1e-9):
                continue
            reach = params.C_d * lq * (1 + 1e-9)
            a = np.searchsorted(lox, qlo[0] - reach - side)
            b = np.searchsorted(lox, qhi[0] + reach, side="right")
            ids_w = ids[a:b]
            gap_lo = np.maximum(qlo[None, :] - W.hi[ids_w], 0.0)
            gap_hi = np.maximum(W.lo[ids_w] - qhi[None, :], 0.0)
            gap = np.sqrt(((gap_lo + gap_hi) ** 2).sum(axis=1))
            members.extend(int(i) for i in ids_w[gap <= reach])
        members.sort()
        comps = _components_loop(members, neighbors)
        good = corona.regime[q] >= 0
        graph = corona.graph[corona.regime[q]] if good else None
        p = S.rparent[q]
        scale_defect = (
            p >= 0 and S.side[p] > params.max_parent_ratio * lq * (1 + 1e-9)
        )
        labels, centers, ok = _label_components_loop(W, comps, graph, good)
        if good and (not ok or scale_defect):
            demoted.add(q)
            good = False
            labels, centers, _ = _label_components_loop(W, comps, None, False)
        regions[q] = (members, comps, labels, centers, good)
    return regions, _region_stats_loop(S, W, regions) | {"demoted": sorted(demoted)}


def _recohere_loop(S, corona, demoted):
    """Reference: the dict walk over the levels that the regime arrays
    replaced.  Returns the new regime of every cube (-1 for none), the
    tops and their graphs."""
    old_of = {q: r for q, r in enumerate(corona.regime.tolist()) if r >= 0}
    good = set(old_of) - set(demoted)
    new_of, tops, graphs = {}, [], []
    for ids, par in S.levels:
        for q, p in zip(ids.tolist(), par.tolist()):
            if q not in good:
                continue
            joins = (
                p in new_of
                and old_of.get(p) == old_of[q]
                and all(ch in good for ch in S.children(p).tolist())
            )
            if joins:
                new_of[q] = new_of[p]
            else:
                new_of[q] = len(tops)
                tops.append(q)
                graphs.append(corona.graph[old_of[q]])
    return [new_of.get(q, -1) for q in range(S.n_cubes)], tops, graphs


def cloud_inputs(height):
    """A seeded cloud, not sorted by x, of the given height, whose cubes all
    start good against the x-axis: regions that fail the sign test are
    demoted."""
    rng = np.random.default_rng(17)
    pts = rng.uniform(-1.0, 1.0, size=(150, 2)) * (1.0, height)
    desc = PointList(tuple(map(tuple, pts)), (1 / 150,) * 150)
    E = build_boundary(desc, 0.05, Window((-1, -1), (1, 1)))
    S = build_cube_system(E, k_min=0, k_max=3)
    W = whitney_decompose(E, Window((-1.5, -1.5), (1.5, 1.5)), min_side=PARAMS.c_w * 2.0**-3)
    regime = np.full(S.n_cubes, -1, dtype=np.int32)
    for i, r in enumerate(S.roots):
        regime[S.descendants(r)] = i
    corona = CoronaDecomposition(
        regime=regime,
        top=np.array(S.roots),
        graph=[Hyperplane()] * len(S.roots),
        eta=0.25,
        K=4.0,
        demoted=np.zeros(S.n_cubes, dtype=bool),
    )
    return S, W, corona, PARAMS


@pytest.mark.parametrize("fixture", ["line_rc", "segment_rc", "sin_rc", "cloud", "flat_cloud"])
def test_region_arrays_match_loops(fixture, request):
    if fixture.endswith("cloud"):
        S, W, corona, params = cloud_inputs(1.0 if fixture == "cloud" else 0.1)
    else:
        rc = request.getfixturevalue(fixture)
        S, W, params = rc.S, rc.W, rc.params
        corona = corona_provider(S.E, S, "trivial_graph", eta=0.25)
    neighbors, facets = _adjacency_loop(W.ij, W.size, W.unit)
    assert neighbor_lists(W) == neighbors
    assert facet_rows(W) == facets
    RC = build_regions(S, W, corona, params)
    regions, stats = _regions_loop(S, W, corona, params)
    assert RC.stats | {"demoted": np.flatnonzero(RC.corona.demoted).tolist()} == stats
    regime, tops, graphs = _recohere_loop(S, corona, stats["demoted"])
    assert RC.corona.regime.tolist() == regime
    assert RC.corona.top.tolist() == tops
    assert all(a is b for a, b in zip(RC.corona.graph, graphs, strict=True))
    owners: dict = {}
    for q in range(S.n_cubes):
        if q not in regions:
            assert not len(region(RC, q)) and not len(RC.comps(q))
            continue
        boxes, comps, labels, centers, good = regions[q]
        assert region(RC, q) == boxes
        cs = RC.comps(q)
        assert [RC.comp(c).tolist() for c in cs] == comps
        sign = dict(zip(RC.pm_comp[q].tolist(), "+-"))
        assert [sign.get(c, f"i{k}") for k, c in enumerate(cs)] == labels
        assert RC.comp_center[list(cs)].tolist() == centers
        assert (RC.corona.regime[q] >= 0) == good
        for b in boxes:
            owners.setdefault(b, []).append(q)
    assert [
        RC.owner_cube[RC.owner_ptr[b] : RC.owner_ptr[b + 1]].tolist() for b in range(W.n_boxes)
    ] == [owners.get(b, []) for b in range(W.n_boxes)]
    if fixture == "cloud":
        # every region fails the sign test, some on more than two components
        assert not (RC.corona.regime >= 0).any() and stats["max_components"] > 2
    if fixture == "flat_cloud":
        assert stats["demoted"] and (RC.corona.regime >= 0).any()


@pytest.mark.parametrize("fixture", ["line_rc", "segment_rc", "sin_rc", "flat_cloud"])
def test_region_arrays_do_not_depend_on_chunk(fixture, request, monkeypatch):
    # the membership, component and sign passes run in CHUNK blocks
    if fixture == "flat_cloud":
        S, W, corona, params = cloud_inputs(0.1)
    else:
        rc = request.getfixturevalue(fixture)
        S, W, params = rc.S, rc.W, rc.params
        corona = corona_provider(S.E, S, "trivial_graph", eta=0.25)

    def arrays():
        RC = build_regions(S, W, corona, params)
        return (
            RC.region_ptr, RC.region_box, RC.owner_ptr, RC.owner_cube, RC.comp_ptr,
            RC.comp_box, RC.comp_center, RC.pm_comp, RC.corona.regime,
        )

    want = arrays()
    for chunk in (1, 200):
        monkeypatch.setattr(geometry, "CHUNK", chunk)
        for a, b in zip(want, arrays(), strict=True):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
