"""Boundary geometry: sampling, distance, surface measure, ADR sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsapprox import geometry
from epsapprox.geometry import (
    CantorSet,
    Hyperplane,
    LipschitzGraph,
    PointList,
    Segment,
    Window,
    box_distance_many,
    build_boundary,
    check_adr,
    descriptor_from_json,
    distinct,
    nearest,
    pair_distances,
)

W2 = Window((-4.0, -4.0), (4.0, 4.0))


def surface_measure(E, center, r):
    """Reference sigma-hat(B(center, r)): the weight sum of the samples with
    |sample - center| < r over one full distance row, in index order."""
    d = np.linalg.norm(E.points - np.asarray(center, dtype=float), axis=1)
    return float(E.weights[d < r].sum())


@pytest.fixture(scope="module")
def line():
    return build_boundary(Hyperplane(), resolution=0.01, window=W2)


@pytest.fixture(scope="module")
def kink():
    return build_boundary(
        LipschitzGraph("abs", 0.1), resolution=0.01, window=W2
    )


def two_lines(gap=1.0, resolution=0.01, half=4.0):
    n = int(round(2 * half / resolution)) + 1
    xs = np.linspace(-half, half, n)
    pts = np.concatenate(
        [np.column_stack([xs, np.zeros(n)]), np.column_stack([xs, np.full(n, gap)])]
    )
    w = np.full(2 * n, resolution)
    return build_boundary(
        PointList(points=tuple(map(tuple, pts)), weights=tuple(w)),
        resolution=resolution,
        window=Window((-half, -1.0), (half, gap + 1.0)),
    )


class TestBuildBoundary:
    def test_line_sample_count_and_weights(self, line):
        assert line.n_samples == 801
        assert np.allclose(line.weights, 0.01)

    def test_kink_weights_match_arclength_oracle(self, kink):
        # oracle: integral of sqrt(1+g'(x)^2) over each sample's owned segment
        # for g = 0.1|x| this is h*sqrt(1.01) away from the kink
        h = 0.01
        expected = h * np.sqrt(1.01)
        off_kink = np.abs(kink.points[:, 0]) > 2 * h
        inner = off_kink & (np.abs(np.abs(kink.points[:, 0]) - 4.0) > 2 * h)
        assert np.allclose(kink.weights[inner], expected, rtol=1e-10)

    def test_cantor_level2_corners(self):
        E = build_boundary(
            CantorSet(level=2), resolution=1 / 16, window=Window((0, 0), (1, 1))
        )
        assert E.n_samples == 16
        # level-2 corners live on the 1/16 lattice and include the extremes
        assert np.allclose(E.points * 16, np.round(E.points * 16))
        assert [0.0, 0.0] in E.points.tolist()
        assert [15 / 16, 15 / 16] in E.points.tolist()
        assert np.isclose(E.weights.sum(), 1.0)

    def test_lipschitz_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            build_boundary(LipschitzGraph("linear", 0.9), 0.01, W2, lip_budget=0.5)

    @pytest.mark.parametrize(
        "boundary, match",
        [
            ({"type": "segment", "params": {"a": 0.5, "b": -0.5}}, "segment needs a < b"),
            ({"type": "segment", "params": {"a": 5.0, "b": 6.0}}, "Segment boundary has no"),
            ({"type": "point_list", "params": {"points": [], "weights": []}}, "PointList bound"),
        ],
        ids=["reversed_segment", "segment_outside", "empty_point_list"],
    )
    def test_empty_boundary_named(self, boundary, match):
        # segment_pole's window; each input used to die in the grid stage
        # with a bare numpy message
        with pytest.raises(ValueError, match=match):
            build_boundary(descriptor_from_json(boundary), 2.0**-9, Window((-1, -1), (1, 1)))


def point_distance(P, E):
    """dist(P_i, E) as the distance of the degenerate box [P_i, P_i]."""
    return box_distance_many(P, P, E)[0]


class TestDistance:
    def test_line_above(self, line):
        assert point_distance(np.array([[0.5, 0.7]]), line)[0] == pytest.approx(0.7)

    def test_line_below(self, line):
        assert point_distance(np.array([[3.0, -2.0]]), line)[0] == pytest.approx(2.0)

    def test_tilted_line_within_half_a_polyline_step(self):
        # the nearest polyline vertex overestimates the distance to the
        # graph by at most half a polyline segment (resolution / 8 in x)
        E = build_boundary(LipschitzGraph("linear", 0.1), 0.01, W2)
        pl = E.polyline()
        half_step = pair_distances(pl[:1], pl[1:2])[0, 0] / 2
        assert half_step == pytest.approx(E.resolution / 8 * np.sqrt(1.01))
        rng = np.random.default_rng(3)
        P = np.column_stack([rng.uniform(-3, 3, 200), rng.uniform(-1, 1, 200)])
        # on the line at the midpoints of two segments, and off it
        P = np.vstack([(pl[[40, 900]] + pl[[41, 901]]) / 2, P])
        exact = np.abs(P[:, 1] - 0.1 * P[:, 0]) / np.sqrt(1.01)
        d = point_distance(P, E)
        assert np.all(exact - 1e-12 <= d)
        assert np.all(d <= exact + half_step * (1 + 1e-9))
        assert d[:2] == pytest.approx(half_step)

    def test_kink_distance_matches_resolution(self, kink):
        # nearest point to (0, 1) on g=0.1|x| is found numerically
        d = point_distance(np.array([[0.0, 1.0]]), kink)[0]
        assert d == pytest.approx(1 / np.sqrt(1.01), rel=1e-3)

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(
            st.floats(-3, 3), st.floats(0.05, 3), st.floats(-3, 3), st.floats(0.05, 3)
        )
    )
    def test_distance_is_lipschitz(self, xyab):
        x, y, a, b = xyab
        E = _MODULE_LINE
        d1, d2 = point_distance(np.array([[x, y], [a, b]]), E)
        assert abs(d1 - d2) <= np.hypot(x - a, y - b) + 1e-12


_MODULE_LINE = build_boundary(Hyperplane(), resolution=0.01, window=W2)


class TestSurfaceMeasure:
    def test_line_unit_ball(self, line):
        assert surface_measure(line, (0.0, 0.0), 1.0) == pytest.approx(2.0, abs=0.02)

    def test_line_half_ball(self, line):
        assert surface_measure(line, (0.0, 0.0), 0.5) == pytest.approx(1.0, abs=0.02)

    def test_cantor_self_similarity(self):
        E = build_boundary(
            CantorSet(level=3), resolution=1 / 64, window=Window((0, 0), (1, 1))
        )
        diam = np.sqrt(2.0)
        for j in (1, 2):
            m = surface_measure(E, (0.0, 0.0), diam * 4.0**-j)
            assert m == pytest.approx(4.0**-j, rel=1e-12)

    def test_monotone_in_radius(self, kink):
        c = kink.points[137]
        ms = [surface_measure(kink, c, r) for r in np.linspace(0.05, 2.0, 17)]
        assert all(a <= b + 1e-15 for a, b in zip(ms, ms[1:]))

    def test_additive_over_disjoint_pieces(self, line):
        # balls 4 apart on the line are disjoint: masses add
        m1 = surface_measure(line, (-2.0, 0.0), 1.0)
        m2 = surface_measure(line, (2.0, 0.0), 1.0)
        both = m1 + m2
        full = surface_measure(line, (-2.0, 0.0), 1.0) + surface_measure(
            line, (2.0, 0.0), 1.0
        )
        assert both == pytest.approx(full)


class TestADR:
    def test_line_ratios_are_two(self, line):
        rep = check_adr(line, budget=2.0)
        assert rep.passed
        # every tested ratio is 2 up to the quadrature error 2*resolution/r
        for rs, ratios in zip(rep.tested_radii, rep.ratios):
            for r, ratio in zip(rs, ratios):
                assert abs(ratio - 2.0) <= 2 * line.resolution / r + 1e-12
        r_min = min(r for rs in rep.tested_radii for r in rs)
        tol = 2 * line.resolution / r_min
        assert rep.lower_constant == pytest.approx(2.0, abs=tol)
        assert rep.upper_constant == pytest.approx(2.0, abs=tol)

    def test_graph_slope01_constants(self, kink):
        rep = check_adr(kink, budget=2.5)
        assert rep.passed
        # radii large against resolution so quadrature jitter <= 1/16
        large = [
            ratio
            for rs, ratios in zip(rep.tested_radii, rep.ratios)
            for r, ratio in zip(rs, ratios)
            if r >= 0.32
        ]
        assert len(large) >= 32
        assert 1.9 <= min(large) <= max(large) <= 2.2

    def test_two_parallel_lines_ratio(self):
        E = two_lines(gap=1.0)
        # direct count oracle at r=2 centered on one line:
        # own line contributes 2r, the other 2*sqrt(r^2-1)
        r = 2.0
        m = surface_measure(E, (0.0, 0.0), r)
        oracle = 2 * r + 2 * np.sqrt(r * r - 1)
        assert m == pytest.approx(oracle, abs=0.05)
        assert m / r == pytest.approx(3.732, abs=0.05)
        rep4 = check_adr(E, budget=4.0)
        rep3 = check_adr(E, budget=3.0)
        assert rep4.passed
        assert not rep3.passed

    def test_budget_below_one_rejected(self, line):
        with pytest.raises(ValueError):
            check_adr(line, budget=0.5)

    @pytest.mark.parametrize("resolution", [1 / 16, 1 / 8])
    def test_empty_radius_range_named(self, resolution):
        # half the diameter of [-0.5, 0.5] is 0.5: 8 * resolution reaches it
        # at 1/16 and passes it at 1/8
        E = build_boundary(Segment(-0.5, 0.5), resolution, W2)
        r_min = 8 * resolution
        with pytest.raises(ValueError) as err:
            check_adr(E, budget=4.0)
        assert str(err.value) == (
            f"empty ADR radius range: 8 * resolution = {r_min!r} is not below "
            f"r_max = 0.5; refine the resolution"
        )


def _adr_loop(E, budget):
    """Reference ADR sweep: one full distance row per center; per radius,
    the weights binned by the first radius above their distance, one at a
    time in index order, and the bins added in radius order."""
    centers = E.points[:: max(1, E.n_samples // geometry._ADR_CENTERS)]
    r_max = (E.diameter if E.bounded else E.window.span) / 2.0
    lo, hi = np.asarray(E.window.lo), np.asarray(E.window.hi)
    grid = np.geomspace(8 * E.resolution, r_max, geometry._ADR_RADII)
    radii_all, ratios_all, passed = [], [], True
    for c in centers:
        edge = float(min(np.min(c - lo), np.min(hi - c))) if not E.bounded else r_max
        d = np.linalg.norm(E.points - c, axis=1)
        bins = [0.0] * (len(grid) + 1)
        for j, wi in zip(np.searchsorted(grid, d, side="right").tolist(), E.weights.tolist()):
            bins[j] += wi
        rs, ratios, m = [], [], 0.0
        for j, r in enumerate(grid):
            m += bins[j]
            if r > edge or m == 0:
                continue
            rs.append(float(r))
            ratios.append(m / r)
            q = 2 * E.resolution / r
            passed &= bool(1.0 / budget - q <= ratios[-1] <= budget + q)
        radii_all.append(rs)
        ratios_all.append(ratios)
    return radii_all, ratios_all, passed


def shuffled(E, seed=0):
    """E's samples as a PointList in a random order with jittered weights,
    so index order is not x order and summation order shows in the bits."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(E.n_samples)
    w = E.weights[perm] * rng.uniform(0.5, 1.5, E.n_samples)
    return build_boundary(
        PointList(tuple(map(tuple, E.points[perm])), tuple(w)), E.resolution, E.window
    )


@pytest.mark.parametrize(
    "case, budget, chunk",
    [
        # the default CHUNK keeps the case's plain id
        pytest.param(
            case, budget, chunk, id=f"{case}-{budget}" + (f"-chunk{chunk}" if chunk else "")
        )
        for case, budget in [
            ("line", 2.0),
            ("kink", 2.5),
            ("two_lines", 3.0),
            ("cantor", 4.0),
            ("segment", 2.0),
            ("shuffled_kink", 3.0),
        ]
        for chunk in (None, 1, 50)
    ],
)
def test_adr_sweep_matches_full_rows(case, budget, chunk, line, kink, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(geometry, "CHUNK", chunk)
    E = {
        "line": lambda: line,
        "kink": lambda: kink,
        "two_lines": two_lines,
        "cantor": lambda: build_boundary(CantorSet(level=4), 1 / 256, Window((0, 0), (1, 1))),
        "segment": lambda: build_boundary(Segment(-1.0, 1.0), 1 / 128, W2),
        "shuffled_kink": lambda: shuffled(kink),
    }[case]()
    rep = check_adr(E, budget)
    radii, ratios, passed = _adr_loop(E, budget)
    assert sum(map(len, radii)) > 2 * len(radii)
    assert rep.tested_radii == radii
    assert rep.ratios == ratios
    assert rep.passed == passed


# half-integer coordinates: exact distances, so targets tie at a bound
# equal to the distance, and many targets share one x
_coord = st.integers(-6, 6).map(lambda v: v / 2)
_points = st.lists(st.tuples(_coord, _coord), min_size=1, max_size=30)
# boxes (x, y, width, height), points (width = height = 0) among them
_side = st.integers(0, 4).map(lambda v: v / 2)
_boxes = st.lists(st.tuples(_coord, _coord, _side, _side), min_size=1, max_size=30)


@settings(max_examples=200, deadline=None)
@given(
    cloud=_points,
    boxes=_boxes,
    radius=st.sampled_from(["tie", "half", "zero", "one"]),
    modulus=st.sampled_from([0, 2, 3]),
    chunk=st.sampled_from([1, 7, 1 << 16]),
)
def test_window_search_matches_all_pairs_min(cloud, boxes, radius, modulus, chunk):
    cloud, boxes = np.array(cloud, dtype=float), np.array(boxes, dtype=float)
    lo, hi = boxes[:, :2], boxes[:, :2] + boxes[:, 2:]
    # full rows of the clip-and-norm distance
    full = np.linalg.norm(cloud[None] - np.clip(cloud[None], lo[:, None], hi[:, None]), axis=2)
    d = full.copy()
    if modulus:
        d[(np.arange(len(lo))[:, None] + np.arange(len(cloud))) % modulus == 0] = np.inf
    want = d.min(axis=1)
    r = {
        "tie": np.where(np.isfinite(want), want, 1.0),
        "half": np.where(np.isfinite(want), want / 2, 1.0),
        "zero": 0.0,
        "one": 1.0,
    }[radius]
    skip = (lambda i, j: (i + j) % modulus == 0) if modulus else None
    old = geometry.CHUNK
    geometry.CHUNK = chunk
    try:
        got = nearest(lo, hi, cloud, r, skip)
        bracket = nearest(lo, hi, cloud)
    finally:
        geometry.CHUNK = old
    # the first target in x order at the least distance, -1 where none is left
    rank = np.empty(len(cloud), dtype=np.intp)
    rank[np.argsort(cloud[:, 0], kind="stable")] = np.arange(len(cloud))
    for (dist, idx), rows in ((got, d), (bracket, full)):
        assert dist.tolist() == rows.min(axis=1).tolist()
        tie = np.where(rows == dist[:, None], rank, len(cloud)).argmin(axis=1)
        assert idx.tolist() == np.where(np.isinf(dist), -1, tie).tolist()


@pytest.mark.parametrize(
    "shape, chunk",
    [
        # the horizontal line keeps its plain id
        pytest.param(shape, chunk, id=("" if shape == "line" else f"{shape}-") + str(chunk))
        for shape in ("line", "vertical", "cantor")
        for chunk in (None, 50)
    ],
)
def test_balls_match_full_rows(shape, chunk, monkeypatch):
    # radii equal to a point's distance at offsets that do not round
    # exactly (on the line, the window edge must not drop the point); a
    # vertical line puts every point in every window, and the Cantor set
    # is no graph
    if chunk is not None:
        monkeypatch.setattr(geometry, "CHUNK", chunk)
    rng = np.random.default_rng(4)
    if shape == "cantor":
        pts = CantorSet(level=5).corners()
        centers = rng.uniform(0.0, 1.0, (1000, 2))
    else:
        line = np.column_stack([0.1 + rng.uniform(-3.0, 3.0, 1300), np.zeros(1300)])
        if shape == "vertical":
            line = line[:, ::-1] + [0.1, 0.0]
        pts, centers = line[:300], line[300:]
    n = len(pts)
    rows = np.linalg.norm(pts[None] - centers[:, None], axis=2)
    r = rows[np.arange(1000), rng.integers(0, n, 1000)]
    r[::4] = rng.uniform(0.0, 2.0, 250)
    ptr, ids, d = geometry.balls(pts, centers, r)
    for k in range(1000):
        inside = rows[k] <= r[k]
        assert ids[ptr[k] : ptr[k + 1]].tolist() == np.flatnonzero(inside).tolist()
        assert d[ptr[k] : ptr[k + 1]].tolist() == rows[k][inside].tolist()


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.integers(-5, 5), max_size=40),
    as_float=st.booleans(),
)
def test_distinct_matches_np_unique(values, as_float):
    a = np.array(values, dtype=float if as_float else np.int64)
    want = np.unique(a, return_index=True, return_inverse=True)
    got = distinct(a, return_index=True, return_inverse=True)
    for w, g in zip(want, got):
        assert g.tolist() == w.tolist()
    assert distinct(a).tolist() == want[0].tolist()
    assert distinct(a, return_inverse=True)[1].tolist() == want[2].tolist()


@pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300], ids=["random", "huge", "tiny"])
def test_paired_distances_match_norm_rows(scale):
    rng = np.random.default_rng(2)
    a, b = scale * rng.normal(size=(2, 500, 2))
    # rows with one coordinate equal, and signed zeros
    b[:50, 0] = a[:50, 0]
    a[50:60], b[50:60] = -0.0, 0.0
    a[60:70, 1], b[60:70, 1] = 0.0, -0.0
    with np.errstate(over="ignore", under="ignore"):
        for b in (b, b[:1]):  # a row per row, and one broadcast row
            assert np.array_equal(geometry.paired_distances(a, b), np.linalg.norm(a - b, axis=1))


def _targets(E):
    pl = E.polyline()
    return E.points if pl is None else pl


class TestBoxDistance:
    def test_box_touching_line(self, line):
        d, _ = box_distance_many(np.array([[-0.5, -0.5]]), np.array([[0.5, 0.5]]), line)
        assert d[0] == 0.0

    def test_box_above_line(self, line):
        d, _ = box_distance_many(np.array([[0.0, 1.0]]), np.array([[1.0, 2.0]]), line)
        assert d[0] == pytest.approx(1.0)

    def test_box_to_cloud(self):
        E = build_boundary(
            CantorSet(level=1), resolution=0.25, window=Window((0, 0), (1, 1))
        )
        # cloud corners at (0,0),(3/4,0),(0,3/4),(3/4,3/4)
        d, near = box_distance_many(np.array([[2.0, 2.0]]), np.array([[3.0, 3.0]]), E)
        assert d[0] == pytest.approx(
            np.hypot(2 - 0.75, 2 - 0.75)
        )
        assert near.tolist() == [[0.75, 0.75]]

    def test_bound_equal_to_distance_keeps_nearest_target(self):
        # the only target lies exactly `bound` left of each box, so the
        # rounded window edge lands on either side of it
        E = build_boundary(PointList(((0.1, 0.0),), (1.0,)), 1.0, W2)
        lo_x = 0.1 + np.linspace(0.01, 3.0, 500)
        los = np.column_stack([lo_x, np.full_like(lo_x, -0.5)])
        his = los + 1.0
        exact, _ = box_distance_many(los, his, E)
        assert np.array_equal(box_distance_many(los, his, E, exact)[0], exact)

    @pytest.mark.parametrize("y", [1.0, -1.001], ids=["above", "below"])
    def test_bound_at_the_gap_keeps_nearest_target(self, y):
        # each box lies a gap of about 1 above (or below) the targets and
        # just right of the target at the origin, so bound^2 - gap^2 cancels
        # to 0 or nearly: the bound has to be widened before gap^2 is taken
        E = build_boundary(PointList(((0.0, 0.0), (5.0, 0.0)), (1.0, 1.0)), 1.0, W2)
        dx = np.geomspace(1e-12, 1e-4, 400)
        los = np.column_stack([dx, np.full_like(dx, y)])
        his = los + 1e-3
        exact, near = box_distance_many(los, his, E)
        assert np.all(near == 0.0)
        d, near_b = box_distance_many(los, his, E, exact)
        assert np.array_equal(d, exact) and np.array_equal(near_b, near)

    @pytest.mark.parametrize(
        "desc",
        [Hyperplane(), Segment(-1.0, 1.0), LipschitzGraph("sin", 0.3), "cloud"],
        ids=["hyperplane", "segment", "sin_graph", "cloud"],
    )
    def test_nearest_target_lies_at_the_distance(self, desc):
        rng = np.random.default_rng(12)
        los = rng.uniform(-3.0, 2.5, size=(400, 2))
        his = los + rng.uniform(0.001, 0.5, size=(400, 1))
        if desc == "cloud":
            desc = PointList(tuple(map(tuple, los[:40])), (0.025,) * 40)
        E = build_boundary(desc, 1 / 64, W2)
        d, near = box_distance_many(los, his, E)
        assert np.array_equal(np.linalg.norm(near - np.clip(near, los, his), axis=1), d)
        if isinstance(desc, (Hyperplane, Segment)):
            # flat E: the nearest point lies on E, not necessarily at a vertex
            a, b = (desc.a, desc.b) if isinstance(desc, Segment) else (-np.inf, np.inf)
            assert np.all(near[:, 1] == 0.0)
            assert np.all((a <= near[:, 0]) & (near[:, 0] <= b))
        else:
            t = _targets(E)
            assert np.all((near[:, None, :] == t[None]).all(axis=2).any(axis=1))
        # a bound from any target keeps the distance and the nearest target
        far = _targets(E)[rng.integers(0, len(_targets(E)), len(los))]
        bound = np.linalg.norm(far - np.clip(far, los, his), axis=1)
        d_b, near_b = box_distance_many(los, his, E, bound)
        assert np.array_equal(d_b, d) and np.array_equal(near_b, near)

    def test_segment_matches_the_vertex_scan_on_lattice_boxes(self):
        # the closed form against a full scan of the polyline vertices (the
        # clip-and-norm of every (box, vertex) pair): the same bits on boxes
        # aligned to the polyline step with sides that are multiples of it,
        # and never more on any box, since E holds the vertices
        E = build_boundary(Segment(-1.0, 1.0), 1 / 64, W2)
        pl = E.polyline()
        step = pl[1, 0] - pl[0, 0]

        def scan(los, his):
            d = [np.linalg.norm(pl - np.clip(pl, lo, hi), axis=1).min() for lo, hi in zip(los, his)]
            return np.array(d)

        rng = np.random.default_rng(4)
        los = step * rng.integers(-700, 700, size=(2000, 2)).astype(float)
        his = los + step * rng.integers(1, 64, size=(2000, 1))
        assert np.array_equal(box_distance_many(los, his, E)[0], scan(los, his))
        los = rng.uniform(-3.0, 2.5, size=(2000, 2))
        his = los + rng.uniform(1e-4, 0.5, size=(2000, 1))
        d, want = box_distance_many(los, his, E)[0], scan(los, his)
        assert np.all(d <= want) and np.any(d < want)

    @pytest.mark.parametrize("chunk", [1, 37])
    def test_box_blocks_match_one_pass(self, chunk, monkeypatch):
        # boxes taken a few (box, target) pairs at a time give the same
        # distances and nearest targets as one pass over every pair
        rng = np.random.default_rng(9)
        los = rng.uniform(-2.0, 1.5, size=(300, 2))
        his = los + rng.uniform(0.01, 0.5, size=(300, 1))
        cloud = PointList(tuple(map(tuple, los[:40])), (0.025,) * 40)
        for desc in (LipschitzGraph("sin", 0.3), cloud):
            E = build_boundary(desc, 1 / 64, W2)
            monkeypatch.setattr(geometry, "CHUNK", 1 << 40)
            whole, near = box_distance_many(los, his, E)
            bound = whole * 1.5 + 0.01
            monkeypatch.setattr(geometry, "CHUNK", chunk)
            for out in (box_distance_many(los, his, E), box_distance_many(los, his, E, bound)):
                assert np.array_equal(out[0], whole) and np.array_equal(out[1], near)


@pytest.mark.parametrize("chunk", [None, 3000])
def test_point_list_diameter_matches_per_point_loop(chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(geometry, "CHUNK", chunk)
    pts = np.random.default_rng(23).normal(size=(500, 2))
    desc = PointList(tuple(map(tuple, pts)), (1 / 500,) * 500)
    loop = 0.0
    for p in pts:
        loop = max(loop, float(np.max(np.linalg.norm(pts - p, axis=1))))
    assert desc.diameter(W2) == loop
    assert PointList((), ()).diameter(W2) == 0.0
