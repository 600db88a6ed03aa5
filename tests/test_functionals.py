"""Cone functionals: N_*, S, Carleson functionals, comparison estimates."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from epsapprox.config import RegionParams
from epsapprox.dyadic import build_cube_system
from epsapprox.functionals import (
    FunctionalSuite,
    compare_apertures,
    compare_levelsets,
    lp_norm,
)
from epsapprox import functionals, geometry
from epsapprox.geometry import Hyperplane, Window, build_boundary
from epsapprox.harmonic import Constant, Coordinate, FundamentalPole, PoissonIndicator
from epsapprox.whitney import build_regions, corona_provider, whitney_decompose

from conftest import ancestors, box_owners, param_range, region

W2 = Window((-2.0, -2.0), (2.0, 2.0))
AMBIENT = Window((-2.0, -6.5), (2.0, 6.5))
PARAMS = RegionParams(tau=0.05, c_w=0.25, C_w=4.0, C_d=4.0)


@pytest.fixture(scope="module")
def rc():
    E = build_boundary(Hyperplane(), resolution=1 / 64, window=W2)
    S = build_cube_system(E, k_min=-3, k_max=3)
    W = whitney_decompose(E, AMBIENT, min_side=PARAMS.c_w * 2.0**-3)
    corona = corona_provider(E, S, "trivial_graph", eta=0.25)
    return build_regions(S, W, corona, PARAMS)


def cone_distance_constant(FS, alpha: float, stride: int = 37) -> float:
    """Measured gamma with Gamma_alpha(x) inside {Y: |x-Y| <= gamma*delta(Y)}.

    Swept over strided samples and their cone boxes, using the certified
    lower bound dist(I,E) for delta on each box.
    """
    worst = 0.0
    lo, hi = FS.W.lo, FS.W.hi
    for i in range(0, FS.E.n_samples, stride):
        x = FS.E.points[i]
        for q in FS.S.chain(i):
            for p in FS.aperture_neighbors(alpha, q):
                for b in region(FS.RC, p):
                    far = max(np.linalg.norm(lo[b] - x), np.linalg.norm(hi[b] - x))
                    pad = 1.5 * FS.tau * (hi[b][0] - lo[b][0])
                    worst = max(
                        worst,
                        (far + pad) / max(FS.W.dist[b], 1e-300),
                    )
    return worst


def _per_box_owners(fs):
    """Reference: per box and per candidate, first hit wins."""
    lo_all, hi_all = fs.W.lo, fs.W.hi
    owner = {}
    for size in fs.W.size_groups():
        ids, pts = fs.fat_points(size)
        out = np.full(pts.shape[:2], -1, dtype=np.int32)
        for row, bid in enumerate(ids):
            P = pts[row]
            found = np.full(len(P), -1, dtype=int)
            for c in [bid] + fs.W.nbr[fs.W.nbr_ptr[bid] : fs.W.nbr_ptr[bid + 1]].tolist():
                hit = np.all(P >= lo_all[c], axis=1) & np.all(P < hi_all[c], axis=1)
                found = np.where((found < 0) & hit, c, found)
            out[row] = found
        owner[size] = out
    return owner


@pytest.fixture(scope="module")
def fs_t(rc):
    return FunctionalSuite(rc, Coordinate(1))


@pytest.fixture(scope="module")
def fs_poisson(rc):
    return FunctionalSuite(rc, PoissonIndicator(-1.0, 1.0))


class TestNStar:
    def test_constant(self, rc):
        fs = FunctionalSuite(rc, Constant(-3.0))
        assert np.allclose(fs.n_star(), 3.0)

    def test_height_field_matches_direct_sup(self, fs_t):
        # independent recomputation: per sample, exhaust the cone boxes and
        # take the max |t| over the fattened grids
        fs = fs_t
        W = fs.W
        pad = 1.5 * fs.tau
        for i in range(0, fs.E.n_samples, 37):
            boxes = set()
            for q in fs.S.chain(i):
                boxes.update(region(fs.RC, q))
            direct = 0.0
            for b in boxes:
                lo, hi = W.lo[b], W.hi[b]
                s = hi[1] - lo[1]
                direct = max(direct, abs(lo[1] - pad * s), abs(hi[1] + pad * s))
            assert fs.n_star()[i] == pytest.approx(direct, rel=1e-12)

    def test_aperture_dominates_default(self, fs_poisson):
        n0 = fs_poisson.n_star()
        n4 = fs_poisson.n_star(4.0)
        assert np.all(n4 >= n0 - 1e-15)

    def test_aperture_one_coincides_on_centered_line(self, fs_t):
        # open surface balls: alpha=1 neighbors reduce to the cube itself
        # for interior cubes, so the cones coincide and the ratio is 1
        inner = [
            q
            for q in fs_t.S.relevant_ids()
            if -2 < param_range(fs_t.S, q)[0] and param_range(fs_t.S, q)[1] < 2
        ]
        for q in inner[::5]:
            assert fs_t.aperture_neighbors(1.0, q) == [q]

    def test_monotone_in_alpha(self, fs_poisson):
        n2 = fs_poisson.n_star(2.0)
        n4 = fs_poisson.n_star(4.0)
        assert np.all(n2 <= n4 + 1e-15)


class TestSquareFunction:
    def test_constant_is_zero(self, rc):
        fs = FunctionalSuite(rc, Constant(5.0))
        assert np.allclose(fs.square_function(), 0.0)

    def test_height_field_gives_cone_area(self, fs_t):
        # |grad t| = 1, n = 1: S^2 equals the cone area; oracle sums the
        # core-box areas of the union
        fs = fs_t
        s = fs.square_function()
        for i in range(0, fs.E.n_samples, 71):
            boxes = set()
            for q in fs.S.chain(i):
                boxes.update(region(fs.RC, q))
            area = sum((fs.W.unit * fs.W.size[b]) ** 2 for b in boxes)
            assert s[i] ** 2 == pytest.approx(area, rel=1e-9)

    def test_linearity_in_scaling(self, rc):
        fs1 = FunctionalSuite(rc, Coordinate(1))
        from epsapprox.harmonic import LinearCombination

        fs3 = FunctionalSuite(rc, LinearCombination((3.0,), (Coordinate(1),)))
        assert np.allclose(fs3.square_function(), 3 * fs1.square_function())


def _square_loop(fs):
    """Reference: per sample, the distinct region boxes over its chain,
    ascending, their |grad u|^2 integrals added one at a time."""
    g2 = fs.grad_integrals()[1].tolist()
    out = np.zeros(fs.E.n_samples)
    for i in range(fs.E.n_samples):
        boxes = set()
        for q in fs.S.chain(i):
            boxes.update(region(fs.RC, q))
        out[i] = np.sqrt(sum(g2[b] for b in sorted(boxes)))
    return out


@pytest.mark.parametrize("chunk", [None, 1, 200])
def test_square_function_matches_per_sample_loop(line_rc, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(geometry, "CHUNK", chunk)
    fs = FunctionalSuite(line_rc, PoissonIndicator(-1.0, 1.0))
    # a box in two regions of one chain: the cone holds it once
    regions = [region(fs.RC, q) for q in fs.S.chain(0)]
    assert sum(map(len, regions)) > len(set().union(*regions))
    assert np.array_equal(fs.square_function(), _square_loop(fs))


@pytest.fixture(scope="module")
def fine_line():
    """(S, W, corona) of the line at 4097 samples, generations -3..7."""
    E = build_boundary(Hyperplane(), resolution=2.0**-10, window=W2)
    S = build_cube_system(E, k_min=-3, k_max=7)
    W = whitney_decompose(E, AMBIENT, min_side=PARAMS.c_w * 2.0**-7)
    return S, W, corona_provider(E, S, "trivial_graph", eta=0.25)


def _traced_peak(f) -> int:
    """Peak traced bytes while f() runs."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_square_function_transient_memory_bounded(fine_line):
    # 4097 samples and 927 922 (leaf, box) pairs: one pass over all pairs
    # at once peaks at ~33 MiB, blocks of whole leaves at ~3 MiB
    fs = FunctionalSuite(build_regions(*fine_line, PARAMS), Coordinate(1))
    fs.grad_integrals()
    assert _traced_peak(fs.square_function) < 8 * 2**20


def test_fat_grid_passes_transient_memory_bounded(fine_line):
    # 16 376 boxes: whole size groups of fat-grid points and core-grid
    # gradients peaked at 31.3 MiB; blocks of CHUNK (box, point) pairs peak
    # at 7.7 MiB, most of it the 4.1 MiB of owner-segment extrema returned
    fs = FunctionalSuite(build_regions(*fine_line, PARAMS), Coordinate(1))
    assert _traced_peak(lambda: (fs.owners(), fs.grad_integrals())) < 10 * 2**20


def test_build_regions_transient_memory_bounded(fine_line):
    # 251 908 (cube, box) members: whole-member int64 keys and tables, a
    # dense (cube, box) -> member table and whole-member sign floats peaked
    # at 24.4 MiB; with the component and sign passes in CHUNK blocks the
    # peak is 9.2 MiB
    assert _traced_peak(lambda: build_regions(*fine_line, PARAMS)) < 12 * 2**20


@pytest.mark.parametrize(
    "fixture, u",
    [("line_rc", PoissonIndicator(-1.0, 1.0)), ("segment_rc", FundamentalPole((0.0, 0.0)))],
)
def test_blocked_passes_do_not_depend_on_chunk(fixture, u, request, monkeypatch):
    # the fat-grid and gradient passes run in blocks of CHUNK (box, point)
    # pairs and every reduction is per box; the T_Q sums run in blocks of
    # CHUNK (box, cube) pairs, each sum carried from block to block
    rc = request.getfixturevalue(fixture)
    mass = np.random.default_rng(5).random(rc.W.n_boxes)

    def passes():
        fs = FunctionalSuite(rc, u)
        return (*fs.owners(), *fs.box_extrema(), *fs.grad_integrals(), fs.anc_scatter(mass))

    want = passes()
    for chunk in (1, 200):
        monkeypatch.setattr(geometry, "CHUNK", chunk)
        for a, b in zip(want, passes(), strict=True):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()


@pytest.mark.parametrize("K", [1, 5, 32, 33, 70])
def test_first_hits_match_a_per_point_scan(K):
    # overlapping boxes on a grid of dyadic coordinates, many points on box
    # edges, and more boxes than one 32-bit word holds: each point's first
    # box in order wins, and a point no box holds reads 32 * ceil(K / 32)
    rng = np.random.default_rng(K)
    m, n = 7, 9
    x = np.sort(rng.integers(0, 16, (m, n)), axis=1) / 8.0
    y = np.sort(rng.integers(0, 16, (m, n)), axis=1) / 8.0
    lo = rng.integers(0, 12, (K, m, 2)) / 8.0
    hi = lo + rng.integers(1, 8, (K, m, 2)) / 8.0
    hi[rng.random((K, m)) < 0.2] = -np.inf  # padding: an empty box
    got = functionals._first_hits(
        x, y, lo, hi, np.empty((m, n * n), dtype=np.intp), np.empty((m, n, n), dtype=np.uint32)
    )
    none = 32 * -(-K // 32)
    want = np.full((m, n * n), none)
    for r in range(m):
        for i in range(n):
            for j in range(n):
                for k in range(K):
                    if lo[k, r, 0] <= x[r, i] < hi[k, r, 0] and lo[k, r, 1] <= y[r, j] < hi[k, r, 1]:
                        want[r, i * n + j] = k
                        break
    assert np.array_equal(got, want)
    assert (want == none).any() and (want < K).any()


@pytest.mark.parametrize("fixture", ["line_rc", "segment_rc"])
def test_owners_match_per_box_loop(fixture, request):
    # the default grid; one of three points a side that steps over some
    # neighbours, so their segments are empty; and a pad of a quarter side
    # (tau = 1/6) with points a quarter side apart, so grid coordinates fall
    # exactly on the edges of the box and of its half-size neighbours, where
    # the half-open first-hit rule decides
    rc = request.getfixturevalue(fixture)
    quarter = replace(rc, params=replace(rc.params, tau=1 / 6))
    uncovered, empty, on_edge = {}, {}, 0
    for key, RC, frac in (("default", rc, 0.125), ("sparse", rc, 1.0), ("edges", quarter, 0.25)):
        fs = FunctionalSuite(RC, Coordinate(1), sample_frac=frac)
        ptr, owner, seg_max, seg_min = fs.owners()
        ref = _per_box_owners(fs)
        W = fs.W
        assert np.array_equal(ptr, W.nbr_ptr + np.arange(W.n_boxes + 1))
        uncovered[key] = any((own < 0).any() for own in ref.values())
        empty[key] = False
        for size, own in ref.items():
            ids, pts = fs.fat_points(size)
            vals = fs.u.eval(pts.reshape(-1, 2)).reshape(own.shape)
            for row, bid in enumerate(ids.tolist()):
                cands = [bid] + W.nbr[W.nbr_ptr[bid] : W.nbr_ptr[bid + 1]].tolist()
                seg = slice(ptr[bid], ptr[bid + 1])
                assert owner[seg].tolist() == cands
                for k, c in enumerate(cands):
                    on = vals[row][own[row] == c]
                    empty[key] |= not len(on)
                    assert seg_max[seg][k] == on.max(initial=-np.inf)
                    assert seg_min[seg][k] == on.min(initial=np.inf)
                    if key == "edges" and 2 * W.size[c] == W.size[bid]:
                        hit = (pts[row] == W.lo[c]) | (pts[row] == W.hi[c])
                        on_edge += int(hit.any(axis=1).sum())
    assert uncovered["default"] and empty["sparse"] and on_edge
    assert 0.5 in FunctionalSuite(quarter, Coordinate(1), sample_frac=0.25)._fat_axis()


def _aperture_scan(FS, alpha, qid):
    """Reference: every relevant cube of the generation, in id order."""
    S = FS.S
    z = S.z[qid]
    r = alpha * S.C1 * S.side[qid]
    out = []
    for p in S.relevant_at_gen(S.gen[qid]):
        if np.linalg.norm(S.z[p] - z) > r + S.C1 * S.side[p] * 2:
            continue
        d = np.linalg.norm(S.E.points[S.members(p)] - z, axis=1)
        if np.min(d) < r:
            out.append(p)
    return out


def _n_star_loop(FS, alpha):
    """Reference: per sample, the running max over its chain's cones."""
    sup = FS.region_sup()
    out = np.zeros(FS.E.n_samples)
    far = FS._far_sup()
    for i, chain in enumerate(map(FS.S.chain, range(FS.E.n_samples))):
        best = far
        for q in chain:
            if alpha is None:
                best = max(best, sup[q])
            else:
                for p in _aperture_scan(FS, alpha, q):
                    best = max(best, sup[p])
        out[i] = best
    return out


# `verify_approximation` reads the cones at alpha0, which need not be on
# the alpha grid
APERTURES = [None, 1.0, 4.0, 3.7]


@pytest.mark.parametrize(
    "fixture, copies",
    [
        # line_rc is quick_t's grid
        pytest.param("line_rc", True, id="line_rc"),
        pytest.param("segment_rc", False, id="segment_rc"),
        pytest.param("sin_rc", True, id="sin_rc"),
    ],
)
def test_cones_match_all_pairs_scan(fixture, copies, request):
    rc = request.getfixturevalue(fixture)
    far = 2.0 if rc.S.E.bounded else None
    fs = FunctionalSuite(rc, PoissonIndicator(-0.5, 0.7), far_ball_factor=far)
    for alpha in APERTURES[1:]:
        for q in fs.S.relevant_ids():
            assert fs.aperture_neighbors(alpha, q) == _aperture_scan(fs, alpha, q)
    for alpha in APERTURES:
        assert np.array_equal(fs.n_star(alpha), _n_star_loop(fs, alpha))
    # some neighbour's centre lies outside the ball alpha*Delta_Q, so an
    # x-window of radius alpha*C1*l(Q) alone would miss it
    S = fs.S
    assert any(
        np.linalg.norm(S.z[p] - S.z[q]) > alpha * S.C1 * S.side[q]
        for alpha in APERTURES[1:]
        for q in S.relevant_ids()
        for p in fs.aperture_neighbors(alpha, q)
    )
    # some sample sits exactly on the sphere of a ball alpha*Delta_Q, so the
    # ball's openness decides; where the system has non-relevant copies,
    # some sample inside a ball has no relevant cube at Q's generation
    on_sphere, uncovered = False, False
    leaf = S.sample_leaf
    for alpha in APERTURES[1:]:
        for q in S.relevant_ids():
            r = alpha * S.C1 * S.side[q]
            d = np.linalg.norm(S.E.points - S.z[q], axis=1)
            on_sphere |= bool((d == r).any())
            uncovered |= bool((S.anc_at[leaf[d < r], S.gen[q] - S.k_min] < 0).any())
    assert on_sphere
    assert bool((~S.relevant).any()) == copies == uncovered


def test_n_star_builds_each_aperture_index_once(line_rc, monkeypatch):
    fs = FunctionalSuite(line_rc, Coordinate(1))
    passes, calls = [], []
    inner = functionals.balls
    monkeypatch.setattr(functionals, "balls", lambda *a: passes.append(1) or inner(*a))
    monkeypatch.setattr(FunctionalSuite, "aperture_neighbors", lambda self, a, q: calls.append(q))
    for alpha in [4.0, 1.0, 4.0]:
        fs.n_star(alpha)
        fs.cube_numbers(alpha)
        fs.apertures(alpha)
    # one `balls` pass per generation per distinct alpha, no per-cube call
    assert len(passes) == 2 * len(fs.S.levels)
    assert calls == []


def test_empty_cone_names_first_sample(line_rc, monkeypatch):
    fs = FunctionalSuite(line_rc, Coordinate(1))
    chain = set(fs.S.chain(7))
    # empty every cone piece on sample 7's chain: exactly the samples of its
    # finest cube have empty cones
    sup = fs.region_sup()
    sup[list(chain)] = -np.inf
    monkeypatch.setattr(fs, "region_sup", lambda: sup)
    leaf = fs.S.sample_leaf
    first = int(np.argmax(leaf == leaf[7]))
    with pytest.raises(ValueError, match=f"empty cone at sample {first} "):
        fs.n_star(None)


class TestCubeNumbers:
    def test_constant(self, rc):
        fs = FunctionalSuite(rc, Constant(2.0))
        val, point = fs.cube_numbers()
        assert all(v == pytest.approx(2.0) for v in val[rc.S.relevant_ids()])
        assert np.allclose(point, 2.0)

    def test_monotone_along_chains(self, fs_poisson):
        val, _ = fs_poisson.cube_numbers()
        S = fs_poisson.S
        for q in S.relevant_ids():
            p = S.rparent[q]
            if p >= 0:
                assert val[q] >= val[p] - 1e-15

    def test_matches_brute_force(self, fs_poisson):
        val, _ = fs_poisson.cube_numbers()
        S = fs_poisson.S
        ns = fs_poisson.n_star()
        w = S.E.weights
        for q in S.relevant_ids()[::13]:
            best = 0.0
            for r in ancestors(S, q):
                m = S.members(r)
                best = max(best, np.dot(ns[m], w[m]) / S.sigma(r))
            assert val[q] == pytest.approx(best, rel=1e-12)


class TestCarlesonFunctionals:
    def test_zero_measure(self, fs_t):
        mass = np.zeros(fs_t.W.n_boxes)
        assert np.allclose(fs_t.carleson_dyadic(mass), 0.0)
        ids = np.arange(0, fs_t.E.n_samples, 50)
        assert np.allclose(fs_t.carleson_ball(mass, ids), 0.0)

    def test_unit_mass_single_box_enumeration(self, fs_t):
        fs = fs_t
        S, RC = fs.S, fs.RC
        # put unit mass on some box owned by a fine cube
        q = next(
            q
            for q in S.relevant_ids()
            if S.gen[q] == 3 and len(region(RC, q))
        )
        bid = region(RC, q)[0]
        mass = np.zeros(fs.W.n_boxes)
        mass[bid] = 1.0
        cd = fs.carleson_dyadic(mass)
        n = 1
        # oracle: per sample, enumerate containing cubes and check T_Q
        for i in range(0, fs.E.n_samples, 97):
            best = 0.0
            for qq in fs.S.chain(i):
                if bid in RC.carleson_box(qq):
                    best = max(best, 1.0 / S.side[qq] ** n)
            assert cd[i] == pytest.approx(best)

    def test_dyadic_dominated_by_ball(self, fs_poisson):
        fs = fs_poisson
        g1, _ = fs.grad_integrals()
        ids = np.arange(0, fs.E.n_samples, 29)
        cd = fs.carleson_dyadic(g1)[ids]
        cb = fs.carleson_ball(g1, ids)
        # T_Q subset B(z_Q, C l(Q)): measured domination constant
        lo, hi = fs.W.lo, fs.W.hi
        C = 0.0
        for q in fs.S.relevant_ids():
            t = fs.RC.carleson_box(q)
            if not len(t):
                continue
            z = fs.S.z[q]
            far = max(
                max(np.linalg.norm(lo[b] - z), np.linalg.norm(hi[b] - z))
                for b in t
            )
            C = max(C, (far / fs.S.side[q]) ** 1)
        assert np.all(cd <= C * cb * (1 + 1e-6) + 1e-12)


def _anc_scatter_loop(fs, mass):
    """Reference: per box in ascending id, its mass added to each ancestor
    of each of its owners."""
    S = fs.S
    out = np.zeros(S.n_cubes)
    for bid, owners in sorted(box_owners(fs.RC).items()):
        qs = sorted({a for q, _ in owners for a in ancestors(S, q)})
        m = mass[bid]
        if m:
            for q in qs:
                out[q] += m
    return out


def _carleson_dyadic_loop(fs, mass):
    """Reference: per sample, the running max over its chain."""
    per_cube = _anc_scatter_loop(fs, mass)
    out = np.zeros(fs.E.n_samples)
    for i, chain in enumerate(map(fs.S.chain, range(fs.E.n_samples))):
        best = 0.0
        for q in chain:
            best = max(best, per_cube[q] / fs.S.side[q])
        out[i] = best
    if fs.E.bounded:
        out = np.maximum(out, fs._tower_sup(mass))
    return out


@pytest.mark.parametrize("fixture", ["line_rc", "segment_rc"])
def test_carleson_dyadic_matches_dict_scatter(fixture, request):
    fs = FunctionalSuite(request.getfixturevalue(fixture), Constant(0.0))
    indptr, owner = fs.RC.owner_ptr, fs.RC.owner_cube
    ref = box_owners(fs.RC)
    for b, owners in ref.items():
        assert owner[indptr[b] : indptr[b + 1]].tolist() == [q for q, _ in owners]
    assert indptr[-1] == sum(map(len, ref.values()))
    rng = np.random.default_rng(11)
    mass = rng.random(fs.W.n_boxes) * (rng.random(fs.W.n_boxes) < 0.5)
    assert (mass == 0.0).any()
    assert np.array_equal(fs.anc_scatter(mass), _anc_scatter_loop(fs, mass))
    cd = fs.carleson_dyadic(mass)
    assert np.array_equal(cd, _carleson_dyadic_loop(fs, mass))
    assert len(np.unique(cd)) > 1  # the chains, not one tower sup, decide


def _carleson_ball_loop(fs, mass, sample_ids):
    """Reference: one full distance row per sample; the masses binned by
    the first radius above their distance (in box order) and the bins
    summed in radius order."""
    lo, hi = fs.W.lo, fs.W.hi
    live = np.nonzero(mass)[0]
    pos, m = ((lo + hi) / 2)[live], mass[live]
    radii = fs._ball_radii()
    out = np.zeros(len(sample_ids))
    for j, i in enumerate(sample_ids):
        d = np.linalg.norm(pos - fs.E.points[i], axis=1)
        bins = np.zeros(len(radii) + 1)
        np.add.at(bins, np.searchsorted(radii, d, side="right"), m)
        out[j] = float(np.max(np.cumsum(bins)[:-1] / radii))
    return out


@pytest.mark.parametrize("chunk", [None, 200])
@pytest.mark.parametrize("fixture", ["line_rc", "segment_rc"])
def test_carleson_ball_matches_per_sample_loop(fixture, chunk, request, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(geometry, "CHUNK", chunk)
    fs = FunctionalSuite(request.getfixturevalue(fixture), Constant(0.0))
    rng = np.random.default_rng(5)
    mass = rng.random(fs.W.n_boxes) * (rng.random(fs.W.n_boxes) < 0.3)
    ids = np.arange(0, fs.E.n_samples, 3)
    ref = _carleson_ball_loop(fs, mass, ids)
    assert np.array_equal(fs.carleson_ball(mass, ids), ref)


@pytest.mark.parametrize("chunk", [None, 200])
@pytest.mark.parametrize("fixture", ["line_rc", "segment_rc"])
def test_carleson_ball_stack_matches_single_rows(fixture, chunk, request, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(geometry, "CHUNK", chunk)
    fs = FunctionalSuite(request.getfixturevalue(fixture), Constant(0.0))
    rng = np.random.default_rng(13)
    n = fs.W.n_boxes
    masses = rng.random((4, n)) * (rng.random((4, n)) < 0.3)
    masses[2] = 0.0  # a row without mass
    masses[3, ::2] = 0.0
    live = masses != 0
    assert not (live[0] == live[1]).all() and live.any(axis=0).sum() > live[3].sum()
    ids = np.arange(0, fs.E.n_samples, 3)
    if fixture == "line_rc":
        # box centres mirror each other about the samples: ties between
        # boxes live in one row and boxes live only in another
        mids = ((fs.W.lo + fs.W.hi) / 2)[live.any(axis=0)]
        d = np.linalg.norm(mids - fs.E.points[ids[len(ids) // 2]], axis=1)
        assert len(np.unique(d)) < len(d)
    stacked = fs.carleson_ball(masses, ids)
    assert stacked.shape == (4, len(ids))
    for k, (mass, row) in enumerate(zip(masses, stacked)):
        assert np.array_equal(row, fs.carleson_ball(mass, ids))
        if k != 2:
            assert np.array_equal(row, _carleson_ball_loop(fs, mass, ids))
    assert not stacked[2].any()


class TestComparisonLemmas:
    def test_levelsets_trivial(self, fs_t):
        w = fs_t.E.weights
        z = np.zeros(fs_t.E.n_samples)
        out = compare_levelsets(z, z, w)
        assert out["pass"] and out["A1"] == 1.0 and out["A2"] == 1.0

    def test_levelsets_single_box_mass(self, fs_t):
        fs = fs_t
        mass = np.zeros(fs.W.n_boxes)
        mass[region(fs.RC, fs.S.roots[0])[0]] = 1.0
        ids = np.arange(0, fs.E.n_samples, 4)
        cb = fs.carleson_ball(mass, ids)
        cd = fs.carleson_dyadic(mass)[ids]
        out = compare_levelsets(cb, cd, fs.E.weights[ids])
        assert out["pass"]
        assert out["A1"] < np.inf and out["A2"] < np.inf
        for p, ratio in out["lp"].items():
            assert ratio <= out["A1"] * out["A2"] ** (1 / p) * (1 + 1e-9)

    def test_aperture_ratio_constant_field(self, rc):
        fs = FunctionalSuite(rc, Constant(4.0))
        assert compare_apertures(fs, 4.0, 2.0) == pytest.approx(1.0)

    def test_aperture_ratio_bounded(self, fs_poisson):
        for p in (1.5, 2.0, 4.0):
            r = compare_apertures(fs_poisson, 4.0, p)
            assert 1.0 <= r <= 10.0

    def test_lp_norm_basics(self):
        w = np.array([1.0, 1.0])
        v = np.array([3.0, 4.0])
        assert lp_norm(v, w, 2.0) == pytest.approx(5.0)


class TestOscillations:
    def test_constant_zero(self, rc):
        fs = FunctionalSuite(rc, Constant(1.5))
        assert np.all(fs.oscillations() == 0.0)

    def test_height_field_scales_with_cube(self, fs_t):
        fs = fs_t
        osc = fs.oscillations()
        for q in fs.S.relevant_ids():
            side = fs.S.side[q]
            for c in fs.RC.comps(q):
                # oscillation of t over a component is its height extent
                comp = fs.RC.comp(c)
                mx, mn = fs.box_extrema()
                direct = mx[comp].max() - mn[comp].min()
                assert osc[c] == pytest.approx(direct)
                assert 0.2 * side <= osc[c] <= 40 * side


class TestConeDistance:
    def test_gamma_measured_and_monotone(self, fs_poisson):
        g1 = cone_distance_constant(fs_poisson, 1.0)
        g4 = cone_distance_constant(fs_poisson, 4.0)
        assert 1.0 < g1 <= g4 < 256.0
