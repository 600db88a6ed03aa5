"""Stopping-time families: principal, oscillation, generation; packing."""

import numpy as np
import pytest

from epsapprox.carleson import packing_constant
from epsapprox.config import RegionParams
from epsapprox.dyadic import build_cube_system
from epsapprox.functionals import FunctionalSuite
from epsapprox.geometry import Hyperplane, Window, box_distance_many, build_boundary
from epsapprox.harmonic import Constant, Coordinate, PoissonIndicator
from epsapprox.stopping import (
    eps_scaling_chart,
    generation_cubes,
    initial_chain,
    oscillation_cubes,
    principal_cubes,
    verify_eps_packing,
    verify_principal_packing,
)
from epsapprox.whitney import build_regions, corona_provider, whitney_decompose

from conftest import contains

W2 = Window((-2.0, -2.0), (2.0, 2.0))
AMBIENT = Window((-2.0, -6.5), (2.0, 6.5))
PARAMS = RegionParams(tau=0.05, c_w=0.25, C_w=4.0, C_d=4.0)


def oscillation_square_domination(FS: FunctionalSuite, signs=("+", "-")) -> float:
    """Measured C in (osc_{U_Q^s} u)^2 <= C l(Q)^{-1} int_{U_Q^s} |grad u|^2 delta.

    Quadrature on both sides over the good cubes; the right side integrates
    over the component's core boxes with delta = dist(box, E).
    """
    S = FS.S
    mx, mn = FS.box_extrema()
    _, g2 = FS.grad_integrals()  # per box: int |grad u|^2
    worst = 0.0
    for q in np.flatnonzero(FS.RC.corona.regime >= 0).tolist():
        for sign in signs:
            comp = FS.RC.comp(FS.RC.signed_comp(q, sign))
            osc = float(mx[comp].max() - mn[comp].min())
            if osc == 0.0:
                continue
            integral = 0.0
            for b in comp:
                mids = (FS.W.lo[b] + FS.W.hi[b]) / 2.0
                delta = float(box_distance_many(mids[None, :], mids[None, :], FS.E)[0][0])
                # weight the box integral by delta at the box center
                integral += g2[b] * delta
            if integral > 0:
                worst = max(worst, osc**2 * S.side[q] / integral)
    return worst


@pytest.fixture(scope="module")
def rc():
    E = build_boundary(Hyperplane(), resolution=1 / 64, window=W2)
    S = build_cube_system(E, k_min=-3, k_max=3)
    W = whitney_decompose(E, AMBIENT, min_side=PARAMS.c_w * 2.0**-3)
    corona = corona_provider(E, S, "trivial_graph", eta=0.25)
    return build_regions(S, W, corona, PARAMS)


@pytest.fixture(scope="module")
def fs_poisson(rc):
    return FunctionalSuite(rc, PoissonIndicator(-1.0, 1.0))


@pytest.fixture(scope="module")
def fs_t(rc):
    return FunctionalSuite(rc, Coordinate(1))


def principal_oracle(S, numbers, chain):
    """Literal replay of the iterative stopping construction."""
    fam = set(chain)
    while True:
        candidates = []
        for q in S.relevant_ids():
            if q in fam:
                continue
            for big in fam:
                if big != q and contains(S, big, q) and numbers[q] > 2 * numbers[big]:
                    # (b): no intermediate barrier strictly between q and big
                    barrier = False
                    for mid in S.relevant_ids():
                        if (
                            mid != q
                            and mid != big
                            and contains(S, big, mid)
                            and contains(S, mid, q)
                            and (mid in fam or numbers[mid] > 2 * numbers[big])
                        ):
                            barrier = True
                            break
                    if not barrier:
                        candidates.append(q)
                        break
        if not candidates:
            return fam
        fam.update(candidates)


def family(fam) -> set:
    return set(np.flatnonzero(fam.member).tolist())


def principal_packing_loop(S, fam, numbers, budget_factor=4.0) -> dict:
    """Reference: the pairwise containment loop of the packing report."""
    cubes = family(fam)
    lam_chain = packing_constant(S, fam.initial)
    lam = packing_constant(S, sorted(cubes))
    level_ok = True
    for q in cubes:
        by_level: dict = {}
        for r in cubes:
            if r != q and fam.depth[r] > fam.depth[q] and contains(S, q, r):
                k = int(fam.depth[r] - fam.depth[q])
                by_level[k] = by_level.get(k, 0.0) + S.sigma(r)
        for k, s in by_level.items():
            if s > S.sigma(q) / 2**k * (1 + 1e-9):
                level_ok = False
    doubling_ok = all(
        numbers[q] <= 2 * numbers[fam.projection[q]] * (1 + 1e-12)
        for q in S.relevant_ids()
        if q not in cubes
    )
    return {
        "Lambda": lam,
        "Lambda_initial": lam_chain,
        "level_decay_ok": level_ok,
        "doubling_ok": doubling_ok,
        "pass": bool(lam <= budget_factor * lam_chain and level_ok and doubling_ok),
    }


class TestPrincipal:
    def test_constant_field_gives_initial_chain(self, rc):
        fs = FunctionalSuite(rc, Constant(1.0))
        numbers, _ = fs.cube_numbers()
        chain = initial_chain(rc.S)
        fam = principal_cubes(rc.S, numbers, chain)
        assert family(fam) == set(chain)

    def test_matches_literal_replay(self, fs_poisson):
        S = fs_poisson.S
        numbers, _ = fs_poisson.cube_numbers()
        chain = initial_chain(S)
        fam = principal_cubes(S, numbers, chain)
        assert family(fam) == principal_oracle(S, numbers, chain)

    def test_projection_idempotent_and_containing(self, fs_poisson):
        S = fs_poisson.S
        numbers, _ = fs_poisson.cube_numbers()
        fam = principal_cubes(S, numbers, initial_chain(S))
        for q in S.relevant_ids():
            pq = fam.projection[q]
            assert fam.projection[pq] == pq
            assert contains(S, pq, q)

    def test_doubling_control_everywhere(self, fs_poisson):
        S = fs_poisson.S
        numbers, _ = fs_poisson.cube_numbers()
        fam = principal_cubes(S, numbers, initial_chain(S))
        for q in S.relevant_ids():
            if not fam.member[q]:
                assert numbers[q] <= 2 * numbers[fam.projection[q]] * (1 + 1e-12)

    def test_packing_report(self, fs_poisson):
        S = fs_poisson.S
        numbers, _ = fs_poisson.cube_numbers()
        fam = principal_cubes(S, numbers, initial_chain(S))
        rep = verify_principal_packing(S, fam, numbers)
        assert rep["pass"]
        assert rep["Lambda"] <= 4 * rep["Lambda_initial"]
        assert rep == principal_packing_loop(S, fam, numbers)

    def test_peaked_field_stops_near_peak(self):
        # a dipole concentrated near one boundary point makes N_* spike;
        # narrow cones keep the spike localized so the averages double.
        # 8 dyadic octaves are needed for the doubling to fire at all.
        from epsapprox.harmonic import LinearCombination, FundamentalPole

        w2 = Window((-1.0, -1.0), (1.0, 1.0))
        amb = Window((-1.0, -3.5), (1.0, 3.5))
        params = RegionParams(tau=0.05, c_w=0.5, C_w=2.0, C_d=1.0)
        E = build_boundary(Hyperplane(), resolution=1 / 256, window=w2)
        S = build_cube_system(E, k_min=-2, k_max=5)
        W = whitney_decompose(E, amb, min_side=params.c_w * 2.0**-5)
        rc = build_regions(
            S, W, corona_provider(E, S, "trivial_graph", eta=0.25), params
        )
        u = LinearCombination(
            (1.0, -1.0),
            (FundamentalPole((0.508, 0.0)), FundamentalPole((0.512, 0.0))),
        )
        fs = FunctionalSuite(rc, u)
        numbers, _ = fs.cube_numbers()
        chain = initial_chain(S)
        fam = principal_cubes(S, numbers, chain)
        assert family(fam) > set(chain)
        assert family(fam) == principal_oracle(S, numbers, chain)
        assert (fam.depth[fam.member] > 0).any()
        rep = verify_principal_packing(S, fam, numbers)
        assert rep["pass"]
        assert rep == principal_packing_loop(S, fam, numbers)


class TestOscillation:
    def test_constant_all_blue(self, rc):
        fs = FunctionalSuite(rc, Constant(2.0))
        numbers, _ = fs.cube_numbers()
        labels = oscillation_cubes(fs, 0.3, numbers)
        assert not labels.member.any()
        assert not labels.red.any()

    def test_height_field_direct_check(self, fs_t):
        fs = fs_t
        numbers, _ = fs.cube_numbers()
        eps = 0.3
        labels = oscillation_cubes(fs, eps, numbers)
        mx, mn = fs.box_extrema()
        for q in fs.S.relevant_ids():
            for c in fs.RC.comps(q):
                comp = fs.RC.comp(c)
                osc = mx[comp].max() - mn[comp].min()
                assert labels.red[c] == (osc > eps * numbers[q])
            assert labels.member[q] == any(labels.red[c] for c in fs.RC.comps(q))

    def test_threshold_monotone_in_eps(self, fs_poisson):
        fs = fs_poisson
        numbers, _ = fs.cube_numbers()
        r1 = oscillation_cubes(fs, 0.1, numbers).member
        r2 = oscillation_cubes(fs, 0.2, numbers).member
        r4 = oscillation_cubes(fs, 0.4, numbers).member
        assert (r4 <= r2).all() and (r2 <= r1).all()

    def test_eps_out_of_range(self, fs_poisson):
        numbers, _ = fs_poisson.cube_numbers()
        with pytest.raises(ValueError):
            oscillation_cubes(fs_poisson, 1.0, numbers)


def generation_oracle(RC, eps, numbers, u):
    """Independent recursive re-derivation of the generation forest."""
    S = RC.S
    out = set()
    for i, reg_top in enumerate(RC.corona.top.tolist()):
        reg_cubes = set(np.flatnonzero(RC.corona.regime == i).tolist())

        def anchors(q):
            return (
                float(u.eval(RC.y_point(q, "+")[None, :])[0]),
                float(u.eval(RC.y_point(q, "-")[None, :])[0]),
            )

        def recurse(top):
            out.add(top)
            ref = anchors(top)
            def walk(q):
                for ch in S.children(q).tolist():
                    if ch not in reg_cubes:
                        continue
                    a = anchors(ch)
                    if (
                        abs(a[0] - ref[0]) > eps * numbers[ch]
                        or abs(a[1] - ref[1]) > eps * numbers[ch]
                    ):
                        recurse(ch)
                    else:
                        walk(ch)
            walk(top)

        recurse(reg_top)
    return out


class TestGeneration:
    def test_constant_stops_only_on_regime_exit(self, rc):
        fs = FunctionalSuite(rc, Constant(1.0))
        numbers, _ = fs.cube_numbers()
        gf = generation_cubes(rc, 0.2, numbers, fs.u)
        # no drift for constant u: only the regime tops stop (condition 1)
        assert np.flatnonzero(gf.member).tolist() == rc.corona.top.tolist()

    def test_matches_recursive_replay(self, rc, fs_poisson):
        numbers, _ = fs_poisson.cube_numbers()
        gf = generation_cubes(rc, 0.2, numbers, fs_poisson.u)
        assert set(np.flatnonzero(gf.member).tolist()) == generation_oracle(
            rc, 0.2, numbers, fs_poisson.u
        )

    def test_subregimes_partition_regime(self, rc, fs_t):
        numbers, _ = fs_t.cube_numbers()
        gf = generation_cubes(rc, 0.25, numbers, fs_t.u)
        assert (gf.top[rc.corona.regime < 0] == -1).all()
        for i in range(len(rc.corona.top)):
            reg_cubes = set(np.flatnonzero(rc.corona.regime == i).tolist())
            tops = [t for t in np.flatnonzero(gf.member).tolist() if t in reg_cubes]
            union = set()
            for top in tops:
                sub = set(gf.subregime(top).tolist())
                assert not (union & sub)
                union |= sub
            assert union == reg_cubes

    def test_subregimes_semicoherent(self, rc, fs_t):
        S = rc.S
        numbers, _ = fs_t.cube_numbers()
        gf = generation_cubes(rc, 0.25, numbers, fs_t.u)
        for top in np.flatnonzero(gf.member).tolist():
            for q in gf.subregime(top).tolist():
                assert contains(S, top, q)
                if q == top:
                    continue
                p = S.rparent[q]
                while p != top:
                    assert gf.top[p] == top  # intermediate cubes included
                    p = S.rparent[p]


class TestEpsPacking:
    def test_constant_field_empty_R(self, rc):
        fs = FunctionalSuite(rc, Constant(1.0))
        numbers, _ = fs.cube_numbers()
        labels = oscillation_cubes(fs, 0.2, numbers)
        rep = verify_eps_packing(rc.S, np.flatnonzero(labels.member), 0.2)
        assert rep["pass"] and rep["Lambda"] == 0.0

    def test_height_field_eps_grid(self, rc, fs_t):
        numbers, _ = fs_t.cube_numbers()
        results = []
        for eps in (0.1, 0.2, 0.4):
            labels = oscillation_cubes(fs_t, eps, numbers)
            fam = np.flatnonzero(labels.member | rc.corona.bad(rc.S))
            rep = verify_eps_packing(rc.S, fam, eps)
            assert rep["pass"]
            results.append(rep)
        if results[0]["Lambda"] > 0 and results[-1]["Lambda"] > 0:
            ratio = results[0]["Lambda"] / results[-1]["Lambda"]
            assert ratio <= 16 * 1.5
            chart = eps_scaling_chart(results)
            assert chart["max_slope"] <= 2.3

    def test_generation_packing(self, rc, fs_poisson):
        numbers, _ = fs_poisson.cube_numbers()
        for eps in (0.1, 0.2, 0.4):
            gf = generation_cubes(rc, eps, numbers, fs_poisson.u)
            rep = verify_eps_packing(rc.S, np.flatnonzero(gf.member), eps)
            assert rep["pass"]

    def test_constant_generation_packing_is_one(self):
        # a window whose endpoints avoid the dyadic planes has no singleton
        # edge chains, hence no demotion, a single regime, and G* = {root}
        E = build_boundary(
            Hyperplane(),
            resolution=1 / 64,
            window=Window((-1.984375, -2.0), (1.984375, 2.0)),
        )
        S = build_cube_system(E, k_min=-3, k_max=3)
        W = whitney_decompose(
            E, Window((-1.984375, -6.5), (1.984375, 6.5)), min_side=PARAMS.c_w * 2.0**-3
        )
        rc = build_regions(
            S, W, corona_provider(E, S, "trivial_graph", eta=0.25), PARAMS
        )
        assert not rc.corona.demoted.any()
        fs = FunctionalSuite(rc, Constant(3.0))
        numbers, _ = fs.cube_numbers()
        gf = generation_cubes(rc, 0.2, numbers, fs.u)
        assert np.flatnonzero(gf.member).tolist() == [S.roots[0]]
        assert packing_constant(rc.S, np.flatnonzero(gf.member)) == pytest.approx(1.0)


class TestOscillationSquare:
    def test_measured_domination_constant(self, rc, fs_poisson):
        c = oscillation_square_domination(fs_poisson)
        assert 0 < c < 256.0  # finite measured constant at desk scale

    def test_constant_field_vacuous(self, rc):
        fs = FunctionalSuite(rc, Constant(1.0))
        assert oscillation_square_domination(fs) == 0.0
