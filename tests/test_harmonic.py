"""Harmonic field catalog: values, gradients, residuals, classical checks."""

import numpy as np
import pytest

from epsapprox.geometry import (
    BoundarySet,
    Hyperplane,
    LipschitzGraph,
    Segment,
    Window,
    box_distance_many,
    build_boundary,
)
from epsapprox.harmonic import (
    Constant,
    Coordinate,
    FundamentalPole,
    HarmonicField,
    HarmonicPolynomial,
    PoissonIndicator,
    PoissonQuadrature,
    make_field,
)

W2 = Window((-4.0, -4.0), (4.0, 4.0))
LINE = build_boundary(Hyperplane(), resolution=0.01, window=W2)

rng = np.random.default_rng(7)
PROBES = np.column_stack([rng.uniform(-3, 3, 50), rng.uniform(0.3, 3, 50)])


# ---------------------------------------------------------------------------
# proof oracles: classical properties of harmonic functions, measured
# ---------------------------------------------------------------------------


def grad_check(u: HarmonicField, P: np.ndarray, h: float = 1e-5) -> float:
    """Max relative deviation of the analytic gradient from central differences."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    g = u.grad(P)
    worst = 0.0
    for ax in range(P.shape[1]):
        dP = np.zeros_like(P)
        dP[:, ax] = h
        num = (u.eval(P + dP) - u.eval(P - dP)) / (2 * h)
        scale = np.maximum(np.linalg.norm(g, axis=1), 1.0)
        worst = max(worst, float(np.max(np.abs(num - g[:, ax]) / scale)))
    return worst


def laplacian_residual(
    u: HarmonicField, probes: np.ndarray, h: float, E: BoundarySet | None = None
) -> dict:
    """Centered 5-point stencil residuals at the probes.

    Residuals are reported raw and normalized by the local scale
    |grad u| / delta; probes closer than 3h to E are rejected.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if E is not None:
        d = box_distance_many(probes, probes, E)[0]
        if np.any(d < 3 * h):
            raise ValueError("probes must keep distance >= 3h from the boundary")
    else:
        d = np.full(len(probes), np.inf)
    acc = np.zeros(len(probes))
    u0 = u.eval(probes)
    for ax in (0, 1):
        dP = np.zeros_like(probes)
        dP[:, ax] = h
        acc += (u.eval(probes + dP) - u0) + (u.eval(probes - dP) - u0)
    raw = np.abs(acc) / h**2
    gn = np.linalg.norm(u.grad(probes), axis=1)
    denom = np.where(d < np.inf, np.maximum(gn / np.maximum(d, 1e-300), 1e-300), 1.0)
    normalized = raw / denom
    return {
        "max_raw": float(raw.max()),
        "max_normalized": float(normalized.max()),
        "raw": raw,
        "normalized": normalized,
    }


def mean_value_gap(u: HarmonicField, X, r: float, n_theta: int = 512) -> float:
    """|average of u over the circle dB(X,r) - u(X)| (2d)."""
    X = np.asarray(X, dtype=float)
    th = (np.arange(n_theta) + 0.5) * (2 * np.pi / n_theta)
    ring = X[None, :] + r * np.column_stack([np.cos(th), np.sin(th)])
    return float(abs(u.eval(ring).mean() - u.eval(X[None, :])[0]))


def caccioppoli_ratio(u: HarmonicField, lo, hi, n_grid: int = 64) -> float:
    """Measured C in  int_I |grad u|^2 <= C l(I)^{-2} int_{2I} |u - c|^2.

    I = [lo,hi], 2I its concentric double, c the mean of u over 2I; midpoint
    quadrature on an n_grid^2 mesh.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    side = hi - lo
    c2 = (lo + hi) / 2

    def mesh(a, b):
        xs = [(np.arange(n_grid) + 0.5) / n_grid * (bb - aa) + aa for aa, bb in zip(a, b)]
        g = np.meshgrid(*xs, indexing="ij")
        pts = np.column_stack([gg.ravel() for gg in g])
        cell = np.prod((b - a) / n_grid)
        return pts, cell

    pts_i, cell_i = mesh(lo, hi)
    pts_2i, cell_2i = mesh(c2 - side, c2 + side)
    grad2 = np.einsum("ij,ij->i", u.grad(pts_i), u.grad(pts_i)).sum() * cell_i
    vals = u.eval(pts_2i)
    c = vals.mean()
    l2 = ((vals - c) ** 2).sum() * cell_2i
    if l2 == 0:
        return 0.0
    ell = float(side.max())
    return float(grad2 / (l2 / ell**2))


def fourth_derivative_bound(u: HarmonicPolynomial, P):
    """sup over stencil usage of |d^4/dx^4| + |d^4/dt^4| at the points."""
    if u.degree < 4:
        return np.zeros(len(P))
    return np.full(len(P), 48.0)  # |f''''| = 24, both axes


def poisson_quadrature_indicator(n=4001, half=40.0):
    ys = np.linspace(-half, half, n)
    w = np.full(n, ys[1] - ys[0])
    f = ((ys >= -1) & (ys <= 1)).astype(float)
    return PoissonQuadrature(tuple(ys), tuple(f), tuple(w))


class TestValues:
    def test_constant(self):
        u = Constant(1.0)
        assert np.all(u(PROBES) == 1.0)
        assert np.all(u.grad(PROBES) == 0.0)

    def test_coordinate_field(self):
        u = Coordinate(1)
        assert u(np.array([[3.0, 2.0]]))[0] == 2.0
        assert np.allclose(u.grad(np.array([[3.0, 2.0]])), [[0.0, 1.0]])

    def test_saddle_polynomial_harmonic(self):
        # x^2 - t^2 = Re (x + it)^2: exactly harmonic
        u = HarmonicPolynomial(2, "re")
        res = laplacian_residual(u, PROBES, h=1e-3)
        assert res["max_raw"] < 1e-7

    def test_poisson_indicator_closed_form(self):
        u = PoissonIndicator(-1.0, 1.0)
        assert u(np.array([[0.0, 1.0]]))[0] == pytest.approx(0.5, rel=1e-12)
        ys = np.array([0.5, 1.0, 2.0])
        expect = 2 / np.pi * np.arctan(1 / ys)
        got = u(np.column_stack([np.zeros(3), ys]))
        assert np.allclose(got, expect, rtol=1e-12)

    def test_poisson_quadrature_matches_closed_form(self):
        uq = poisson_quadrature_indicator()
        uc = PoissonIndicator(-1.0, 1.0)
        P = np.array([[0.0, 1.0], [0.5, 0.7], [-2.0, 1.5]])
        assert np.allclose(uq.eval(P), uc.eval(P), atol=5e-3)

    def test_pole_log_field(self):
        u = FundamentalPole((0.0, 0.0))
        assert u(np.array([[0.0, 1.0]]))[0] == 0.0
        assert np.allclose(u.grad(np.array([[0.0, 1.0]])), [[0.0, 1.0]])

    def test_linear_combination_is_linear(self):
        u1, u2 = Coordinate(1), HarmonicPolynomial(2, "re")
        combo = make_field(
            {
                "type": "linear_combination",
                "params": {
                    "coeffs": [2.0, -0.5],
                    "fields": [
                        {"type": "coordinate", "params": {"axis": 1}},
                        {"type": "polynomial", "params": {"degree": 2}},
                    ],
                },
            }
        )
        assert np.allclose(combo(PROBES), 2 * u1(PROBES) - 0.5 * u2(PROBES))

    def test_pole_off_boundary_rejected(self):
        with pytest.raises(ValueError, match="off the boundary"):
            make_field(
                {"type": "fundamental_pole", "params": {"pole": [0.0, 1.0]}}, LINE
            )

    def test_pole_check_on_graph_and_segment(self):
        def pole(p):
            return {"type": "fundamental_pole", "params": {"pole": list(p)}}

        # a tilted graph's polyline vertices lie resolution / 4 apart: a pole
        # midway between two of them is on E but off every vertex
        E = build_boundary(LipschitzGraph("linear", 0.1), 0.01, W2)
        a, b = E.polyline()[100:102]
        assert isinstance(make_field(pole((a + b) / 2), E), FundamentalPole)
        # 2 * resolution off the graph along its unit normal
        normal = np.array([-0.1, 1.0]) / np.sqrt(1.01)
        with pytest.raises(ValueError, match="off the boundary"):
            make_field(pole((a + b) / 2 + 2 * E.resolution * normal), E)
        # on a segment the distance is closed-form: exactly 0 at (x0, 0)
        E = build_boundary(Segment(-1.0, 1.0), 1 / 512, W2)
        P = np.column_stack([np.linspace(-0.5, 0.5, 17), np.zeros(17)])
        assert not box_distance_many(P, P, E)[0].any()
        assert isinstance(make_field(pole(P[3]), E), FundamentalPole)

    def test_mirrored_poisson_symmetric(self):
        u = PoissonIndicator(-1.0, 1.0)
        up = u(np.array([[0.3, 0.8]]))[0]
        dn = u(np.array([[0.3, -0.8]]))[0]
        assert up == dn


class TestGradients:
    @pytest.mark.parametrize(
        "u",
        [
            Coordinate(1),
            HarmonicPolynomial(3, "re"),
            HarmonicPolynomial(4, "im"),
            PoissonIndicator(-1.0, 1.0),
            FundamentalPole((0.5, 0.0)),
        ],
        ids=["coord", "poly3", "poly4", "poisson", "pole"],
    )
    def test_matches_central_differences(self, u):
        assert grad_check(u, PROBES) < 1e-6


# one field of each catalog type (and both parts of every polynomial)
CATALOG = [
    Constant(2.5),
    Coordinate(0),
    Coordinate(1),
    *(HarmonicPolynomial(m, part) for m in range(1, 5) for part in ("re", "im")),
    FundamentalPole((0.5, 0.0)),
    PoissonIndicator(-1.0, 1.0),
    poisson_quadrature_indicator(n=1001, half=10.0),
    make_field(
        {
            "type": "linear_combination",
            "params": {
                "coeffs": [2.0, -0.5],
                "fields": [
                    {"type": "poisson_indicator", "params": {"a": -0.5, "b": 1.5}},
                    {"type": "fundamental_pole", "params": {"pole": [-1.0, 0.0]}},
                ],
            },
        }
    ),
]


@pytest.mark.parametrize("u", CATALOG, ids=lambda u: type(u).__name__)
def test_values_do_not_depend_on_the_batch(u):
    # a point's eval and grad bits are the same in one batch, one point at
    # a time and in 13-point slices, so a pass may be blocked at any size
    rng = np.random.default_rng(31)
    t = rng.choice([-1.0, 1.0], 300) * rng.uniform(0.01, 3, 300)
    P = np.column_stack([rng.uniform(-3, 3, 300), t])
    for f in (u.eval, u.grad):
        whole = f(P)
        for step in (1, 13):
            parts = np.concatenate([f(P[i : i + step]) for i in range(0, len(P), step)])
            assert np.array_equal(parts, whole)


@pytest.mark.parametrize("u", CATALOG, ids=lambda u: type(u).__name__)
def test_values_do_not_depend_on_the_layout(u):
    # the fat-grid and core-grid passes hand u a view of coordinate planes;
    # a point's eval and grad bits are the same in a C-contiguous (N, 2)
    # array, a column-strided view, a Fortran-ordered copy and an (m, k, 2)
    # block of planes reshaped to (N, 2)
    rng = np.random.default_rng(37)
    t = rng.choice([-1.0, 1.0], 300) * rng.uniform(0.01, 3, 300)
    P = np.column_stack([rng.uniform(-3, 3, 300), t])
    wide = np.zeros((300, 5))
    wide[:, 1], wide[:, 3] = P[:, 0], P[:, 1]
    planes = np.empty((2, 20, 15))
    planes[0], planes[1] = P[:, 0].reshape(20, 15), P[:, 1].reshape(20, 15)
    block = planes.transpose(1, 2, 0).reshape(-1, 2)
    assert not block.flags.c_contiguous and np.shares_memory(block, planes)
    for f in (u.eval, u.grad):
        whole = f(P)
        for Q in (wide[:, 1::2], np.asfortranarray(P), block):
            assert np.array_equal(Q, P)
            assert np.array_equal(f(Q), whole)


class TestResiduals:
    def test_constant_residual_exactly_zero(self):
        res = laplacian_residual(Constant(2.5), PROBES, h=1e-3)
        assert res["max_raw"] == 0.0

    def test_poly_residual_taylor_bound(self):
        # 5-point stencil error for smooth u: |res| <= (h^2/12)(|d4x u|+|d4t u|)
        u = HarmonicPolynomial(4, "re")
        h = 1e-2
        res = laplacian_residual(u, PROBES, h=h)
        bound = (h**2 / 12) * fourth_derivative_bound(u, PROBES).max()
        assert res["max_raw"] <= bound * 1.5 + 1e-9

    def test_poisson_residual_small(self):
        u = PoissonIndicator(-1.0, 1.0)
        res = laplacian_residual(u, PROBES, h=1e-3, E=LINE)
        assert res["max_normalized"] <= 1e-4

    def test_probe_too_close_rejected(self):
        with pytest.raises(ValueError, match="3h"):
            laplacian_residual(
                Constant(1.0), np.array([[0.0, 0.002]]), h=1e-3, E=LINE
            )


class TestClassicalInequalities:
    def test_mean_value_property(self):
        rng = np.random.default_rng(11)
        for u in [HarmonicPolynomial(3, "im"), PoissonIndicator(-1, 1)]:
            for _ in range(10):
                X = rng.uniform([-2, 0.5], [2, 2.5])
                r = rng.uniform(0.05, 0.4) * X[1]
                assert mean_value_gap(u, X, r) < 1e-6

    def test_caccioppoli_measured_constant(self):
        # boxes with 2I inside the upper half-plane; measured C is O(1)
        for u in [Coordinate(1), PoissonIndicator(-1, 1), HarmonicPolynomial(2)]:
            c = caccioppoli_ratio(u, (-0.25, 1.0), (0.25, 1.5))
            assert c <= 64.0

    def test_caccioppoli_constant_field_zero(self):
        assert caccioppoli_ratio(Constant(3.0), (0, 1), (1, 2)) == 0.0
