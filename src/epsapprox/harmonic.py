"""Catalog of exactly-known harmonic fields with analytic gradients.

No PDE solves anywhere: every field is either closed-form harmonic or a
quadrature of the half-plane Poisson kernel whose harmonicity is inherited
from the kernel.  Poisson extensions are mirrored to the lower half-plane
(u(x,t) = u(x,|t|)), harmonic on each component of the complement of the
line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BoundarySet, Hyperplane, box_distance_many, paired_distances


class HarmonicField:
    """Evaluable u with analytic gradient; immutable and vectorizable."""

    def eval(self, P: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad(self, P: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, P):
        return self.eval(np.atleast_2d(np.asarray(P, dtype=float)))


@dataclass(frozen=True)
class Constant(HarmonicField):
    c: float

    def eval(self, P):
        return np.full(len(P), self.c)

    def grad(self, P):
        return np.zeros_like(P)


@dataclass(frozen=True)
class Coordinate(HarmonicField):
    axis: int = 1

    def eval(self, P):
        return P[:, self.axis].copy()

    def grad(self, P):
        g = np.zeros_like(P)
        g[:, self.axis] = 1.0
        return g


@dataclass(frozen=True)
class HarmonicPolynomial(HarmonicField):
    """Real or imaginary part of (x + i t)^m in the plane; m <= 4."""

    degree: int
    part: str = "re"

    def __post_init__(self):
        if not 1 <= self.degree <= 4:
            raise ValueError("degree must be in 1..4")
        if self.part not in ("re", "im"):
            raise ValueError("part must be 're' or 'im'")

    def eval(self, P):
        z = P[:, 0] + 1j * P[:, 1]
        v = z**self.degree
        return v.real if self.part == "re" else v.imag

    def grad(self, P):
        z = P[:, 0] + 1j * P[:, 1]
        d = self.degree * z ** (self.degree - 1)
        # d/dx (re f) = re f', d/dt (re f) = -im f'  (f holomorphic)
        if self.part == "re":
            return np.column_stack([d.real, -d.imag])
        return np.column_stack([d.imag, d.real])


@dataclass(frozen=True)
class FundamentalPole(HarmonicField):
    """log|X - p| in the plane; the pole p must lie on E."""

    pole: tuple

    def eval(self, P):
        return np.log(paired_distances(P, np.asarray(self.pole)[None, :]))

    def grad(self, P):
        d = P - np.asarray(self.pole)
        return d / np.einsum("ij,ij->i", d, d)[:, None]


@dataclass(frozen=True)
class PoissonIndicator(HarmonicField):
    """Half-plane Poisson extension of 1_{[a,b]}, closed form, mirrored.

    u(x,t) = (arctan((b-x)/|t|) - arctan((a-x)/|t|)) / pi.
    """

    a: float = -1.0
    b: float = 1.0

    def eval(self, P):
        x, t = P[:, 0], np.abs(P[:, 1])
        return (np.arctan2(self.b - x, t) - np.arctan2(self.a - x, t)) / np.pi

    def grad(self, P):
        x, t = P[:, 0], np.abs(P[:, 1])
        s = np.sign(P[:, 1])
        da = (self.a - x) ** 2 + t**2
        db = (self.b - x) ** 2 + t**2
        ux = (t / da - t / db) / np.pi
        ut = ((self.a - x) / da - (self.b - x) / db) / np.pi
        return np.column_stack([ux, s * ut])


@dataclass(frozen=True)
class PoissonQuadrature(HarmonicField):
    """Poisson extension of sampled boundary data f(y_i) with weights w_i.

    Quadrature of P(x,t;y) = t / (pi ((x-y)^2 + t^2)); harmonic in each open
    half-plane because every kernel slice is.  The quadratures are row sums,
    not BLAS mat-vecs, whose bits for a point depend on the batch it is in.
    """

    data_y: tuple
    data_f: tuple
    data_w: tuple

    def eval(self, P):
        y = np.asarray(self.data_y)
        f = np.asarray(self.data_f)
        w = np.asarray(self.data_w)
        x, t = P[:, 0:1], np.abs(P[:, 1:2])
        ker = t / ((x - y[None, :]) ** 2 + t**2) / np.pi
        return (ker * (f * w)).sum(axis=1)

    def grad(self, P):
        y = np.asarray(self.data_y)
        fw = np.asarray(self.data_f) * np.asarray(self.data_w)
        x, t = P[:, 0:1], np.abs(P[:, 1:2])
        s = np.sign(P[:, 1])
        dx = x - y[None, :]
        den = (dx**2 + t**2) ** 2
        kx = -2 * t * dx / den / np.pi
        kt = (dx**2 - t**2) / den / np.pi
        return np.column_stack([(kx * fw).sum(axis=1), s * (kt * fw).sum(axis=1)])


@dataclass(frozen=True)
class LinearCombination(HarmonicField):
    coeffs: tuple
    fields: tuple

    def eval(self, P):
        out = np.zeros(len(P))
        for c, f in zip(self.coeffs, self.fields):
            out += c * f.eval(P)
        return out

    def grad(self, P):
        out = np.zeros_like(P)
        for c, f in zip(self.coeffs, self.fields):
            out += c * f.grad(P)
        return out


def make_field(desc, E: BoundarySet | None = None) -> HarmonicField:
    """Build a field from a JSON-style descriptor {type, params}.

    Poles must lie on E (checked when E is given) so u is harmonic on the
    complement: within the resolution, by the distance of the degenerate box
    at the pole (`box_distance_many`).  It is exact on the line, a segment
    or a cloud; on a graph it is at most half a polyline segment (resolution
    / 8 in x) above the exact one, so no pole on E is refused and no pole is
    accepted that the exact distance would refuse.
    """
    if isinstance(desc, HarmonicField):
        return desc
    t = desc["type"]
    p = desc.get("params", {})
    if t == "constant":
        return Constant(float(p.get("c", 1.0)))
    if t == "coordinate":
        return Coordinate(int(p.get("axis", 1)))
    if t == "polynomial":
        return HarmonicPolynomial(int(p["degree"]), p.get("part", "re"))
    if t == "fundamental_pole":
        pole = tuple(p["pole"])
        if E is not None:
            P = np.asarray([pole], dtype=float)
            d = box_distance_many(P, P, E)[0][0]
            if d > E.resolution:
                raise ValueError(f"pole {pole} lies off the boundary (dist {d:.3g})")
        return FundamentalPole(pole)
    if t in ("poisson_indicator", "poisson_quadrature"):
        # the mirrored kernel is kinked across the whole line {t=0}; only
        # for the hyperplane does that kink stay inside E
        if E is not None and not isinstance(E.descriptor, Hyperplane):
            raise ValueError(
                "Poisson extensions are only harmonic on complements of the "
                "hyperplane boundary"
            )
    if t == "poisson_indicator":
        return PoissonIndicator(float(p.get("a", -1.0)), float(p.get("b", 1.0)))
    if t == "poisson_quadrature":
        return PoissonQuadrature(
            tuple(p["y"]), tuple(p["f"]), tuple(p["w"])
        )
    if t == "linear_combination":
        return LinearCombination(
            tuple(float(c) for c in p["coeffs"]),
            tuple(make_field(d, E) for d in p["fields"]),
        )
    raise ValueError(f"unknown field type {t!r}")
