"""Run configuration: every tolerance and budget explicit, none hard-coded."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .geometry import Window


# top-level keys older configs still carry; none ever changed a result
# ("jobs" sized a removed thread pool, "seed" fed no random draw)
RETIRED_KEYS = ("jobs", "seed")


@dataclass(frozen=True)
class RegionParams:
    """Whitney-region shape parameters.

    tau: box fattening step; I* = (1+tau)I, I** = (1+2tau)I, I*** = (1+3tau)I.
    c_w, C_w: admissible box-to-cube side ratio range.
    C_d: admissible box-to-cube distance in units of l(Q).
    """

    tau: float = 0.05
    c_w: float = 0.125
    C_w: float = 8.0
    C_d: float = 16.0
    # cubes whose relevant parent is more than this factor coarser are
    # demoted: their anchor points would live at a mismatched scale
    # (window-edge singleton chains; the ADR hypothesis excludes these on
    # the untruncated set)
    max_parent_ratio: float = 4.0

    def __post_init__(self):
        if not 0 < self.tau < 1.0 / 3.0:
            raise ValueError("tau must be in (0, 1/3) so fattened boxes stay off E")
        if not 0 < self.c_w <= 1 <= self.C_w:
            raise ValueError("need c_w <= 1 <= C_w")


@dataclass(frozen=True)
class Budgets:
    """Pass/fail thresholds for the certification sweeps."""

    adr: float = 4.0
    inclusion: tuple = (1e-6, 64.0)
    principal_packing_factor: float = 4.0  # Lambda(P) <= factor * Lambda(I)
    eps_packing: float = 64.0  # Lambda <= eps_packing / eps^2
    # Lambda(eps_min)/Lambda(eps_max) <= (eps_max/eps_min)^2 * slack
    eps_ratio_slack: float = 1.5
    pointwise_c1: float = 4.0
    carleson_c2_stability: float = 2.0
    levelset_a1: float = 32.0
    levelset_a2: float = 8.0
    aperture_k4: float = 10.0


@dataclass
class RunConfig:
    """Full pipeline configuration (JSON-serializable)."""

    boundary: dict = field(
        default_factory=lambda: {"type": "hyperplane", "params": {}}
    )
    window: dict = field(
        default_factory=lambda: {"lo": [-4.0, -4.0], "hi": [4.0, 4.0]}
    )
    ambient: dict | None = None  # Whitney box window; auto-sized when None
    resolution: float = 1.0 / 64
    k_min: int | None = None
    k_max: int = 4
    scale: float = 1.0
    region: RegionParams = field(default_factory=RegionParams)
    corona_mode: str = "trivial_graph"
    corona_file: str | None = None
    eta: float = 0.25
    K: float = 4.0
    field_desc: dict = field(
        default_factory=lambda: {"type": "constant", "params": {"c": 1.0}}
    )
    eps_grid: tuple = (0.1, 0.2, 0.4)
    alpha_grid: tuple = (1.0, 4.0)
    p_grid: tuple = (1.5, 2.0, 4.0)
    budgets: Budgets = field(default_factory=Budgets)
    sample_frac: float = 0.125
    gamma0: float = 4.0
    margin: float | None = None
    out_dir: str = "out"

    def __post_init__(self):
        if not all(0 < e < 1 for e in self.eps_grid):
            raise ValueError("eps grid must lie in (0,1)")
        # the L^p roll-ups are for finite p > 1
        if not all(1 < p < float("inf") for p in self.p_grid):
            raise ValueError("p_grid must lie in (1, inf)")
        if not all(0 < a < float("inf") for a in self.alpha_grid):
            raise ValueError("alpha_grid apertures must be positive and finite")
        if not self.sample_frac > 0:
            raise ValueError("sample_frac must be positive")
        for name in ("adr", "eps_packing", "pointwise_c1"):
            if getattr(self.budgets, name) <= 0:
                raise ValueError(f"budget {name} must be positive")
        # reject a non-planar window at load, before any stage runs
        for box in (self.window, self.ambient):
            if box is not None:
                Window.from_json(box)

    def to_json(self) -> dict:
        d = asdict(self)
        return d

    @staticmethod
    def from_json(obj: dict) -> "RunConfig":
        obj = {k: v for k, v in obj.items() if k not in RETIRED_KEYS}
        if "region" in obj and isinstance(obj["region"], dict):
            obj["region"] = _build(RegionParams, obj["region"], "region")
        if "budgets" in obj and isinstance(obj["budgets"], dict):
            b = dict(obj["budgets"])
            if "inclusion" in b:
                b["inclusion"] = tuple(b["inclusion"])
            obj["budgets"] = _build(Budgets, b, "budgets")
        for key in ("eps_grid", "alpha_grid", "p_grid"):
            if key in obj:
                obj[key] = tuple(obj[key])
        return _build(RunConfig, obj, "config")

    @staticmethod
    def load(path) -> "RunConfig":
        with open(path) as fh:
            return RunConfig.from_json(json.load(fh))


def _build(cls, obj: dict, where: str):
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")
    return cls(**obj)
