#!/usr/bin/env python3
"""Run the two canonical half-plane certifications (u = t, Poisson data)
and print the measured constants side by side."""

import sys
from pathlib import Path

from epsapprox.config import RunConfig
from epsapprox.pipeline import run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def main():
    rows = []
    for name in ("halfplane_t", "halfplane_poisson"):
        cfg = RunConfig.load(CONFIGS / f"{name}.json")
        if len(sys.argv) > 1 and sys.argv[1] == "--quick":
            cfg.k_max = 5
            cfg.resolution = 2.0**-6
        out = run(cfg)
        report, summary = out["verify"], out["write"]
        for eps in cfg.eps_grid:
            v = report["eps"][f"{eps}"]["verify"]
            rows.append(
                (
                    name,
                    eps,
                    v["C1"],
                    v["C_local"],
                    v["C2"],
                    report["eps"][f"{eps}"]["packing_R_union_B"]["Lambda"],
                    report["eps"][f"{eps}"]["packing_Gstar"]["Lambda"],
                    summary["pass"],
                )
            )
    print(f"\n{'run':<20}{'eps':>5}{'C1':>8}{'C_loc':>8}{'C2':>10}"
          f"{'L(RuB)':>8}{'L(G*)':>8}{'pass':>6}")
    for r in rows:
        print(
            f"{r[0]:<20}{r[1]:>5}{r[2]:>8.2f}{r[3]:>8.2f}{r[4]:>10.4f}"
            f"{r[5]:>8.2f}{r[6]:>8.2f}{str(r[7]):>6}"
        )


if __name__ == "__main__":
    main()
