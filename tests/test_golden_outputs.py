"""Output identity: the shipped configs reproduce their recorded outputs.

`golden_outputs.json` holds, per config, the sha256 of each output file of
`epsapprox run`, and the numpy version it was recorded with; floats can
move in the last bit across numpy versions, so another version skips.
`quick_t_eps_grids` holds the same for `quick_t` run over other eps grids,
keyed by the grid: one eps (no eps ratio, no C2 growth), a grid in
descending order, and one where every C1 is 0.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from epsapprox import pipeline
from epsapprox.config import RunConfig

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden_outputs.json").read_text())


def _load(name):
    if np.__version__ != GOLDEN["numpy"]:
        pytest.skip(f"hashes recorded with numpy {GOLDEN['numpy']}, running {np.__version__}")
    return RunConfig.load(HERE.parent / "configs" / f"{name}.json")


def _hashes(cfg, out, want):
    pipeline.run(cfg, out_dir=out)
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in want}


@pytest.mark.parametrize("name", sorted(GOLDEN["configs"]))
def test_outputs_match_recorded_hashes(name, tmp_path):
    want = GOLDEN["configs"][name]
    assert _hashes(_load(name), tmp_path, want) == want


@pytest.mark.parametrize("grid", sorted(GOLDEN["quick_t_eps_grids"]))
def test_eps_grid_outputs_match_recorded_hashes(grid, tmp_path):
    cfg = replace(_load("quick_t"), eps_grid=tuple(map(float, grid.split(","))))
    want = GOLDEN["quick_t_eps_grids"][grid]
    assert _hashes(cfg, tmp_path, want) == want
