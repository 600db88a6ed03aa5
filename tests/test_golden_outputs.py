"""Output identity: the shipped configs reproduce their recorded outputs.

`golden_outputs.json` holds, per config, the sha256 of each output file of
`epsapprox run`, and the numpy version it was recorded with; floats can
move in the last bit across numpy versions, so another version skips.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from epsapprox import pipeline
from epsapprox.config import RunConfig

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden_outputs.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN["configs"]))
def test_outputs_match_recorded_hashes(name, tmp_path):
    if np.__version__ != GOLDEN["numpy"]:
        pytest.skip(f"hashes recorded with numpy {GOLDEN['numpy']}, running {np.__version__}")
    cfg = RunConfig.load(HERE.parent / "configs" / f"{name}.json")
    pipeline.run(cfg, out_dir=tmp_path)
    want = GOLDEN["configs"][name]
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in want}
    assert got == want
