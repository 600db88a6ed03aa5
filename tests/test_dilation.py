"""Dilation guard: scaling the whole geometry moves no dimensionless number.

`quick_t` is rerun with its window, ambient box, resolution and scale
multiplied by f.  Its field u = t scales by f as well, so every constant
in `report.json` is a ratio of like quantities and must stay equal to
1e-12 relative; only the TV mass and the embedding's integrals of N_* u
against sigma have the dimension length^2 and move by f^2.  An absolute
tolerance anywhere in a comparison breaks this at small or large f.
"""

import json
from pathlib import Path

import pytest

from epsapprox import pipeline
from epsapprox.config import RunConfig

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "quick_t.json"
# report entries (by their last two keys) of dimension length^2
SQUARED = {("embedding", "lhs"), ("embedding", "rhs"), ("verify", "tv_total")}


def dilated(f: float) -> RunConfig:
    obj = json.loads(CONFIG.read_text())
    for key in ("window", "ambient"):
        obj[key] = {end: [f * x for x in xs] for end, xs in obj[key].items()}
    obj["resolution"] *= f
    obj["scale"] *= f
    return RunConfig.from_json(obj)


def leaves(obj, path=()):
    """(key path, value) of every scalar of a nested report."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from leaves(v, path + (k,))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from leaves(v, path + (i,))
    else:
        yield path, obj


def report(f: float, out) -> dict:
    return pipeline.run(dilated(f), out_dir=out, until="verify")["verify"]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    return report(1.0, tmp_path_factory.mktemp("base"))


@pytest.mark.parametrize("f", [2.0, 2.0**-8, 2.0**-20])
def test_dilation_moves_only_squared_lengths(base, f, tmp_path):
    got = dict(leaves(report(f, tmp_path)))
    want = dict(leaves(base))
    assert got.keys() == want.keys()
    n_squared = 0
    for path, a in want.items():
        b = got[path]
        if path[0] == "config":
            continue
        if isinstance(a, bool) or not isinstance(a, (int, float)):
            assert b == a, path
            continue
        factor = f**2 if path[-2:] in SQUARED else 1.0
        n_squared += factor != 1.0
        assert b == pytest.approx(a * factor, rel=1e-12, abs=0.0), path
    # the embedding pair and one TV total per eps
    assert n_squared == 2 + len(base["eps"])
