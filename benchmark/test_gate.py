"""The benchmark's correctness gate fires on wrong outputs.

    PYTHONPATH=src:benchmark python3 -m pytest -q benchmark/test_gate.py
"""

import copy
import json

import numpy as np
import pytest

from workloads import (
    BENCH_DIR,
    CarlesonWorkload,
    compare_constants,
    key_constants,
)


def fake_report(ref: dict) -> dict:
    """A minimal report.json holding exactly the reference's constants."""
    eps = sorted({k.split("@")[1] for k in ref if "@" in k})
    return {
        "grid": {"n_samples": ref["n_samples"], "n_cubes": ref["n_cubes"]},
        "regions": {"n_boxes_covered": ref["n_boxes"]},
        "principal": {"Lambda": ref["Lambda_principal"]},
        "eps": {
            e: {
                "packing_R_union_B": {"Lambda": ref[f"Lambda_R_union_B@{e}"]},
                "packing_Gstar": {"Lambda": ref[f"Lambda_Gstar@{e}"]},
                "alpha0": ref[f"alpha0@{e}"],
                "verify": {"C1": ref[f"C1@{e}"], "C2": ref[f"C2@{e}"]},
            }
            for e in eps
        },
        # later additions to report.json must not count as failures
        "new_section": {"anything": 1},
    }


@pytest.fixture(scope="module")
def reference():
    with open(BENCH_DIR / "reference.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["halfplane_poisson", "segment_pole"])
def test_pipeline_gate(reference, workload):
    ref = next(iter(reference[workload].values()))
    report = fake_report(ref)
    assert compare_constants(key_constants(report), ref) == []

    nudged = copy.deepcopy(report)
    nudged["eps"]["0.1"]["alpha0"] *= 1 + 1e-11
    assert compare_constants(key_constants(nudged), ref) == []

    wrong = copy.deepcopy(report)
    wrong["eps"]["0.1"]["verify"]["C1"] *= 1 + 1e-8
    assert [e.split(":")[0] for e in compare_constants(key_constants(wrong), ref)] == [
        "C1@0.1"
    ]

    missing = copy.deepcopy(report)
    del missing["eps"]["0.4"]
    bad = compare_constants(key_constants(missing), ref)
    assert len(bad) == 5 and all("@0.4" in e for e in bad)


@pytest.fixture(scope="module")
def carleson_op():
    wl = CarlesonWorkload()
    wl.setup()
    rng = np.random.default_rng(0)
    inp = wl.draw(rng)  # op 0: under a top cube, with a random-lambda witness
    wl.op(inp)
    assert wl.check(inp) == []
    return wl, inp, wl.last


def test_carleson_gate_mass(carleson_op):
    wl, inp, last = carleson_op
    lam_pack, wit, wit2, emb = last
    bad = copy.deepcopy(wit)
    q = inp[0][0]
    bad.assignments[q] = [(s, x / 2) for s, x in bad.assignments[q]]
    wl.last = (lam_pack, bad, wit2, emb)
    assert any("mass below" in e for e in wl.check(inp))


def test_carleson_gate_weight(carleson_op):
    wl, inp, last = carleson_op
    lam_pack, wit, wit2, emb = last
    bad = copy.deepcopy(wit)
    q = inp[0][0]
    bad.assignments[q] = [(s, 2 * x + 1.0) for s, x in bad.assignments[q]]
    wl.last = (lam_pack, bad, wit2, emb)
    assert any("over their weight" in e for e in wl.check(inp))


def test_carleson_gate_verdict(carleson_op):
    wl, inp, last = carleson_op
    lam_pack, wit, wit2, emb = last
    infeasible = copy.copy(wit)
    infeasible.feasible = False
    wl.last = (lam_pack, infeasible, wit2, emb)
    assert wl.check(inp)
    # a witness claimed at lambda > 1/Lambda contradicts the packing constant
    wl.last = (2.0 / inp[2], wit, wit, emb)
    assert any("witness at lambda" in e for e in wl.check(inp))
