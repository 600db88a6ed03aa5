"""CLI pipeline: subcommands, caching, determinism, exit codes."""

import copy
import json
import pickle
from dataclasses import fields

import numpy as np
import pytest

from epsapprox import pipeline
from epsapprox.cli import main
from epsapprox.config import RunConfig
from epsapprox.functionals import FunctionalSuite
from epsapprox.harmonic import Coordinate


def small_config(tmp_path, **overrides):
    cfg = {
        "boundary": {"type": "hyperplane", "params": {}},
        "window": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "ambient": {"lo": [-1.0, -3.3], "hi": [1.0, 3.3]},
        "resolution": 1.0 / 32,
        "k_min": -2,
        "k_max": 2,
        "scale": 1.0,
        "region": {"tau": 0.05, "c_w": 0.25, "C_w": 4.0, "C_d": 4.0},
        "corona_mode": "trivial_graph",
        "eta": 0.25,
        "K": 4.0,
        "field_desc": {"type": "coordinate", "params": {"axis": 1}},
        "eps_grid": [0.2, 0.4],
        "alpha_grid": [1.0, 4.0],
        "p_grid": [1.5, 2.0, 4.0],
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    p = tmp_path / "run.json"
    p.write_text(json.dumps(cfg, indent=1))
    return p


OUTPUTS = ("report.json", "functionals.csv", "tv.csv", "packing.csv", "acceptance.json")


class TestRun:
    def test_full_run_exits_zero(self, tmp_path):
        cfgp = small_config(tmp_path)
        assert main(["run", "--config", str(cfgp)]) == 0
        out = tmp_path / "out"
        for name in (
            "report.json",
            "packing.csv",
            "functionals.csv",
            "tv.csv",
            "acceptance.json",
        ):
            assert (out / name).exists()

    def test_constant_field_all_trivial(self, tmp_path):
        cfgp = small_config(
            tmp_path, field_desc={"type": "constant", "params": {"c": 1.0}}
        )
        assert main(["run", "--config", str(cfgp)]) == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        for e in ("0.2", "0.4"):
            v = rep["eps"][e]["verify"]
            assert v["C1"] == 0.0 and v["tv_total"] == 0.0

    def test_adr_budget_failure_nonzero_exit(self, tmp_path):
        cfgp = small_config(tmp_path, budgets={"adr": 1.5})
        assert main(["run", "--config", str(cfgp)]) == 1
        summary = json.loads((tmp_path / "out" / "acceptance.json").read_text())
        assert summary["first_failure"] == "adr"

    def test_missing_config_errors(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unknown_config_key_errors(self, tmp_path, capsys):
        cfgp = small_config(tmp_path, eps_gird=[0.2])
        assert main(["run", "--config", str(cfgp)]) == 2
        assert "eps_gird" in capsys.readouterr().err
        cfgp = small_config(tmp_path, budgets={"adrr": 1.5})
        assert main(["run", "--config", str(cfgp)]) == 2
        assert "adrr" in capsys.readouterr().err
        # removed fields that no stage read are unknown keys now
        for name, overrides in (
            ("refine", {"refine": True}),
            ("tv_locality", {"budgets": {"tv_locality": 64.0}}),
        ):
            cfgp = small_config(tmp_path, **overrides)
            assert main(["run", "--config", str(cfgp)]) == 2
            assert name in capsys.readouterr().err
        # older configs still carry the retired "seed" and "jobs" settings
        cfg = RunConfig.from_json({"seed": 3, "jobs": 2})
        assert not hasattr(cfg, "seed") and not hasattr(cfg, "jobs")

    def test_non_planar_window_errors(self, tmp_path, capsys, monkeypatch):
        cfgp = small_config(
            tmp_path, window={"lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]}
        )
        monkeypatch.setattr(pipeline, "stage_grid", _must_not_run)
        assert main(["run", "--config", str(cfgp)]) == 2
        assert "window" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("p_grid", [0.0, 2.0]),
            ("p_grid", [-1.0]),
            ("p_grid", [1.0]),
            ("p_grid", [float("inf")]),
            ("sample_frac", 0),
            ("sample_frac", -0.125),
        ],
    )
    def test_bad_p_grid_or_sample_frac_errors(self, field, value, tmp_path, capsys, monkeypatch):
        cfgp = small_config(tmp_path, **{field: value})
        monkeypatch.setattr(pipeline, "stage_grid", _must_not_run)
        assert main(["run", "--config", str(cfgp)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("value", [[-1.0], [0.0], [1.0, 0.0], [float("inf")], [float("nan")]])
    def test_bad_alpha_grid_errors(self, value, tmp_path, capsys, monkeypatch):
        # -1 used to die in the aperture search with "negative dimensions are
        # not allowed", and 0 with an empty cone blamed on the window edge
        cfgp = small_config(tmp_path, alpha_grid=value)
        monkeypatch.setattr(pipeline, "stage_grid", _must_not_run)
        assert main(["run", "--config", str(cfgp)]) == 2
        assert "alpha_grid" in capsys.readouterr().err

    def test_eps_ratio_budget_failure_nonzero_exit(self, tmp_path):
        cfgp = small_config(tmp_path, budgets={"eps_ratio_slack": 1e-6})
        assert main(["run", "--config", str(cfgp)]) == 1
        summary = json.loads((tmp_path / "out" / "acceptance.json").read_text())
        assert summary["first_failure"].startswith("eps_ratio_")


class TestSubcommands:
    def test_staged_pipeline_and_cache(self, tmp_path):
        cfgp = small_config(tmp_path)
        cache = str(tmp_path / "cache")
        assert main(["build-grid", "--config", str(cfgp), "--cache-dir", cache]) == 0
        assert main(["decompose", "--config", str(cfgp), "--cache-dir", cache]) == 0
        assert main(["approximate", "--config", str(cfgp), "--cache-dir", cache]) == 0
        assert main(["verify", "--config", str(cfgp), "--cache-dir", cache]) == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_decompose_without_grid_errors(self, tmp_path, capsys):
        cfgp = small_config(tmp_path)
        cache = str(tmp_path / "cache")
        assert main(["decompose", "--config", str(cfgp), "--cache-dir", cache]) == 2
        assert "'grid'" in capsys.readouterr().err

    def test_stale_cache_mismatch(self, tmp_path):
        cfgp = small_config(tmp_path)
        cache = tmp_path / "cache"
        assert main(["build-grid", "--config", str(cfgp), "--cache-dir", str(cache)]) == 0
        # different grid parameters invalidate the cache key
        cfgp2 = small_config(tmp_path, resolution=1.0 / 16)
        assert main(["decompose", "--config", str(cfgp2), "--cache-dir", str(cache)]) == 2

    def test_resolved_k_min_keeps_cache_valid(self, tmp_path, monkeypatch):
        cfgp = small_config(tmp_path)
        raw = json.loads(cfgp.read_text())
        del raw["k_min"]
        cfgp.write_text(json.dumps(raw))
        cache = str(tmp_path / "cache")
        assert main(["build-grid", "--config", str(cfgp), "--cache-dir", cache]) == 0
        assert main(["decompose", "--config", str(cfgp), "--cache-dir", cache]) == 0
        assert main(["run", "--config", str(cfgp), "--cache-dir", cache]) == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["config"]["k_min"] is None and rep["grid"]["k_min"] == -2
        monkeypatch.setattr(pipeline, "stage_grid", _must_not_run)
        assert main(["run", "--config", str(cfgp), "--cache-dir", cache]) == 0

    def test_verify_elsewhere_reuses_approximate(self, tmp_path, monkeypatch):
        cfgp = small_config(tmp_path)
        cache = str(tmp_path / "cache")
        for cmd in ("build-grid", "decompose", "approximate"):
            assert main([cmd, "--config", str(cfgp), "--cache-dir", cache]) == 0
        monkeypatch.setattr(pipeline, "stage_approximate", _must_not_run)
        assert main(["verify", "--config", str(cfgp), "--cache-dir", cache,
                     "--out", str(tmp_path / "elsewhere")]) == 0
        assert (tmp_path / "elsewhere" / "report.json").exists()

    def test_budget_change_rebuilds_grid(self, tmp_path):
        # a grid certified under adr = 4 must not certify a run with adr = 1.5
        cache = str(tmp_path / "cache")
        cfgp = small_config(tmp_path, budgets={"adr": 4.0})
        assert main(["build-grid", "--config", str(cfgp), "--cache-dir", cache]) == 0
        assert main(["decompose", "--config", str(cfgp), "--cache-dir", cache]) == 0
        cfgp = small_config(tmp_path, budgets={"adr": 1.5})
        assert main(["verify", "--config", str(cfgp), "--cache-dir", cache]) == 1
        summary = json.loads((tmp_path / "out" / "acceptance.json").read_text())
        assert summary["first_failure"] == "adr"

    def test_write_reuses_the_verify_carleson_dyadic(self, tmp_path, monkeypatch):
        # functionals.csv lists the first eps's C_dyadic, which the verify
        # stage has computed: one call per eps in the whole run
        cfg = RunConfig.load(small_config(tmp_path))
        calls = []
        dyadic = FunctionalSuite.carleson_dyadic
        monkeypatch.setattr(
            FunctionalSuite, "carleson_dyadic", lambda self, m: calls.append(1) or dyadic(self, m)
        )
        pipeline.run(cfg)
        assert len(calls) == len(cfg.eps_grid)

    def test_cold_owners_reach_fat_points(self, tmp_path, monkeypatch):
        # positive control of the warm-run guard below: patching
        # `fat_points` out stops a cold fat-grid pass
        cfg = RunConfig.load(small_config(tmp_path))
        RC = pipeline.run(cfg, until="regions")["regions"]["RC"]
        monkeypatch.setattr(FunctionalSuite, "fat_points", _must_not_run)
        with pytest.raises(AssertionError, match="recomputed"):
            FunctionalSuite(RC, Coordinate(1)).owners()

    def test_warm_run_shares_upstream_objects(self, tmp_path, monkeypatch):
        cfg = RunConfig.load(small_config(tmp_path))
        cache = tmp_path / "cache"
        pipeline.run(cfg, out_dir=tmp_path / "cold", cache_dir=cache)
        # the owner segments come with the cached `approximate` artifact, so
        # a warm verify evaluates u on no fat grid
        monkeypatch.setattr(FunctionalSuite, "fat_points", _must_not_run)
        warm = pipeline.run(cfg, out_dir=tmp_path / "warm", cache_dir=cache)
        FS = warm["approximate"]["FS"]
        assert FS.RC is warm["regions"]["RC"] and FS.W is warm["regions"]["W"]
        assert FS.S is FS.RC.S is warm["grid"]["S"] and FS.E is warm["grid"]["E"]
        size = {p.name.split("-")[0]: p.stat().st_size for p in cache.glob("*.pkl")}
        # no copy of E, S, W or RC: the artifact undercuts a standalone
        # pickle of the same output by at least the regions artifact
        standalone = len(pickle.dumps(warm["approximate"]))
        assert size["approximate"] + size["regions"] <= standalone
        for name in ("report.json", "functionals.csv", "tv.csv"):
            cold_bytes = (tmp_path / "cold" / name).read_bytes()
            assert (tmp_path / "warm" / name).read_bytes() == cold_bytes

    def test_warm_run_writes_cold_outputs(self, tmp_path):
        cfg = RunConfig.load(small_config(tmp_path))
        cache = tmp_path / "cache"
        cold = pipeline.run(cfg, out_dir=tmp_path / "cold", cache_dir=cache)
        warm = pipeline.run(cfg, out_dir=tmp_path / "warm", cache_dir=cache)
        # the regions artifact stores the box lattice; the float corners
        # are recomputed on load
        W0, W1 = cold["regions"]["W"], warm["regions"]["W"]
        assert W1 is not W0 and "lo" not in W1.__getstate__()
        assert np.array_equal(W1.lo, W0.lo) and np.array_equal(W1.hi, W0.hi)
        for name in OUTPUTS:
            cold_bytes = (tmp_path / "cold" / name).read_bytes()
            assert (tmp_path / "warm" / name).read_bytes() == cold_bytes

    def test_code_change_prunes_stale_artifacts(self, tmp_path, monkeypatch):
        cfgp = small_config(tmp_path)
        cache = tmp_path / "cache"
        assert main(["run", "--config", str(cfgp), "--cache-dir", str(cache)]) == 0
        monkeypatch.setattr(pipeline, "source_fingerprint", lambda: "0" * 64)
        assert main(["run", "--config", str(cfgp), "--cache-dir", str(cache)]) == 0
        names = sorted(p.name for p in cache.glob("*.pkl"))
        assert [n.split("-")[0] for n in names] == ["approximate", "grid", "regions"]
        assert all(n.split("-")[1] == "0" * 8 for n in names)

    def test_report_formats_agree(self, tmp_path):
        cfgp = small_config(tmp_path)
        assert main(["run", "--config", str(cfgp)]) == 0
        summary = json.loads((tmp_path / "out" / "acceptance.json").read_text())
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["report", "--config", str(cfgp), "--format", "csv"])
        assert rc == 0
        lines = buf.getvalue().strip().splitlines()[1:]
        csv_checks = {name: bool(int(ok)) for name, ok in (l.split(",") for l in lines)}
        assert csv_checks == {n: ok for n, ok in summary["hard_checks"]}


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        cfgp = small_config(tmp_path)
        assert main(["run", "--config", str(cfgp)]) == 0
        r1 = (tmp_path / "out" / "report.json").read_bytes()
        assert main(["run", "--config", str(cfgp)]) == 0
        r2 = (tmp_path / "out" / "report.json").read_bytes()
        assert r1 == r2

    def test_out_dir_does_not_change_report(self, tmp_path):
        cfgp = small_config(tmp_path)
        assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o1")]) == 0
        assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o2")]) == 0
        for name in ("report.json", "functionals.csv"):
            b1 = (tmp_path / "o1" / name).read_bytes()
            b2 = (tmp_path / "o2" / name).read_bytes()
            assert b1 == b2


def _must_not_run(*args):
    raise AssertionError("stage recomputed despite a cache hit")


GRID_DOWN = {"grid", "regions", "approximate"}
REGIONS_DOWN = {"regions", "approximate"}
# config field (dotted for nested ones) -> (changed value, stage keys it moves)
KEY_MOVES = {
    "boundary": ({"type": "segment", "params": {"a": -1.0, "b": 1.0}}, GRID_DOWN),
    "window": ({"lo": [-2.0, -2.0], "hi": [2.0, 2.0]}, GRID_DOWN),
    "ambient": (None, REGIONS_DOWN),
    "resolution": (1.0 / 16, GRID_DOWN),
    "k_min": (-3, GRID_DOWN),
    "k_max": (3, GRID_DOWN),
    "scale": (2.0, GRID_DOWN),
    "region.tau": (0.1, REGIONS_DOWN),
    "corona_mode": ("annotated", REGIONS_DOWN),
    "corona_file": ("corona.json", REGIONS_DOWN),
    "eta": (0.3, GRID_DOWN),
    "K": (8.0, REGIONS_DOWN),
    "field_desc": ({"type": "constant", "params": {"c": 1.0}}, {"approximate"}),
    "eps_grid": ([0.1, 0.4], {"approximate"}),
    "alpha_grid": ([1.0, 2.0], {"approximate"}),
    "p_grid": ([2.0], set()),
    "budgets.adr": (1.5, GRID_DOWN),
    "budgets.inclusion": ([1e-5, 64.0], GRID_DOWN),
    "budgets.pointwise_c1": (8.0, set()),
    "budgets.eps_ratio_slack": (3.0, set()),
    "sample_frac": (0.25, {"approximate"}),
    "gamma0": (2.0, {"approximate"}),
    "margin": (0.1, set()),
    "out_dir": ("elsewhere", set()),
}


def test_stage_keys_move_with_what_each_stage_reads(tmp_path, monkeypatch):
    assert {k.split(".")[0] for k in KEY_MOVES} == {f.name for f in fields(RunConfig)}
    base = RunConfig.from_json(json.loads(small_config(tmp_path).read_text())).to_json()
    monkeypatch.chdir(tmp_path)
    corona = tmp_path / "corona.json"
    corona.write_text("{}")

    def keys(cfg_json):
        cfg = RunConfig.from_json(cfg_json)
        return {s: pipeline.stage_key(cfg, s) for s in ("grid", "regions", "approximate")}

    def changed(path, value):
        out = copy.deepcopy(base)
        *head, last = path.split(".")
        node = out
        for part in head:
            node = node[part]
        node[last] = value
        return out

    k0 = keys(base)
    wrong = {}
    for path, (value, expect) in KEY_MOVES.items():
        k1 = keys(changed(path, value))
        moved = {s for s in k0 if k0[s] != k1[s]}
        if moved != expect:
            wrong[path] = moved
    assert wrong == {}
    # the regions key also covers the bytes of the corona file it reads
    with_file = changed("corona_file", "corona.json")
    k1 = keys(with_file)
    corona.write_text('{"regimes": []}')
    k2 = keys(with_file)
    assert {s for s in k1 if k1[s] != k2[s]} == REGIONS_DOWN
