"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py`` with the package's ``src`` on ``PYTHONPATH`` and BLAS
pinned to one thread.  Prints progress to stderr and, as the last line of
stdout, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Every workload is a closed loop with one client: the next op is drawn from
the seeded generator and sent only after the previous op returned.  Each op
is checked for correctness outside its timed region.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import epsapprox
# package functions are called through their modules so the tracer's
# wrappers, installed on the module attributes, see the calls
from epsapprox import carleson, dyadic, geometry, pipeline
from epsapprox.config import RunConfig

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
OUT_ROOT = ".bench_out"
SETUP_REPS = 3
# fractional parts of irrationals: steps of equidistributed sequences
WEYL = ((5**0.5 - 1) / 2, 2**0.5 - 1, 3**0.5 - 1)
REL_TOL = 1e-9


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# pipeline workloads: one op is one cold `pipeline.run` on a generated config
# ---------------------------------------------------------------------------


def key_constants(report: dict) -> dict:
    """The constants the gate compares, looked up by key in report.json."""
    out = {
        "n_samples": report["grid"]["n_samples"],
        "n_cubes": report["grid"]["n_cubes"],
        "n_boxes": report["regions"]["n_boxes_covered"],
        "Lambda_principal": report["principal"]["Lambda"],
    }
    for e in sorted(report["eps"]):
        d = report["eps"][e]
        out[f"Lambda_R_union_B@{e}"] = d["packing_R_union_B"]["Lambda"]
        out[f"Lambda_Gstar@{e}"] = d["packing_Gstar"]["Lambda"]
        out[f"alpha0@{e}"] = d["alpha0"]
        out[f"C1@{e}"] = d["verify"]["C1"]
        out[f"C2@{e}"] = d["verify"]["C2"]
    return out


def compare_constants(got: dict, ref: dict) -> list:
    """Names of reference constants that are missing or off by > REL_TOL."""
    bad = []
    for name, want in ref.items():
        have = got.get(name)
        if have is None or not math.isclose(have, want, rel_tol=REL_TOL, abs_tol=0.0):
            bad.append(f"{name}: got {have!r}, reference {want!r}")
    return bad


class PipelineWorkload:
    """A shipped config, scaled down, with one field parameter drawn per op."""

    def __init__(self, name: str, out_root: Path, reference: dict | None = None):
        self.name = name
        self.out_dir = out_root / name
        with open(BENCH_DIR / "inputs" / f"{name}.json") as fh:
            self.base = json.load(fh)
        if reference is None:
            with open(BENCH_DIR / "reference.json") as fh:
                reference = json.load(fh)[name]
        self.reference = reference

    def variants(self) -> list:
        """(input id, config dict) for every input the seed can draw."""
        out = []
        if self.name == "halfplane_poisson":
            # Poisson-indicator interval [c - 1, c + 1], c in [-0.5, 0.5]: a and
            # b sweep [-1.5, -0.5] and [0.5, 1.5] while the length, which sets
            # how many cubes oscillate and so the work per op, stays 2
            for c in np.linspace(-0.5, 0.5, 17):
                a, b = float(c - 1), float(c + 1)
                out.append((f"a={a:g},b={b:g}", {"a": a, "b": b}))
        else:
            # log pole at (x0, 0) on the segment, x0 in [-0.5, 0.5]
            for x0 in np.linspace(-0.5, 0.5, 17):
                out.append((f"x0={x0:g}", {"pole": [float(x0), 0.0]}))
        cfgs = []
        for key, params in out:
            cfg = dict(self.base)
            cfg["field_desc"] = {"type": self.base["field_desc"]["type"], "params": params}
            cfg["out_dir"] = str(self.out_dir)
            cfgs.append((key, cfg))
        return cfgs

    def setup(self):
        self.inputs = self.variants()

    def draw(self, rng):
        return self.inputs[int(rng.integers(len(self.inputs)))]

    def op(self, inp):
        rc = RunConfig.from_json(inp[1])
        t0 = time.perf_counter()
        pipeline.run(rc, out_dir=self.out_dir)
        return time.perf_counter() - t0

    def check(self, inp) -> list:
        with open(self.out_dir / "acceptance.json") as fh:
            acc = json.load(fh)
        errors = [] if acc["pass"] else [f"acceptance fails: {acc.get('first_failure')}"]
        with open(self.out_dir / "report.json") as fh:
            report = json.load(fh)
        return errors + compare_constants(key_constants(report), self.reference[inp[0]])


# ---------------------------------------------------------------------------
# carleson_sparse: one op decides one seed-drawn cube collection
# ---------------------------------------------------------------------------


class CarlesonWorkload:
    def setup(self):
        E = geometry.build_boundary(
            geometry.LipschitzGraph("abs", 0.1),
            resolution=2.0**-7,
            window=geometry.Window((-4, -4), (4, 4)),
        )
        self.S = dyadic.build_cube_system(E, k_min=-4, k_max=6)
        self.gens = [
            g
            for g in map(self.S.relevant_at_gen, range(self.S.k_min, self.S.k_max + 1))
            if g
        ]
        self.n_ops = 0

    def draw(self, rng):
        S = self.S
        if self.n_ops == 0:
            self.phase = rng.random(3)
        # half the collections hang under a top cube, half under a random cube
        # of a generation picked in turn.  Densities, generations and the
        # second lambda follow Weyl sequences from a seeded phase, so every run
        # covers their ranges evenly and its latency quantiles vary little
        # with the seed; the cubes, masks and f stay independent draws.
        i = self.n_ops // 2
        density = (self.phase[0] + i * WEYL[0]) % 1.0
        if self.n_ops % 2 == 0:
            root = int(S.roots[int(rng.integers(len(S.roots)))])
        else:
            gen = self.gens[int(len(self.gens) * ((self.phase[1] + i * WEYL[1]) % 1.0))]
            root = int(gen[int(rng.integers(len(gen)))])
        desc = S.descendants(root)
        coll = [q for q, t in zip(desc, rng.random(len(desc)) < density) if t] or [root]
        lam2 = None
        if self.n_ops % 3 == 0:
            lam2 = 0.05 + 0.95 * ((self.phase[2] + (self.n_ops // 3) * WEYL[2]) % 1.0)
        f = rng.random(S.E.n_samples) * float(rng.integers(1, 10))
        self.n_ops += 1
        return coll, root, lam2, f

    def op(self, inp):
        coll, root, lam2, f = inp
        t0 = time.perf_counter()
        lam_pack = carleson.packing_constant(self.S, coll)
        wit = carleson.sparse_witness(self.S, coll, 1.0 / lam_pack)
        wit2 = carleson.sparse_witness(self.S, coll, lam2) if lam2 is not None else None
        emb = carleson.carleson_embedding_check(self.S, f, coll, root)
        dt = time.perf_counter() - t0
        self.last = (lam_pack, wit, wit2, emb)
        return dt

    def check(self, inp) -> list:
        """Acceptance criterion 2's checks, plus the embedding inequality."""
        coll, _, lam2, _ = inp
        lam_pack, wit, wit2, emb = self.last
        S = self.S
        if not wit.feasible:
            return [f"no witness at 1/Lambda = {1 / lam_pack!r}"]
        errors = []
        used: dict = {}
        for q in coll:
            if wit.mass(q) < S.sigma(q) / lam_pack * (1 - 1e-9):
                errors.append(f"cube {q}: witness mass below sigma/Lambda")
            for s, x in wit.assignments[q]:
                used[s] = used.get(s, 0.0) + x
        over = [s for s, v in used.items() if v > S.E.weights[s] * (1 + 1e-9)]
        if over:
            errors.append(f"{len(over)} samples over their weight")
        if wit2 is not None:
            if wit2.feasible:
                if lam_pack > 1.0 / lam2 * (1 + 1e-9):
                    errors.append(f"witness at lambda={lam2!r} but Lambda={lam_pack!r}")
            elif lam2 <= 1.0 / lam_pack * (1 - 1e-9):
                errors.append(f"cut at lambda={lam2!r} but Lambda={lam_pack!r}")
        if not emb[2]:
            errors.append(f"embedding fails: lhs={emb[0]!r} rhs={emb[1]!r}")
        return errors


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def make_workload(name: str, out_root: Path):
    if name == "carleson_sparse":
        return CarlesonWorkload()
    return PipelineWorkload(name, out_root)


def timed_setup(wl, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_op(wl, inp):
    """(seconds, errors) for one op; an op that raises counts as failed."""
    t0 = time.perf_counter()
    try:
        dt = wl.op(inp)
    except Exception:
        return time.perf_counter() - t0, [traceback.format_exc()]
    try:
        return dt, wl.check(inp)
    except Exception:
        return dt, [traceback.format_exc()]


def tail_percentile(n: int) -> float:
    """99, or the highest percentile with ten ops beyond it (at least 50).

    A run of a pipeline workload holds only a few ops; its 99th percentile
    would be its slowest op, so the median stands in for the tail there.
    """
    return min(99.0, max(50.0, 100.0 * (1.0 - 10.0 / n)))


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--import-s", type=float, required=True)
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    if Path(epsapprox.__file__).resolve().parent != (src / "epsapprox").resolve():
        raise SystemExit(f"epsapprox imported from {epsapprox.__file__}, not {src}")
    out_root = Path(OUT_ROOT)
    out_root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    wl = make_workload(args.workload, out_root)

    tracer = Tracer().install() if args.trace else None
    setup_s = args.import_s + timed_setup(wl, SETUP_REPS)
    if tracer:
        tracer.active = True
        wl.setup()
        tracer.active = False

    lat, traced, failed = [], [], 0
    start = time.perf_counter()
    while True:
        inp = wl.draw(rng)
        dt, errors = run_op(wl, inp)
        lat.append(dt)
        if tracer:
            # same input again, traced, for the per-layer split and the overhead
            tracer.active = True
            dt_traced, errors_traced = run_op(wl, inp)
            tracer.active = False
            traced.append(dt_traced)
            errors += errors_traced
        if errors:
            failed += 1
            log(f"op {len(lat)} FAILED:")
            for e in errors[:5]:
                log("  " + e)
        if time.perf_counter() - start >= args.seconds:
            break
    n = len(lat)

    if tracer:
        metrics = {
            name: metric(value, unit)
            for name, (value, unit) in tracer.per_layer(n).items()
        }
        metrics["trace.overhead_s"] = metric(
            statistics.median(traced) - statistics.median(lat), "s"
        )
        span_path = out_root / f"spans-{args.workload}.csv"
        tracer.write(span_path)
        tracer.uninstall()
        rows = sorted(
            ((k, v["value"]) for k, v in metrics.items() if k.endswith("_s")),
            key=lambda kv: -kv[1],
        )
        log(
            f"{args.workload}: seconds per op over {n} traced ops (self time; "
            f"pipeline stages inclusive; spans in {span_path})"
        )
        for k, v in rows:
            log(f"  {k:<44} {v:12.6f}")
    else:
        lat_arr = np.asarray(lat)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "run_s": metric(np.median(lat_arr), "s"),
            "decide_ms": metric(1e3 * np.median(lat_arr), "ms"),
            "decide_ms.p99": metric(1e3 * np.percentile(lat_arr, tail_percentile(n)), "ms"),
            "collections_per_s": metric(n / lat_arr.sum(), "1/s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }
        log(f"{args.workload}: {n} ops, {failed} failed, median {np.median(lat_arr):.4f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
