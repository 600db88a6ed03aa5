"""Benchmark entry point: run one workload in a fresh, pinned interpreter.

    python3 benchmark/run.py --workload halfplane_poisson --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in its own subprocess
(``workloads.py``) so that set-up time and peak RSS are never carried over
from another workload; BLAS and OpenMP are pinned to one thread there.  The
last line of stdout is the result JSON; ``--trace 1`` reports the traced
per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("halfplane_poisson", "segment_pole", "carleson_sparse")
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 170
PROBE = (
    "import time; t = time.perf_counter(); import epsapprox.pipeline; "
    "print(time.perf_counter() - t)"
)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = "1"
    return env


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = Path.cwd() / "src"
    if not (src / "epsapprox" / "__init__.py").is_file():
        print(f"no epsapprox package under {src}; run from a checkout root", file=sys.stderr)
        return 2
    env = child_env(src)

    # import time of the package, median over fresh interpreters
    probes = []
    for _ in range(IMPORT_PROBES):
        p = subprocess.run(
            [sys.executable, "-c", PROBE],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        probes.append(float(p.stdout.strip()))
    import_s = statistics.median(probes)

    cmd = [
        sys.executable,
        str(Path(__file__).resolve().parent / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--import-s", repr(import_s),
    ]
    try:
        p = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"workload exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        print(f"workload process exited with {p.returncode}", file=sys.stderr)
        return p.returncode or 4
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
