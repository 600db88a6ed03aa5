"""Record the correctness gate's reference constants for every drawable input.

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \\
        python3 benchmark/record_reference.py [workload ...]

Runs one cold ``pipeline.run`` per input of each pipeline workload and writes
the key constants of its report to ``benchmark/reference.json``.  Re-record
only when a change is meant to alter these constants, and say so where the
change is described.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import BENCH_DIR, OUT_ROOT, PipelineWorkload, key_constants


def main(names):
    path = BENCH_DIR / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        wl = PipelineWorkload(name, Path(OUT_ROOT), reference={})
        wl.setup()
        ref[name] = {}
        for inp in wl.inputs:
            dt = wl.op(inp)
            report = json.loads((wl.out_dir / "report.json").read_text())
            if not report["pass"]:
                raise SystemExit(f"{name} {inp[0]}: acceptance fails; not recording")
            ref[name][inp[0]] = key_constants(report)
            print(f"{name} {inp[0]}: {dt:.3f} s", flush=True)
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:] or ["halfplane_poisson", "segment_pole"])
