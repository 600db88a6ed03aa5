#!/usr/bin/env python3
"""Time one cold `pipeline.run` of a config, stage by stage.

    PYTHONPATH=<tree>/src python scripts/stage_times.py CONFIG OUT_DIR

Run it in a fresh interpreter per measurement, with no stage cache.  Prints
one JSON object: the wall seconds of the run and of each stage, the peak
resident set size in MB (`ru_maxrss`) of the run and as it stands at the end
of each stage (so the stage that raises it shows), the minor page faults
(`ru_minflt`) of the run and as they stand at the end of each stage (so the
stages that churn freshly mapped memory show), the sha256 of each output
file, and the provenance of the measurement: the git SHA of the timed tree
(suffixed `-dirty` if its tracked files differ from that commit, null outside
a git checkout), its line count (`src_lines`, the `wc -l` total of
`src/epsapprox/*.py`), the numpy version and `os.cpu_count()`.  Pointing
PYTHONPATH at another checkout times that tree with the same script.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from epsapprox import pipeline
from epsapprox.config import RunConfig

OUTPUTS = ("report.json", "functionals.csv", "tv.csv", "packing.csv", "acceptance.json")


def git_sha(tree: Path):
    """HEAD of the checkout holding `tree`, `-dirty` if its tracked files
    differ from it; None outside a git checkout."""
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(tree), *args], capture_output=True, text=True
        )

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def src_lines(package: Path) -> int:
    """Lines of the package's modules, as `wc -l` counts them."""
    return sum(f.read_bytes().count(b"\n") for f in package.glob("*.py"))


def maxrss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def minflt() -> int:
    """Minor page faults of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main():
    cfg_path, out = sys.argv[1], Path(sys.argv[2])
    cfg = RunConfig.from_json(json.loads(Path(cfg_path).read_text()))
    stage_s, stage_rss_mb, stage_minflt = {}, {}, {}
    for name, st in pipeline.STAGES.items():
        fn = getattr(pipeline, st.fn)

        def timed(*args, _fn=fn, _name=name):
            t0 = time.perf_counter()
            result = _fn(*args)
            stage_s[_name] = time.perf_counter() - t0
            stage_rss_mb[_name] = maxrss_mb()
            stage_minflt[_name] = minflt()
            return result

        # the stage graph looks its functions up at call time
        setattr(pipeline, st.fn, timed)
    t0 = time.perf_counter()
    pipeline.run(cfg, out_dir=out)
    total = time.perf_counter() - t0
    package = Path(pipeline.__file__).resolve().parent
    print(
        json.dumps(
            {
                "run_s": total,
                "stage_s": stage_s,
                "stage_rss_mb": stage_rss_mb,
                "ru_maxrss_mb": maxrss_mb(),
                "stage_minflt": stage_minflt,
                "ru_minflt": minflt(),
                "sha256": {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in OUTPUTS},
                "git_sha": git_sha(package),
                "src_lines": src_lines(package),
                "numpy": np.__version__,
                "cpu_count": os.cpu_count(),
            }
        )
    )


if __name__ == "__main__":
    main()
