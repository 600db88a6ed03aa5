#!/usr/bin/env python3
"""Time one cold `pipeline.run` of a config, stage by stage.

    PYTHONPATH=<tree>/src python scripts/stage_times.py CONFIG OUT_DIR

Run it in a fresh interpreter per measurement, with no stage cache.  Prints
one JSON object: the wall seconds of the run and of each stage, the peak
resident set size in MB (`ru_maxrss`) and the sha256 of each output file.
Pointing PYTHONPATH at another checkout times that tree with the same script.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from epsapprox import pipeline
from epsapprox.config import RunConfig

OUTPUTS = ("report.json", "functionals.csv", "tv.csv", "packing.csv", "acceptance.json")


def main():
    cfg_path, out = sys.argv[1], Path(sys.argv[2])
    cfg = RunConfig.from_json(json.loads(Path(cfg_path).read_text()))
    stage_s = {}
    for name, st in pipeline.STAGES.items():
        fn = getattr(pipeline, st.fn)

        def timed(*args, _fn=fn, _name=name):
            t0 = time.perf_counter()
            result = _fn(*args)
            stage_s[_name] = time.perf_counter() - t0
            return result

        # the stage graph looks its functions up at call time
        setattr(pipeline, st.fn, timed)
    t0 = time.perf_counter()
    pipeline.run(cfg, out_dir=out)
    total = time.perf_counter() - t0
    print(
        json.dumps(
            {
                "run_s": total,
                "stage_s": stage_s,
                "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "sha256": {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in OUTPUTS},
            }
        )
    )


if __name__ == "__main__":
    main()
