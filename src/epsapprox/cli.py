"""Command line runner: epsapprox <subcommand> --config run.json [...]."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import pipeline
from .config import RunConfig


def _parser():
    p = argparse.ArgumentParser(
        prog="epsapprox",
        description="Build, decompose, approximate and certify an "
        "epsilon-approximant run.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="run configuration JSON")
    common.add_argument("--cache-dir", default=None, help="stage cache directory")
    common.add_argument("--out", default=None, help="override output directory")
    for name, help_ in [
        ("run", "full pipeline: build, decompose, approximate, verify, report"),
        ("build-grid", "boundary, cube system, ADR certification"),
        ("decompose", "Whitney complex, corona, regions (needs build-grid)"),
        ("approximate", "stopping families and approximants (needs decompose)"),
        ("verify", "certification sweeps; writes the report bundle"),
        ("report", "re-emit tables from a verified run"),
    ]:
        sp = sub.add_parser(name, parents=[common], help=help_)
        if name == "report":
            sp.add_argument(
                "--format", choices=("json", "csv"), default="json",
                help="print the acceptance summary as json or csv",
            )
    return p


def _load_config(args) -> RunConfig:
    cfg = RunConfig.load(args.config)
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


# subcommands that compute one stage from its cached upstream stages;
# `run` and `verify` load or compute every stage
STAGED = {"build-grid": "grid", "decompose": "regions", "approximate": "approximate"}


def _stage_line(stage: str, out, cfg: RunConfig) -> str:
    if stage == "grid":
        return f"grid: {out['S'].n_cubes} cubes, ADR pass={out['adr'].passed}"
    if stage == "regions":
        return (f"regions: {out['W'].n_boxes} boxes, "
                f"{len(out['RC'].corona.top)} regimes")
    n = sum(len(v["A"].cells) for v in out["per_eps"].values())
    return f"approximants: {n} cells over eps grid {cfg.eps_grid}"


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cache = args.cache_dir
    try:
        cfg = _load_config(args)
        if args.command in STAGED:
            if not cache:
                raise RuntimeError(f"{args.command} requires --cache-dir")
            stage = STAGED[args.command]
            outputs = pipeline.run(
                cfg, cache_dir=cache, until=stage, build_upstream=False
            )
            print(_stage_line(stage, outputs[stage], cfg))
            return 0
        if args.command == "report":
            out = Path(cfg.out_dir)
            summary = json.loads((out / "acceptance.json").read_text())
            if args.format == "json":
                print(json.dumps(summary, indent=1, sort_keys=True))
            else:
                print("check,pass")
                for name, ok in summary["hard_checks"]:
                    print(f"{name},{int(ok)}")
            return 0 if summary["pass"] else 1
        summary = pipeline.run(cfg, cache_dir=cache)["write"]
    except (RuntimeError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, ok in summary["hard_checks"]:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(f"overall: {'PASS' if summary['pass'] else 'FAIL'}")
    return 0 if summary["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
