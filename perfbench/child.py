"""Run one `robustsv` CLI command in this process and record where time went.

    PYTHONPATH=src python3 perfbench/child.py --out RESULT.json [--trace] \
        -- run-experiment --config CONFIG --seed N

The result file holds the monotonic times at which the first stage started
and the command returned, the start and end of every stage, and with --trace
the per-layer span summary; the exit code is the CLI's. Process start and
import time is measured by the parent, which knows when it spawned this
process.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _record_stages(experiment_cls, stages: list) -> None:
    """Time every run_stage call; the first call ends set-up."""
    run_stage = experiment_cls.run_stage

    def timed(self, stage):
        entry = [stage, time.monotonic(), None]
        stages.append(entry)
        result = run_stage(self, stage)
        entry[2] = time.monotonic()
        return result

    experiment_cls.run_stage = timed


def _record_rebuilds(experiment_cls, counts) -> None:
    """Per stage: bytes on disk after it, and whether a rebuild changed its
    output hashes. Runs outside the stage span, so it adds no traced time."""
    from robustsv.manifest import load_manifest, manifest_path, stage_dir
    run_stage = experiment_cls.run_stage

    def observed(self, stage):
        path = manifest_path(self.work, stage)
        before = path.stat().st_mtime_ns if path.exists() else None
        old = (load_manifest(self.work, stage).outputs
               if before is not None else None)
        result = run_stage(self, stage)
        if path.stat().st_mtime_ns != before:
            counts["experiment.rebuilds"] += 1
            counts["experiment.useful_rebuilds"] += result.outputs != old
        counts[f"stage.{stage}.bytes"] = _dir_bytes(
            stage_dir(self.work, stage))
        return result

    experiment_cls.run_stage = observed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    from robustsv import cli
    from robustsv.experiment import Experiment

    stages: list = []
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.wrap(Experiment, "run_stage", lambda a: f"stage.{a[1]}")
        _record_rebuilds(Experiment, tracer.counts)
    _record_stages(Experiment, stages)

    rc = cli.main(cli_args)
    t_end = time.monotonic()
    result = {
        "t_ready": stages[0][1] if stages else t_end,
        "t_end": t_end,
        "stages": stages,
        "trace": tracer.summary() if tracer else None,
    }
    args.out.write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
