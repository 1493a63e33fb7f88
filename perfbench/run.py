"""Pipeline benchmark for `robustsv run-experiment`.

    python3 perfbench/run.py --workload ae-heavy --seed 1 --seconds 20 \
        --trace 0

Run from anywhere inside a checkout; the pipeline is imported from its
`src/`. Each pipeline run is a fresh child process (perfbench/child.py) on
a work dir under `.perfbench/` at the checkout root, repeated until
--seconds have passed and at least a workload's min_runs times; timings
are medians over the repeats. --trace 0 reports the end-to-end metrics of
untraced runs.
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics of the traced ones plus the tracing overhead. Every run's outputs
are checked. The metric names and units come from BENCHMARK.json; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench"
# a run must end within 180 s; a child still running at this point is killed
DEADLINE_S = 170.0
STAGE_COUNT = 9
# Children run with one BLAS thread. On the shared 2-vCPU box the second
# BLAS thread is the one other tenants' load takes away: with default
# threading, the five-seed spread of wall_s on ae-heavy was twice as wide.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# per-layer values derived from sizes and counts rather than timed
COMPUTED = ("manifest.hashed_mb", "enhancement.dataset.mb",
            "enhancement.train.gflop", "evaluation.trials")


@dataclass(frozen=True)
class Workload:
    ini: str
    # (section, key, value) changed between the set-up run and the timed
    # rerun on the same work dir; None times a fresh run
    edit: tuple[str, str, str] | None = None
    # timed runs made even when --seconds has passed; rerun-edit makes
    # fewer, after two untimed runs (its set-up and a reference)
    min_runs: int = 3


WORKLOADS = {
    "ae-heavy": Workload("ae-heavy.ini"),
    "backend-heavy": Workload("backend-heavy.ini"),
    "rerun-edit": Workload("ae-heavy.ini", ("backend", "plda_iters", "6"),
                           min_runs=2),
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (not an output-check failure)."""


@dataclass
class ChildRun:
    spawn_to_ready_s: float    # process start, imports, config, Experiment
    wall_s: float              # first stage start to command return
    total_s: float             # spawn to exit
    cpu_s: float
    peak_rss_mb: float
    trace: dict | None


class Tally:
    """Attempted and failed stages and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str, count: bool = True) -> None:
        """Record a check; count=False when its attempt is already counted."""
        self.attempted += count
        if not ok:
            self.failed += 1
            self.messages.append(what)


def write_config(path: Path, ini: str, work: Path, edit=None) -> Path:
    parser = configparser.ConfigParser()
    parser.read_string((BENCH / "workloads" / ini).read_text())
    if not parser.has_section("paths"):
        parser.add_section("paths")
    parser.set("paths", "work_dir", str(work))
    if edit is not None:
        section, key, value = edit
        parser.set(section, key, value)
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def run_child(config: Path, seed: int, out: Path, trace: bool,
              tally: Tally, timeout: float) -> ChildRun:
    """One `run-experiment` in a fresh process; rusage is that child's own."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    cmd += ["--", "run-experiment", "--config", str(config),
            "--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **ONE_THREAD)
    with open(out.with_suffix(".log"), "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t_exit = time.monotonic()
    # reaped by wait4: tell Popen, which would otherwise think it running
    proc.returncode = returncode = os.waitstatus_to_exitcode(status)
    if not out.exists():
        tail = out.with_suffix(".log").read_text()[-2000:]
        raise BenchmarkError(f"child exited {returncode} without a "
                             f"result:\n{tail}")
    result = json.loads(out.read_text())
    started = len(result["stages"])
    tally.attempted += max(started, 1)
    tally.check(returncode == 0 and started == STAGE_COUNT,
                f"run-experiment exited {returncode} after {started} "
                f"stages ({out.with_suffix('.log')})", count=False)
    return ChildRun(
        spawn_to_ready_s=result["t_ready"] - t_spawn,
        wall_s=result["t_end"] - result["t_ready"],
        total_s=t_exit - t_spawn,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        trace=result["trace"])


# -- output checks ------------------------------------------------------------

def read_eer_tsv(work: Path) -> dict[tuple[str, str], float]:
    from robustsv.manifest import stage_dir
    table = {}
    for line in (stage_dir(work, "eer") / "eer.tsv").read_text().splitlines():
        if line.strip():
            cond, regime, eer, _threshold = line.split()
            table[(cond, regime)] = float(eer)
    return table


def check_outputs(work: Path, regimes, seed: int, tally: Tally) -> None:
    from robustsv.experiment import eval_conditions
    from robustsv.manifest import (ManifestError, StaleManifestError,
                                   verify_chain)
    try:
        verify_chain(work, "eer")
        chain_ok, why = True, ""
    except (ManifestError, StaleManifestError) as exc:
        chain_ok, why = False, str(exc)
    tally.check(chain_ok, f"verify_chain(eer) failed: {why}")
    try:
        table = read_eer_tsv(work)
    except (OSError, ValueError) as exc:
        tally.check(False, f"eer.tsv unreadable: {exc}")
        return
    want = {(c.name, r) for c in eval_conditions(seed) for r in regimes}
    cells_ok = set(table) == want and all(
        math.isfinite(v) and 0.0 <= v <= 100.0 for v in table.values())
    tally.check(cells_ok, f"eer.tsv cells wrong: {sorted(table.items())}")


def eer_means(work: Path, regimes) -> dict[str, float]:
    table = read_eer_tsv(work)
    return {f"eer_pct.{r}": statistics.mean(
                v for (_, regime), v in table.items() if regime == r)
            for r in regimes}


def ae_mse_ratio(work: Path, seed: int) -> float:
    """Enhanced / corrupted log-spectral MSE to clean, on held-out noises and
    measured-style rooms (the acceptance suite's enhancement measure)."""
    import numpy as np
    from robustsv.corruption.mix import corrupt
    from robustsv.corruption.rir import load_rir_pool
    from robustsv.enhancement.enhance import enhance_waveform
    from robustsv.enhancement.mlp import load_mlp
    from robustsv.experiment import load_audio_dir, load_noise_pool
    from robustsv.manifest import stage_dir
    from robustsv.seeding import derive_seed
    from robustsv.spectral import stft

    synth = stage_dir(work, "synth-data")
    model = load_mlp(stage_dir(work, "train-ae") / "ae_model.rsv")
    signals = load_audio_dir(synth / "audio" / "eval")
    noises = load_noise_pool(synth / "noises", "test")
    rooms = load_rir_pool(synth / "real_rirs_test", 8000)
    rng = np.random.default_rng(derive_seed(seed, "perfbench-mse"))
    num = den = 0.0
    for utt in sorted(signals)[:20]:
        noise = noises[int(rng.integers(0, len(noises)))]
        room = rooms[int(rng.integers(0, len(rooms)))]
        res = corrupt(signals[utt], rir_pair=room, noise=noise.signal,
                      target_snr_db=float(rng.uniform(0.0, 21.0)),
                      rng=np.random.default_rng(int(rng.integers(2 ** 31))))
        clean = stft(corrupt(signals[utt]).output).log_mag
        den += float(np.mean((stft(res.output).log_mag - clean) ** 2))
        num += float(np.mean(
            (stft(enhance_waveform(model, res.output)).log_mag - clean) ** 2))
    return num / den


def dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*")
               if p.is_file()) / 1e6


# -- per-layer metrics from a traced run --------------------------------------

def layer_metrics(trace: dict, names: list[str]) -> dict[str, float]:
    spans, counts = trace["spans"], trace["counts"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def count(name):
        return counts.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    rebuilds = count("experiment.rebuilds")
    derived = {
        "experiment.rebuilds": rebuilds,
        "experiment.useful_rebuild_frac":
            ratio(count("experiment.useful_rebuilds"), rebuilds),
        "manifest.hashed_mb": count("manifest.hashed_bytes") / 1e6,
        "corpus.utts": count("corpus.utts"),
        "features.extract.frames": count("features.extract.frames"),
        "enhancement.dataset.rows": count("enhancement.dataset.rows"),
        "enhancement.dataset.mb": count("enhancement.dataset.bytes") / 1e6,
        "enhancement.train.epoch_s":
            ratio(total("enhancement.train"),
                  count("enhancement.train.epochs")),
        "enhancement.train.gflop": count("enhancement.train.flop") / 1e9,
        "enhancement.train.gflop_per_s":
            ratio(count("enhancement.train.flop") / 1e9,
                  total("enhancement.train")),
        "enhancement.enhance.frames": count("enhancement.enhance.frames"),
        "backend.ubm.iters": count("backend.ubm.iters"),
        "backend.bw_stats.frames": count("backend.bw_stats.frames"),
        "backend.tmatrix.iter_s":
            ratio(total("backend.tmatrix"), count("backend.tmatrix.iters")),
        "evaluation.trials": count("evaluation.trials"),
        "evaluation.trials_per_s":
            ratio(count("evaluation.trials"),
                  total("evaluation.score_trials")),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name.startswith("stage.") and name.endswith(".mb"):
            out[name] = count(name[:-len(".mb")] + ".bytes") / 1e6
        elif name.endswith(".s"):
            out[name] = total(name[:-len(".s")])
        elif name.endswith(".calls"):
            out[name] = float(spans.get(name[:-len(".calls")],
                                        {}).get("calls", 0))
    return out


# -- workloads ----------------------------------------------------------------

class Bench:
    def __init__(self, name: str, seed: int, seconds: float):
        from robustsv.config import load_config
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.regimes = load_config(
            BENCH / "workloads" / self.workload.ini).regimes
        self.dir = WORK_ROOT / name
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        self.tally = Tally()
        self.pristine = self.dir / "pristine"
        self.reference: bytes | None = None
        self.started = time.monotonic()
        self.n = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def more(self, done: int, minimum: int | None = None) -> bool:
        if done and self.tally.failed:
            return False
        if minimum is None:
            minimum = self.workload.min_runs
        return done < minimum or self.elapsed() < self.seconds

    def child(self, config: Path, trace: bool = False) -> ChildRun:
        self.n += 1
        return run_child(config, self.seed, self.dir / f"run{self.n:02d}.json",
                         trace, self.tally, DEADLINE_S - self.elapsed())

    def fresh(self, work: Path, edit=None, trace=False) -> ChildRun:
        if work.exists():
            shutil.rmtree(work)
        config = write_config(work.with_suffix(".ini"), self.workload.ini,
                              work, edit)
        run = self.child(config, trace)
        check_outputs(work, self.regimes, self.seed, self.tally)
        return run

    def rerun(self, work: Path, trace=False) -> ChildRun:
        config = write_config(self.dir / "edited.ini", self.workload.ini,
                              work, self.workload.edit)
        run = self.child(config, trace)
        check_outputs(work, self.regimes, self.seed, self.tally)
        self.tally.check(self.reference is not None
                         and eer_bytes(work) == self.reference,
                         "rerun eer.tsv differs from a fresh run of the "
                         "edited config")
        return run

    def set_up_reruns(self, work: Path) -> ChildRun:
        """rerun-edit: keep the eer.tsv of a fresh run of the edited config,
        then make the set-up run whose work dir every rerun starts from."""
        reference = self.dir / "reference"
        self.fresh(reference, self.workload.edit)
        self.reference = eer_bytes(reference)
        setup = self.fresh(work)
        shutil.copytree(work, self.pristine)
        return setup

    def timed(self, work: Path, trace=False) -> ChildRun:
        """A fresh run, or for rerun-edit a rerun on a copy of the set-up."""
        if self.workload.edit is None:
            return self.fresh(work, trace=trace)
        shutil.rmtree(work)
        shutil.copytree(self.pristine, work)
        return self.rerun(work, trace)

    # timed runs -------------------------------------------------------------

    def end_to_end(self) -> tuple[dict, dict, dict]:
        """End-to-end metrics, printed-only figures, and notes."""
        work = self.dir / "work"
        setup_s = 0.0
        if self.workload.edit is not None:
            setup_s = self.set_up_reruns(work).total_s
        runs = []
        while self.more(len(runs)):
            runs.append(self.timed(work))
        metrics = {
            "wall_s": median(r.wall_s for r in runs),
            "setup_s": setup_s + median(r.spawn_to_ready_s for r in runs),
            "cpu_s": median(r.cpu_s for r in runs),
            "peak_rss_mb": median(r.peak_rss_mb for r in runs),
            "work_mb": dir_mb(work),
        }
        # printed with the metrics but kept out of the result line: see README
        extra = {}
        if not self.tally.failed:
            extra = {name: (value, "%") for name, value
                     in eer_means(work, self.regimes).items()}
            if any(r in ("ae", "ae_mc") for r in self.regimes):
                extra["ae_mse_ratio"] = (ae_mse_ratio(work, self.seed),
                                         "ratio")
        extra["fail_rate"] = (
            self.tally.failed / max(self.tally.attempted, 1), "frac")
        return metrics, extra, {"timed runs": len(runs)}

    def per_layer(self, names: list[str]) -> tuple[dict, dict, dict]:
        """Per-layer metrics of the traced runs, no extra figures, notes."""
        work = self.dir / "work"
        plain, traced = [], []
        # untimed: the first pipeline run of a benchmark run is often the
        # slowest
        if self.workload.edit is None:
            self.fresh(work)
        else:
            self.set_up_reruns(work)
        while self.more(len(traced), 1):
            order = [(plain, False), (traced, True)]
            if len(traced) % 2:
                order.reverse()    # alternate which side of a pair goes first
            for runs, trace in order:
                runs.append(self.timed(work, trace))
        per_run = [layer_metrics(r.trace, names) for r in traced]
        metrics = {name: median(m[name] for m in per_run)
                   for name in per_run[0]}
        overhead = (median(r.wall_s for r in traced)
                    - median(r.wall_s for r in plain))
        metrics["trace.overhead_s"] = overhead
        notes = {"traced wall_s": median(r.wall_s for r in traced),
                 "untraced wall_s": median(r.wall_s for r in plain),
                 "traced runs": len(traced),
                 "self time (s), last traced run": self_times(traced[-1])}
        return metrics, {}, notes


def eer_bytes(work: Path) -> bytes | None:
    from robustsv.manifest import stage_dir
    path = stage_dir(work, "eer") / "eer.tsv"
    return path.read_bytes() if path.exists() else None


def median(values) -> float:
    return float(statistics.median(list(values)))


def self_times(run: ChildRun) -> dict[str, float]:
    spans = run.trace["spans"]
    top = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:12]
    return {name: round(row["self_s"], 3) for name, row in top}


# -- entry point --------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "robustsv" / "__init__.py").is_file():
        print(f"perfbench: no robustsv sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    bench = Bench(args.workload, args.seed, args.seconds)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in listed]
    try:
        if args.trace:
            metrics, extra, notes = bench.per_layer(names)
        else:
            metrics, extra, notes = bench.end_to_end()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in listed}
    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {bench.elapsed():.1f} s")
    for name in names:
        computed = name in COMPUTED or (name.startswith("stage.")
                                        and name.endswith(".mb"))
        print(f"  {name:38s} {metrics[name]:14.6g} {units[name]}"
              + (" (computed)" if computed else ""))
    for name, (value, unit) in extra.items():
        print(f"  {name:38s} {value:14.6g} {unit}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for message in bench.tally.messages:
        print(f"  FAILED: {message}")
    print(json.dumps({
        "correct": bench.tally.failed == 0,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
