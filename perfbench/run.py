#!/usr/bin/env python3
"""mfclab benchmark: time to certificate on catalogue experiments.

Run from the repository root:

    python3 perfbench/run.py --workload consumption --seed 2024 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs one or more experiments of ``mfclab.experiments`` at the
sizes that ``tests/test_acceptance.py`` pins, in one process with BLAS/OpenMP
fixed to one thread and glibc's allocator keeping freed memory.  With
``--trace 0`` a run times interpreter start-up plus ``import mfclab`` in fresh
child processes (``setup_s``), then repeats the workload's experiments at
``--seed`` for about ``--seconds`` seconds, at least ``MIN_SAMPLES`` times.  With ``--trace 1`` it first makes one untimed warm-up
run at the reference seed, whose CSV digests are compared with
``perfbench/digests.json`` (``report.csv_drift``), then the same
untraced repeats, then one traced run for the per-layer metrics.

An experiment run fails when it raises, when any of its checks fails, or when
its CSVs differ from the first run at the same seed.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the exit code is 0 only when no run failed.  A run record
(machine, every sample, the metrics and, when traced, every span) is written
to ``perfbench/out/``.
"""
from __future__ import annotations

import os

# BLAS and OpenMP read these when numpy loads, so they are fixed before any
# import below can pull numpy in.  The complex mat-vec in
# DiscreteMeasure.fourier otherwise runs two OpenBLAS threads, which doubles
# its CPU time for no wall-clock gain on a 2-CPU machine and widens the spread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import ctypes  # noqa: E402
import ctypes.util  # noqa: E402

# glibc hands each large numpy temporary to a fresh mmap and gives freed heap
# back to the kernel, so every experiment run page-faults its temporaries in
# again: about 170k faults and a quarter of law-derivative's time on a shared
# VM, where the fault path is the noisiest part of the run.  Keeping freed
# memory in the heap (arrays up to glibc's 32 MiB ceiling stay off mmap)
# leaves the arithmetic to be measured.  Arrays above 32 MiB, such as the
# sde-moments state, are still mapped and faulted per run.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_SETTINGS = ((M_TRIM_THRESHOLD, 1 << 30), (M_MMAP_THRESHOLD, 32 << 20))


def keep_freed_memory() -> bool:
    """Apply ``MALLOC_SETTINGS`` through glibc's mallopt; False where there is none."""
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return all(mallopt(param, value) == 1 for param, value in MALLOC_SETTINGS)


MALLOC_KEPT = keep_freed_memory()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"

import tracing  # noqa: E402  (run as a script, this directory is on sys.path)

REFERENCE_SEED = 2024
MIN_SAMPLES = 3
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 900

# Experiment knobs: the acceptance sizes.
EXPERIMENT_SIZES = {
    "consumption": {"n_particles": 10_000, "n_steps": 200},
    "sde-moments": {"n_particles": 100_000, "n_steps": 200},
    "law-derivative": {"n_particles": 10_000},
    "gateaux": {"n_particles": 10_000, "n_steps": 200},
}
# The experiments that one timed run of a workload runs, in turn.  Each
# catalogue experiment is a workload of its own; "derivatives" runs the two
# derivative oracles back to back, so that one workload covers both.
WORKLOADS = {name: (name,) for name in EXPERIMENT_SIZES}
WORKLOADS["derivatives"] = ("law-derivative", "gateaux")

# (name, unit); fail_ratio is printed but carried in the JSON line as
# failed / attempted, because a metric that is 0 on a good run has no
# relative spread.
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# Prints the CLOCK_MONOTONIC time at which mfclab is imported and the configs
# validated; that clock is system-wide, so the parent can subtract its own
# reading taken just before the spawn.
SETUP_PROBE = (
    "import json, sys, time; sys.path.insert(0, sys.argv[1]); import mfclab; "
    "from mfclab.experiments import ExperimentConfig; "
    "[ExperimentConfig(name=n, **knobs).validate() for n, knobs in json.loads(sys.argv[2])]; "
    "print(repr(time.monotonic()))"
)


@dataclass
class Attempt:
    seed: int
    wall_s: float
    cpu_s: float
    error: str = ""
    digests: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.error)


def load_mfclab():
    """Import mfclab from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "mfclab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mfclab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mfclab
    import mfclab.experiments

    if Path(mfclab.__file__).resolve().parent != SRC / "mfclab":
        raise SystemExit(f"perfbench: imported mfclab from {mfclab.__file__}, not from {SRC}")
    return mfclab.experiments


def csv_digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.glob("*.csv"))
    }


def run_once(experiments, workload: str, seed: int, out_dir: Path) -> Attempt:
    """One run of the workload's experiments, timed; the CSV writing is part of it."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cfgs = [
        experiments.ExperimentConfig(name=name, out_dir=str(out_dir / name), seed=seed,
                                     **EXPERIMENT_SIZES[name])
        for name in WORKLOADS[workload]
    ]
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        checks = [check for cfg in cfgs for check in experiments.run_experiment(cfg)]
    except Exception:  # a raising experiment is a failed run; the benchmark goes on
        traceback.print_exc(file=sys.stderr)
        error = "raised " + traceback.format_exc(limit=0).strip()
        return Attempt(seed, time.perf_counter() - t0, time.process_time() - c0, error)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    failing = [c.name for c in checks if not c.passed]
    error = f"failing checks {failing}" if failing or not checks else ""
    return Attempt(seed, wall, cpu, error, {cfg.name: csv_digests(Path(cfg.out_dir)) for cfg in cfgs})


class RunSet:
    """All experiment runs of one benchmark run, with the determinism gate."""

    def __init__(self, experiments, workload: str):
        self.experiments = experiments
        self.workload = workload
        self.attempts: list[Attempt] = []
        self.first_digests: dict[int, dict] = {}
        self.out_dir = OUT / f"{workload}-run"

    def run(self, seed: int) -> Attempt:
        attempt = run_once(self.experiments, self.workload, seed, self.out_dir)
        if not attempt.failed:
            expected = self.first_digests.setdefault(seed, attempt.digests)
            if attempt.digests != expected:
                attempt.error = f"CSV digests differ from the first run at seed {seed}"
        if attempt.failed:
            print(f"perfbench: {self.workload} seed {seed}: {attempt.error}", file=sys.stderr)
        self.attempts.append(attempt)
        return attempt

    @property
    def failed(self) -> int:
        return sum(a.failed for a in self.attempts)


def measure_setup(workload: str) -> list[float]:
    """Wall time from process start to mfclab imported and the configs validated."""
    knobs = [[name, EXPERIMENT_SIZES[name]] for name in WORKLOADS[workload]]
    cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC), json.dumps(knobs)]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.monotonic()
        done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        times.append(float(done.stdout) - t0)
    return times[1:]  # the first spawn fills the bytecode caches


def tail(samples: list[float]) -> float:
    """Highest sample with ten or more samples beyond it (the minimum below 11 samples)."""
    ordered = sorted(samples)
    return ordered[max(0, len(ordered) - 11)]


def csv_drift(reference: dict[str, dict], stored: dict[str, dict]) -> int:
    """CSVs whose digest differs, over the experiments of both digest maps."""
    ref, old = ({(exp, csv): digest for exp, csvs in d.items() for csv, digest in csvs.items()}
                for d in (reference, stored))
    return sum(ref.get(key) != old.get(key) for key in ref.keys() | old.keys())


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "malloc": {"trim_threshold": MALLOC_SETTINGS[0][1], "mmap_threshold": MALLOC_SETTINGS[1][1],
                   "applied": MALLOC_KEPT},
        "platform": platform.platform(),
    }


def timed_runs(runs: RunSet, seed: int, seconds: float) -> list[Attempt]:
    """Repeat the experiment while the next run is expected to end in time."""
    timed: list[Attempt] = []
    start = time.perf_counter()
    while len(timed) < MIN_SAMPLES or (
        time.perf_counter() + statistics.mean(a.wall_s for a in timed) <= start + seconds
    ):
        timed.append(runs.run(seed))
    return timed


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the run record; the caller prints it."""
    experiments = load_mfclab()
    runs = RunSet(experiments, workload)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine()}
    if not trace:
        setup = measure_setup(workload)
        timed = timed_runs(runs, seed, seconds)
        metrics = {
            "wall_s": statistics.median(a.wall_s for a in timed),
            "cpu_s": statistics.median(a.cpu_s for a in timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
        units = dict(END_TO_END)
        record["setup_samples"] = setup
    else:
        warm = runs.run(REFERENCE_SEED)
        all_digests = json.loads(DIGESTS.read_text())
        stored = {name: all_digests.get(name, {}) for name in WORKLOADS[workload]}
        walls = [a.wall_s for a in timed_runs(runs, seed, seconds)]
        tracer = tracing.Tracer(run_id=1)
        with tracing.traced(tracer):
            traced_run = runs.run(seed)
        metrics = tracer.layer_metrics(tracer.run_id)
        metrics.update({
            "experiments.first_iter_s": warm.wall_s,
            "experiments.wall_s_tail": tail(walls),
            "experiments.samples": len(walls),
            "experiments.trace_overhead_s": traced_run.wall_s - statistics.median(walls),
            "report.csv_bytes": sum(p.stat().st_size for p in runs.out_dir.glob("*/*.csv")),
            "report.csv_drift": csv_drift(warm.digests, stored),
        })
        units = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
        record["reference_digests"] = warm.digests
        record["spans"] = tracer.spans()
    shutil.rmtree(runs.out_dir, ignore_errors=True)

    record["attempts"] = [
        {"seed": a.seed, "wall_s": a.wall_s, "cpu_s": a.cpu_s, "error": a.error}
        for a in runs.attempts
    ]
    record["result"] = {
        "correct": runs.failed == 0,
        "attempted": len(runs.attempts),
        "failed": runs.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return record


def print_summary(record: dict) -> None:
    res = record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"runs {res['attempted']}  failed {res['failed']}  "
          f"fail_ratio {res['failed'] / res['attempted']:.4g} ratio")
    for name, m in res["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process, one at a time."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {workload} printed no result (exit {proc.returncode})", file=sys.stderr)
            merged["correct"] = False
            status = status or 1
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))

    record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))
    print_summary(record)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
