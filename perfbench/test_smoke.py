"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import tracing  # noqa: E402

# Small enough to run in seconds, large enough that every check passes.
TINY = {"gateaux": {"n_particles": 2000, "n_steps": 50}, "law-derivative": {"n_particles": 2000}}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "EXPERIMENT_SIZES", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.LAYER_METRICS
    ]
    # the gated workloads exist; the single-experiment ones run on request
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {exp for exps in run.WORKLOADS.values() for exp in exps} == set(run.EXPERIMENT_SIZES)
    assert sorted(run.EXPERIMENT_SIZES) == sorted(json.loads((BENCH / "digests.json").read_text()))


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tiny, trace):
    result = run.bench("gateaux", seed=7, seconds=0, trace=bool(trace))["result"]
    expected = (
        dict(run.END_TO_END) if trace == 0
        else {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
    )
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    # traced: a warm-up at the reference seed, the timed runs, one traced run
    assert result["attempted"] == run.MIN_SAMPLES + 2 * trace


def test_self_times_fit_in_the_traced_wall_time(tiny):
    record = run.bench("gateaux", seed=7, seconds=0, trace=True)
    metrics = {k: m["value"] for k, m in record["result"]["metrics"].items()}
    traced_wall = record["attempts"][-1]["wall_s"]
    self_times = [v for k, v in metrics.items() if k.endswith(".self_s")]
    assert all(v >= 0.0 for v in self_times)
    assert 0.0 < sum(self_times) <= traced_wall
    assert metrics["sde.simulate.calls"] > 0 and metrics["lawproc.empirical_law.calls"] > 0
    # every span of every name, not just the reported ones, fits as well
    roots = [s for s in record["spans"] if s["parent"] < 0]
    assert sum(s["end"] - s["start"] for s in roots) <= traced_wall
    # the wrappers are gone once the traced run ends
    import mfclab.game
    import mfclab.sde

    assert mfclab.game.simulate is mfclab.sde.simulate
    assert not hasattr(mfclab.sde.simulate, "__wrapped__")


def test_a_workload_runs_each_of_its_experiments(tiny):
    record = run.bench("derivatives", seed=7, seconds=0, trace=True)
    metrics = {k: m["value"] for k, m in record["result"]["metrics"].items()}
    assert record["result"]["correct"]
    assert sorted(record["reference_digests"]) == ["gateaux", "law-derivative"]
    assert metrics["measures.fourier.calls"] > 0 and metrics["game.gateaux_check.incl_s"] > 0
    assert metrics["report.csv_drift"] > 0  # tiny sizes cannot match the stored digests


def test_forced_failure_raises_fail_ratio_and_exit_code(tmp_path):
    """Wrap the runner from outside so that it returns a failing check."""
    script = textwrap.dedent(f"""
        import sys
        from pathlib import Path
        sys.path.insert(0, {str(BENCH)!r})
        import run
        run.EXPERIMENT_SIZES = {TINY!r}
        run.OUT = Path({str(tmp_path)!r})
        run.SETUP_REPEATS = 1
        experiments = run.load_mfclab()
        from mfclab.report import CheckResult
        original = experiments.EXPERIMENTS["gateaux"]
        experiments.EXPERIMENTS["gateaux"] = lambda cfg: original(cfg) + [
            CheckResult("forced-failure", 1.0, 0.0, False)]
        sys.exit(run.main(["--workload", "gateaux", "--seconds", "0"]))
    """)
    proc = subprocess.run([sys.executable, "-c", script], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] / result["attempted"] == 1.0
    assert "fail_ratio 1 ratio" in proc.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gateaux", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
