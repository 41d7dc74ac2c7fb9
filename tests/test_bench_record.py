"""Tests for tools/bench_record.py, which builds BENCH_<slug>.json records."""
import importlib.util
import json
import os
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(checkout, workload, seed, trace, value, written, failed=0, setup_samples=None):
    out = checkout / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{workload}-seed{seed}-trace{trace}-{written}.json"
    metrics = {name: {"value": value, "unit": "s"} for name in METRICS}
    if trace:
        metrics = {"sde.simulate.calls": {"value": value, "unit": "count"}}
    record = {
        "workload": workload, "seed": seed, "seconds": 55.0, "trace": trace,
        "machine": {"nproc": 2},
        "result": {"correct": not failed, "attempted": 20, "failed": failed, "metrics": metrics},
    }
    if setup_samples is not None:
        record["setup_samples"] = setup_samples
    path.write_text(json.dumps(record))
    os.utime(path, (written, written))


def test_pairs_alternate_and_the_claim_needs_nine_tenths(tmp_path, bench_record, monkeypatch):
    monkeypatch.setattr(bench_record, "git_sha", lambda checkout: checkout.name)
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent_values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    change_values = [5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 20.0]
    clock = 1_000_000
    for i, (p, c) in enumerate(zip(parent_values, change_values)):
        first, second = ((parent, p), (change, c)) if i % 2 == 0 else ((change, c), (parent, p))
        for checkout, value in (first, second):
            clock += 60
            _write(checkout, "consumption", 100 + i, 0, value, clock)
    _write(parent, "consumption", 2024, 1, 21.0, clock + 100)
    _write(change, "consumption", 2024, 1, 21.0, clock + 200)
    _write(change, "consumption", 2024, 1, 23.0, clock + 300, failed=1)

    record = bench_record.build(parent, change, "t", "consumption:wall_s", ["n"])
    w = record["workloads"]["consumption"]
    assert w["seeds"] == list(range(100, 110)) and w["pairs"] == 10
    assert w["first_in_pair"] == ["parent", "change"] * 5
    m = w["metrics"]["wall_s"]
    assert m["parent"]["runs"] == parent_values and m["change"]["runs"] == change_values
    assert m["parent"]["median"] == 14.5 and m["change"]["median"] == 9.5
    assert (m["parent"]["q1"], m["parent"]["q3"]) == (12.25, 16.75)
    assert m["change_wins"] == 9 and m["median_change_rel"] == pytest.approx(9.5 / 14.5 - 1)
    assert w["failed"] == {"parent": 0, "change": 0} and w["attempted"] == {"parent": 200, "change": 200}
    assert w["traced"]["sde.simulate.calls"] == {"parent": 21.0, "change": 22.0}
    assert w["traced_runs"] == {"parent": 1, "change": 2} and w["traced_failed"] == {"parent": 0, "change": 1}
    assert record["claim"]["met"] and record["claim"]["median_gap"] == 5.0
    assert record["git"] == {"parent": "parent", "change": "change"}
    assert record["command"].endswith("--seconds 55 --trace 0") and record["notes"] == ["n"]


def test_a_seed_run_on_one_side_only_is_refused(tmp_path, bench_record):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write(parent, "derivatives", 1, 0, 1.0, 1_000_000)
    _write(parent, "derivatives", 2, 0, 1.0, 1_000_060)
    _write(change, "derivatives", 1, 0, 1.0, 1_000_120)
    with pytest.raises(SystemExit, match=r"derivatives seeds \[2\] ran on one side only"):
        bench_record.build(parent, change, "t", None, [])


def test_a_workload_with_one_pair_is_refused_by_name(tmp_path, bench_record):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, clock in ((1, 1_000_000), (2, 1_000_120)):
        _write(parent, "consumption", seed, 0, 1.0, clock)
        _write(change, "consumption", seed, 0, 1.0, clock + 60)
    _write(parent, "derivatives", 1, 0, 1.0, 1_000_240)
    _write(change, "derivatives", 1, 0, 1.0, 1_000_300)
    with pytest.raises(SystemExit, match=r"bench_record: derivatives has only 1 pair of runs"):
        bench_record.build(parent, change, "t", None, [])


def test_each_metric_gets_its_bound_and_a_no_regression_verdict(tmp_path, bench_record, monkeypatch):
    """worse: the median is worse by more than the bound; unresolved: the
    parent's IQR/median exceeds the bound and the change does not beat every
    parent run; ok otherwise, including a wide parent that every change run
    beats."""
    monkeypatch.setattr(bench_record, "git_sha", lambda checkout: checkout.name)
    parent, change = tmp_path / "parent", tmp_path / "change"
    cases = {
        "worse": ([10.0] * 5, [20.0] * 5),
        "unresolved": ([6.0, 8.0, 10.0, 12.0, 14.0], [7.0, 9.0, 11.0, 9.0, 10.0]),
        "ok": ([10.0, 10.1, 10.2, 10.3, 10.4], [10.4, 10.3, 10.2, 10.1, 10.0]),
        "beats-all": ([6.0, 8.0, 10.0, 12.0, 14.0], [1.0, 2.0, 3.0, 4.0, 5.0]),
    }
    clock = 1_000_000
    for workload, (parent_values, change_values) in cases.items():
        for i, (p, c) in enumerate(zip(parent_values, change_values)):
            _write(parent, workload, 100 + i, 0, p, clock)
            _write(change, workload, 100 + i, 0, c, clock + 60)
            clock += 120

    record = bench_record.build(parent, change, "t", None, [])
    bounds = {"wall_s": 0.25, "cpu_s": 0.25, "peak_rss_mb": 0.1, "setup_s": 0.25}
    for workload in cases:
        metrics = record["workloads"][workload]["metrics"]
        assert {name: m["bound"] for name, m in metrics.items()} == bounds
        expected = "ok" if workload == "beats-all" else workload
        assert {m["verdict"] for m in metrics.values()} == {expected}, workload


def test_setup_samples_pool_in_pair_order(tmp_path, bench_record, monkeypatch):
    """Each side's setup probe spawns, pooled in the order the pairs ran (not
    by seed); a workload where one paired record lacks them gets none."""
    monkeypatch.setattr(bench_record, "git_sha", lambda checkout: checkout.name)
    parent, change = tmp_path / "parent", tmp_path / "change"
    clock = 1_000_000
    for i, seed in enumerate((7, 3, 5)):
        _write(parent, "consumption", seed, 0, 1.0, clock, setup_samples=[0.1 + i, 0.2 + i])
        _write(change, "consumption", seed, 0, 1.0, clock + 60, setup_samples=[0.3 + i])
        _write(parent, "derivatives", seed, 0, 1.0, clock, setup_samples=[0.15])
        _write(change, "derivatives", seed, 0, 1.0, clock + 60, setup_samples=None if i == 1 else [0.25])
        clock += 120

    workloads = bench_record.build(parent, change, "t", None, [])["workloads"]
    assert workloads["consumption"]["seeds"] == [7, 3, 5]
    assert workloads["consumption"]["setup_samples"] == {
        "parent": [0.1, 0.2, 1.1, 1.2, 2.1, 2.2], "change": [0.3, 1.3, 2.3],
    }
    assert "setup_samples" not in workloads["derivatives"]


def test_a_claim_with_a_larger_failed_share_is_not_met(tmp_path, bench_record, monkeypatch):
    """A change that wins every pair but fails a larger share of its runs on
    the claimed workload than the parent does has not met its claim; an
    equal share has."""
    monkeypatch.setattr(bench_record, "git_sha", lambda checkout: checkout.name)
    for parent_failed, change_failed, met in ((0, 1, False), (2, 3, False), (1, 1, True), (2, 0, True)):
        root = tmp_path / f"p{parent_failed}-c{change_failed}"
        parent, change = root / "parent", root / "change"
        clock = 1_000_000
        for i in range(10):
            _write(parent, "derivatives", 100 + i, 0, 20.0 + i, clock,
                   failed=parent_failed if i == 0 else 0)
            _write(change, "derivatives", 100 + i, 0, 10.0 + i, clock + 60,
                   failed=change_failed if i == 0 else 0)
            clock += 120
        claim = bench_record.build(parent, change, "t", "derivatives:peak_rss_mb", [])["claim"]
        assert claim["change_wins"] == 10 and claim["median_gap"] == 10.0
        assert claim["failed_share"] == {"parent": parent_failed / 200, "change": change_failed / 200}
        assert claim["met"] is met, (parent_failed, change_failed)
