#!/usr/bin/env python3
"""Build a ``BENCH_<slug>.json`` benchmark record from two checkouts' perfbench runs.

Run ``perfbench/run.py`` in a checkout of the parent commit and in one of
the change, one run at a time, alternating which side runs first, one seed
per pair and the same ``--seconds`` on both sides.  Then, from the
repository root:

    python3 tools/bench_record.py PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --slug shared-atoms --title "..." --claim consumption:peak_rss_mb \\
        --note "..." --note "..."

This reads every ``perfbench/out/*.json`` run record of both checkouts.
Untraced records (``--trace 0``) pair up by workload and seed; every seed
must have run on both sides, and each workload needs at least two pairs.  For each end-to-end metric that
``BENCHMARK.json`` names, the record holds each side's runs, median and
quartiles (inclusive method), the change's pair wins (strictly better, in
the metric's direction), the relative change of the median, the metric's
``bound`` from ``BENCHMARK.json`` and a no-regression ``verdict`` (see
``verdict``).  It also pools each side's ``setup_samples`` (the setup
probe's spawns, several per run) in pair order, so a ``setup_s`` verdict can
be read against the probe's spread; a workload where some paired record
lacks them has none.  The side
whose record was written first in a pair (file times) ran first.  Traced records
(``--trace 1``; rename repeated ones so they do not overwrite each other)
give the medians of every traced metric per side.  A ``--claim`` is met when
the change wins at least nine tenths of the pairs, its median is better
than the parent's by more than the parent's interquartile range, and its
share of failed runs (failed / attempted over the claimed workload's
pairs) is no larger than the parent's.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
WIN_SHARE = 0.9


def load_records(checkout: Path) -> list[dict]:
    """Every run record under the checkout's ``perfbench/out``, with the
    time it was written as ``_written``."""
    paths = sorted((checkout / "perfbench" / "out").glob("*.json"))
    if not paths:
        raise SystemExit(f"bench_record: no run records under {checkout / 'perfbench' / 'out'}")
    return [{**json.loads(path.read_text()), "_written": path.stat().st_mtime} for path in paths]


def git_sha(checkout: Path) -> str:
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          check=True, stdout=subprocess.PIPE, text=True)
    return done.stdout.strip()


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": runs}


def verdict(spec: dict, parent: dict, change: dict) -> str:
    """``worse`` when the change's median is worse than the parent's by more
    than the metric's relative ``bound``; else ``unresolved`` when the
    parent's IQR/median exceeds the bound and not every change run beats
    every parent run; else ``ok``."""
    lower, bound = spec["better"] == "lower", spec["bound"]
    rel = change["median"] / parent["median"] - 1.0
    if (rel if lower else -rel) > bound:
        return "worse"
    if lower:
        beats_all = max(change["runs"]) < min(parent["runs"])
    else:
        beats_all = min(change["runs"]) > max(parent["runs"])
    if parent["iqr"] / parent["median"] > bound and not beats_all:
        return "unresolved"
    return "ok"


def pair_up(records: dict[str, list[dict]], workload: str) -> list[tuple[int, dict[str, dict]]]:
    """(seed, {side: record}) per seed, in the order the pairs ran."""
    by_seed = {
        side: {r["seed"]: r for r in recs if r["workload"] == workload and not r["trace"]}
        for side, recs in records.items()
    }
    seeds = by_seed["parent"].keys() | by_seed["change"].keys()
    unpaired = sorted(s for s in seeds if not (s in by_seed["parent"] and s in by_seed["change"]))
    if unpaired:
        raise SystemExit(f"bench_record: {workload} seeds {unpaired} ran on one side only")
    ordered = sorted(seeds, key=lambda s: by_seed["parent"][s]["_written"])
    return [(s, {side: by_seed[side][s] for side in SIDES}) for s in ordered]


def workload_record(records: dict[str, list[dict]], workload: str, metrics: list[dict]) -> dict:
    pairs = pair_up(records, workload)
    if len(pairs) < 2:
        raise SystemExit(
            f"bench_record: {workload} has only {len(pairs)} pair of runs; quartiles need two"
        )
    out: dict = {"seeds": [seed for seed, _ in pairs], "pairs": len(pairs), "metrics": {}}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        runs = {side: [recs[side]["result"]["metrics"][name]["value"] for _, recs in pairs]
                for side in SIDES}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(runs["parent"], runs["change"]))
        parent, change = summary(runs["parent"]), summary(runs["change"])
        out["metrics"][name] = {
            "unit": spec["unit"], "parent": parent, "change": change, "change_wins": wins,
            "median_change_rel": change["median"] / parent["median"] - 1.0,
            "bound": spec["bound"], "verdict": verdict(spec, parent, change),
        }
    for key in ("failed", "attempted"):
        out[key] = {side: sum(recs[side]["result"][key] for _, recs in pairs) for side in SIDES}
    if all("setup_samples" in recs[side] for _, recs in pairs for side in SIDES):
        out["setup_samples"] = {side: [s for _, recs in pairs for s in recs[side]["setup_samples"]]
                                for side in SIDES}
    out["first_in_pair"] = [min(SIDES, key=lambda side: recs[side]["_written"]) for _, recs in pairs]
    traced = {side: [r for r in recs if r["workload"] == workload and r["trace"]]
              for side, recs in records.items()}
    if traced["parent"] and traced["change"]:
        names = traced["parent"][0]["result"]["metrics"].keys()
        out["traced_seeds"] = sorted({r["seed"] for recs in traced.values() for r in recs})
        out["traced"] = {
            name: {side: statistics.median(r["result"]["metrics"][name]["value"] for r in recs)
                   for side, recs in traced.items()}
            for name in names
        }
        out["traced_runs"] = {side: len(recs) for side, recs in traced.items()}
        out["traced_failed"] = {side: sum(r["result"]["failed"] for r in recs)
                                for side, recs in traced.items()}
    return out


def claim_record(workloads: dict, claim: str, metrics: list[dict]) -> dict:
    workload, _, metric = claim.partition(":")
    if workload not in workloads or metric not in workloads[workload]["metrics"]:
        raise SystemExit(f"bench_record: no runs for the claimed {claim!r}")
    m = workloads[workload]["metrics"][metric]
    lower = next(s["better"] for s in metrics if s["name"] == metric) == "lower"
    gap = m["parent"]["median"] - m["change"]["median"]
    gap = gap if lower else -gap
    pairs = workloads[workload]["pairs"]
    failed, attempted = workloads[workload]["failed"], workloads[workload]["attempted"]
    failed_share = {side: failed[side] / attempted[side] if attempted[side] else 0.0 for side in SIDES}
    return {
        "workload": workload, "metric": metric, "unit": m["unit"],
        "change_wins": m["change_wins"], "pairs": pairs,
        "median_gap": gap, "parent_iqr": m["parent"]["iqr"], "failed_share": failed_share,
        "met": (m["change_wins"] >= WIN_SHARE * pairs and gap > m["parent"]["iqr"]
                and failed_share["change"] <= failed_share["parent"]),
    }


def build(parent: Path, change: Path, title: str, claim: str | None, notes: list[str]) -> dict:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    records = {"parent": load_records(parent), "change": load_records(change)}
    untraced = [r for recs in records.values() for r in recs if not r["trace"]]
    if not untraced:
        raise SystemExit("bench_record: no untraced (--trace 0) run records")
    seconds = {r["seconds"] for r in untraced}
    if len(seconds) > 1:
        raise SystemExit(f"bench_record: runs differ in --seconds: {sorted(seconds)}")
    names = sorted({r["workload"] for r in untraced})
    workloads = {name: workload_record(records, name, metrics) for name in names}
    out = {
        "title": title,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds.pop():g} --trace 0",
        "method": "parent and change checkouts side by side, one run at a time, alternating which "
                  "side runs first in each pair; each pair uses one seed on both sides; medians and "
                  "quartiles (inclusive method) over the pairs; a pair win is the change's metric "
                  "strictly better; traced columns are medians of the --trace 1 runs per side",
        "git": {"parent": git_sha(parent), "change": git_sha(change)},
        "workloads": workloads,
    }
    if claim:
        out["claim"] = claim_record(workloads, claim, metrics)
    out["machine"] = records["change"][0]["machine"]
    out["notes"] = notes
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--slug", required=True, help="writes BENCH_<slug>.json")
    parser.add_argument("--title", required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC of the claimed gain")
    parser.add_argument("--note", action="append", default=[])
    args = parser.parse_args(argv)
    record = build(args.parent, args.change, args.title, args.claim, args.note)
    path = Path(f"BENCH_{args.slug}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
