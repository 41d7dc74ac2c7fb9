#!/usr/bin/env python3
"""sha256 digests of every catalogue experiment's CSVs and check lines.

    python3 tools/catalogue_digests.py SEED [SEED ...]

Imports ``mfclab`` from this checkout's ``src``, runs every entry of
``mfclab.experiments.CATALOGUE`` at the default config and each seed, each
run in its own temporary directory, and prints one JSON object::

    {"<seed>": {"<experiment>": {"csv": {"<file>": sha256, ...},
                                 "check_lines": sha256}}}

``check_lines`` digests the check lines as ``mfclab run`` prints them
(``CheckResult.line()``, one per check).  A run that raises ends the tool
with its traceback and a non-zero exit.  Run it in two checkouts and compare
the outputs to show that a change keeps every full-size output byte for
byte, where ``tests/test_golden_csv.py`` pins small runs at one seed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import mfclab.experiments as experiments  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def experiment_digests(name: str, seed: int) -> dict:
    """The digests of one experiment's run at the default config and ``seed``."""
    with tempfile.TemporaryDirectory() as out_dir:
        cfg = experiments.ExperimentConfig(name=name, out_dir=out_dir, seed=seed)
        checks = experiments.run_experiment(cfg)
        csvs = {path.name: _sha256(path.read_bytes()) for path in sorted(Path(out_dir).glob("*.csv"))}
    return {"csv": csvs, "check_lines": _sha256("".join(c.line() + "\n" for c in checks).encode())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int, metavar="SEED")
    args = parser.parse_args(argv)
    if Path(experiments.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"catalogue_digests: imported mfclab from {experiments.__file__}, not from {SRC}")
    record = {
        str(seed): {name: experiment_digests(name, seed) for name in experiments.CATALOGUE}
        for seed in args.seeds
    }
    print(json.dumps(record, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
