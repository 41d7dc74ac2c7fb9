"""Byte-identity gate: small seeded runs of the whole catalogue against frozen digests.

Every experiment runs at seed 2024 with N=500, M=40 and 16 quadrature nodes,
and the sha256 of each CSV it writes must equal the digest recorded in
``golden_csv.json``.  Only digests are compared: at these sizes some checks
(``law-derivative``'s oracles) fail by design, and that is not what this
gate guards.  The digests depend on numpy's rounding, so the test skips on
a numpy other than the one that recorded them.

Regenerate the fixture, only for a change meant to move the numbers, with

    PYTHONPATH=src python tests/test_golden_csv.py
"""
import hashlib
import json
import os
import pathlib
import sys

import numpy as np
import pytest

from mfclab.experiments import EXPERIMENTS, ExperimentConfig, run_experiment

GOLDEN = pathlib.Path(__file__).with_name("golden_csv.json")
KNOBS = dict(seed=2024, n_particles=500, n_steps=40, quad_n=16)


def csv_digests(out_root) -> dict[str, str]:
    """sha256 of every CSV the catalogue writes, keyed ``experiment/file``."""
    digests = {}
    for name in EXPERIMENTS:
        out_dir = os.path.join(out_root, name)
        run_experiment(ExperimentConfig(name=name, out_dir=out_dir, **KNOBS))
        for fname in sorted(os.listdir(out_dir)):
            if fname.endswith(".csv"):
                data = pathlib.Path(out_dir, fname).read_bytes()
                digests[f"{name}/{fname}"] = hashlib.sha256(data).hexdigest()
    return digests


def test_catalogue_csvs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests recorded with numpy {golden['numpy']}, running numpy {np.__version__}")
    digests = csv_digests(tmp_path)
    assert sorted(digests) == sorted(golden["digests"])
    changed = [key for key, digest in digests.items() if golden["digests"][key] != digest]
    assert not changed, f"CSV bytes changed: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        record = {"numpy": np.__version__, "knobs": KNOBS, "digests": csv_digests(root)}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record['digests'])} digests to {GOLDEN}", file=sys.stderr)
