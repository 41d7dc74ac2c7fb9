"""Byte-identity gate: small seeded runs of the whole catalogue against frozen digests.

Every experiment runs at seed 2024 with N=500, M=40 and 16 quadrature nodes.
The sha256 of each CSV it writes, and of the check lines it prints
(``CheckResult.line()``, one per check), must equal the digests recorded in
``golden_csv.json``: thresholds and details such as the Gateaux tolerance
appear in no CSV.  Only digests are compared: at these sizes some checks
(``law-derivative``'s oracles) fail by design, and that is not what this
gate guards.  The digests depend on numpy's rounding, so the tests skip on
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

from mfclab.experiments import CATALOGUE, ExperimentConfig, run_experiment

GOLDEN = pathlib.Path(__file__).with_name("golden_csv.json")
KNOBS = dict(seed=2024, n_particles=500, n_steps=40, quad_n=16)


def catalogue_digests(out_root) -> tuple[dict[str, str], dict[str, str]]:
    """sha256 of every CSV the catalogue writes, keyed ``experiment/file``,
    and of each experiment's printed check lines, keyed by experiment."""
    csvs, check_lines = {}, {}
    for name in CATALOGUE:
        out_dir = os.path.join(out_root, name)
        checks = run_experiment(ExperimentConfig(name=name, out_dir=out_dir, **KNOBS))
        printed = "".join(c.line() + "\n" for c in checks).encode()
        check_lines[name] = hashlib.sha256(printed).hexdigest()
        for fname in sorted(os.listdir(out_dir)):
            if fname.endswith(".csv"):
                data = pathlib.Path(out_dir, fname).read_bytes()
                csvs[f"{name}/{fname}"] = hashlib.sha256(data).hexdigest()
    return csvs, check_lines


@pytest.fixture(scope="module")
def golden_and_run(tmp_path_factory):
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests recorded with numpy {golden['numpy']}, running numpy {np.__version__}")
    return golden, catalogue_digests(tmp_path_factory.mktemp("catalogue"))


def test_catalogue_csvs_match_golden_digests(golden_and_run):
    golden, (digests, _) = golden_and_run
    assert sorted(digests) == sorted(golden["digests"])
    changed = [key for key, digest in digests.items() if golden["digests"][key] != digest]
    assert not changed, f"CSV bytes changed: {changed}"


def test_catalogue_check_lines_match_golden_digests(golden_and_run):
    golden, (_, digests) = golden_and_run
    assert sorted(digests) == sorted(golden["check_lines"])
    changed = [name for name, digest in digests.items() if golden["check_lines"][name] != digest]
    assert not changed, f"printed check lines changed: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        csvs, check_lines = catalogue_digests(root)
    record = {"numpy": np.__version__, "knobs": KNOBS, "digests": csvs, "check_lines": check_lines}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(csvs)} CSV and {len(check_lines)} check-line digests to {GOLDEN}", file=sys.stderr)
