"""Tests for tools/catalogue_digests.py, which digests the whole catalogue at full size."""
import hashlib
import importlib.util
import json
import pathlib

import pytest

from mfclab.experiments import CATALOGUE, ExperimentConfig, run_experiment

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "catalogue_digests.py"
FAST = ("norms", "bsde-oracles")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("catalogue_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_digests_are_those_of_a_default_run(tool, tmp_path, monkeypatch, capsys):
    """One JSON object per seed and experiment: the sha256 of each CSV and of
    the printed check lines of a run at the default config."""
    monkeypatch.setattr(tool.experiments, "CATALOGUE", {name: CATALOGUE[name] for name in FAST})
    assert tool.main(["2024", "7"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert sorted(record) == ["2024", "7"]
    for seed in (2024, 7):
        assert sorted(record[str(seed)]) == sorted(FAST)
        for name in FAST:
            out_dir = tmp_path / f"{name}-{seed}"
            checks = run_experiment(ExperimentConfig(name=name, out_dir=str(out_dir), seed=seed))
            csvs = {path.name: _sha256(path.read_bytes()) for path in out_dir.glob("*.csv")}
            lines = _sha256("".join(c.line() + "\n" for c in checks).encode())
            assert record[str(seed)][name] == {"csv": csvs, "check_lines": lines}
    # the seed reaches the CSV trailers
    assert record["2024"]["norms"]["csv"] != record["7"]["norms"]["csv"]


def test_a_run_that_raises_ends_the_tool(tool, monkeypatch):
    def blows_up(cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(tool.experiments, "CATALOGUE", {"norms": CATALOGUE["norms"]})
    monkeypatch.setitem(tool.experiments.EXPERIMENTS, "norms", blows_up)
    with pytest.raises(RuntimeError, match="boom"):
        tool.main(["2024"])
