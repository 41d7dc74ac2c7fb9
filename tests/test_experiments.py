"""Tests of the `gateaux` runner: its live set, its blocked L^2 error and the
particle count it simulates; and the particle count `law-derivative`
simulates."""
import tracemalloc

import numpy as np
import pytest

import mfclab.experiments as exp
from mfclab.experiments import ExperimentConfig, run_gateaux, run_law_derivative
from mfclab.sde import _time_major


def test_run_gateaux_peak_memory(tmp_path):
    """The L^2 section's tables are gone before the slope check simulates,
    each lambda's paths go before the next lambda's, and the quotient's
    squares are taken one block of rows at a time.  The peak is about 4.3
    of the (N, M+1) tables.  Undoing one of the three gives 7.2, 5.2 and
    6.1; undoing all of them gives 9.3."""
    n, m = 2000, 50
    # a small run first, so that lazy imports are not traced
    run_gateaux(ExperimentConfig(name="gateaux", out_dir=str(tmp_path), n_particles=50, n_steps=5, seed=1))
    cfg = ExperimentConfig(name="gateaux", out_dir=str(tmp_path), n_particles=n, n_steps=m, seed=3)
    tracemalloc.start()
    try:
        checks = run_gateaux(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks)
    assert peak < 5 * n * (m + 1) * 8


def _time_major_normal(gen, n, m):
    out = _time_major(n, m + 1)
    out[...] = gen.standard_normal((n, m + 1))
    return out


@pytest.mark.parametrize(
    "n", [2 * exp._L2_BLOCK_ROWS, 2 * exp._L2_BLOCK_ROWS + 37, exp._L2_BLOCK_ROWS // 3],
    ids=["multiple-of-block", "ragged-last-block", "below-one-block"],
)
def test_blocked_quotient_l2_error_is_bitwise_the_whole_table_expression(n):
    gen = np.random.default_rng(n)
    m, lam, dt = 57, 0.05, 1.0 / 57
    s, b, z = (_time_major_normal(gen, n, m) for _ in range(3))
    whole = float(np.mean(np.sum(np.square((s - b) / lam - z, order="C"), axis=1) * dt))
    assert exp._quotient_l2_error(s, b, z, lam, dt) == whole


def test_gateaux_simulates_the_configured_particle_count(tmp_path, monkeypatch):
    """No silent cap: a config above 10,000 particles simulates all of them."""
    seen = []

    def spy(*args, **kwargs):
        bundle = real_simulate(*args, **kwargs)
        seen.append(bundle.n_particles)
        return bundle

    real_simulate = exp.simulate
    monkeypatch.setattr(exp, "simulate", spy)
    run_gateaux(ExperimentConfig(name="gateaux", out_dir=str(tmp_path), n_particles=10_001, n_steps=4))
    assert seen and set(seen) == {10_001}


def test_law_derivative_simulates_the_configured_particle_count(tmp_path, monkeypatch):
    """No silent cap: the Brownian increment scan of a config above 10,000
    particles simulates all of them."""
    seen = []

    def spy(*args, **kwargs):
        bundle = real_simulate(*args, **kwargs)
        seen.append(bundle.n_particles)
        return bundle

    real_simulate = exp.simulate
    monkeypatch.setattr(exp, "simulate", spy)
    checks = run_law_derivative(
        ExperimentConfig(name="law-derivative", out_dir=str(tmp_path), n_particles=10_001)
    )
    assert all(c.passed for c in checks)
    assert seen and set(seen) == {10_001}
