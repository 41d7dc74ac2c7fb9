"""Tests of the `gateaux` runner: its live set, its blocked L^2 error and the
particle count it simulates; and the particle count `law-derivative`
simulates."""
import tracemalloc

import numpy as np
import pytest

import mfclab.experiments as exp
from mfclab.experiments import ExperimentConfig, run_gateaux, run_law_derivative
from mfclab.lawproc import LevyMeasure
from mfclab.sde import _time_major, draw_noise


def test_run_gateaux_peak_memory(tmp_path):
    """The L^2 section simulates one row half of its bank at a time, its
    tables are gone before the slope check simulates, each lambda's paths go
    before the next lambda's, and the quotient's squares are taken one block
    of rows at a time.  The slope check also runs on two row halves of its
    bank.  The peak is about 2.86 of the (N, M+1) tables, set by the L^2
    section.  The slope check on the whole bundle gives 3.19, the L^2
    section on its whole bank 4.35, whole tables of squares 4.19, and both
    7.17."""
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
    assert peak < 3 * n * (m + 1) * 8


def _time_major_normal(gen, n, m):
    out = _time_major(n, m + 1)
    out[...] = gen.standard_normal((n, m + 1))
    return out


@pytest.mark.parametrize(
    "n", [2 * exp._L2_BLOCK_ROWS, 2 * exp._L2_BLOCK_ROWS + 37, exp._L2_BLOCK_ROWS // 3],
    ids=["multiple-of-block", "ragged-last-block", "below-one-block"],
)
def test_blocked_quotient_l2_error_is_bitwise_the_whole_table_expression(n):
    """Blocked row sums, whole or written by two row halves, give the
    whole-table L^2 error bit for bit."""
    gen = np.random.default_rng(n)
    m, lam, dt = 57, 0.05, 1.0 / 57
    s, b, z = (_time_major_normal(gen, n, m) for _ in range(3))
    whole = float(np.mean(np.sum(np.square((s - b) / lam - z, order="C"), axis=1) * dt))
    per_path = np.empty(n)
    exp._quotient_row_sums(s, b, z, lam, per_path)
    assert float(np.mean(per_path * dt)) == whole
    halves = np.empty(n)
    for rows in (slice(0, (n + 1) // 2), slice((n + 1) // 2, n)):
        exp._quotient_row_sums(s[rows], b[rows], z[rows], lam, halves[rows])
    assert halves.tobytes() == per_path.tobytes()
    assert float(np.mean(halves * dt)) == whole


def test_gateaux_simulates_the_configured_particle_count(tmp_path, monkeypatch):
    """No silent cap: a config above 10,000 particles simulates all of them.
    Each lambda's L^2 paths, and the slope check's candidate, run on two
    row halves of one bank, which together are every row of it in order."""
    n = 10_001
    lam_of = {}
    banks = {lam: [] for lam in exp._GATEAUX_LAMBDAS}
    slope = []

    def perturbed_spy(controls, direction, lam):
        shifted = real_perturbed(controls, direction, lam)
        # keep the pair alive, so that no later object reuses its id
        lam_of[id(shifted)] = lam, shifted
        return shifted

    def simulate_spy(model, controls, *args, **kwargs):
        bundle = real_simulate(model, controls, *args, **kwargs)
        if id(controls) in lam_of:
            banks[lam_of[id(controls)][0]].append(bundle.noise)
        elif model.levy is None:
            slope.append(bundle.noise)
        return bundle

    real_simulate, real_perturbed = exp.simulate, exp.perturbed_controls
    monkeypatch.setattr(exp, "simulate", simulate_spy)
    monkeypatch.setattr(exp, "perturbed_controls", perturbed_spy)
    cfg = ExperimentConfig(name="gateaux", out_dir=str(tmp_path), n_particles=n, n_steps=4)
    run_gateaux(cfg)
    full = draw_noise(cfg.seed, n, cfg.n_steps, 1.0, LevyMeasure([0.1], [0.5]))
    for lam, halves in banks.items():
        assert [h.n_particles for h in halves] == [5_001, 5_000], lam
        assert np.concatenate([h.dB for h in halves]).tobytes() == full.dB.tobytes(), lam
    assert [h.n_particles for h in slope] == [5_001, 5_000]
    slope_bank = draw_noise(cfg.seed + 1, n, cfg.n_steps, 1.0)
    assert np.concatenate([h.dB for h in slope]).tobytes() == slope_bank.dB.tobytes()


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
