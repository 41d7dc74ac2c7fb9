"""Tests for particle simulation: Euler scheme, CRN, derivative process."""
import math

import numpy as np
import pytest

from mfclab.bsde import LinearBsdeSpec, simulate_gamma
from mfclab.lawproc import LevyMeasure
from mfclab.measures import DiscreteMeasure
from mfclab.sde import (
    ControlPair,
    ControlledModel,
    Direction,
    InadmissiblePerturbation,
    InfoPattern,
    PerformanceSpec,
    SimulationError,
    draw_noise,
    evaluate_performance,
    iter_steps,
    performance_samples,
    perturbed_controls,
    simulate,
    simulate_derivative_process,
)

N_FAST = 2000


def trivial_controls(u=0.0):
    return ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(0.0),
        scalar_ctrl=lambda t, info: u,
    )


def test_zero_dynamics_constant_paths():
    model = ControlledModel(
        drift=lambda t, x, mu, u, s: np.zeros_like(x),
        vol=lambda t, x, mu, u, s: np.zeros_like(x),
        jump=lambda t, x, mu, u, z, s: np.zeros_like(x),
        levy=LevyMeasure([0.5], [1.0]),
        x0=1.5,
        horizon=1.0,
    )
    bundle = simulate(model, trivial_controls(), 100, 20, seed=0)
    assert np.all(bundle.states == 1.5)
    law = bundle.law_at(10)
    assert law.n_atoms == 1 and law.locations[0] == 1.5


def test_bitwise_determinism():
    model = ControlledModel(
        drift=lambda t, x, mu, u, s: 0.1 * x,
        vol=lambda t, x, mu, u, s: 0.2 * x,
        jump=lambda t, x, mu, u, z, s: z * x,
        levy=LevyMeasure([0.1, -0.05], [0.5, 0.3]),
        x0=1.0,
        horizon=1.0,
    )
    b1 = simulate(model, trivial_controls(), 500, 50, seed=77)
    b2 = simulate(model, trivial_controls(), 500, 50, seed=77)
    assert np.array_equal(b1.states, b2.states)
    assert np.array_equal(b1.noise.dB, b2.noise.dB)
    assert np.array_equal(b1.noise.ev_step, b2.noise.ev_step)


def test_time_major_layout_keeps_public_shapes():
    """Per-step columns are contiguous; shapes and the seeded draw are unchanged."""
    n, m, seed = 300, 20, 17
    levy = LevyMeasure([0.2, -0.1], [0.5, 1.0])
    model = ControlledModel(
        drift=lambda t, x, mu, u, s: 0.1 * x,
        vol=lambda t, x, mu, u, s: 0.2 * x,
        jump=lambda t, x, mu, u, z, s: z * x,
        levy=levy,
        x0=1.0,
        horizon=1.0,
    )
    ctrl = trivial_controls()
    bundle = simulate(model, ctrl, n, m, seed)
    noise = bundle.noise
    z = simulate_derivative_process(
        bundle, model, ctrl, Direction(kind="measure", measure=DiscreteMeasure.dirac(0.0))
    )
    spec = LinearBsdeSpec(
        phi=lambda t, ctx: 0.0,
        alpha=lambda t, ctx: 0.1,
        beta=lambda t, ctx: 0.3,
        jump_phi=lambda t, zeta, ctx: zeta,
        terminal=lambda ctx: 1.0,
        levy=levy,
    )
    gam = simulate_gamma(spec, bundle)
    brownian = bundle.brownian_levels()
    for name, arr, shape in (
        ("states", bundle.states, (n, m + 1)),
        ("dB", noise.dB, (n, m)),
        ("derivative", z, (n, m + 1)),
        ("gamma", gam, (n, m + 1)),
        ("brownian", brownian, (n, m + 1)),
    ):
        assert arr.shape == shape, name
        for k in (0, shape[1] // 2, shape[1] - 1):
            assert arr[:, k].flags.c_contiguous, (name, k)
    draw = np.random.Generator(np.random.Philox(key=seed)).standard_normal((n, m))
    expected = draw * math.sqrt(1.0 / m)
    assert noise.dB.tobytes() == expected.tobytes()
    assert np.array_equal(brownian[:, 1:], np.cumsum(expected, axis=1))
    assert np.all(brownian[:, 0] == 0.0)


def test_crn_zero_perturbation_identity():
    """Re-simulating on a bundle's noise with identical controls is bitwise equal."""
    model = ControlledModel(
        drift=lambda t, x, mu, u, s: (mu.mass_on(0, 2) - u) * x,
        vol=lambda t, x, mu, u, s: 0.2 * x,
        x0=1.0,
        horizon=1.0,
    )
    ctrl = ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(1.0, 0.4),
        scalar_ctrl=lambda t, info: 0.1,
    )
    base = simulate(model, ctrl, 300, 40, seed=5)
    direction = Direction(kind="control", t0=0.0, scalar=1.0)
    again = simulate(model, perturbed_controls(ctrl, direction, 0.0), 300, 40, seed=5, noise=base.noise)
    assert np.array_equal(base.states, again.states)


def test_geometric_mean_oracle():
    """E[X_T] = x0 e^{aT} for geometric dynamics."""
    a, s = 0.1, 0.2
    model = ControlledModel(
        drift=lambda t, x, mu, u, sc: a * x,
        vol=lambda t, x, mu, u, sc: s * x,
        x0=1.0,
        horizon=1.0,
    )
    bundle = simulate(model, trivial_controls(), 20_000, 100, seed=3)
    xt = bundle.states[:, -1]
    z = (xt.mean() - math.exp(a)) / (xt.std(ddof=1) / math.sqrt(xt.size))
    assert abs(z) <= 3.0


def test_consumption_drift_oracle():
    """Constant mass c and rate r: E[X_T] = x0 e^{(c - r) T}."""
    c, r = 0.3, 0.1
    model = ControlledModel(
        drift=lambda t, x, mu, u, sc: (mu.mass_on(0.0, 2.0) - u) * x,
        vol=lambda t, x, mu, u, sc: 0.2 * x,
        jump=lambda t, x, mu, u, z, sc: z * x,
        levy=LevyMeasure([0.1], [0.5]),
        x0=1.0,
        horizon=1.0,
    )
    ctrl = ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(1.0, c),
        scalar_ctrl=lambda t, info: r,
    )
    bundle = simulate(model, ctrl, 20_000, 100, seed=8)
    xt = bundle.states[:, -1]
    z = (xt.mean() - math.exp(c - r)) / (xt.std(ddof=1) / math.sqrt(xt.size))
    assert abs(z) <= 3.0


def test_compensated_jumps_preserve_mean():
    model = ControlledModel(
        drift=lambda t, x, mu, u, s: np.zeros_like(x),
        vol=lambda t, x, mu, u, s: np.zeros_like(x),
        jump=lambda t, x, mu, u, z, s: 0.3 * x,
        levy=LevyMeasure([1.0], [1.0]),
        x0=1.0,
        horizon=1.0,
    )
    bundle = simulate(model, trivial_controls(), 20_000, 100, seed=10)
    xt = bundle.states[:, -1]
    z = (xt.mean() - 1.0) / (xt.std(ddof=1) / math.sqrt(xt.size))
    assert abs(z) <= 3.0


def test_simulation_error_names_step_and_particle():
    def bad_drift(t, x, mu, u, s):
        out = np.zeros_like(x)
        if t >= 0.3:
            out[7] = np.inf
        return out

    model = ControlledModel(drift=bad_drift, vol=lambda t, x, mu, u, s: np.zeros_like(x), x0=0.0, horizon=1.0)
    with pytest.raises(SimulationError, match=r"step 3.*particle 7"):
        simulate(model, trivial_controls(), 10, 10, seed=1)


def test_empirical_mu_mode_feeds_previous_law():
    """Coefficients in empirical mode see the cross-sectional law, not the control."""
    seen = []

    def drift(t, x, mu, u, s):
        seen.append(mu.total_mass())
        return np.zeros_like(x)

    model = ControlledModel(drift=drift, vol=lambda t, x, mu, u, s: np.zeros_like(x), x0=2.0, horizon=1.0)
    ctrl = ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(0.0, 5.0),  # mass 5 control
        scalar_ctrl=lambda t, info: 0.0,
    )
    simulate(model, ctrl, 10, 3, seed=0, mu_mode="empirical")
    assert seen and all(v == pytest.approx(1.0) for v in seen)


def test_empirical_bundle_replays_its_own_law():
    """An empirical-mode bundle records its mode and replays the law as mu_coeff."""
    model = ControlledModel(
        drift=lambda t, x, mu, u, s: mu.mass_on(0.0, 2.0) - x,
        vol=lambda t, x, mu, u, s: 0.3 * np.ones_like(x),
        x0=1.0,
        horizon=1.0,
    )
    ctrl = trivial_controls()
    bundle = simulate(model, ctrl, 50, 8, seed=4, mu_mode="empirical")
    assert bundle.mu_mode == "empirical"
    steps = list(iter_steps(bundle, ctrl))
    assert [sv.k for sv in steps] == list(range(8))
    for sv in steps:
        assert sv.mu_coeff is bundle.law_at(sv.k)
        assert sv.law is bundle.law_at(sv.k)
    assert simulate(model, ctrl, 50, 8, seed=4).mu_mode == "exogenous"


def test_delay_pattern_sees_lagged_state():
    observed = {}

    def u_ctrl(t, info):
        observed[round(t, 6)] = info.t
        return 0.0

    model = ControlledModel(
        drift=lambda t, x, mu, u, s: np.ones_like(x),
        vol=lambda t, x, mu, u, s: np.zeros_like(x),
        x0=0.0,
        horizon=1.0,
    )
    ctrl = ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(0.0),
        scalar_ctrl=u_ctrl,
        u_info=InfoPattern(kind="delay", delay=0.2),
    )
    simulate(model, ctrl, 4, 10, seed=0)
    assert observed[0.0] == 0.0
    assert observed[0.5] == pytest.approx(0.3)
    assert observed[0.9] == pytest.approx(0.7)


def test_info_pattern_validation():
    with pytest.raises(ValueError):
        InfoPattern(kind="full", delay=0.1)
    with pytest.raises(ValueError):
        InfoPattern(kind="psychic")


# -- performance functionals ----------------------------------------------------

def test_performance_constants():
    model = ControlledModel(
        drift=lambda t, x, mu, u, s: np.zeros_like(x),
        vol=lambda t, x, mu, u, s: np.zeros_like(x),
        x0=0.0,
        horizon=1.0,
    )
    bundle = simulate(model, trivial_controls(), 50, 25, seed=0)
    perf_g = PerformanceSpec(
        running=lambda t, x, m, mu, u, s: np.zeros_like(x),
        terminal=lambda x, m, s: np.ones_like(x),
    )
    assert evaluate_performance(bundle, trivial_controls(), perf_g) == (1.0, 0.0)
    perf_l = PerformanceSpec(
        running=lambda t, x, m, mu, u, s: np.ones_like(x),
        terminal=lambda x, m, s: np.zeros_like(x),
    )
    est, se = evaluate_performance(bundle, trivial_controls(), perf_l)
    assert est == pytest.approx(1.0, abs=1e-12)  # left Riemann sum of 1 over [0, T]
    assert se == 0.0


def test_performance_nan_raises():
    model = ControlledModel(
        drift=lambda t, x, mu, u, s: np.zeros_like(x),
        vol=lambda t, x, mu, u, s: np.zeros_like(x),
        x0=0.0,
        horizon=1.0,
    )
    bundle = simulate(model, trivial_controls(), 5, 5, seed=0)
    perf = PerformanceSpec(
        running=lambda t, x, m, mu, u, s: np.zeros_like(x),
        terminal=lambda x, m, s: np.log(x),  # log(0) = -inf
    )
    with np.errstate(divide="ignore"), pytest.raises(SimulationError):
        evaluate_performance(bundle, trivial_controls(), perf)


def test_inadmissible_perturbation_raises():
    model = ControlledModel(
        drift=lambda t, x, mu, u, s: np.zeros_like(x),
        vol=lambda t, x, mu, u, s: np.zeros_like(x),
        x0=0.0,
        horizon=1.0,
    )
    ctrl = ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(0.0),
        scalar_ctrl=lambda t, info: 0.1,
        u_bounds=(0.0, math.inf),
    )
    bad = perturbed_controls(ctrl, Direction(kind="control", t0=0.0, scalar=1.0), -0.5)
    with pytest.raises(InadmissiblePerturbation):
        simulate(model, bad, 5, 5, seed=0)


# -- derivative process -----------------------------------------------------------

def _mu_linear_model(c):
    v = (0.0, 2.0)
    model = ControlledModel(
        drift=lambda t, x, mu, u, s: mu.mass_on(*v) * x,
        vol=lambda t, x, mu, u, s: np.zeros_like(x),
        x0=1.0,
        horizon=1.0,
    )
    ctrl = ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(1.0, c),
        scalar_ctrl=lambda t, info: 0.0,
    )
    return model, ctrl


def test_derivative_zero_direction_is_zero():
    model, ctrl = _mu_linear_model(0.5)
    bundle = simulate(model, ctrl, 10, 20, seed=0)
    z = simulate_derivative_process(
        bundle, model, ctrl, Direction(kind="control", t0=0.0, scalar=0.0)
    )
    assert np.all(z == 0.0)


def test_derivative_closed_form():
    """b = mu(V) x with eta(V) = 1: Z(t) = t x0 e^{ct}."""
    c = 0.7
    model, ctrl = _mu_linear_model(c)
    bundle = simulate(model, ctrl, 3, 400, seed=0)
    direction = Direction(kind="measure", t0=0.0, measure=DiscreteMeasure.dirac(1.0))
    z = simulate_derivative_process(bundle, model, ctrl, direction)
    target = bundle.times * np.exp(c * bundle.times)
    assert np.max(np.abs(z[0] - target)) <= 5e-3 * target.max()


def test_derivative_l2_convergence():
    """The difference quotient converges to Z in L^2(dt x P) as lambda shrinks."""
    model, ctrl = _mu_linear_model(0.5)
    bundle = simulate(model, ctrl, N_FAST, 100, seed=21)
    direction = Direction(kind="measure", t0=0.0, measure=DiscreteMeasure.dirac(1.0))
    z = simulate_derivative_process(bundle, model, ctrl, direction)
    errs = []
    for lam in (0.1, 0.05, 0.025):
        shifted = simulate(model, perturbed_controls(ctrl, direction, lam), N_FAST, 100, seed=21, noise=bundle.noise)
        quot = (shifted.states - bundle.states) / lam
        errs.append(float(np.mean(np.sum((quot - z) ** 2, axis=1) * bundle.dt)))
    assert errs[0] > errs[1] > errs[2]


def test_fd_quotient_slope_converges_with_crn():
    """|(J(u + lam pi) - J(u))/lam - dJ/du[pi]| shrinks with lam under CRN.

    For b = mu(V) x, l = 0, g = x and a measure step direction the limiting
    slope is E[Z(T)] with Z the derivative process.
    """
    model, ctrl = _mu_linear_model(0.5)
    bundle = simulate(model, ctrl, 500, 100, seed=33)
    direction = Direction(kind="measure", t0=0.0, measure=DiscreteMeasure.dirac(1.0))
    z = simulate_derivative_process(bundle, model, ctrl, direction)
    limit = z[:, -1].mean()
    gaps = []
    for lam in (0.2, 0.1, 0.05):
        shifted = simulate(model, perturbed_controls(ctrl, direction, lam), 500, 100, seed=33, noise=bundle.noise)
        slope = ((shifted.states[:, -1] - bundle.states[:, -1]) / lam).mean()
        gaps.append(abs(slope - limit))
    assert gaps[0] > gaps[1] > gaps[2]


def test_derivative_uses_analytic_partials_when_given():
    from mfclab.sde import CoefficientPartials

    c = 0.5
    model, ctrl = _mu_linear_model(c)
    model.partials = CoefficientPartials(
        drift_dx=lambda t, x, mu, u, s: mu.mass_on(0.0, 2.0) * np.ones_like(x),
        drift_dmu=lambda t, x, mu, eta, u, s: eta.mass_on(0.0, 2.0) * x,
        vol_dx=lambda t, x, mu, u, s: np.zeros_like(x),
        vol_dmu=lambda t, x, mu, eta, u, s: np.zeros_like(x),
    )
    bundle = simulate(model, ctrl, 3, 50, seed=0)
    direction = Direction(kind="measure", t0=0.0, measure=DiscreteMeasure.dirac(1.0))
    z_analytic = simulate_derivative_process(bundle, model, ctrl, direction)
    model.partials = None
    z_fd = simulate_derivative_process(bundle, model, ctrl, direction)
    assert np.max(np.abs(z_analytic - z_fd)) <= 1e-8

    # jump coefficient reading x, mu and u: the compensator and event terms
    def mass(m):
        return m.mass_on(0.0, 2.0)

    levy_model = ControlledModel(
        drift=lambda t, x, mu, u, s: (mass(mu) + u) * x,
        vol=lambda t, x, mu, u, s: 0.1 * x,
        jump=lambda t, x, mu, u, z, s: z * (mass(mu) + u) * x,
        levy=LevyMeasure([0.1, -0.2], [2.0, 1.0]),
        x0=1.0,
        horizon=1.0,
    )
    levy_ctrl = ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(1.0, c),
        scalar_ctrl=lambda t, info: 0.3,
    )
    partials = CoefficientPartials(
        drift_dx=lambda t, x, mu, u, s: (mass(mu) + u) * np.ones_like(x),
        drift_dmu=lambda t, x, mu, eta, u, s: mass(eta) * x,
        drift_du=lambda t, x, mu, u, s: x,
        vol_dx=lambda t, x, mu, u, s: 0.1 * np.ones_like(x),
        vol_dmu=lambda t, x, mu, eta, u, s: np.zeros_like(x),
        vol_du=lambda t, x, mu, u, s: np.zeros_like(x),
        jump_dx=lambda t, x, mu, u, z, s: z * (mass(mu) + u) * np.ones_like(x),
        jump_dmu=lambda t, x, mu, eta, u, z, s: z * mass(eta) * x,
        jump_du=lambda t, x, mu, u, z, s: z * x,
    )
    bundle = simulate(levy_model, levy_ctrl, 20, 50, seed=0)
    assert bundle.noise.n_events > 0
    for direction in (
        Direction(kind="measure", t0=0.3, measure=DiscreteMeasure.dirac(1.0)),
        Direction(kind="control", t0=0.3, scalar=1.0),
    ):
        levy_model.partials = partials
        z_analytic = simulate_derivative_process(bundle, levy_model, levy_ctrl, direction)
        levy_model.partials = None
        z_fd = simulate_derivative_process(bundle, levy_model, levy_ctrl, direction)
        assert np.max(np.abs(z_analytic - z_fd)) <= 1e-8


# -- noise bank and serialization ---------------------------------------------------

def test_draw_noise_validation():
    with pytest.raises(ValueError):
        draw_noise(0, 0, 10, 1.0)
    with pytest.raises(ValueError):
        simulate(
            ControlledModel(
                drift=lambda t, x, mu, u, s: x, vol=lambda t, x, mu, u, s: x, x0=1.0, horizon=1.0
            ),
            trivial_controls(),
            10,
            10,
            seed=0,
            mu_mode="bogus",
        )


def test_noise_bank_mismatch_rejected():
    model = ControlledModel(
        drift=lambda t, x, mu, u, s: np.zeros_like(x),
        vol=lambda t, x, mu, u, s: np.zeros_like(x),
        x0=0.0,
        horizon=1.0,
    )
    noise = draw_noise(0, 10, 10, 1.0)
    with pytest.raises(ValueError):
        simulate(model, trivial_controls(), 20, 10, seed=0, noise=noise)


def test_noise_bank_for_other_horizon_rejected():
    """A bank drawn on [0, 1] would drive a horizon-4 model with dt = 1/M."""
    model = ControlledModel(
        drift=lambda t, x, mu, u, s: np.zeros_like(x),
        vol=lambda t, x, mu, u, s: np.ones_like(x),
        x0=0.0,
        horizon=4.0,
    )
    noise = draw_noise(0, 10, 10, 1.0)
    with pytest.raises(ValueError, match="horizon / M"):
        simulate(model, trivial_controls(), 10, 10, seed=0, noise=noise)
    own = draw_noise(0, 10, 10, 4.0)
    assert simulate(model, trivial_controls(), 10, 10, seed=0, noise=own).noise is own


def test_noise_bank_for_other_levy_measure_rejected():
    """A bank drawn without jumps would drive a pure-jump model with Var X(T) = 0."""
    model = ControlledModel(
        drift=lambda t, x, mu, u, s: np.zeros_like(x),
        vol=lambda t, x, mu, u, s: np.zeros_like(x),
        jump=lambda t, x, mu, u, z, s: z * np.ones_like(x),
        levy=LevyMeasure([1.0], [5.0]),
        x0=0.0,
        horizon=1.0,
    )
    with pytest.raises(ValueError, match="Levy"):
        simulate(model, trivial_controls(), 2000, 20, seed=0, noise=draw_noise(0, 2000, 20, 1.0))
    other_rate = draw_noise(0, 2000, 20, 1.0, LevyMeasure([1.0], [2.0]))
    with pytest.raises(ValueError, match="Levy"):
        simulate(model, trivial_controls(), 2000, 20, seed=0, noise=other_rate)
    own = draw_noise(0, 2000, 20, 1.0, model.levy)
    assert simulate(model, trivial_controls(), 2000, 20, seed=0, noise=own).noise is own
    no_jumps = ControlledModel(
        drift=model.drift, vol=model.vol, x0=0.0, horizon=1.0,
    )
    with pytest.raises(ValueError, match="Levy"):
        simulate(no_jumps, trivial_controls(), 2000, 20, seed=0, noise=own)


def test_noise_bank_from_other_seed_rejected():
    model = ControlledModel(
        drift=lambda t, x, mu, u, s: np.zeros_like(x),
        vol=lambda t, x, mu, u, s: np.ones_like(x),
        x0=0.0,
        horizon=1.0,
    )
    with pytest.raises(ValueError, match="seed 9.*seed 5"):
        simulate(model, trivial_controls(), 10, 5, 5, noise=draw_noise(9, 10, 5, 1.0))


def test_laws_are_built_on_first_read(monkeypatch):
    import mfclab.sde as sde_module
    from mfclab.lawproc import empirical_law

    built = []

    def counting_law(particles):
        built.append(particles)
        return empirical_law(particles)

    monkeypatch.setattr(sde_module, "empirical_law", counting_law)
    model = ControlledModel(
        drift=lambda t, x, mu, u, s: -x,
        vol=lambda t, x, mu, u, s: 0.5 * np.ones_like(x),
        x0=1.0,
        horizon=1.0,
    )
    ctrl = trivial_controls()
    bundle = simulate(model, ctrl, 300, 12, seed=8)
    lawless = PerformanceSpec(
        running=lambda t, x, m, mu, u, s: x * x, terminal=lambda x, m, s: x,
    )
    performance_samples(bundle, ctrl, lawless)
    assert built == []
    law = bundle.law_at(5)
    assert built == []
    expected = empirical_law(bundle.states[:, 5])
    assert law.locations.tobytes() == expected.locations.tobytes()
    assert law.weights.tobytes() == expected.weights.tobytes()
    assert len(built) == 1
    assert bundle.law_at(5).locations is law.locations
    assert law.n_atoms == expected.n_atoms and law.total_mass() == expected.total_mass()
    assert len(built) == 1
    reading = PerformanceSpec(
        running=lambda t, x, m, mu, u, s: m.mass_on(0.0, np.inf) * x,
        terminal=lambda x, m, s: x,
    )
    performance_samples(bundle, ctrl, reading)
    # steps 0..M-1 once each (step 5 was cached); the terminal law is unread
    assert len(built) == bundle.n_steps


def test_consumption_performance_regression_fixture():
    """Frozen Monte Carlo value of J at the closed-form controls (seed 99)."""
    import mfclab.consumption as cons
    from mfclab.lawproc import LevyMeasure as LM

    model = cons.ConsumptionModel(
        x0=1.0, horizon=1.0, vol=lambda t: 0.2, theta=1.0,
        jump_scale=lambda t, z: z, levy=LM([0.1], [0.5]),
    )
    cf = cons.closed_form_controls(model)
    bundle = simulate(cons.state_model(model), cons.feedback_pair(model, cf), 2000, 100, seed=99)
    pair, _, _ = cons.frozen_pair(model, cf, bundle)
    val, se = evaluate_performance(bundle, pair, cons.performance(model))
    assert val == pytest.approx(-0.503088122597, rel=1e-9)
    assert 0.0 < se < 0.02
