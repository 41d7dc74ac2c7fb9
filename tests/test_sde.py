"""Tests for particle simulation: Euler scheme, CRN, derivative process."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfclab import sde as sde_module
from mfclab.bsde import _gamma_start, _gamma_step
from mfclab.lawproc import LevyMeasure
from mfclab.measures import DiscreteMeasure
from mfclab.sde import (
    CoefficientPartials,
    ControlPair,
    StepView,
    ControlledModel,
    Direction,
    InadmissiblePerturbation,
    InfoPattern,
    PerformanceSpec,
    SimulationError,
    draw_noise,
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
        drift=lambda t, x, mu, u: np.zeros_like(x),
        vol=lambda t, x, mu, u: np.zeros_like(x),
        jump=lambda t, x, mu, u, z: np.zeros_like(x),
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
        drift=lambda t, x, mu, u: 0.1 * x,
        vol=lambda t, x, mu, u: 0.2 * x,
        jump=lambda t, x, mu, u, z: z * x,
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
        drift=lambda t, x, mu, u: 0.1 * x,
        vol=lambda t, x, mu, u: 0.2 * x,
        jump=lambda t, x, mu, u, z: z * x,
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
    gam = _gamma_start(n, m)
    for k in range(m):
        _gamma_step(gam, k, 0.1, 0.3, list(levy.jump_sizes), levy, noise)
    for name, arr, shape in (
        ("states", bundle.states, (n, m + 1)),
        ("dB", noise.dB, (n, m)),
        ("derivative", z, (n, m + 1)),
        ("gamma", gam, (n, m + 1)),
    ):
        assert arr.shape == shape, name
        for k in (0, shape[1] // 2, shape[1] - 1):
            assert arr[:, k].flags.c_contiguous, (name, k)
    draw = np.random.Generator(np.random.Philox(key=seed)).standard_normal((n, m))
    expected = draw * math.sqrt(1.0 / m)
    assert noise.dB.tobytes() == expected.tobytes()


def test_crn_zero_perturbation_identity():
    """Re-simulating on a bundle's noise with identical controls is bitwise equal."""
    model = ControlledModel(
        drift=lambda t, x, mu, u: (mu.mass_on(0, 2) - u) * x,
        vol=lambda t, x, mu, u: 0.2 * x,
        x0=1.0,
        horizon=1.0,
    )
    ctrl = ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(1.0, 0.4),
        scalar_ctrl=lambda t, info: 0.1,
    )
    base = simulate(model, ctrl, 300, 40, seed=5)
    direction = Direction(kind="control", t0=0.0, scalar=1.0)
    again = simulate(model, perturbed_controls(ctrl, direction, 0.0), noise=base.noise)
    assert np.array_equal(base.states, again.states)


def test_geometric_mean_oracle():
    """E[X_T] = x0 e^{aT} for geometric dynamics."""
    a, s = 0.1, 0.2
    model = ControlledModel(
        drift=lambda t, x, mu, u: a * x,
        vol=lambda t, x, mu, u: s * x,
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
        drift=lambda t, x, mu, u: (mu.mass_on(0.0, 2.0) - u) * x,
        vol=lambda t, x, mu, u: 0.2 * x,
        jump=lambda t, x, mu, u, z: z * x,
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
        drift=lambda t, x, mu, u: np.zeros_like(x),
        vol=lambda t, x, mu, u: np.zeros_like(x),
        jump=lambda t, x, mu, u, z: 0.3 * x,
        levy=LevyMeasure([1.0], [1.0]),
        x0=1.0,
        horizon=1.0,
    )
    bundle = simulate(model, trivial_controls(), 20_000, 100, seed=10)
    xt = bundle.states[:, -1]
    z = (xt.mean() - 1.0) / (xt.std(ddof=1) / math.sqrt(xt.size))
    assert abs(z) <= 3.0


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    m=st.integers(1, 60),
    x0=st.floats(-5.0, 5.0),
    horizon=st.floats(0.1, 3.0),
    atoms=st.lists(
        st.tuples(
            st.floats(0.05, 2.0) | st.floats(-2.0, -0.05),  # jump size, nonzero
            st.floats(0.1, 3.0),  # rate
        ),
        min_size=2,
        max_size=4,
    ),
)
def test_compensated_jumps_preserve_mean_pathwise(seed, n, m, x0, horizon, atoms):
    """With jump = zeta and no drift or noise, each path ends at
    x0 + sum of its jumps - T sum_j rate_j zeta_j, which has mean x0."""
    sizes = np.array([z for z, _ in atoms])
    rates = np.array([r for _, r in atoms])
    model = ControlledModel(
        drift=lambda t, x, mu, u: np.zeros_like(x),
        vol=lambda t, x, mu, u: np.zeros_like(x),
        jump=lambda t, x, mu, u, zeta: zeta * np.ones_like(x),
        levy=LevyMeasure(sizes, rates),
        x0=x0,
        horizon=horizon,
    )
    bundle = simulate(model, trivial_controls(), n, m, seed=seed)
    noise = bundle.noise
    jumps = np.bincount(noise.ev_particle, sizes[noise.ev_zeta], minlength=n)
    expected = x0 + jumps - horizon * np.dot(rates, sizes)
    assert np.max(np.abs(bundle.states[:, -1] - expected)) <= 1e-10


def test_simulation_error_names_step_and_particle():
    def bad_drift(t, x, mu, u):
        out = np.zeros_like(x)
        if t >= 0.3:
            out[7] = np.inf
        return out

    def zero(t, x, mu, u):
        return np.zeros_like(x)

    model = ControlledModel(drift=bad_drift, vol=zero, x0=0.0, horizon=1.0)
    with pytest.raises(SimulationError, match=r"step 3.*particle 7"):
        simulate(model, trivial_controls(), 10, 10, seed=1)

    # the derivative process steps through the same check: the declared
    # x-partial is infinite where bad_drift is, and inf * Z(0) is NaN there
    model = ControlledModel(drift=zero, vol=zero, x0=0.0, horizon=1.0,
                            partials=CoefficientPartials(drift_dx=bad_drift))
    bundle = simulate(model, trivial_controls(), 10, 10, seed=1)
    for direction in (
        Direction(kind="measure", measure=DiscreteMeasure.dirac(1.0)),
        Direction(kind="control", scalar=1.0),
    ):
        with pytest.raises(SimulationError,
                           match=r"^non-finite derivative state at step 3 \(t=0\.3\), particle 7$"):
            simulate_derivative_process(bundle, model, trivial_controls(), direction)

    # a finite drift that overflows the state: the error alone, with no
    # numpy overflow warning before it (a warning is an error in this suite)
    def huge(t, x, mu, u):
        return np.full_like(x, 1e308)

    model = ControlledModel(drift=huge, vol=zero, x0=0.0, horizon=10.0)
    with pytest.raises(SimulationError,
                       match=r"^non-finite state at step 17 \(t=1\.7\), particle 0$"):
        simulate(model, trivial_controls(), 5, 100, seed=1)
    # a finite x-partial that overflows Z: the direction, switched on at
    # t=1.5, makes Z(16) = 0.1 through du b = 1, Z(17) is about 1e306, and
    # 1e308 Z(17) overflows
    model = ControlledModel(drift=lambda t, x, mu, u: u * np.ones_like(x), vol=zero, x0=0.0,
                            horizon=10.0, partials=CoefficientPartials(drift_dx=huge))
    bundle = simulate(model, trivial_controls(), 5, 100, seed=1)
    with pytest.raises(SimulationError, match=r"^non-finite derivative state at step 17 "):
        simulate_derivative_process(
            bundle, model, trivial_controls(), Direction(kind="control", t0=1.5, scalar=1.0)
        )


def _simulate_law_control(seen=None):
    """Simulate under the classical coupling mu(t) = L(X(t)): the measure
    control that returns ``info.law``. The drift appends each mu to ``seen``."""

    def drift(t, x, mu, u):
        if seen is not None:
            seen.append(mu)
        return mu.mass_on(0.0, 2.0) - x

    model = ControlledModel(
        drift=drift, vol=lambda t, x, mu, u: 0.3 * np.ones_like(x), x0=1.0, horizon=1.0
    )
    ctrl = ControlPair(measure_ctrl=lambda t, info: info.law, scalar_ctrl=lambda t, info: 0.0)
    return simulate(model, ctrl, 50, 8, seed=4), ctrl


def test_empirical_mu_mode_feeds_previous_law():
    """Under full information the law control feeds the drift the bundle's own
    cross-sectional law at every step, a probability measure."""
    seen = []
    bundle, _ = _simulate_law_control(seen)
    assert len(seen) == 8
    for k, mu in enumerate(seen):
        assert mu is bundle.law_at(k)
        assert mu.total_mass() == pytest.approx(1.0)


def test_empirical_bundle_replays_its_own_law():
    """A replay of a law-control bundle hands its law back as the measure control."""
    bundle, ctrl = _simulate_law_control()
    steps = list(iter_steps(bundle, ctrl))
    assert [sv.k for sv in steps] == list(range(8))
    for sv in steps:
        assert sv.mu_ctrl is sv.law is bundle.law_at(sv.k)


def test_delay_pattern_sees_lagged_state():
    observed = {}

    def u_ctrl(t, info):
        observed[round(t, 6)] = info.t
        return 0.0

    model = ControlledModel(
        drift=lambda t, x, mu, u: np.ones_like(x),
        vol=lambda t, x, mu, u: np.zeros_like(x),
        x0=0.0,
        horizon=1.0,
    )
    ctrl = ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(0.0),
        scalar_ctrl=u_ctrl,
        u_info=InfoPattern(delay=0.2),
    )
    simulate(model, ctrl, 4, 10, seed=0)
    assert observed[0.0] == 0.0
    assert observed[0.5] == pytest.approx(0.3)
    assert observed[0.9] == pytest.approx(0.7)


@pytest.mark.parametrize("delayed", ["mu", "u"])
def test_each_control_sees_the_view_at_its_observation_step(delayed):
    """A control's view is the bundle's step max(0, k - lag) under its own
    pattern, with the law cached there and no control values."""
    views = {"mu": [], "u": []}

    def measure_ctrl(t, info):
        views["mu"].append((t, info))
        return DiscreteMeasure.dirac(0.0)

    def scalar_ctrl(t, info):
        views["u"].append((t, info))
        return 0.0

    model = ControlledModel(
        drift=lambda t, x, mu, u: np.ones_like(x),
        vol=lambda t, x, mu, u: 0.5 * np.ones_like(x),
        x0=0.0,
        horizon=1.0,
    )
    patterns = {"mu": InfoPattern(), "u": InfoPattern()}
    patterns[delayed] = InfoPattern(delay=0.2)
    ctrl = ControlPair(
        measure_ctrl=measure_ctrl,
        scalar_ctrl=scalar_ctrl,
        mu_info=patterns["mu"],
        u_info=patterns["u"],
    )
    bundle = simulate(model, ctrl, 6, 10, seed=1)
    for name, seen in views.items():
        lag = 2 if name == delayed else 0
        assert len(seen) == bundle.n_steps
        for k_now, (t, view) in enumerate(seen):
            assert t == bundle.times[k_now]
            assert view.k == max(0, k_now - lag)
            assert view.t == bundle.times[view.k]
            assert view.x.tolist() == bundle.states[:, view.k].tolist()
            assert view.law is bundle.law_at(view.k)
            assert view.mu_ctrl is None and view.u is None


def test_info_pattern_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        InfoPattern(delay=-0.1)


# -- performance functionals ----------------------------------------------------

def _mean_and_se(samples):
    """Monte Carlo estimate of J and its standard error."""
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(samples.size))


def test_performance_constants():
    model = ControlledModel(
        drift=lambda t, x, mu, u: np.zeros_like(x),
        vol=lambda t, x, mu, u: np.zeros_like(x),
        x0=0.0,
        horizon=1.0,
    )
    bundle = simulate(model, trivial_controls(), 50, 25, seed=0)
    perf_g = PerformanceSpec(
        running=lambda t, x, m, mu, u: np.zeros_like(x),
        terminal=lambda x, m: np.ones_like(x),
    )
    assert _mean_and_se(performance_samples(bundle, trivial_controls(), perf_g)) == (1.0, 0.0)
    perf_l = PerformanceSpec(
        running=lambda t, x, m, mu, u: np.ones_like(x),
        terminal=lambda x, m: np.zeros_like(x),
    )
    est, se = _mean_and_se(performance_samples(bundle, trivial_controls(), perf_l))
    assert est == pytest.approx(1.0, abs=1e-12)  # left Riemann sum of 1 over [0, T]
    assert se == 0.0


def test_performance_nan_raises():
    model = ControlledModel(
        drift=lambda t, x, mu, u: np.zeros_like(x),
        vol=lambda t, x, mu, u: np.zeros_like(x),
        x0=0.0,
        horizon=1.0,
    )
    bundle = simulate(model, trivial_controls(), 5, 5, seed=0)
    perf = PerformanceSpec(
        running=lambda t, x, m, mu, u: np.zeros_like(x),
        terminal=lambda x, m: np.log(x),  # log(0) = -inf
    )
    with np.errstate(divide="ignore"), pytest.raises(SimulationError):
        performance_samples(bundle, trivial_controls(), perf)


def test_inadmissible_perturbation_raises():
    model = ControlledModel(
        drift=lambda t, x, mu, u: np.zeros_like(x),
        vol=lambda t, x, mu, u: np.zeros_like(x),
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
        drift=lambda t, x, mu, u: mu.mass_on(*v) * x,
        vol=lambda t, x, mu, u: np.zeros_like(x),
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
    """The difference quotient converges to Z in L^2(dt x P) as lambda shrinks.

    The Levy case reads an open-loop control with one value per particle, so
    the jump terms gather it at each step's event rows."""
    measure_dir = Direction(kind="measure", t0=0.0, measure=DiscreteMeasure.dirac(1.0))
    cases = [(*_mu_linear_model(0.5), measure_dir)]

    def mass(m):
        return m.mass_on(0.0, 2.0)

    levy_model = ControlledModel(
        drift=lambda t, x, mu, u: (mass(mu) + u) * x,
        vol=lambda t, x, mu, u: 0.1 * x,
        jump=lambda t, x, mu, u, z: z * (mass(mu) + u) * x,
        levy=LevyMeasure([0.1, -0.2], [2.0, 1.0]),
        x0=1.0,
        horizon=1.0,
    )
    u_rows = np.linspace(0.1, 0.5, N_FAST)
    rows_ctrl = ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(1.0, 0.5),
        scalar_ctrl=lambda t, info: u_rows,
    )
    cases += [
        (levy_model, rows_ctrl, measure_dir),
        (levy_model, rows_ctrl, Direction(kind="control", t0=0.0, scalar=1.0)),
    ]
    for model, ctrl, direction in cases:
        bundle = simulate(model, ctrl, N_FAST, 100, seed=21)
        assert bundle.noise.n_events > 0 or model.levy is None
        z = simulate_derivative_process(bundle, model, ctrl, direction)
        errs = []
        for lam in (0.1, 0.05, 0.025):
            shifted = simulate(model, perturbed_controls(ctrl, direction, lam), noise=bundle.noise)
            quot = (shifted.states - bundle.states) / lam
            errs.append(float(np.mean(np.sum((quot - z) ** 2, axis=1) * bundle.dt)))
        # O(lambda) quotient error: each halving of lambda quarters its square
        assert errs[0] > 3 * errs[1] > 9 * errs[2]


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
        shifted = simulate(model, perturbed_controls(ctrl, direction, lam), noise=bundle.noise)
        slope = ((shifted.states[:, -1] - bundle.states[:, -1]) / lam).mean()
        gaps.append(abs(slope - limit))
    assert gaps[0] > gaps[1] > gaps[2]


def test_derivative_uses_analytic_partials_when_given():
    """Z with declared x-partials matches Z with every partial a central
    difference, in a measure and a control direction, with and without a
    Levy measure.  Every coefficient reads x, mu and u; with jumps, the
    compensator and the event terms do too."""

    def mass(m):
        return m.mass_on(0.0, 2.0)

    levy_model = ControlledModel(
        drift=lambda t, x, mu, u: (mass(mu) + u) * x,
        vol=lambda t, x, mu, u: 0.1 * x,
        jump=lambda t, x, mu, u, z: z * (mass(mu) + u) * x,
        levy=LevyMeasure([0.1, -0.2], [2.0, 1.0]),
        x0=1.0,
        horizon=1.0,
    )
    ctrl = ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(1.0, 0.5),
        scalar_ctrl=lambda t, info: 0.3,
    )
    partials = CoefficientPartials(
        drift_dx=lambda t, x, mu, u: (mass(mu) + u) * np.ones_like(x),
        vol_dx=lambda t, x, mu, u: 0.1 * np.ones_like(x),
        jump_dx=lambda t, x, mu, u, z: z * (mass(mu) + u) * np.ones_like(x),
    )
    for model in (replace(levy_model, jump=None, levy=None), levy_model):
        bundle = simulate(model, ctrl, 20, 50, seed=0)
        assert (bundle.noise.n_events > 0) == (model.levy is not None)
        for direction in (
            Direction(kind="measure", t0=0.3, measure=DiscreteMeasure.dirac(1.0)),
            Direction(kind="control", t0=0.3, scalar=1.0),
        ):
            z_analytic = simulate_derivative_process(
                bundle, replace(model, partials=partials), ctrl, direction
            )
            z_fd = simulate_derivative_process(bundle, model, ctrl, direction)
            assert np.max(np.abs(z_fd)) > 0.1
            assert np.max(np.abs(z_analytic - z_fd)) <= 1e-8


def test_fd_measure_partials_share_one_shifted_pair_per_step(monkeypatch):
    """The drift, vol and jump measure partials of one step read the same
    two measures mu +- FD_STEP eta, built once per step that has a direction."""
    base = DiscreteMeasure.dirac(1.0, 0.5)
    seen = []

    def mass(mu):
        if mu is not base:
            seen.append(mu)
        return mu.mass_on(0.0, 2.0)

    model = ControlledModel(
        drift=lambda t, x, mu, u: mass(mu) * x,
        vol=lambda t, x, mu, u: 0.1 * mass(mu) * x,
        jump=lambda t, x, mu, u, z: z * mass(mu) * x,
        levy=LevyMeasure([0.1, -0.2], [2.0, 1.0]),
        x0=1.0,
        horizon=1.0,
    )
    ctrl = ControlPair(measure_ctrl=lambda t, info: base, scalar_ctrl=lambda t, info: 0.0)
    bundle = simulate(model, ctrl, 20, 50, seed=0)
    assert bundle.noise.n_events > 0
    direction = Direction(kind="measure", t0=0.3, measure=DiscreteMeasure.dirac(1.0))
    expected = simulate_derivative_process(bundle, model, ctrl, direction)
    pairs = []
    shifts = sde_module._mu_shifts

    def spy(mu, eta):
        assert mu is base and eta is direction.measure
        pairs.append(shifts(mu, eta))
        return pairs[-1]

    monkeypatch.setattr(sde_module, "_mu_shifts", spy)
    seen.clear()
    z = simulate_derivative_process(bundle, model, ctrl, direction)
    assert z.tobytes() == expected.tobytes()
    assert len(pairs) == sum(direction.eta_at(t) is not None for t in bundle.times[:-1])
    shifted = {id(m) for pair in pairs for m in pair.values()}
    assert seen and {id(m) for m in seen} == shifted


# -- noise bank ------------------------------------------------------------------

def test_draw_noise_validation():
    with pytest.raises(ValueError):
        draw_noise(0, 0, 10, 1.0)


def _whole_array_noise(seed, n, m, horizon, levy):
    """A bank's arrays drawn as one (N, M) normal and one (N, M) Poisson
    draw, then the atom choice, from the same Philox stream."""
    dt = horizon / m
    gen = np.random.Generator(np.random.Philox(key=seed))
    dB = gen.standard_normal((n, m)) * math.sqrt(dt)
    empty = np.empty(0, dtype=np.int64)
    if levy is None:
        return dB, empty, empty, empty
    counts = gen.poisson(levy.total_rate * dt, (n, m))
    idx_p, idx_s = np.nonzero(counts)
    if not idx_p.size:
        return dB, empty, empty, empty
    reps = counts[idx_p, idx_s]
    particle, step = np.repeat(idx_p, reps), np.repeat(idx_s, reps)
    if levy.n_atoms == 1:
        zeta = np.zeros(particle.size, dtype=np.int64)
    else:
        zeta = gen.choice(levy.n_atoms, size=particle.size, p=levy.rates / levy.total_rate)
    order = np.lexsort((particle, step))
    return dB, particle[order], step[order], zeta[order]


@pytest.mark.parametrize(
    "levy",
    [None, LevyMeasure([0.3], [2.0]), LevyMeasure([-0.2, 0.4], [1.5, 0.8])],
    ids=["no-levy", "one-atom", "two-atoms"],
)
@pytest.mark.parametrize(
    "n",
    [
        2 * sde_module._NOISE_BLOCK_ROWS,
        2 * sde_module._NOISE_BLOCK_ROWS + 37,
        sde_module._NOISE_BLOCK_ROWS // 3,
    ],
    ids=["multiple-of-block", "ragged-last-block", "below-one-block"],
)
def test_blocked_noise_draw_is_bitwise_the_whole_array_draw(n, levy):
    """Drawing a block of particle rows at a time consumes the stream in the
    same order as one (N, M) draw: the bank is the same bits."""
    bank = draw_noise(17, n, 23, 1.5, levy)
    expected = _whole_array_noise(17, n, 23, 1.5, levy)
    if levy is not None:
        assert bank.n_events > 0
    for name, want in zip(("dB", "ev_particle", "ev_step", "ev_zeta"), expected):
        got = getattr(bank, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes(order="F") == want.tobytes(order="F"), name


def test_noise_bank_mismatch_rejected():
    """The noise comes from (N, M, seed) or from a bank, never from both or neither."""
    model = ControlledModel(
        drift=lambda t, x, mu, u: np.zeros_like(x),
        vol=lambda t, x, mu, u: np.zeros_like(x),
        x0=0.0,
        horizon=1.0,
    )
    noise = draw_noise(0, 10, 10, 1.0)
    with pytest.raises(TypeError, match="not both"):
        simulate(model, trivial_controls(), 20, 10, seed=0, noise=noise)
    with pytest.raises(TypeError, match="not both"):
        simulate(model, trivial_controls(), n_steps=10, noise=noise)
    with pytest.raises(TypeError, match="or a noise bank"):
        simulate(model, trivial_controls())
    with pytest.raises(TypeError, match="or a noise bank"):
        simulate(model, trivial_controls(), 10, 10)


def test_noise_bank_for_other_horizon_rejected():
    """A bank drawn on [0, 1] would drive a horizon-4 model with dt = 1/M."""
    model = ControlledModel(
        drift=lambda t, x, mu, u: np.zeros_like(x),
        vol=lambda t, x, mu, u: np.ones_like(x),
        x0=0.0,
        horizon=4.0,
    )
    noise = draw_noise(0, 10, 10, 1.0)
    with pytest.raises(ValueError, match="horizon / M"):
        simulate(model, trivial_controls(), noise=noise)
    own = draw_noise(0, 10, 10, 4.0)
    assert simulate(model, trivial_controls(), noise=own).noise is own


def test_noise_bank_for_other_levy_measure_rejected():
    """A bank drawn without jumps would drive a pure-jump model with Var X(T) = 0."""
    model = ControlledModel(
        drift=lambda t, x, mu, u: np.zeros_like(x),
        vol=lambda t, x, mu, u: np.zeros_like(x),
        jump=lambda t, x, mu, u, z: z * np.ones_like(x),
        levy=LevyMeasure([1.0], [5.0]),
        x0=0.0,
        horizon=1.0,
    )
    with pytest.raises(ValueError, match="Levy"):
        simulate(model, trivial_controls(), noise=draw_noise(0, 2000, 20, 1.0))
    other_rate = draw_noise(0, 2000, 20, 1.0, LevyMeasure([1.0], [2.0]))
    with pytest.raises(ValueError, match="Levy"):
        simulate(model, trivial_controls(), noise=other_rate)
    own = draw_noise(0, 2000, 20, 1.0, model.levy)
    assert simulate(model, trivial_controls(), noise=own).noise is own
    no_jumps = ControlledModel(
        drift=model.drift, vol=model.vol, x0=0.0, horizon=1.0,
    )
    with pytest.raises(ValueError, match="Levy"):
        simulate(no_jumps, trivial_controls(), noise=own)


def test_noise_bank_from_other_seed_rejected():
    """A bank carries its own seed: a seed restated beside it is rejected, and
    the bank alone reproduces the run drawn from that seed bit for bit."""
    model = ControlledModel(
        drift=lambda t, x, mu, u: np.zeros_like(x),
        vol=lambda t, x, mu, u: np.ones_like(x),
        x0=0.0,
        horizon=1.0,
    )
    bank = draw_noise(9, 10, 5, 1.0)
    with pytest.raises(TypeError, match="not both"):
        simulate(model, trivial_controls(), 10, 5, 5, noise=bank)
    with pytest.raises(TypeError, match="not both"):
        simulate(model, trivial_controls(), seed=9, noise=bank)
    from_bank = simulate(model, trivial_controls(), noise=bank)
    from_seed = simulate(model, trivial_controls(), 10, 5, seed=9)
    assert np.array_equal(from_bank.states, from_seed.states)


def test_laws_are_built_on_first_read(monkeypatch):
    import mfclab.sde as sde_module
    from mfclab.lawproc import empirical_law

    built = []

    def counting_law(particles):
        built.append(particles)
        return empirical_law(particles)

    monkeypatch.setattr(sde_module, "empirical_law", counting_law)
    model = ControlledModel(
        drift=lambda t, x, mu, u: -x,
        vol=lambda t, x, mu, u: 0.5 * np.ones_like(x),
        x0=1.0,
        horizon=1.0,
    )
    ctrl = trivial_controls()
    bundle = simulate(model, ctrl, 300, 12, seed=8)
    lawless = PerformanceSpec(
        running=lambda t, x, m, mu, u: x * x, terminal=lambda x, m: x,
    )
    performance_samples(bundle, ctrl, lawless)
    assert built == []
    law = bundle.law_at(5)
    assert built == []
    expected = empirical_law(bundle.states[:, 5])
    assert law.locations.tobytes() == expected.locations.tobytes()
    assert law.weights.tobytes() == expected.weights.tobytes()
    assert len(built) == 1
    assert bundle.law_at(5) is law
    assert law.n_atoms == expected.n_atoms and law.total_mass() == expected.total_mass()
    assert len(built) == 1
    reading = PerformanceSpec(
        running=lambda t, x, m, mu, u: m.mass_on(0.0, np.inf) * x,
        terminal=lambda x, m: x,
    )
    first = performance_samples(bundle, ctrl, reading)
    # steps 0..M-1 once each (step 5 was cached); the terminal law is unread
    assert len(built) == bundle.n_steps
    # the laws the replays put in the cache stay there; a rerun builds none
    assert sorted(bundle._laws) == list(range(bundle.n_steps + 1))
    assert performance_samples(bundle, ctrl, reading).tobytes() == first.tobytes()
    assert len(built) == bundle.n_steps


def test_consumption_performance_regression_fixture():
    """Frozen Monte Carlo value of J at the closed-form controls (seed 99)."""
    import mfclab.consumption as cons
    from mfclab.lawproc import LevyMeasure as LM

    model = cons.ConsumptionModel(
        x0=1.0, horizon=1.0, sigma=0.2, theta=1.0, levy=LM([0.1], [0.5]),
    )
    cf = cons.closed_form_controls(model)
    bundle = simulate(cons.state_model(model), cons.feedback_pair(model, cf), 2000, 100, seed=99)
    pair, _, _ = cons.frozen_pair(model, cf, bundle)
    val, se = _mean_and_se(performance_samples(bundle, pair, cons.performance(model)))
    assert val == pytest.approx(-0.503088122597, rel=1e-9)
    assert 0.0 < se < 0.02


def _assert_read_only(*arrays):
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0


def test_noise_bank_and_filled_bundle_are_read_only():
    levy = LevyMeasure([-0.2, 0.3], [1.0, 2.0])
    model = ControlledModel(
        drift=lambda t, x, mu, u: mu.mass_on(0.0, 2.0) - x,
        vol=lambda t, x, mu, u: 0.5 * np.ones_like(x),
        jump=lambda t, x, mu, u, zeta: zeta * np.ones_like(x),
        levy=levy,
        x0=1.0,
        horizon=1.0,
    )
    law_control = ControlPair(measure_ctrl=lambda t, info: info.law, scalar_ctrl=lambda t, info: 0.0)
    bundle = simulate(model, law_control, 200, 10, seed=4)
    bank = bundle.noise
    assert bank.n_events > 0
    _assert_read_only(
        bank.dB, bank.ev_particle, bank.ev_step, bank.ev_zeta, bank._step_offsets,
        bank.jump_sizes, bank.jump_rates,
        bundle.states, bundle.law_at(3)._column,
        StepView(bundle, 4).x,
    )
    # the sweep read laws while it filled states; their columns were frozen too
    law = bundle.law_at(2)
    _assert_read_only(law._column, law.locations, law.weights)


def test_levy_measure_and_its_noise_bank_hold_separate_read_only_arrays():
    sizes, rates = np.array([0.1]), np.array([0.5])
    levy = LevyMeasure(sizes, rates)
    bank = draw_noise(1, 50, 10, 1.0, levy)
    sizes[0] = 0.7
    _assert_read_only(levy.jump_sizes, levy.rates, bank.jump_sizes, bank.jump_rates)
    assert not np.shares_memory(bank.jump_sizes, levy.jump_sizes)
    assert not np.shares_memory(bank.jump_rates, levy.rates)
    assert levy.jump_sizes.tolist() == bank.jump_sizes.tolist() == [0.1]
    assert bank.drawn_for(levy) and bank.drawn_for(LevyMeasure([0.1], [0.5]))


def test_perturbed_measure_control_shares_one_sum_per_step_and_base():
    frozen = [DiscreteMeasure([0.5 * k, 3.0], [1.0, -0.25]) for k in range(8)]
    controls = ControlPair(
        measure_ctrl=lambda t, info: frozen[info.k],
        scalar_ctrl=lambda t, info: 0.0,
    )
    seen = {"drift": [], "running": []}
    model = ControlledModel(
        drift=lambda t, x, mu, u: seen["drift"].append(mu) or mu.mass_on(0.0, 2.0) * x,
        vol=lambda t, x, mu, u: 0.3 * np.ones_like(x),
        x0=1.0,
        horizon=1.0,
    )
    perf = PerformanceSpec(
        running=lambda t, x, m, mu, u: seen["running"].append(mu) or mu.mass_on(0.0, 2.0) * x,
        terminal=lambda x, m: x,
    )
    direction = Direction(kind="measure", t0=0.3, measure=DiscreteMeasure.dirac(1.0))
    pert = perturbed_controls(controls, direction, 0.1)
    bundle = simulate(model, pert, 50, 8, seed=3)
    performance_samples(bundle, pert, perf)
    for k, (sim_mu, replay_mu) in enumerate(zip(seen["drift"], seen["running"])):
        assert sim_mu is replay_mu
        if bundle.times[k] < direction.t0:
            assert sim_mu is frozen[k]
        else:
            expected = frozen[k] + DiscreteMeasure.dirac(1.0, 0.1)
            assert sim_mu.locations.tobytes() == expected.locations.tobytes()
            assert sim_mu.weights.tobytes() == expected.weights.tobytes()
    # a base that is a new object at the same t gets a sum of its own
    fresh = ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure([0.5, 3.0], [1.0, -0.25]),
        scalar_ctrl=lambda t, info: 0.0,
    )
    pert = perturbed_controls(fresh, direction, 0.1)
    info = StepView(bundle, 5)
    first, second = pert.measure_ctrl(info.t, info), pert.measure_ctrl(info.t, info)
    assert first is not second
    assert first.weights.tolist() == second.weights.tolist() == [1.0, -0.25, 0.1]
