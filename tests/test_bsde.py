"""Tests for the linear BSDE solver and the Gamma representation."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfclab.bsde import (
    GammaPositivityError,
    LinearBsdeSpec,
    _gamma_start,
    _gamma_step,
    adjoint_p0_solve,
    backward_euler_reference,
    solve,
)
from mfclab.lawproc import LevyMeasure
from mfclab.measures import DiscreteMeasure
from mfclab.sde import (
    CoefficientPartials,
    ControlPair,
    ControlledModel,
    InfoPattern,
    PerformanceSpec,
    _central_difference,
    _partial_x,
    _time_major,
    iter_steps,
    simulate,
)


def det_spec(phi=0.0, alpha=0.0, theta=1.0):
    return LinearBsdeSpec(phi=lambda t: phi, alpha=lambda t: alpha, terminal=theta)


def trivial_controls():
    return ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(0.0),
        scalar_ctrl=lambda t, info: 0.0,
    )


def flat_bundle(n=200, m=50, seed=0, x0=1.0, drift=None, vol=None, levy=None, jump=None):
    model = ControlledModel(
        drift=drift or (lambda t, x, mu, u: np.zeros_like(x)),
        vol=vol or (lambda t, x, mu, u: np.zeros_like(x)),
        jump=jump,
        levy=levy,
        x0=x0,
        horizon=1.0,
    )
    return simulate(model, trivial_controls(), n, m, seed=seed)


# -- Gamma process -----------------------------------------------------------

def gamma_paths(bundle, alpha=0.0, beta=0.0, jump_phi=0.0, levy=None):
    """Euler paths of the Gamma process with constant coefficients on a
    bundle's noise."""
    atoms = levy.jump_sizes if levy is not None else ()
    gam = _gamma_start(bundle.n_particles, bundle.n_steps)
    for k in range(bundle.n_steps):
        _gamma_step(gam, k, alpha, beta, [jump_phi for _ in atoms], levy, bundle.noise)
    return gam


def test_gamma_trivial_is_one():
    bundle = flat_bundle(n=20, m=10)
    gam = gamma_paths(bundle)
    assert np.all(gam == 1.0)


def test_gamma_deterministic_exponential():
    """alpha = a, beta = 0: Gamma(t_k) = (1 + a dt)^k, close to e^{at}."""
    a = 0.4
    bundle = flat_bundle(n=3, m=100)
    gam = gamma_paths(bundle, alpha=a)
    dt = bundle.dt
    expected = (1 + a * dt) ** np.arange(101)
    assert np.allclose(gam[0], expected, rtol=1e-12)
    assert np.max(np.abs(gam[0] - np.exp(a * bundle.times))) <= math.exp(a) * a * a * dt


def test_gamma_martingale_mean_one():
    bundle = flat_bundle(n=40_000, m=50, seed=41)
    gam = gamma_paths(bundle, beta=0.4)
    gt = gam[:, -1]
    z = (gt.mean() - 1.0) / (gt.std(ddof=1) / math.sqrt(gt.size))
    assert abs(z) <= 3.0


def test_gamma_with_jumps_stays_positive_and_compensated():
    levy = LevyMeasure([0.5], [1.0])
    bundle = flat_bundle(n=20_000, m=100, seed=13, levy=levy, jump=lambda t, x, mu, u, z: np.zeros_like(x))
    gam = gamma_paths(bundle, jump_phi=0.8, levy=levy)
    assert np.all(gam > 0)
    gt = gam[:, -1]
    z = (gt.mean() - 1.0) / (gt.std(ddof=1) / math.sqrt(gt.size))
    assert abs(z) <= 3.0


def test_gamma_jump_phi_below_minus_one_rejected():
    levy = LevyMeasure([0.5], [1.0])
    bundle = flat_bundle(n=100, m=10, seed=2, levy=levy, jump=lambda t, x, mu, u, z: np.zeros_like(x))
    with pytest.raises(GammaPositivityError):
        gamma_paths(bundle, jump_phi=-1.5, levy=levy)


def test_gamma_step_size_error():
    bundle = flat_bundle(n=50, m=4, seed=3)  # dt = 0.25, huge negative drift
    with pytest.raises(GammaPositivityError, match=r"at step \d+, particle \d+; decrease the step"):
        gamma_paths(bundle, alpha=-5.0)


def test_gamma_overflow_is_reported_with_step_and_particle():
    """Every state is finite, but drift_dx = 1e4 makes each Gamma factor 51,
    so Gamma overflows at step 181 of 200: the solve raises instead of
    returning an inf and NaN P (or a bare overflow warning)."""
    model = ControlledModel(
        drift=lambda t, x, mu, u: np.zeros_like(x),
        vol=lambda t, x, mu, u: np.full_like(x, 0.1),
        x0=1.0,
        horizon=1.0,
        partials=CoefficientPartials(drift_dx=lambda t, x, mu, u: np.full_like(x, 1e4)),
    )
    bundle = simulate(model, trivial_controls(), 50, 200, seed=1)
    perf = PerformanceSpec(running=lambda t, x, m, mu, u: x, terminal=lambda x, m: x)
    with pytest.raises(GammaPositivityError,
                       match=r"outside \(0, inf\) at step 181, particle 0; decrease the step"):
        adjoint_p0_solve(model, perf, bundle, trivial_controls())


# -- closed-form estimator ------------------------------------------------------

def test_constant_terminal():
    times = np.linspace(0, 1, 51)
    p = solve(det_spec(theta=0.7), times)
    assert np.all(p == pytest.approx(0.7, abs=1e-15))


def test_theta_plus_time_to_go_exact():
    times = np.linspace(0, 1, 201)
    p = solve(det_spec(phi=1.0, theta=1.0), times)
    assert np.max(np.abs(p - (1.0 + 1.0 - times))) < 1e-12


def test_exponential_case_and_backward_euler_agreement():
    a, theta0 = 0.5, 1.0
    times = np.linspace(0, 1, 201)
    spec = det_spec(alpha=a, theta=theta0)
    gamma_rep = solve(spec, times)
    implicit = backward_euler_reference(spec, times)
    dt = times[1] - times[0]
    assert np.max(np.abs(gamma_rep - implicit)) <= 2 * dt * abs(a) * theta0
    exact = theta0 * np.exp(a * (1 - times))
    assert np.max(np.abs(gamma_rep - exact)) <= theta0 * math.exp(a) * a * a * dt


@pytest.mark.parametrize(
    "terminal", [np.array([1.0, 2.0]), math.nan, math.inf], ids=["array", "nan", "inf"]
)
def test_closed_form_requires_deterministic_terminal(terminal):
    """theta must be a finite scalar: a NaN would make every P NaN."""
    with pytest.raises(ValueError, match="terminal"):
        det_spec(theta=terminal)


# -- adjoint reduction -------------------------------------------------------------

def test_adjoint_terminal_linear_is_constant_one():
    """g = x, l = 0, null dynamics: p0 = 1 everywhere."""
    bundle = flat_bundle(n=50, m=20, x0=2.0)
    model = ControlledModel(
        drift=lambda t, x, mu, u: np.zeros_like(x),
        vol=lambda t, x, mu, u: np.zeros_like(x),
        x0=2.0,
        horizon=1.0,
    )
    perf = PerformanceSpec(
        running=lambda t, x, m, mu, u: np.zeros_like(x),
        terminal=lambda x, m: x,
    )
    sol = adjoint_p0_solve(model, perf, bundle, trivial_controls())
    assert np.max(np.abs(sol.P - 1.0)) <= 1e-9


def test_adjoint_quadratic_terminal_deterministic_dynamics():
    """g = x^2, b = a x, sigma = 0: p0(t) = 2 x0 e^{a (2T - t)} up to Euler error."""
    a, x0 = 0.3, 1.2
    model = ControlledModel(
        drift=lambda t, x, mu, u: a * x,
        vol=lambda t, x, mu, u: np.zeros_like(x),
        x0=x0,
        horizon=1.0,
    )
    bundle = simulate(model, trivial_controls(), 3, 400, seed=0)
    perf = PerformanceSpec(
        running=lambda t, x, m, mu, u: np.zeros_like(x),
        terminal=lambda x, m: x * x,
    )
    sol = adjoint_p0_solve(model, perf, bundle, trivial_controls())
    target = 2 * x0 * np.exp(a * (2.0 - bundle.times))
    assert np.max(np.abs(sol.P[0] - target) / target) <= 5e-3


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 200),
    m=st.integers(2, 60),
    theta=st.floats(0.1, 5.0),
    # Euler steps up to 0.05, so T = M dt up to 3; a coarser step can drive
    # Gamma nonpositive, which GammaPositivityError reports
    dt=st.floats(0.005, 0.05),
)
def test_adjoint_consumption_product_identity(seed, n, m, theta, dt):
    """p0(t) X(t) = theta + T - t pathwise for the consumption adjoint, on any
    seed, population, grid, terminal weight and horizon."""
    import mfclab.consumption as cons

    horizon = m * dt
    model = cons.ConsumptionModel(
        x0=1.0, horizon=horizon, sigma=0.2, theta=theta, levy=LevyMeasure([0.1], [0.5]),
    )
    cf = cons.closed_form_controls(model)
    state = cons.state_model(model)
    bundle = simulate(state, cons.feedback_pair(model, cf), n, m, seed=seed)
    pair, _, _ = cons.frozen_pair(model, cf, bundle)
    sol = adjoint_p0_solve(state, cons.performance(model), bundle, pair)
    product = sol.P * bundle.states
    target = theta + horizon - bundle.times
    assert np.max(np.abs(product - target[None, :])) <= 1e-10


def test_adjoint_solve_peak_memory_is_one_gamma_table():
    """alpha, beta and jump_phi are folded into Gamma step by step, phi is
    evaluated one step at a time in the backward sweep, and P is written
    over the Gamma table: the peak is that one table, about 1.2 of the
    (N, M+1) tables (one Levy atom), where a stored phi table reads 2.2, a
    separate P table 3.15 and tabulated coefficients 6."""
    import mfclab.consumption as cons

    n, m = 2000, 50
    model = cons.ConsumptionModel(
        x0=1.0, horizon=1.0, sigma=0.2, theta=1.0, levy=LevyMeasure([0.1], [0.5]),
    )
    cf = cons.closed_form_controls(model)
    state = cons.state_model(model)
    bundle = simulate(state, cons.feedback_pair(model, cf), n, m, seed=5)
    pair, _, _ = cons.frozen_pair(model, cf, bundle)
    tracemalloc.start()
    try:
        sol = adjoint_p0_solve(state, cons.performance(model), bundle, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.P.shape == (n, m + 1)
    assert peak < 1.5 * n * (m + 1) * 8


def test_adjoint_recomputed_phi_is_bitwise_the_two_table_formula():
    """With no analytic partials, phi = dl/dx is the central difference of a
    running cost that reads the law, under feedback controls that see a
    delayed law.  Evaluating phi in the backward sweep gives the bits of a
    tabulated phi table swept after the Gamma pass."""
    levy = LevyMeasure([-0.2, 0.3], [0.7, 1.1])
    model = ControlledModel(
        drift=lambda t, x, mu, u: (mu.mass_on(0.0, math.inf) - u) * x + 0.1 * np.sin(x),
        vol=lambda t, x, mu, u: 0.2 * x + 0.05 * np.cos(x),
        jump=lambda t, x, mu, u, z: z * x / (1.0 + 0.1 * x * x),
        levy=levy,
        x0=1.0,
        horizon=1.0,
    )
    delay = InfoPattern(delay=0.1)
    controls = ControlPair(
        measure_ctrl=lambda t, info: info.law + DiscreteMeasure([2.0, -1.0], [0.1, -0.1]),
        scalar_ctrl=lambda t, info: 0.5 + 0.1 * info.x,
        mu_info=delay,
        u_info=delay,
    )
    perf = PerformanceSpec(
        running=lambda t, x, m, mu, u: (
            np.log(1.0 + x * x) * m.mass_on(0.5, math.inf) + (mu.mass_on(0.0, 1.0) - u) * x
        ),
        terminal=lambda x, m: np.sqrt(1.0 + x * x) * m.mass_on(-math.inf, 1.0),
    )
    n, m = 300, 40
    bundle = simulate(model, controls, n, m, seed=11)
    assert controls.mu_info.lag_steps(bundle.dt) > 0

    sol = adjoint_p0_solve(model, perf, bundle, controls)

    # the two-table formula: tabulate phi and Gamma forward, then sweep back
    dt = bundle.noise.dt
    lx = _partial_x(perf.running, None)
    bx, sx, gx = (_partial_x(f, None) for f in (model.drift, model.vol, model.jump))
    phi = _time_major(n, m)
    gam = _gamma_start(n, m)
    for sv in iter_steps(bundle, controls):
        k, t, x, mu, u = sv.k, sv.t, sv.x, sv.mu_ctrl, sv.u
        phi[:, k] = lx(t, x, sv.law, sv.mu_ctrl, u)
        jump_phi = [gx(t, x, mu, u, zeta) for zeta in levy.jump_sizes]
        _gamma_step(gam, k, bx(t, x, mu, u), sx(t, x, mu, u), jump_phi, levy, bundle.noise)
    x_T, m_T = bundle.states[:, -1], bundle.law_at(m)
    theta = np.empty(n)
    theta[:] = _central_difference(lambda h: perf.terminal(x_T + h, m_T))
    expected = np.empty((n, m + 1))
    acc = theta * gam[:, m]
    expected[:, m] = theta
    for k in range(m - 1, -1, -1):
        acc = acc + gam[:, k] * phi[:, k] * dt
        expected[:, k] = acc / gam[:, k]
    assert sol.P.tobytes(order="F") == expected.tobytes(order="F")
