"""Tests for the linear BSDE solver and the Gamma representation."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfclab.bsde import (
    EstimationError,
    GammaPositivityError,
    LinearBsdeSpec,
    _gamma_start,
    _gamma_step,
    _tabulate,
    adjoint_p0_solve,
    backward_euler_reference,
    resolve_basis,
    solve,
)
from mfclab.lawproc import LevyMeasure
from mfclab.measures import DiscreteMeasure
from mfclab.sde import (
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


def det_spec(phi=0.0, alpha=0.0, beta=0.0, jump_phi=0.0, theta=1.0, levy=None):
    return LinearBsdeSpec(
        phi=lambda t, ctx: phi,
        alpha=lambda t, ctx: alpha,
        beta=lambda t, ctx: beta,
        jump_phi=lambda t, z, ctx: jump_phi,
        terminal=lambda ctx: theta,
        levy=levy,
    )


def trivial_controls():
    return ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(0.0),
        scalar_ctrl=lambda t, info: 0.0,
    )


def flat_bundle(n=200, m=50, seed=0, x0=1.0, drift=None, vol=None, levy=None, jump=None):
    model = ControlledModel(
        drift=drift or (lambda t, x, mu, u, s: np.zeros_like(x)),
        vol=vol or (lambda t, x, mu, u, s: np.zeros_like(x)),
        jump=jump,
        levy=levy,
        x0=x0,
        horizon=1.0,
    )
    return simulate(model, trivial_controls(), n, m, seed=seed)


# -- Gamma process -----------------------------------------------------------

def gamma_paths(spec, bundle):
    """Euler paths of the Gamma process on a bundle's noise."""
    return _tabulate(spec, bundle).gamma


def test_gamma_trivial_is_one():
    bundle = flat_bundle(n=20, m=10)
    gam = gamma_paths(det_spec(), bundle)
    assert np.all(gam == 1.0)


def test_gamma_deterministic_exponential():
    """alpha = a, beta = 0: Gamma(t_k) = (1 + a dt)^k, close to e^{at}."""
    a = 0.4
    bundle = flat_bundle(n=3, m=100)
    gam = gamma_paths(det_spec(alpha=a), bundle)
    dt = bundle.dt
    expected = (1 + a * dt) ** np.arange(101)
    assert np.allclose(gam[0], expected, rtol=1e-12)
    assert np.max(np.abs(gam[0] - np.exp(a * bundle.times))) <= math.exp(a) * a * a * dt


def test_gamma_martingale_mean_one():
    bundle = flat_bundle(n=40_000, m=50, seed=41)
    gam = gamma_paths(det_spec(beta=0.4), bundle)
    gt = gam[:, -1]
    z = (gt.mean() - 1.0) / (gt.std(ddof=1) / math.sqrt(gt.size))
    assert abs(z) <= 3.0


def test_gamma_with_jumps_stays_positive_and_compensated():
    levy = LevyMeasure([0.5], [1.0])
    bundle = flat_bundle(n=20_000, m=100, seed=13, levy=levy, jump=lambda t, x, mu, u, z, s: np.zeros_like(x))
    gam = gamma_paths(det_spec(jump_phi=0.8, levy=levy), bundle)
    assert np.all(gam > 0)
    gt = gam[:, -1]
    z = (gt.mean() - 1.0) / (gt.std(ddof=1) / math.sqrt(gt.size))
    assert abs(z) <= 3.0


def test_gamma_jump_phi_below_minus_one_rejected():
    levy = LevyMeasure([0.5], [1.0])
    bundle = flat_bundle(n=100, m=10, seed=2, levy=levy, jump=lambda t, x, mu, u, z, s: np.zeros_like(x))
    with pytest.raises(GammaPositivityError):
        gamma_paths(det_spec(jump_phi=-1.5, levy=levy), bundle)


def test_gamma_step_size_error():
    bundle = flat_bundle(n=50, m=4, seed=3)  # dt = 0.25, huge negative drift
    with pytest.raises(GammaPositivityError, match="step"):
        gamma_paths(det_spec(alpha=-5.0), bundle)


# -- closed-form estimator ------------------------------------------------------

def test_constant_terminal():
    times = np.linspace(0, 1, 51)
    sol = solve(det_spec(theta=0.7), times=times)
    assert np.all(sol.P == pytest.approx(0.7, abs=1e-15))


def test_theta_plus_time_to_go_exact():
    times = np.linspace(0, 1, 201)
    sol = solve(det_spec(phi=1.0, theta=1.0), times=times)
    assert np.max(np.abs(sol.P - (1.0 + 1.0 - times))) < 1e-12


def test_exponential_case_and_backward_euler_agreement():
    a, theta0 = 0.5, 1.0
    times = np.linspace(0, 1, 201)
    spec = det_spec(alpha=a, theta=theta0)
    gamma_rep = solve(spec, times=times).P
    implicit = backward_euler_reference(spec, times)
    dt = times[1] - times[0]
    assert np.max(np.abs(gamma_rep - implicit)) <= 2 * dt * abs(a) * theta0
    exact = theta0 * np.exp(a * (1 - times))
    assert np.max(np.abs(gamma_rep - exact)) <= theta0 * math.exp(a) * a * a * dt


def test_closed_form_requires_deterministic_terminal():
    spec = LinearBsdeSpec(
        phi=lambda t, ctx: 0.0,
        alpha=lambda t, ctx: 0.0,
        beta=lambda t, ctx: 0.0,
        jump_phi=lambda t, z, ctx: 0.0,
        terminal=lambda ctx: np.array([1.0, 2.0]),
    )
    with pytest.raises(ValueError):
        solve(spec, times=np.linspace(0, 1, 11))


# -- stochastic estimators --------------------------------------------------------

@pytest.fixture(scope="module")
def ou_setup():
    model = ControlledModel(
        drift=lambda t, x, mu, u, s: -0.5 * x,
        vol=lambda t, x, mu, u, s: 0.8 * np.ones_like(x),
        x0=1.0,
        horizon=1.0,
    )
    ctrl = trivial_controls()
    bundle = simulate(model, ctrl, 256, 16, seed=31)
    spec = LinearBsdeSpec(
        phi=lambda t, ctx: 0.5 * np.tanh(ctx.x) if ctx is not None else 0.0,
        alpha=lambda t, ctx: -0.2 - 0.1 * np.tanh(ctx.x),
        beta=lambda t, ctx: 0.3,
        jump_phi=lambda t, z, ctx: 0.0,
        terminal=lambda ctx: 2.0 + np.tanh(ctx.x),
    )
    return model, ctrl, bundle, spec


def test_terminal_exactness_every_estimator(ou_setup):
    model, ctrl, bundle, spec = ou_setup
    theta = 2.0 + np.tanh(bundle.states[:, -1])
    for estimator, kwargs in (
        ("pathwise", {}),
        ("regression", {"basis": "poly3"}),
        ("nested-mc", {"n_inner": 8, "model": model, "controls": ctrl, "seed": 5}),
    ):
        sol = solve(spec, bundle=bundle, estimator=estimator, **kwargs)
        assert np.array_equal(sol.P[:, -1], theta)


def test_estimator_agreement_nested_vs_regression(ou_setup):
    """Scenario-mean P(t) agreement within 3 combined standard errors."""
    model, ctrl, bundle, spec = ou_setup
    sol_n = solve(spec, bundle=bundle, estimator="nested-mc", n_inner=128, model=model, controls=ctrl, seed=77)
    sol_r = solve(spec, bundle=bundle, estimator="regression", basis="poly3")
    sol_p = solve(spec, bundle=bundle, estimator="pathwise")
    rt = math.sqrt(bundle.n_particles)
    for k in (0, 8, 12):
        diff = abs(sol_n.P[:, k].mean() - sol_r.P[:, k].mean())
        se = math.hypot(sol_n.P[:, k].std(ddof=1) / rt, sol_p.P[:, k].std(ddof=1) / rt)
        assert diff <= 3 * se


def test_martingale_property_nested_mc(ou_setup):
    """phi = 0: E[Gamma(t) P(t)] is constant across the grid within 3 SE."""
    model, ctrl, bundle, _ = ou_setup
    spec0 = LinearBsdeSpec(
        phi=lambda t, ctx: 0.0,
        alpha=lambda t, ctx: -0.2 - 0.1 * np.tanh(ctx.x) if ctx is not None else -0.2,
        beta=lambda t, ctx: 0.3,
        jump_phi=lambda t, z, ctx: 0.0,
        terminal=lambda ctx: 2.0 + np.tanh(ctx.x),
    )
    sol = solve(spec0, bundle=bundle, estimator="nested-mc", n_inner=128, model=model, controls=ctrl, seed=78)
    gam = gamma_paths(spec0, bundle)
    prod = gam * sol.P
    ref = prod[:, -1]
    rt = math.sqrt(bundle.n_particles)
    for k in (0, 4, 8, 12):
        d = prod[:, k] - ref
        assert abs(d.mean()) <= 3 * d.std(ddof=1) / rt


def test_pathwise_gamma_p_identity(ou_setup):
    """Pathwise estimator: Gamma(t) Y(t) + int_0^t Gamma phi is constant by construction."""
    _, _, bundle, spec = ou_setup
    sol = solve(spec, bundle=bundle, estimator="pathwise")
    gam = gamma_paths(spec, bundle)
    dt = bundle.dt
    phi_vals = np.stack(
        [0.5 * np.tanh(bundle.states[:, k]) for k in range(bundle.n_steps)], axis=1
    )
    running = np.concatenate(
        [np.zeros((bundle.n_particles, 1)), np.cumsum(gam[:, :-1] * phi_vals * dt, axis=1)],
        axis=1,
    )
    total = gam * sol.P + running
    assert np.max(np.abs(total - total[:, [0]])) <= 1e-10


def test_regression_rank_deficiency_error(ou_setup):
    _, _, bundle, spec = ou_setup
    duplicate = [lambda ctx: np.ones_like(ctx.x), lambda ctx: ctx.x, lambda ctx: ctx.x]
    with pytest.raises(EstimationError, match="condition number"):
        solve(spec, bundle=bundle, estimator="regression", basis=duplicate)


@pytest.mark.parametrize("basis", ["poly3+inv", "polyx", "cubic", "poly", "poly-1"])
def test_malformed_basis_spec_raises(ou_setup, basis):
    _, _, bundle, spec = ou_setup
    with pytest.raises(ValueError, match="unknown basis spec"):
        solve(spec, bundle=bundle, estimator="regression", basis=basis)


@pytest.mark.parametrize("basis", [3, 2.5, lambda ctx: ctx.x])
def test_basis_of_another_type_raises(basis):
    with pytest.raises(TypeError, match="poly<k>.*list of callables.*None"):
        resolve_basis(basis)


def test_solver_argument_validation(ou_setup):
    _, _, bundle, spec = ou_setup
    with pytest.raises(ValueError):
        solve(spec, estimator="pathwise")  # no bundle
    with pytest.raises(ValueError):
        solve(spec, bundle=bundle, estimator="nested-mc")  # missing pieces
    with pytest.raises(ValueError):
        solve(spec, bundle=bundle, estimator="frequentist")


def test_nested_mc_rejects_empirical_mu_mode(ou_setup):
    """Inner laws over N * n_inner clones would be a wrong mean-field coupling."""
    model, ctrl, _, spec = ou_setup
    bundle = simulate(model, ctrl, 256, 16, seed=31, mu_mode="empirical")
    with pytest.raises(ValueError, match="mu_mode='empirical'"):
        solve(
            spec, bundle=bundle, estimator="nested-mc", n_inner=4,
            model=model, controls=ctrl, seed=3,
        )


def test_nested_mc_coefficients_read_outer_scenario():
    """Every coefficient of an inner path sees its outer scenario in ctx.scenario.

    alpha = 0.5 (scenario mod 2) with no noise in Gamma makes P deterministic
    per scenario, so nested MC must reproduce the pathwise P.  Nested MC
    evaluates alpha on inner paths only: sum_k (M - k) = 36 calls of size
    N * n_inner = 24, none along the 6 outer paths.
    """
    model = ControlledModel(
        drift=lambda t, x, mu, u, s: -0.5 * x,
        vol=lambda t, x, mu, u, s: 0.8 * np.ones_like(x),
        x0=1.0,
        horizon=1.0,
    )
    ctrl = trivial_controls()
    bundle = simulate(model, ctrl, 6, 8, seed=4)
    alpha_sizes = []

    def alpha(t, ctx):
        alpha_sizes.append(ctx.x.size)
        return 0.5 * (ctx.scenario % 2)

    spec = LinearBsdeSpec(
        phi=lambda t, ctx: 0.0,
        alpha=alpha,
        beta=lambda t, ctx: 0.0,
        jump_phi=lambda t, z, ctx: 0.0,
        terminal=lambda ctx: 1.0,
    )
    nested = solve(spec, bundle=bundle, estimator="nested-mc", n_inner=4, model=model, controls=ctrl, seed=9)
    assert alpha_sizes == [24] * 36
    pathwise = solve(spec, bundle=bundle, estimator="pathwise")
    assert pathwise.P[1, 0] > pathwise.P[0, 0] == 1.0
    assert np.max(np.abs(nested.P - pathwise.P)) <= 1e-12


# -- adjoint reduction -------------------------------------------------------------

def test_adjoint_terminal_linear_is_constant_one():
    """g = x, l = 0, null dynamics: p0 = 1 everywhere."""
    bundle = flat_bundle(n=50, m=20, x0=2.0)
    model = ControlledModel(
        drift=lambda t, x, mu, u, s: np.zeros_like(x),
        vol=lambda t, x, mu, u, s: np.zeros_like(x),
        x0=2.0,
        horizon=1.0,
    )
    perf = PerformanceSpec(
        running=lambda t, x, m, mu, u, s: np.zeros_like(x),
        terminal=lambda x, m, s: x,
    )
    sol = adjoint_p0_solve(model, perf, bundle, trivial_controls())
    assert np.max(np.abs(sol.P - 1.0)) <= 1e-9


def test_adjoint_quadratic_terminal_deterministic_dynamics():
    """g = x^2, b = a x, sigma = 0: p0(t) = 2 x0 e^{a (2T - t)} up to Euler error."""
    a, x0 = 0.3, 1.2
    model = ControlledModel(
        drift=lambda t, x, mu, u, s: a * x,
        vol=lambda t, x, mu, u, s: np.zeros_like(x),
        x0=x0,
        horizon=1.0,
    )
    bundle = simulate(model, trivial_controls(), 3, 400, seed=0)
    perf = PerformanceSpec(
        running=lambda t, x, m, mu, u, s: np.zeros_like(x),
        terminal=lambda x, m, s: x * x,
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
        x0=1.0, horizon=horizon, vol=lambda t: 0.2, theta=theta,
        jump_scale=lambda t, z: z, levy=LevyMeasure([0.1], [0.5]),
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
        x0=1.0, horizon=1.0, vol=lambda t: 0.2, theta=1.0,
        jump_scale=lambda t, z: z, levy=LevyMeasure([0.1], [0.5]),
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
        drift=lambda t, x, mu, u, s: (mu.mass_on(0.0, math.inf) - u) * x + 0.1 * np.sin(x),
        vol=lambda t, x, mu, u, s: 0.2 * x + 0.05 * np.cos(x),
        jump=lambda t, x, mu, u, z, s: z * x / (1.0 + 0.1 * x * x),
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
        running=lambda t, x, m, mu, u, s: (
            np.log(1.0 + x * x) * m.mass_on(0.5, math.inf) + (mu.mass_on(0.0, 1.0) - u) * x
        ),
        terminal=lambda x, m, s: np.sqrt(1.0 + x * x) * m.mass_on(-math.inf, 1.0),
    )
    n, m = 300, 40
    bundle = simulate(model, controls, n, m, seed=11, mu_mode="empirical")
    assert controls.mu_info.lag_steps(bundle.dt) > 0

    sol = adjoint_p0_solve(model, perf, bundle, controls)

    # the two-table formula: tabulate phi and Gamma forward, then sweep back
    scen = np.arange(n)
    dt = bundle.noise.dt
    lx = _partial_x(perf.running, None)
    bx, sx, gx = (_partial_x(f, None) for f in (model.drift, model.vol, model.jump))
    phi = _time_major(n, m)
    gam = _gamma_start(n, m)
    for sv in iter_steps(bundle, controls):
        k, t, x, mu, u = sv.k, sv.t, sv.x, sv.mu_coeff, sv.u
        phi[:, k] = lx(t, x, sv.law, sv.mu_ctrl, u, scen)
        jump_phi = [gx(t, x, mu, u, zeta, scen) for zeta in levy.jump_sizes]
        _gamma_step(gam, k, bx(t, x, mu, u, scen), sx(t, x, mu, u, scen), jump_phi, levy, bundle.noise)
    x_T, m_T = bundle.states[:, -1], bundle.law_at(m)
    theta = np.empty(n)
    theta[:] = _central_difference(lambda h: perf.terminal(x_T + h, m_T, scen))
    expected = np.empty((n, m + 1))
    acc = theta * gam[:, m]
    expected[:, m] = theta
    for k in range(m - 1, -1, -1):
        acc = acc + gam[:, k] * phi[:, k] * dt
        expected[:, k] = acc / gam[:, k]
    assert sol.P.tobytes(order="F") == expected.tobytes(order="F")
