"""Tests for Hamiltonians, first-order residuals, sweeps and Gateaux checks."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfclab.consumption as cons
from mfclab.bsde import GammaPositivityError, adjoint_p0_solve
from mfclab.experiments import lq_candidates, lq_toy_game
from mfclab.game import (
    GameSpec,
    IntervalMass,
    PerturbationPlan,
    UnsupportedModelError,
    _dh_dmu_samples,
    first_order_residuals,
    gateaux_check,
    nash_perturbation_sweep,
    solve_adjoints,
)
from mfclab.lawproc import LevyMeasure
from mfclab.measures import DiscreteMeasure
from mfclab.sde import (
    ControlPair,
    ControlledModel,
    Direction,
    PerformanceSpec,
    _mu_shifts,
    iter_steps,
    simulate,
)


@pytest.fixture(scope="module")
def lq():
    spec = lq_toy_game()
    candidate = lq_candidates(1.0, 1.0, 1.0)
    bundle = simulate(spec.model, candidate, 2000, 50, seed=15)
    adjoint = solve_adjoints(spec, bundle, candidate)
    return spec, candidate, bundle, adjoint


@pytest.fixture(scope="module")
def cgame():
    model = cons.ConsumptionModel(
        x0=1.0, horizon=1.0, sigma=0.2, theta=1.0, levy=LevyMeasure([0.1], [0.5]),
    )
    spec = cons.game_spec(model)
    cf = cons.closed_form_controls(model)
    bundle = simulate(spec.model, cons.feedback_pair(model, cf), 2000, 100, seed=51)
    candidate, _, _ = cons.frozen_pair(model, cf, bundle)
    adjoint = solve_adjoints(spec, bundle, candidate)
    return model, spec, candidate, bundle, adjoint


# -- Hamiltonian evaluation ----------------------------------------------------

def hamiltonian(spec, player, t, x, m, mu, u, bundle, adjoint):
    """H_player = l + p0 b at one grid time along the adjoint's particles:
    the reference that the dH samples of the residuals are checked against.

    ``x`` (and ``u``) may be scalars or per-particle arrays; the result
    broadcasts against the stored p0 particles.  Raises if ``t`` is not a
    grid point of the bundle the adjoint was solved along.
    """
    times = bundle.times
    k = int(round((t - times[0]) / (times[1] - times[0])))
    if not (0 <= k < len(times)) or abs(times[k] - t) > 1e-9:
        raise ValueError(f"no adjoint value at t={t}")
    p0 = adjoint[player].p_at(k)
    perf = spec.performance_for(player)
    value = perf.running(t, x, m, mu, u) + p0 * spec.model.drift(t, x, mu, u)
    return float(value) if np.ndim(value) == 0 else value


def test_hamiltonian_reduces_to_running_cost(lq):
    """With null dynamics and l = 1 the Hamiltonian is 1."""
    model = ControlledModel(
        drift=lambda t, x, mu, u: np.zeros_like(np.asarray(x, dtype=float)),
        vol=lambda t, x, mu, u: np.zeros_like(np.asarray(x, dtype=float)),
        x0=0.0,
        horizon=1.0,
    )
    perf = PerformanceSpec(
        running=lambda t, x, m, mu, u: np.ones_like(np.asarray(x, dtype=float)),
        terminal=lambda x, m: np.zeros_like(np.asarray(x, dtype=float)),
    )
    spec = GameSpec(model, perf, perf)
    ctrl = ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(0.0),
        scalar_ctrl=lambda t, info: 0.0,
    )
    bundle = simulate(model, ctrl, 10, 10, seed=0)
    adjoint = solve_adjoints(spec, bundle, ctrl)
    m0 = bundle.law_at(0)
    val = hamiltonian(spec, 2, 0.0, bundle.states[:, 0], m0, m0, 0.0, bundle, adjoint)
    assert np.allclose(val, 1.0)


def test_hamiltonian_consumption_formula(cgame):
    """H = log(rho x) + (mu(V) - m(V))^2 + p0 (mu(V) - rho) x with sigma/gamma/p1 terms absent."""
    model, spec, candidate, bundle, adjoint = cgame
    k = 30
    t = float(bundle.times[k])
    sv = None
    for view in iter_steps(bundle, candidate):
        if view.k == k:
            sv = view
            break
    p0 = adjoint[2].p_at(k)
    lo, hi = model.v_interval
    mu_v = sv.mu_ctrl.mass_on(lo, hi)
    m_v = sv.law.mass_on(lo, hi)
    manual = (
        np.log(sv.u * sv.x) + (mu_v - m_v) ** 2 + p0 * (mu_v - sv.u) * sv.x
    )
    val = hamiltonian(spec, 2, t, sv.x, sv.law, sv.mu_ctrl, sv.u, bundle, adjoint)
    assert np.allclose(val, manual, rtol=1e-12)


def test_hamiltonian_missing_adjoint_time(lq):
    spec, candidate, bundle, adjoint = lq
    m0 = bundle.law_at(0)
    with pytest.raises(ValueError, match="adjoint"):
        hamiltonian(spec, 2, 0.12345, 0.0, m0, m0, 0.0, bundle, adjoint)


# -- first-order residuals ---------------------------------------------------------

def test_lq_residuals_vanish_at_equilibrium(lq):
    spec, candidate, bundle, adjoint = lq
    res = first_order_residuals(spec, candidate, bundle, adjoint)
    assert np.max(np.abs(res.res_u)) <= 1e-9
    assert np.max(np.abs(res.res_mu["mass_V"])) <= 1e-9
    assert res.u_within() and res.mu_within()


@settings(max_examples=25, deadline=None)
@given(
    q1=st.floats(-2.0, 2.0).filter(bool),
    q2=st.floats(-2.0, 2.0).filter(bool),
    n=st.integers(2, 500),
    m=st.integers(10, 40),
    lam=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_lq_sufficient_maximum_principle_across_the_box(q1, q2, n, m, lam, seed):
    """The LQ game's Nash candidates over the box: nonzero q1, q2 in [-2, 2],
    2 to 500 particles, 10 to 40 steps, lambda in [0, 1].  The residuals of
    ``lq_candidates(q1, q2, T)`` vanish; along the grid optimum
    ``dt_shift = dt`` every sweep row's delta is -lambda^2 (T - t0) / 2
    within max(2 se, 1e-9), in both players' directions."""
    spec = lq_toy_game(q1, q2)
    horizon = spec.model.horizon
    candidate = lq_candidates(q1, q2, horizon)
    bundle = simulate(spec.model, candidate, n, m, seed=seed)
    res = first_order_residuals(spec, candidate, bundle, solve_adjoints(spec, bundle, candidate))
    assert np.max(np.abs(res.res_u)) <= 1e-9
    assert np.max(np.abs(res.res_mu["mass_V"])) <= 1e-9
    assert res.u_within() and res.mu_within()

    grid = lq_candidates(q1, q2, horizon, dt_shift=horizon / m)
    t0 = 0.0
    plan = PerturbationPlan(
        directions=[
            Direction(kind="measure", t0=t0, measure=DiscreteMeasure.dirac(0.0)),
            Direction(kind="control", t0=t0, scalar=1.0),
        ],
        lambdas=(lam, -lam),
    )
    grid_bundle = simulate(spec.model, grid, noise=bundle.noise)
    for row in nash_perturbation_sweep(spec, grid, plan, grid_bundle).rows:
        predicted = -0.5 * row.lam**2 * (horizon - t0)
        assert abs(row.delta - predicted) <= max(2 * row.std_err, 1e-9), row


def test_lq_inflated_candidate_breaks_residuals(lq):
    spec, _, _, _ = lq
    bad = lq_candidates(1.1, 1.1, 1.0)
    bundle = simulate(spec.model, bad, 2000, 50, seed=15)
    adjoint = solve_adjoints(spec, bundle, bad)
    res = first_order_residuals(spec, bad, bundle, adjoint)
    assert not res.u_within()
    assert not res.mu_within()


def test_consumption_residuals_derived_variant(cgame):
    model, spec, candidate, bundle, adjoint = cgame
    res = first_order_residuals(spec, candidate, bundle, adjoint)
    assert res.u_within() and res.mu_within()


def test_consumption_stated_variant_residuals_fail(cgame):
    model, spec, _, _, _ = cgame
    cf = cons.closed_form_controls(model, "stated-theorem")
    bundle = simulate(spec.model, cons.feedback_pair(model, cf), 2000, 100, seed=51)
    candidate, _, _ = cons.frozen_pair(model, cf, bundle)
    adjoint = solve_adjoints(spec, bundle, candidate)
    res = first_order_residuals(spec, candidate, bundle, adjoint)
    # player 1 maximizes -J, so dH_1/dmu = -2(mu - M)(V) - p0 X = -3 (T - t)
    assert not res.mu_within()
    expected = -3.0 * (1.0 - bundle.times[:-1])
    assert np.allclose(res.res_mu["mass_V"], expected, atol=1e-6)


def test_consumption_wrong_rho_residual_bounded_away(cgame):
    """rho = 2 rho_hat: dH/du = 1/(2 rho_hat) - (theta + T - t) = -(theta + T - t)/2."""
    model, spec, _, base_bundle, _ = cgame
    cf = cons.closed_form_controls(model)
    frozen, _, _ = cons.frozen_pair(model, cf, base_bundle)
    candidate = replace(frozen, scalar_ctrl=cons._frozen_rate(cf, base_bundle, 2.0))
    bundle = simulate(spec.model, candidate, 2000, 100, seed=51)
    adjoint = solve_adjoints(spec, bundle, candidate)
    res = first_order_residuals(spec, candidate, bundle, adjoint)
    times = bundle.times[:-1]
    first_half = times < 0.5
    expected = -0.5 * (1.0 + 1.0 - times)
    assert np.allclose(res.res_u, expected, atol=1e-6)
    assert np.all(np.abs(res.res_u[first_half]) > 5 * res.se_u[first_half] + 1e-6)


def test_zero_sum_consistency(cgame):
    """Player-1 residual equals the exact negation of the player-2-side value."""
    model, spec, candidate, bundle, adjoint = cgame
    eta = spec.functionals[0].unit_direction()
    for sv in iter_steps(bundle, candidate):
        if sv.k not in (0, 25, 50):
            continue
        p1 = adjoint[1].p_at(sv.k)
        p2 = adjoint[2].p_at(sv.k)
        assert np.max(np.abs(p1 + p2)) <= 1e-12 * max(1.0, np.max(np.abs(p2)))
        d1 = _dh_dmu_samples(spec, sv, p1, _mu_shifts(sv.mu_ctrl, eta), 1)
        d2 = _dh_dmu_samples(spec, sv, p2, _mu_shifts(sv.mu_ctrl, eta), 2)
        assert np.max(np.abs(d1 + d2)) <= 1e-12


_jump_atoms = st.lists(
    st.tuples(st.floats(-1.0, 2.0, exclude_min=True).filter(bool), st.floats(0.05, 3.0)),
    max_size=3,
)


def _assert_zero_sum_negation(model, n, m, seed, allow_refusal=False):
    """A solve of player 1's own criterion equals the negated player-2
    adjoint that the zero-sum game reads, at every step.  With
    ``allow_refusal`` a grid that player 2's solve refuses passes if player
    1's own solve refuses it too; otherwise any refusal fails."""
    spec = cons.game_spec(model)
    cf = cons.closed_form_controls(model)
    bundle = simulate(spec.model, cons.feedback_pair(model, cf), n, m, seed=seed)
    candidate, _, _ = cons.frozen_pair(model, cf, bundle)
    try:
        adjoint = solve_adjoints(spec, bundle, candidate)
    except GammaPositivityError:
        if not allow_refusal:
            raise
        # a step too coarse for some particle's Euler factor of Gamma to stay
        # positive: player 1's own solve refuses the same grid
        with pytest.raises(GammaPositivityError):
            adjoint_p0_solve(spec.model, spec.perf1, bundle, candidate)
        return
    own = adjoint_p0_solve(spec.model, spec.perf1, bundle, candidate)
    for k in range(bundle.n_steps + 1):
        assert np.array_equal(own.p_at(k), -adjoint[2].p_at(k)), k
        assert adjoint[1].p_at(k).tobytes() == (-adjoint[2].p_at(k)).tobytes()


@pytest.mark.parametrize("levy", [None, LevyMeasure([0.1], [0.5])], ids=["no-levy", "levy"])
def test_zero_sum_adjoints_are_exact_negations(levy):
    """Player 1's criterion negates player 2's, and so does its adjoint P, bit for bit."""
    model = cons.ConsumptionModel(x0=1.0, horizon=1.0, sigma=0.2, theta=1.0, levy=levy)
    _assert_zero_sum_negation(model, 400, 30, 3)


@settings(max_examples=25, deadline=None)
@given(
    theta=st.floats(0.05, 5.0),
    sigma=st.floats(-0.5, 0.5),
    jumps=_jump_atoms,
    v_lo=st.floats(-1.0, 2.0),
    v_width=st.one_of(st.just(math.inf), st.floats(0.05, 3.0)),
    n=st.integers(2, 500),
    m=st.integers(10, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_zero_sum_adjoints_negate_across_the_box(theta, sigma, jumps, v_lo, v_width, n, m, seed):
    """The exact negation of the zero-sum adjoints holds over the box: theta
    in [0.05, 5], |sigma| <= 0.5, up to three jump atoms in (-1, 2] at rates
    in [0.05, 3], V = (lo, hi] with lo in [-1, 2] and hi up to lo + 3 or
    infinite, 2 to 500 particles and 10 to 40 steps."""
    levy = LevyMeasure(*zip(*jumps)) if jumps else None
    model = cons.ConsumptionModel(
        x0=1.0, horizon=1.0, sigma=sigma, theta=theta, v_interval=(v_lo, v_lo + v_width), levy=levy,
    )
    _assert_zero_sum_negation(model, n, m, seed, allow_refusal=True)


def _spy_adjoint_solves(monkeypatch):
    """Record the args of every adjoint_p0_solve call that game makes."""
    import mfclab.game as game_module

    calls = []
    solve = game_module.adjoint_p0_solve

    def spy(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(game_module, "adjoint_p0_solve", spy)
    return calls


def test_zero_sum_game_solves_one_adjoint(cgame, monkeypatch):
    """A zero-sum game solves player 2's adjoint alone; player 1's reads as
    its negation, with the bits that a solve of player 1's criterion gives."""
    _, spec, candidate, bundle, _ = cgame
    calls = _spy_adjoint_solves(monkeypatch)
    adjoint = solve_adjoints(spec, bundle, candidate)
    assert len(calls) == 1 and calls[0][1] is spec.perf2
    own = adjoint_p0_solve(spec.model, spec.perf1, bundle, candidate)
    for k in range(bundle.n_steps + 1):
        assert adjoint[1].p_at(k).tobytes() == own.p_at(k).tobytes()


def test_general_game_solves_both_adjoints(lq, monkeypatch):
    """Two unrelated criteria, even ones that negate each other's values, are
    solved one by one."""
    spec, candidate, bundle, _ = lq
    calls = _spy_adjoint_solves(monkeypatch)
    solve_adjoints(spec, bundle, candidate)
    assert sorted(id(args[1]) for args in calls) == sorted(map(id, (spec.perf1, spec.perf2)))
    perf_a = spec.perf2
    perf_b = PerformanceSpec(
        running=lambda *a: -perf_a.running(*a), terminal=lambda *a: -perf_a.terminal(*a)
    )
    calls.clear()
    solve_adjoints(GameSpec(spec.model, perf_b, perf_a), bundle, candidate)
    assert len(calls) == 2


_LEVY = LevyMeasure([0.1], [0.5])
_U_DIRECTION = Direction(kind="control", scalar=1.0)
_MU_DIRECTION = Direction(kind="measure", measure=DiscreteMeasure.dirac(0.0))


@pytest.mark.parametrize(
    "vol,jump,message,direction",
    [
        (lambda t, x, mu, u: (0.1 + u) * np.ones_like(x), None, "sigma depends on u",
         _U_DIRECTION),
        (lambda t, x, mu, u: 0.1 * np.ones_like(x),
         lambda t, x, mu, u, z: z * (0.1 + u) * np.ones_like(x), "gamma depends on u",
         _U_DIRECTION),
        (lambda t, x, mu, u: (0.1 + mu.mass_on(-1, 1)) * np.ones_like(x), None,
         "sigma depends on mu", _MU_DIRECTION),
        (lambda t, x, mu, u: 0.1 * np.ones_like(x),
         lambda t, x, mu, u, z: z * (0.1 + mu.mass_on(-1, 1)) * np.ones_like(x),
         "gamma depends on mu", _MU_DIRECTION),
    ],
    ids=["sigma-u", "gamma-u", "sigma-mu", "gamma-mu"],
)
def test_unsupported_model_raises(vol, jump, message, direction):
    """sigma or gamma reading a control needs a q0/r0 estimate that is not
    available: the residuals probe both players, and ``gateaux_check`` the
    player that ``direction`` deviates."""
    model = ControlledModel(
        drift=lambda t, x, mu, u: np.zeros_like(x),
        vol=vol,
        jump=jump,
        levy=None if jump is None else _LEVY,
        x0=1.0,
        horizon=1.0,
    )
    perf = PerformanceSpec(
        running=lambda t, x, m, mu, u: np.zeros_like(x),
        terminal=lambda x, m: x,
    )
    spec = GameSpec(model, perf, perf, functionals=(IntervalMass(-1, 1, 0.0),))
    ctrl = ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(0.0),
        scalar_ctrl=lambda t, info: 0.2,
    )
    bundle = simulate(model, ctrl, 50, 10, seed=0)
    adjoint = solve_adjoints(spec, bundle, ctrl)
    with pytest.raises(UnsupportedModelError, match=message):
        first_order_residuals(spec, ctrl, bundle, adjoint)
    with pytest.raises(UnsupportedModelError, match=message):
        gateaux_check(spec, ctrl, direction, (0.1,), bundle)


def test_control_dependence_after_first_step_raises():
    """sigma = 0.1 + t u ignores u at t = 0 only: every grid step is probed."""
    model = ControlledModel(
        drift=lambda t, x, mu, u: np.zeros_like(x),
        vol=lambda t, x, mu, u: (0.1 + t * u) * np.ones_like(x),
        x0=1.0,
        horizon=1.0,
    )
    perf = PerformanceSpec(
        running=lambda t, x, m, mu, u: np.zeros_like(x),
        terminal=lambda x, m: x,
    )
    spec = GameSpec(model, perf, perf, functionals=(IntervalMass(-1, 1, 0.0),))
    ctrl = ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(0.0),
        scalar_ctrl=lambda t, info: 0.2,
    )
    bundle = simulate(model, ctrl, 50, 10, seed=0)
    adjoint = solve_adjoints(spec, bundle, ctrl)
    with pytest.raises(UnsupportedModelError, match="sigma depends on u"):
        first_order_residuals(spec, ctrl, bundle, adjoint)
    direction = Direction(kind="control", t0=0.0, scalar=1.0)
    with pytest.raises(UnsupportedModelError, match="sigma depends on u"):
        gateaux_check(spec, ctrl, direction, (0.1,), bundle)


# -- perturbation sweeps ------------------------------------------------------------

def test_sweep_zero_lambda_row_is_exactly_zero(lq):
    spec, candidate, bundle, _ = lq
    plan = PerturbationPlan(
        directions=[Direction(kind="control", t0=0.0, scalar=1.0)],
        lambdas=(0.0, 0.1),
    )
    table = nash_perturbation_sweep(spec, candidate, plan, bundle)
    zero_row = [r for r in table.rows if r.lam == 0.0][0]
    assert zero_row.delta == 0.0 and zero_row.std_err == 0.0


def test_sweep_csv_columns(tmp_path, lq):
    spec, candidate, bundle, _ = lq
    plan = PerturbationPlan(
        directions=[Direction(kind="measure", t0=0.0, measure=DiscreteMeasure.dirac(0.0))],
        lambdas=(0.05, -0.05),
    )
    table = nash_perturbation_sweep(spec, candidate, plan, bundle)
    f = tmp_path / "sweep.csv"
    table.to_csv(str(f), seed=15)
    lines = f.read_text().strip().splitlines()
    assert lines[0] == "direction_id,lambda,delta_J,std_err"
    assert len(lines) == 1 + 2 + 1
    assert lines[-1].startswith("# seed=15")


def test_saddle_orientation_consumption(cgame):
    """u-perturbations lower J, mu-perturbations raise it (zero-sum saddle)."""
    model, spec, candidate, bundle, _ = cgame
    plan = PerturbationPlan(
        directions=[
            Direction(kind="measure", t0=0.0, measure=DiscreteMeasure.dirac(model.v_probe)),
            Direction(kind="control", t0=0.0, scalar=1.0),
        ],
        lambdas=(0.1, -0.1),
    )
    table = nash_perturbation_sweep(spec, candidate, plan, bundle)
    assert table.certified
    for row in table.rows:
        # deltas are in the deviating player's criterion; for the zero-sum
        # J convention: u rows carry delta J, mu rows carry -delta J
        assert row.delta <= 2 * row.std_err


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    m=st.integers(1, 12),
    kind=st.sampled_from(["measure", "control"]),
)
def test_sweep_zero_lambda_row_is_exactly_zero_property(seed, n, m, kind):
    """CRN lambda = 0 identity: the zero row is exactly zero."""
    spec = lq_toy_game()
    candidate = lq_candidates(1.0, 1.0, 1.0)
    bundle = simulate(spec.model, candidate, n, m, seed=seed)
    direction = Direction(kind=kind, t0=0.0, measure=DiscreteMeasure.dirac(0.0))
    plan = PerturbationPlan(directions=[direction], lambdas=(0.1, 0.0, -0.1))
    table = nash_perturbation_sweep(spec, candidate, plan, bundle)
    zero_row = [r for r in table.rows if r.lam == 0.0][0]
    assert zero_row.delta == 0.0 and zero_row.std_err == 0.0


# -- Gateaux check ----------------------------------------------------------------

def test_gateaux_zero_direction():
    spec = lq_toy_game()
    candidate = lq_candidates(1.0, 1.0, 1.0)
    bundle = simulate(spec.model, candidate, 500, 20, seed=3)
    res = gateaux_check(
        spec, candidate, Direction(kind="control", t0=0.0, scalar=0.0), (0.1, 0.05), bundle
    )
    assert res.agree
    assert np.allclose(res.fd_slopes, 0.0)
    assert res.adjoint_slope == 0.0


def test_gateaux_drift_control_toy():
    """b = u, l = -u^2/2, g = x: slope = int (p0 - u) pi dt with p0 = 1."""
    model = ControlledModel(
        drift=lambda t, x, mu, u: u * np.ones_like(x),
        vol=lambda t, x, mu, u: 0.3 * np.ones_like(x),
        x0=0.0,
        horizon=1.0,
    )
    perf = PerformanceSpec(
        running=lambda t, x, m, mu, u: -0.5 * u * u * np.ones_like(x),
        terminal=lambda x, m: x,
    )
    spec = GameSpec(model, perf, perf)
    u0 = 0.5
    ctrl = ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(0.0),
        scalar_ctrl=lambda t, info: u0,
    )
    bundle = simulate(model, ctrl, 2000, 100, seed=4)
    direction = Direction(kind="control", t0=0.5, scalar=1.0)
    res = gateaux_check(spec, ctrl, direction, (0.1, 0.05, 0.025), bundle)
    assert res.agree
    assert res.adjoint_slope == pytest.approx((1.0 - u0) * 0.5, abs=1e-8)


def test_gateaux_verdict_uses_recorded_tolerance():
    """b = u x makes dH/du = p0 x - u state-dependent, so adjoint_se > 0 and the
    recorded tol combines both standard errors; the verdict is read against it."""
    model = ControlledModel(
        drift=lambda t, x, mu, u: u * x,
        vol=lambda t, x, mu, u: 0.3 * np.ones_like(x),
        x0=1.0,
        horizon=1.0,
    )
    perf = PerformanceSpec(
        running=lambda t, x, m, mu, u: -0.5 * u * u * np.ones_like(x),
        terminal=lambda x, m: x,
    )
    spec = GameSpec(model, perf, perf)
    ctrl = ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(0.0),
        scalar_ctrl=lambda t, info: 0.5,
    )
    bundle = simulate(model, ctrl, 500, 40, seed=8)
    res = gateaux_check(spec, ctrl, Direction(kind="control", t0=0.0, scalar=1.0), (0.1, 0.05), bundle)
    assert res.adjoint_se > 0.0
    expected = max(3.0 * math.hypot(res.fd_se[-1], res.adjoint_se), 0.05 * abs(res.adjoint_slope), 1e-12)
    assert res.tol == expected
    assert res.agree == (abs(res.fd_slopes[-1] - res.adjoint_slope) <= res.tol)


def test_gateaux_consumption_control_direction(cgame):
    """Away from the optimum (rho scaled 1.5) the slope is -(1/3) int_{T/2}^T (theta + T - t) dt."""
    model, spec, _, base_bundle, _ = cgame
    cf = cons.closed_form_controls(model)
    frozen, _, _ = cons.frozen_pair(model, cf, base_bundle)
    candidate = replace(frozen, scalar_ctrl=cons._frozen_rate(cf, base_bundle, 1.5))
    bundle = simulate(spec.model, candidate, 2000, 100, seed=51)
    direction = Direction(kind="control", t0=0.5, scalar=1.0)
    res = gateaux_check(spec, candidate, direction, (0.1, 0.05, 0.025), bundle)
    assert res.agree
    analytic = -(1.0 / 3.0) * 0.625  # int_{1/2}^1 (2 - t)/3 dt, sign flipped
    assert res.adjoint_slope == pytest.approx(analytic, rel=0.02)


def test_gateaux_solves_only_the_deviating_players_adjoint(cgame, monkeypatch):
    """gateaux_check reads one player's p0; it solves that one alone, and
    gets the bits that solve_adjoints gives."""
    import mfclab.game as game_module

    model, spec, candidate, bundle, adjoint = cgame
    calls = []
    solve = game_module.adjoint_p0_solve

    def spy(*args):
        calls.append((args, solve(*args)))
        return calls[-1][1]

    monkeypatch.setattr(game_module, "adjoint_p0_solve", spy)
    direction = Direction(kind="control", t0=0.5, scalar=1.0)
    gateaux_check(spec, candidate, direction, (0.1,), bundle)
    assert len(calls) == 1 and calls[0][0][1] is spec.performance_for(2)
    assert calls[0][1].P.tobytes() == adjoint[2].P.tobytes()


def test_gateaux_consumption_measure_direction(cgame):
    """An adversarial mass offset of +0.3 gives slope -0.6 (T - t0) in J_1."""
    model, spec, _, base_bundle, _ = cgame
    cf = cons.closed_form_controls(model)
    base_pair, _, _ = cons.frozen_pair(model, cf, base_bundle)
    shift = Direction(kind="measure", t0=0.0, measure=DiscreteMeasure.dirac(model.v_probe))
    from mfclab.sde import perturbed_controls

    candidate = perturbed_controls(base_pair, shift, 0.3)
    bundle = simulate(spec.model, candidate, 2000, 100, seed=51)
    direction = Direction(kind="measure", t0=0.5, measure=DiscreteMeasure.dirac(model.v_probe))
    res = gateaux_check(spec, candidate, direction, (0.1, 0.05, 0.025), bundle)
    assert res.agree
    assert res.adjoint_slope == pytest.approx(-0.3, rel=0.05)


# -- concavity probes ----------------------------------------------------------------

def test_consumption_hamiltonian_curvature(cgame):
    """Sampled along the candidate trajectory, H is concave in (x, u) and convex in mu(V).

    On the trajectory p0 x u = 1 and the (x, u) Hessian [[-1/x^2, -p0],
    [-p0, -1/u^2]] is negative semidefinite; off the trajectory it can turn
    indefinite, so the probe samples the simulated states.
    """
    model, spec, candidate, bundle, adjoint = cgame
    rng = np.random.default_rng(12)
    h = 0.02
    eta = DiscreteMeasure.dirac(model.v_probe)
    cf = cons.closed_form_controls(model)
    for _ in range(20):
        k = int(rng.integers(0, bundle.n_steps))
        i = int(rng.integers(0, bundle.n_particles))
        t = float(bundle.times[k])
        m0 = bundle.law_at(k)
        x0 = float(bundle.states[i, k])
        u0 = cf.rho_hat(t)
        dx, du = rng.uniform(-1, 1, 2)
        norm = math.hypot(dx, du)
        dx, du = dx / norm, du / norm

        def h_at(s):
            vals = hamiltonian(spec, 2, t, x0 + s * dx, m0, m0, u0 + s * du, bundle, adjoint)
            return float(np.asarray(vals)[i])

        second = h_at(-h) - 2 * h_at(0.0) + h_at(h)
        assert second <= 1e-10

        vals_mu = [
            float(np.asarray(
                hamiltonian(spec, 2, t, x0, m0, m0 + eta.scaled(s), u0, bundle, adjoint)
            )[i])
            for s in (-h, 0.0, h)
        ]
        assert vals_mu[0] - 2 * vals_mu[1] + vals_mu[2] >= -1e-10


def test_game_spec_validation():
    model = ControlledModel(
        drift=lambda t, x, mu, u: np.zeros_like(x),
        vol=lambda t, x, mu, u: np.zeros_like(x),
        x0=0.0,
        horizon=1.0,
    )
    perf = PerformanceSpec(
        running=lambda t, x, m, mu, u: np.zeros_like(x),
        terminal=lambda x, m: np.zeros_like(x),
    )
    spec = GameSpec.zero_sum_game(model, perf)
    with pytest.raises(ValueError):
        spec.performance_for(3)
    with pytest.raises(ValueError):
        IntervalMass(0.0, 1.0, probe=2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build,message",
    [
        (lambda lq, bad: Direction(kind="control", t0=bad), "t0 must be finite"),
        (lambda lq, bad: Direction(kind="control", scalar=bad), "scalar must be finite"),
        (
            lambda lq, bad: PerturbationPlan([Direction(kind="control")], lambdas=(0.1, bad)),
            "lambdas must be finite",
        ),
        (
            lambda lq, bad: gateaux_check(lq[0], lq[1], Direction(kind="control"), (0.1, bad), lq[2]),
            "magnitudes must be finite",
        ),
    ],
    ids=["direction-t0", "direction-scalar", "plan-lambdas", "gateaux-lambdas"],
)
def test_non_finite_perturbations_raise(lq, build, message, bad):
    """A NaN switch time would read as t0 = -inf in pi_at and eta_at, and a
    non-finite lambda would certify a perturbation other than the one named."""
    with pytest.raises(ValueError, match=message):
        build(lq, bad)


@pytest.mark.parametrize("empty", ["directions", "lambdas"])
def test_empty_perturbation_plan_raises(empty):
    """A plan with no direction or no lambda has no rows, so its sweep
    would certify anything and its ``max_margin`` would have no row."""
    fields = {"directions": [Direction(kind="control")], "lambdas": (0.1,)}
    fields[empty] = type(fields[empty])()
    with pytest.raises(ValueError, match=f"at least one of its {empty}"):
        PerturbationPlan(**fields)


def test_gateaux_empty_lambdas_raise_before_simulating(lq, monkeypatch):
    import mfclab.game as game

    def simulated(*args, **kwargs):
        raise AssertionError("gateaux_check simulated before checking its lambdas")

    monkeypatch.setattr(game, "simulate", simulated)
    monkeypatch.setattr(game, "adjoint_p0_solve", simulated)
    with pytest.raises(ValueError, match="at least one finite-difference magnitude"):
        gateaux_check(lq[0], lq[1], Direction(kind="control"), [], lq[2])


@pytest.mark.parametrize("entry", ["residuals", "sweep", "gateaux"])
def test_one_particle_bundle_raises(entry):
    """A standard error over one particle would read 0, and a single path
    would then certify anything."""
    spec = lq_toy_game()
    candidate = lq_candidates(1.0, 1.0, 1.0)
    bundle = simulate(spec.model, candidate, 1, 5, seed=3)
    direction = Direction(kind="control")
    calls = {
        "residuals": lambda: first_order_residuals(
            spec, candidate, bundle, solve_adjoints(spec, bundle, candidate)
        ),
        "sweep": lambda: nash_perturbation_sweep(
            spec, candidate, PerturbationPlan([direction], lambdas=(0.1,)), bundle
        ),
        "gateaux": lambda: gateaux_check(spec, candidate, direction, (0.1,), bundle),
    }
    with pytest.raises(ValueError, match="needs at least 2 particles, got 1"):
        calls[entry]()
