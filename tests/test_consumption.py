"""Tests for the consumption application: closed forms, product identity, report."""
import math

import numpy as np
import pytest

import mfclab.consumption as cons
from mfclab.bsde import adjoint_p0_solve
from mfclab.lawproc import LevyMeasure
from mfclab.sde import ControlledModel, InfoPattern, simulate


def canonical_model(**overrides):
    kwargs = dict(
        x0=1.0,
        horizon=1.0,
        vol=lambda t: 0.2,
        theta=1.0,
        jump_scale=lambda t, z: z,
        levy=LevyMeasure([0.1], [0.5]),
        v_interval=(0.25, math.inf),
    )
    kwargs.update(overrides)
    return cons.ConsumptionModel(**kwargs)


# -- construction checks --------------------------------------------------------

NAN, INF = math.nan, math.inf


def _controlled(**overrides):
    kwargs = dict(drift=lambda *a: 0.0, vol=lambda *a: 0.0, x0=1.0, horizon=1.0)
    return ControlledModel(**{**kwargs, **overrides})


@pytest.mark.parametrize(
    "build, field_name",
    [
        pytest.param(lambda: InfoPattern(NAN), "delay", id="delay-nan"),
        pytest.param(lambda: InfoPattern(INF), "delay", id="delay-inf"),
        pytest.param(lambda: LevyMeasure([1.0], [NAN]), "rates", id="levy-rate-nan"),
        pytest.param(lambda: LevyMeasure([INF], [1.0]), "jump_sizes", id="levy-size-inf"),
        pytest.param(lambda: _controlled(x0=NAN), "x0", id="controlled-x0-nan"),
        pytest.param(lambda: _controlled(horizon=INF), "horizon", id="controlled-horizon-inf"),
        pytest.param(lambda: cons.TerminalWeight(value=NAN), "theta", id="theta-nan"),
        pytest.param(lambda: canonical_model(x0=NAN), "x0", id="consumption-x0-nan"),
        pytest.param(lambda: canonical_model(horizon=NAN), "horizon", id="consumption-horizon-nan"),
        pytest.param(lambda: canonical_model(theta=NAN), "theta", id="consumption-theta-nan"),
    ],
)
def test_non_finite_inputs_raise_at_construction(build, field_name):
    """Each value names its field here, not as a conversion error deep in a run."""
    with pytest.raises(ValueError, match=field_name):
        build()


# -- closed-form candidates -----------------------------------------------------

def test_rho_hat_value_at_zero():
    """theta0 = 1, T = 1: rho_hat(0) = 1/2."""
    cf = cons.closed_form_controls(canonical_model())
    assert cf.rho_hat(0.0) == pytest.approx(0.5)


def test_rho_hat_degenerate_theta_limit():
    """As theta -> 0 the rate approaches 1/(T - t)."""
    cf = cons.closed_form_controls(canonical_model(theta=1e-9))
    for t in (0.0, 0.5, 0.9):
        assert cf.rho_hat(t) == pytest.approx(1.0 / (1.0 - t), rel=1e-8)


def test_rho_hat_strictly_increasing():
    cf = cons.closed_form_controls(canonical_model())
    ts = np.linspace(0.0, 0.99, 50)
    vals = np.array([cf.rho_hat(t) for t in ts])
    assert np.all(np.diff(vals) > 0)


def test_mu_hat_variant_offsets():
    """Derived: -(T - t + theta)/2; stated theorem: +(T - t) - theta/2."""
    model = canonical_model()
    derived = cons.closed_form_controls(model, "first-order-derived")
    stated = cons.closed_form_controls(model, "stated-theorem")
    m_v = 0.98
    assert derived.mu_hat_V(0.0, m_v) - m_v == pytest.approx(-1.0)
    assert stated.mu_hat_V(0.0, m_v) - m_v == pytest.approx(0.5)
    assert derived.mu_hat_V(1.0, m_v) == stated.mu_hat_V(1.0, m_v)  # agree only at T


def test_variant_and_theta_validation():
    with pytest.raises(ValueError):
        cons.closed_form_controls(canonical_model(), "folk-theorem")
    with pytest.raises(ValueError):
        cons.TerminalWeight(value=-1.0)
    with pytest.raises(ValueError):
        cons.TerminalWeight(value=1.0, fn=lambda b: b)
    with pytest.raises(ValueError):
        cons.TerminalWeight()
    stochastic = canonical_model(theta=cons.TerminalWeight(fn=lambda b: 1 + 0.5 * np.tanh(b)))
    with pytest.raises(ValueError, match="deterministic"):
        cons.closed_form_controls(stochastic)


def test_model_validation():
    with pytest.raises(ValueError):
        canonical_model(x0=-1.0)
    with pytest.raises(ValueError):
        canonical_model(jump_scale=lambda t, z: -1.5, levy=LevyMeasure([0.1], [0.5]))
    with pytest.raises(ValueError):
        canonical_model(v_interval=(2.0, 1.0))
    with pytest.raises(ValueError):
        canonical_model(v_probe=0.1)  # outside V = (0.25, inf)


# -- product-process identity ------------------------------------------------------

@pytest.fixture(scope="module")
def small_run():
    model = canonical_model()
    cf = cons.closed_form_controls(model)
    state = cons.state_model(model)
    bundle = simulate(state, cons.feedback_pair(model, cf), 2000, 100, seed=14)
    pair, mass_path, mu_v_path = cons.frozen_pair(model, cf, bundle)
    adjoint = adjoint_p0_solve(state, cons.performance(model), bundle, pair)
    return model, bundle, pair, mass_path, mu_v_path, adjoint


def test_product_terminal_exact(small_run):
    model, bundle, _, _, _, adjoint = small_run
    check = cons.product_process_check(model, bundle, adjoint)
    assert check.pathwise
    assert check.profile[-1] <= 1e-12


def test_product_max_deviation_small(small_run):
    model, bundle, _, _, _, adjoint = small_run
    check = cons.product_process_check(model, bundle, adjoint)
    assert check.max_deviation <= 0.05


def test_product_stochastic_theta_mean_identity():
    """theta = 1 + tanh(B_T)/2: E[P(0)] = E[theta] + T within 3 SE (E[theta] = 1)."""
    theta = cons.TerminalWeight(fn=lambda b: 1.0 + 0.5 * np.tanh(b))
    model = canonical_model(theta=theta)
    state = cons.state_model(model)
    # fixed admissible controls (closed forms need deterministic theta)
    ref = cons.closed_form_controls(canonical_model())
    bundle = simulate(state, cons.feedback_pair(canonical_model(), ref), 4000, 100, seed=3)
    samples = theta.samples(bundle)
    perf = cons.performance(model, theta_samples=samples)
    pair, _, _ = cons.frozen_pair(canonical_model(), ref, bundle)
    adjoint = adjoint_p0_solve(state, perf, bundle, pair)
    product0 = np.atleast_2d(adjoint.P)[:, 0] * bundle.states[:, 0]
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(product0.mean() - (1.0 + 1.0)) <= 3 * se
    check = cons.product_process_check(model, bundle, adjoint)
    assert not check.pathwise
    assert check.profile[0] <= 3 * se + 1e-12


def test_penalty_identity_exact(small_run):
    """[(mu - M)(V)]^2 = (T - t + theta)^2 / 4 under the derived candidate."""
    model, bundle, _, _, mu_v_path, _ = small_run
    lo, hi = model.v_interval
    times = bundle.times[:-1]
    mass = np.array([bundle.law_at(k).mass_on(lo, hi) for k in range(bundle.n_steps)])
    lhs = (mu_v_path - mass) ** 2
    rhs = 0.25 * (1.0 - times + 1.0) ** 2
    assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-12


def test_state_positivity(small_run):
    _, bundle, _, _, _, _ = small_run
    assert bundle.states.min() > 0.0


# -- end-to-end verification ---------------------------------------------------------

def test_verify_consumption_game_small(tmp_path):
    model = canonical_model()
    report = cons.verify_consumption_game(
        model, n_particles=2000, n_steps=100, seed=7, out_dir=str(tmp_path)
    )
    assert report.selected_variant == "first-order-derived"
    assert all(c.passed for c in report.checks)
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "controls.csv").exists()
    controls = (tmp_path / "controls.csv").read_text().strip().splitlines()
    assert controls[0] == "t,rho_hat,mu_hat_V_stated,mu_hat_V_derived"
    assert controls[-1].startswith("# seed=7")


def test_mu_offset_breaks_saddle_in_mu_direction(tmp_path):
    """Shifting mu_hat(V) by +0.5 is refuted by the mu-direction sweep."""
    from mfclab.game import PerturbationPlan, nash_perturbation_sweep
    from mfclab.measures import DiscreteMeasure
    from mfclab.sde import Direction, perturbed_controls

    model = canonical_model()
    spec = cons.game_spec(model)
    cf = cons.closed_form_controls(model)
    bundle = simulate(spec.model, cons.feedback_pair(model, cf), 2000, 100, seed=7)
    pair, _, _ = cons.frozen_pair(model, cf, bundle)
    shifted = perturbed_controls(
        pair, Direction(kind="measure", t0=0.0, measure=DiscreteMeasure.dirac(model.v_probe)), 0.5
    )
    plan = PerturbationPlan(
        directions=[Direction(kind="measure", t0=0.0, measure=DiscreteMeasure.dirac(model.v_probe))],
        lambdas=(0.05, 0.1, 0.2, -0.05, -0.1, -0.2),
    )
    base = simulate(spec.model, shifted, 2000, 100, seed=7)
    sweep = nash_perturbation_sweep(spec, shifted, plan, base)
    assert not sweep.certified


def test_delay_information_pattern_runs():
    """The fixed-delay pattern is simulatable and keeps the product identity."""
    model = canonical_model(
        mu_info=InfoPattern(delay=0.1),
        u_info=InfoPattern(delay=0.1),
    )
    cf = cons.closed_form_controls(model)
    state = cons.state_model(model)
    bundle = simulate(state, cons.feedback_pair(model, cf), 500, 50, seed=9)
    pair, _, _ = cons.frozen_pair(model, cf, bundle)
    adjoint = adjoint_p0_solve(state, cons.performance(model), bundle, pair)
    check = cons.product_process_check(model, bundle, adjoint)
    assert check.max_deviation <= 0.05
