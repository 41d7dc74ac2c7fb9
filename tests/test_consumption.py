"""Tests for the consumption application: closed forms, product identity, report."""
import math
import tracemalloc

import numpy as np
import pytest

import mfclab.consumption as cons
from mfclab import sde
from mfclab.bsde import adjoint_p0_solve
from mfclab.lawproc import LevyMeasure
from mfclab.sde import ControlledModel, InfoPattern, simulate


def canonical_model(**overrides):
    kwargs = dict(
        x0=1.0,
        horizon=1.0,
        sigma=0.2,
        theta=1.0,
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
        pytest.param(lambda: canonical_model(x0=NAN), "x0", id="consumption-x0-nan"),
        pytest.param(lambda: canonical_model(horizon=NAN), "horizon", id="consumption-horizon-nan"),
        pytest.param(lambda: canonical_model(sigma=NAN), "sigma", id="consumption-sigma-nan"),
        pytest.param(lambda: canonical_model(sigma=INF), "sigma", id="consumption-sigma-inf"),
        pytest.param(lambda: canonical_model(theta=NAN), "theta", id="consumption-theta-nan"),
        pytest.param(lambda: canonical_model(theta=INF), "theta", id="consumption-theta-inf"),
        pytest.param(lambda: canonical_model(theta=0.0), "theta", id="consumption-theta-zero"),
        pytest.param(lambda: canonical_model(theta=-1.0), "theta", id="consumption-theta-negative"),
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
    assert type(canonical_model(theta=2).theta) is float


def test_model_validation():
    with pytest.raises(ValueError):
        canonical_model(x0=-1.0)
    # a jump of atom zeta multiplies X by 1 + zeta, so zeta <= -1 is rejected exactly
    for sizes in ([-1.5], [-1.0], [0.1, -1.0]):
        with pytest.raises(ValueError, match="above -1"):
            canonical_model(levy=LevyMeasure(sizes, [0.5] * len(sizes)))
    assert canonical_model(levy=LevyMeasure([-0.999], [0.5])).levy is not None
    with pytest.raises(ValueError):
        canonical_model(v_interval=(2.0, 1.0))
    # an infinite or NaN lower end would put v_probe and v_outside at it
    for lo in (-math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="v_interval needs a finite lower end"):
            canonical_model(v_interval=(lo, 1.0))
    # V too narrow in floating point for its probe atom: lo + 1.0 == lo, and
    # the midpoint of two adjacent floats rounds to an end
    for v in ((1e16, math.inf), (1.0, math.nextafter(1.0, 2.0))):
        with pytest.raises(ValueError, match="v_interval"):
            canonical_model(v_interval=v)


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
    """p0(T) X(T) = theta: the terminal column of the product identity."""
    model, bundle, _, _, _, adjoint = small_run
    terminal = adjoint.p_at(bundle.n_steps) * bundle.states[:, -1]
    assert np.max(np.abs(terminal - model.theta)) <= 1e-12


def test_product_max_deviation_small(small_run):
    model, bundle, _, _, _, adjoint = small_run
    deviation = cons.product_process_check(model, bundle, adjoint)
    assert type(deviation) is float
    assert 0.0 < deviation <= 0.05


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

def _selected(checks):
    """The selected variant as the check lines name it, or None."""
    passing = checks[0].detail
    assert passing.startswith("passing=")
    named = {c.detail for c in checks[1:] if c.detail.startswith("variant=")}
    if passing == "passing=none":
        assert not named
        return None
    (detail,) = named
    selected = detail.removeprefix("variant=")
    assert passing.startswith(f"passing=['{selected}'")
    return selected


def test_verify_consumption_game_small(tmp_path):
    model = canonical_model()
    checks = cons.verify_consumption_game(
        model, n_particles=2000, n_steps=100, seed=7, out_dir=str(tmp_path)
    )
    assert _selected(checks) == "first-order-derived"
    assert all(c.passed for c in checks)
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "controls.csv").exists()
    controls = (tmp_path / "controls.csv").read_text().strip().splitlines()
    assert controls[0] == "t,rho_hat,mu_hat_V_stated,mu_hat_V_derived"
    assert controls[-1].startswith("# seed=7")


@pytest.mark.parametrize("horizon, certified", [(1.0, True), (2.0, False)])
def test_certificate_regime_is_the_law_keeping_its_mass_in_v(tmp_path, horizon, certified):
    """The saddle certificate holds while M(t)(V) stays at 1 and fails, by far
    more than its noise, once the law leaves V, though the residuals pass."""
    lines = cons.verify_consumption_game(
        canonical_model(horizon=horizon), n_particles=2000, n_steps=100, seed=1,
        out_dir=str(tmp_path),
    )
    checks = {c.name: c for c in lines}
    assert _selected(lines) == "first-order-derived"
    assert checks["first-order-residuals-3se"].passed
    assert checks["saddle-sweep-certified"].passed == certified
    # M(t)(V) = mu_hat_V_derived(t) + (T - t + theta) / 2, theta = 1
    controls = np.loadtxt(tmp_path / "controls.csv", delimiter=",", skiprows=1)
    mass_v = controls[:, 3] + 0.5 * (horizon - controls[:, 0] + 1.0)
    sweep = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
    delta, se = sweep[:, 2], sweep[:, 3]
    worst = int(np.argmax(delta - 2.0 * se))
    if certified:
        assert mass_v.min() == pytest.approx(1.0, abs=1e-12)
        assert delta[worst] < -100 * se[worst]
    else:
        assert mass_v.min() < 0.9
        assert sweep[worst, 0] == 0  # the measure direction dirac(v_probe)
        assert delta[worst] > 100 * se[worst]


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
    model = canonical_model(info=InfoPattern(delay=0.1))
    cf = cons.closed_form_controls(model)
    state = cons.state_model(model)
    bundle = simulate(state, cons.feedback_pair(model, cf), 500, 50, seed=9)
    pair, _, _ = cons.frozen_pair(model, cf, bundle)
    # both players read the one pattern
    assert pair.mu_info is pair.u_info is model.info
    adjoint = adjoint_p0_solve(state, cons.performance(model), bundle, pair)
    assert cons.product_process_check(model, bundle, adjoint) <= 0.05


def _delayed_bundle(delay: float):
    """The first-order-derived candidate's feedback bundle at T = 2, where the
    law loses mass on V, so a lagged and a concurrent law read other masses."""
    model = canonical_model(horizon=2.0, info=InfoPattern(delay=delay))
    spec = cons.game_spec(model)
    cf = cons.closed_form_controls(model, "first-order-derived")
    bundle = simulate(spec.model, cons.feedback_pair(model, cf), 2000, 100, seed=1)
    return model, spec, cf, bundle


@pytest.mark.parametrize("delay", [0.0, 0.1])
def test_frozen_candidate_replays_its_bundle(delay):
    """The frozen pair is the control that generated the bundle: each step's
    mu_hat reads the law that the delayed feedback control saw, so a replay
    on the bundle's noise gives its states bit for bit."""
    model, spec, cf, bundle = _delayed_bundle(delay)
    pair, mass_path, _ = cons.frozen_pair(model, cf, bundle)
    replay = simulate(spec.model, pair, noise=bundle.noise)
    assert replay.states.tobytes() == bundle.states.tobytes()
    # the law at T = 2 does lose mass on V, so the lag is read, not idle
    assert mass_path.min() < 0.9


def test_zero_lambda_sweep_row_is_zero_under_delay():
    """A deviation by zero gains exactly nothing, under delayed information too."""
    from mfclab.game import PerturbationPlan, nash_perturbation_sweep
    from mfclab.measures import DiscreteMeasure
    from mfclab.sde import Direction

    model, spec, cf, bundle = _delayed_bundle(0.1)
    pair, _, _ = cons.frozen_pair(model, cf, bundle)
    plan = PerturbationPlan(
        directions=[
            Direction(kind="measure", t0=0.0, measure=DiscreteMeasure.dirac(model.v_probe)),
            Direction(kind="control", t0=0.0, scalar=1.0),
        ],
        lambdas=(0.0,),
    )
    sweep = nash_perturbation_sweep(spec, pair, plan, bundle)
    assert [(r.delta, r.std_err) for r in sweep.rows] == [(0.0, 0.0), (0.0, 0.0)]


# -- live set -------------------------------------------------------------------------

def test_verify_consumption_game_peak_memory():
    """At most one variant's adjoint is live, and no law copies its column.

    A variant that fails its residuals goes before the next one is simulated,
    the adjoint goes once the product identity is checked (column by column,
    with no (N, M+1) product table) and stores no phi table, a law of
    distinct values keeps only a view of its state column, and the inflated
    base's paths go before its first deviation.  The peak is about 3.4 of
    the (N, M+1) tables: the noise bank, the states and one Gamma/P table or
    deviated bundle.  It was 4.3 while each law held a sorted copy of its
    column; with that copy, a stored phi table or a kept inflated base read
    5.3, and any one of the other releases undone 6.3 to 7.3."""
    n, m = 2000, 50
    model = canonical_model()
    # a small run first, so that lazy imports are not traced
    cons.verify_consumption_game(model, n_particles=50, n_steps=5, seed=1)
    tracemalloc.start()
    try:
        checks = cons.verify_consumption_game(model, n_particles=n, n_steps=m, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _selected(checks) == "first-order-derived"
    assert peak < 3.6 * n * (m + 1) * 8


def test_inflated_base_is_gone_before_its_first_deviation(monkeypatch):
    """The inflated sweep's rows read only the base's noise and mode: its
    states table (which each of its laws' columns views) is freed, with no
    garbage collection, once its samples are taken."""
    import weakref

    import mfclab.game as game

    bases, alive_at_deviation = [], []

    def spy_base(*args, **kwargs):
        bundle = real_cons_simulate(*args, **kwargs)
        bases.append(weakref.ref(bundle.states))
        return bundle

    def spy_deviation(*args, **kwargs):
        # the two variants are simulated before the main sweep's deviations,
        # the inflated base before the inflated sweep's
        if len(bases) == 3:
            alive_at_deviation.append(bases[2]() is not None)
        return real_game_simulate(*args, **kwargs)

    real_cons_simulate, real_game_simulate = cons.simulate, game.simulate
    monkeypatch.setattr(cons, "simulate", spy_base)
    monkeypatch.setattr(game, "simulate", spy_deviation)
    checks = cons.verify_consumption_game(canonical_model(), n_particles=200, n_steps=10, seed=3)
    assert _selected(checks) == "first-order-derived"
    assert len(bases) == 3 and alive_at_deviation == [False] * 6


def test_verify_consumption_game_builds_each_law_once(monkeypatch):
    """21 simulations (two variants, 12 main and 6 inflated deviations, the
    inflated base) read M laws each, and each law is built once."""
    built = []

    def counting_law(column):
        built.append(column.size)
        return real_law(column)

    real_law = sde.empirical_law
    monkeypatch.setattr(sde, "empirical_law", counting_law)
    n, m = 2000, 50
    cons.verify_consumption_game(canonical_model(), n_particles=n, n_steps=m, seed=3)
    assert len(built) == 21 * m == 1050
    assert set(built) == {n}


@pytest.mark.parametrize("derived_passes", [True, False])
@pytest.mark.parametrize("stated_passes", [True, False])
def test_variants_run_one_at_a_time_and_select_in_variants_order(
    tmp_path, monkeypatch, derived_passes, stated_passes
):
    """Variants run in reverse order of VARIANTS; a failing one is gone before
    the next is simulated, the first passing one in VARIANTS order is selected,
    and with none passing controls.csv reads the run of VARIANTS[0]."""
    import gc
    import weakref

    forced = {"first-order-derived": derived_passes, "stated-theorem": stated_passes}
    runs, live_at_call, mass_paths, current = {}, [], {}, []

    def spy_run(spec, model, variant, noise):
        gc.collect()
        live_at_call.append([v for v, ref in runs.items() if ref() is not None])
        current[:] = [variant]
        run = real_run(spec, model, variant, noise)
        runs[variant] = weakref.ref(run)
        mass_paths[variant] = run.mass_path
        return run

    def forced_residuals(*args):
        curves = real_residuals(*args)
        curves.u_within = curves.mu_within = lambda: forced[current[0]]
        return curves

    real_run, real_residuals = cons._variant_run, cons.first_order_residuals
    monkeypatch.setattr(cons, "_variant_run", spy_run)
    monkeypatch.setattr(cons, "first_order_residuals", forced_residuals)
    checks = cons.verify_consumption_game(
        canonical_model(), n_particles=200, n_steps=10, seed=5, out_dir=str(tmp_path)
    )
    passing = [v for v in cons.VARIANTS if forced[v]]
    assert live_at_call == [[], ["stated-theorem"] if stated_passes else []]
    assert _selected(checks) == (passing[0] if passing else None)
    assert checks[0].detail == f"passing={passing or 'none'}"
    rows = [row.split(",") for row in (tmp_path / "controls.csv").read_text().splitlines()[1:-1]]
    read = passing[0] if passing else cons.VARIANTS[0]
    derived = cons.closed_form_controls(canonical_model())
    expected = [derived.mu_hat_V(float(row[0]), m) for row, m in zip(rows, mass_paths[read])]
    assert [float(row[3]) for row in rows] == expected
