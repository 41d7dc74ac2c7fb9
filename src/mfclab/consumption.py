"""Optimal consumption of a mean-field cash flow under model uncertainty.

The cash flow

    dX = [mu(t)(V) - rho(t)] X dt + sigma(t) X dB
         + integral gamma(t, zeta) X Ntilde(dt, dzeta),    X(0) = x0 > 0,

is consumed at relative rate rho (player 2, maximizing) while an adversary
steers the measure process mu (player 1, minimizing), penalized by the
quadratic distance of mu(t)(V) from the law mass M(t)(V).  The zero-sum
criterion is

    J(mu, rho) = E[ integral {log(rho X) + [(mu - M)(V)]^2} dt + theta log X(T) ].

Closed-form candidates: the consumption rate is

    rho_hat(t) = 1 / (T - t + E[theta | G^(2)_t]),

and the adversarial mass on V ships in BOTH circulating variants,

    stated-theorem:       mu_hat(t)(V) = M_hat(t)(V) + (T - t) - E[theta]/2
    first-order-derived:  mu_hat(t)(V) = M_hat(t)(V) - (T - t + E[theta])/2,

the second obtained by substituting the product identity
p0_hat(t) X_hat(t) = E[theta | F_t] + T - t into the stationarity condition
mu_hat(V) = E[M_hat(V) - p0_hat X_hat / 2 | G^(1)].  The two variants
disagree; the first-order residual test adjudicates numerically and the
report records the surviving one rather than silently picking.

mu_hat is realized as the empirical law plus a calibrated signed atom pair
that moves the mass on V by the required offset while preserving total mass;
any admissible measure matching mu_hat(t)(V) is equivalent for the dynamics
and the cost, which read measures only through that functional.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .bsde import BsdeSolution
from .game import (
    RESIDUAL_FLOOR,
    RESIDUAL_N_SE,
    AdjointState,
    GameSpec,
    IntervalMass,
    PerturbationPlan,
    ResidualCurves,
    first_order_residuals,
    nash_perturbation_sweep,
    solve_adjoints,
)
from .lawproc import LevyMeasure
from .measures import DiscreteMeasure
from .report import CheckResult, write_csv
from .sde import (
    ControlPair,
    ControlledModel,
    CoefficientPartials,
    Direction,
    InfoPattern,
    ParticleBundle,
    PerformanceSpec,
    draw_noise,
    simulate,
)

VARIANTS = ("first-order-derived", "stated-theorem")
# largest accepted deviation of p0 X from theta + T - t (the product identity)
PRODUCT_TOL = 0.05
# a consumption rate inflated by this factor must break the saddle certificate
INFLATION = 1.2


@dataclass(frozen=True)
class TerminalWeight:
    """Terminal utility weight theta: a positive constant or a function of
    the terminal Brownian level (bounded, positive)."""

    value: float | None = None
    fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if (self.value is None) == (self.fn is None):
            raise ValueError("specify exactly one of value and fn")
        if self.value is not None and not (math.isfinite(self.value) and self.value > 0):
            raise ValueError(f"theta value must be finite and positive, got {self.value}")

    @property
    def deterministic(self) -> bool:
        return self.value is not None

    def samples(self, bundle: ParticleBundle) -> np.ndarray:
        if self.deterministic:
            return np.full(bundle.n_particles, self.value)
        theta = np.asarray(self.fn(bundle.brownian_levels()[:, -1]), dtype=float)
        if np.any(theta <= 0):
            raise ValueError("theta samples must stay positive")
        return theta


@dataclass
class ConsumptionModel:
    """Section-scale cash-flow model: deterministic relative coefficients.

    ``vol(t)`` and ``jump_scale(t, zeta)`` multiply the state; V is the
    interval whose mass the adversary's control and penalty read, with
    ``v_probe`` an atom inside V and ``v_outside`` one outside it (the signed
    pair that calibrates mu_hat's mass).
    """

    x0: float
    horizon: float
    vol: Callable[[float], float]
    theta: TerminalWeight | float
    v_interval: tuple[float, float] = (0.25, math.inf)
    jump_scale: Callable[[float, float], float] | None = None
    levy: LevyMeasure | None = None
    v_probe: float | None = None
    v_outside: float | None = None
    mu_info: InfoPattern = field(default_factory=InfoPattern)
    u_info: InfoPattern = field(default_factory=InfoPattern)

    def __post_init__(self):
        if not (math.isfinite(self.x0) and self.x0 > 0):
            raise ValueError(f"x0 must be finite and positive (log utility), got {self.x0}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if isinstance(self.theta, (int, float)):
            self.theta = TerminalWeight(value=float(self.theta))
        lo, hi = self.v_interval
        if not lo < hi:
            raise ValueError("V interval is empty")
        if self.v_probe is None:
            self.v_probe = lo + 1.0 if math.isinf(hi) else 0.5 * (lo + hi)
        if self.v_outside is None:
            self.v_outside = lo - 1.0
        if not (lo < self.v_probe <= hi):
            raise ValueError("v_probe must lie inside V")
        if lo < self.v_outside <= hi:
            raise ValueError("v_outside must lie outside V")
        if (self.levy is None) != (self.jump_scale is None):
            raise ValueError("jump_scale and levy must come together")
        if self.levy is not None:
            for t in np.linspace(0.0, self.horizon, 17):
                for zeta in self.levy.jump_sizes:
                    if self.jump_scale(float(t), float(zeta)) <= -1.0:
                        raise ValueError(
                            "jump_scale must stay above -1 so X remains positive"
                        )

    def theta_bar(self) -> float:
        """E[theta | G_t] for the supported information patterns.

        Deterministic theta is known under every sub-filtration; a stochastic
        theta has no computable conditional mean here.
        """
        if not self.theta.deterministic:
            raise ValueError(
                "closed-form controls need a deterministic terminal weight"
            )
        return float(self.theta.value)


def state_model(model: ConsumptionModel) -> ControlledModel:
    """The cash flow as a controlled SDE with analytic coefficient partials."""
    lo, hi = model.v_interval

    def drift(t, x, mu, u, scen):
        return (mu.mass_on(lo, hi) - u) * x

    def vol(t, x, mu, u, scen):
        return model.vol(t) * x

    partials = CoefficientPartials(
        drift_dx=lambda t, x, mu, u, scen: (mu.mass_on(lo, hi) - u) * np.ones_like(x),
        vol_dx=lambda t, x, mu, u, scen: model.vol(t) * np.ones_like(x),
        drift_du=lambda t, x, mu, u, scen: -x,
        vol_du=lambda t, x, mu, u, scen: np.zeros_like(x),
        drift_dmu=lambda t, x, mu, eta, u, scen: eta.mass_on(lo, hi) * x,
        vol_dmu=lambda t, x, mu, eta, u, scen: np.zeros_like(x),
    )
    jump = None
    if model.levy is not None:
        def jump(t, x, mu, u, zeta, scen):
            return model.jump_scale(t, zeta) * x

        partials.jump_dx = lambda t, x, mu, u, zeta, scen: model.jump_scale(t, zeta) * np.ones_like(x)
        partials.jump_du = lambda t, x, mu, u, zeta, scen: np.zeros_like(x)
        partials.jump_dmu = lambda t, x, mu, eta, u, zeta, scen: np.zeros_like(x)

    return ControlledModel(
        drift=drift,
        vol=vol,
        x0=model.x0,
        horizon=model.horizon,
        jump=jump,
        levy=model.levy,
        partials=partials,
    )


def performance(model: ConsumptionModel, theta_samples: np.ndarray | None = None) -> PerformanceSpec:
    """The zero-sum criterion J; player 2 maximizes it, player 1 minimizes.

    For a stochastic terminal weight, pass the per-scenario theta samples of
    the bundle under evaluation.
    """
    lo, hi = model.v_interval

    def running(t, x, m, mu, u, scen):
        gap = mu.mass_on(lo, hi) - m.mass_on(lo, hi)
        return np.log(u * x) + gap * gap

    if model.theta.deterministic:
        theta0 = model.theta.value

        def terminal(x, m, scen):
            return theta0 * np.log(x)

        def terminal_dx(x, m, scen):
            return theta0 / x

    else:
        if theta_samples is None:
            raise ValueError("stochastic theta needs per-scenario samples")

        def terminal(x, m, scen):
            return theta_samples[scen] * np.log(x)

        def terminal_dx(x, m, scen):
            return theta_samples[scen] / x

    return PerformanceSpec(
        running=running,
        terminal=terminal,
        running_dx=lambda t, x, m, mu, u, scen: 1.0 / x,
        running_du=lambda t, x, m, mu, u, scen: (1.0 / u) * np.ones_like(np.asarray(x, dtype=float)),
        terminal_dx=terminal_dx,
    )


def game_spec(model: ConsumptionModel, theta_samples: np.ndarray | None = None) -> GameSpec:
    lo, hi = model.v_interval
    functional = IntervalMass(lo, hi, probe=model.v_probe, name="mass_V")
    return GameSpec.zero_sum_game(
        state_model(model), performance(model, theta_samples), functionals=(functional,)
    )


# ---------------------------------------------------------------------------
# closed-form candidates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedFormControls:
    """Feedback form of the candidate saddle controls."""

    rho_hat: Callable[[float], float]
    mu_hat_V: Callable[[float, float], float]
    provenance: str


def closed_form_controls(model: ConsumptionModel, variant: str = "first-order-derived") -> ClosedFormControls:
    """Candidate optimal consumption rate and adversarial mass on V.

    ``rho_hat(t) = 1 / (T - t + E[theta])`` in both variants; the mu_hat mass
    offset from M_hat(t)(V) is ``+ (T - t) - E[theta]/2`` as the theorem
    states it and ``- (T - t + E[theta])/2`` for the version derived from
    the first-order condition.  The residual tests select the variant.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    horizon = model.horizon
    theta_bar = model.theta_bar()

    def rho_hat(t: float) -> float:
        return 1.0 / (horizon - t + theta_bar)

    if variant == "stated-theorem":
        def mu_hat_V(t: float, m_v: float) -> float:
            return m_v + (horizon - t) - 0.5 * theta_bar
    else:
        def mu_hat_V(t: float, m_v: float) -> float:
            return m_v - 0.5 * (horizon - t + theta_bar)

    return ClosedFormControls(rho_hat=rho_hat, mu_hat_V=mu_hat_V, provenance=variant)


def _signed_pair(model: ConsumptionModel, offset: float) -> DiscreteMeasure:
    return DiscreteMeasure([model.v_probe, model.v_outside], [offset, -offset])


def feedback_pair(model: ConsumptionModel, cf: ClosedFormControls) -> ControlPair:
    """Candidate controls in feedback form (mu_hat reads the concurrent law)."""
    lo, hi = model.v_interval

    def measure_ctrl(t, info):
        m_v = info.law_mass(lo, hi)
        offset = cf.mu_hat_V(t, m_v) - m_v
        return info.law + _signed_pair(model, offset)

    def scalar_ctrl(t, info):
        return cf.rho_hat(t)

    return ControlPair(
        measure_ctrl=measure_ctrl,
        scalar_ctrl=scalar_ctrl,
        mu_info=model.mu_info,
        u_info=model.u_info,
        u_bounds=(0.0, math.inf),
    )


def frozen_pair(
    model: ConsumptionModel,
    cf: ClosedFormControls,
    bundle: ParticleBundle,
    rho_scale: float = 1.0,
) -> tuple[ControlPair, np.ndarray, np.ndarray]:
    """Freeze the candidate as explicit control processes pinned to a bundle.

    Game-theoretic sweeps must hold one player's control fixed while the
    other deviates, so the feedback rules are evaluated once along the
    baseline bundle and replayed as exogenous processes.  Returns the pair
    plus the law masses M(t_k)(V) and the frozen mu_hat(t_k)(V).
    """
    lo, hi = model.v_interval
    times = bundle.times
    m = bundle.n_steps
    dt = bundle.dt
    mass_path = np.array([bundle.law_at(k).mass_on(lo, hi) for k in range(m)])
    mu_v_path = np.array(
        [cf.mu_hat_V(float(times[k]), mass_path[k]) for k in range(m)]
    )
    frozen_measures = [
        bundle.law_at(k) + _signed_pair(model, mu_v_path[k] - mass_path[k])
        for k in range(m)
    ]

    def measure_ctrl(t, info):
        return frozen_measures[int(round(t / dt))]

    pair = ControlPair(
        measure_ctrl=measure_ctrl,
        scalar_ctrl=_frozen_rate(cf, bundle, rho_scale),
        mu_info=model.mu_info,
        u_info=model.u_info,
        u_bounds=(0.0, math.inf),
    )
    return pair, mass_path, mu_v_path


def _frozen_rate(cf: ClosedFormControls, bundle: ParticleBundle, rho_scale: float):
    """The consumption rate ``rho_scale * rho_hat`` on the bundle's grid, as
    an exogenous scalar control."""
    dt = bundle.dt
    rho_path = np.array([rho_scale * cf.rho_hat(float(t)) for t in bundle.times[:-1]])

    def scalar_ctrl(t, info):
        return rho_path[int(round(t / dt))]

    return scalar_ctrl


# ---------------------------------------------------------------------------
# product-process identity
# ---------------------------------------------------------------------------

@dataclass
class ProductCheck:
    """Deviation of p0(t) X(t) from E[theta | F_t] + T - t."""

    times: np.ndarray
    profile: np.ndarray
    max_deviation: float
    pathwise: bool


def product_process_check(
    model: ConsumptionModel, bundle: ParticleBundle, adjoint: BsdeSolution
) -> ProductCheck:
    """Check p0(t) X(t) = E[theta | F_t] + T - t along the bundle.

    With a deterministic theta the identity is pathwise and the profile holds
    the per-time maximum absolute deviation; with a stochastic theta only the
    unconditional mean E[P(t)] = E[theta] + T - t is checkable and the
    profile compares means.
    """
    horizon = model.horizon
    times = bundle.times
    # particle-major product: its mean over scenarios accumulates row by row
    product = np.multiply(np.atleast_2d(adjoint.P), bundle.states, order="C")
    if model.theta.deterministic:
        target = model.theta.value + horizon - times
        profile = np.abs(product - target[None, :]).max(axis=0)
        return ProductCheck(times=times, profile=profile, max_deviation=float(profile.max()), pathwise=True)
    theta_mean = float(model.theta.samples(bundle).mean())
    target = theta_mean + horizon - times
    profile = np.abs(product.mean(axis=0) - target)
    return ProductCheck(times=times, profile=profile, max_deviation=float(profile.max()), pathwise=False)


# ---------------------------------------------------------------------------
# end-to-end verification
# ---------------------------------------------------------------------------

@dataclass
class VariantRun:
    bundle: ParticleBundle
    controls: ControlPair
    mass_path: np.ndarray
    mu_v_path: np.ndarray
    adjoint: AdjointState
    residuals: ResidualCurves
    passes_residuals: bool


def _variant_run(spec: GameSpec, model: ConsumptionModel, variant: str, noise) -> VariantRun:
    """Simulate, freeze, solve the adjoints of and test the residuals of one variant."""
    cf = closed_form_controls(model, variant)
    bundle = simulate(spec.model, feedback_pair(model, cf), noise=noise)
    controls, mass_path, mu_v_path = frozen_pair(model, cf, bundle)
    adjoint = solve_adjoints(spec, bundle, controls)
    residuals = first_order_residuals(spec, controls, bundle, adjoint)
    return VariantRun(
        bundle=bundle,
        controls=controls,
        mass_path=mass_path,
        mu_v_path=mu_v_path,
        adjoint=adjoint,
        residuals=residuals,
        passes_residuals=residuals.u_within() and residuals.mu_within(),
    )


@dataclass
class ConsumptionGameReport:
    checks: list[CheckResult]
    selected_variant: str | None


def verify_consumption_game(
    model: ConsumptionModel,
    n_particles: int = 10_000,
    n_steps: int = 200,
    seed: int = 2024,
    out_dir: str | None = None,
    lambdas: Sequence[float] = (0.05, 0.1, 0.2, -0.05, -0.1, -0.2),
) -> ConsumptionGameReport:
    """Run the full candidate-verification pipeline on the consumption game.

    Simulates both mu_hat variants, solves the adjoint, computes first-order
    residuals (selecting the variant that satisfies them), checks the product
    identity, runs the saddle perturbation sweep and re-runs it with the
    consumption rate inflated by ``INFLATION``, which must break the
    certificate.  Every simulation runs on one noise bank drawn from
    ``seed``.  Writes report.csv and controls.csv when ``out_dir`` is given.
    """
    spec = game_spec(model)
    checks: list[CheckResult] = []
    noise = draw_noise(seed, n_particles, n_steps, model.horizon, model.levy)
    runs = {variant: _variant_run(spec, model, variant, noise) for variant in VARIANTS}
    passing = [v for v in VARIANTS if runs[v].passes_residuals]
    selected = passing[0] if passing else None
    # the other variant is read no further: let its bundle and adjoints go
    run = runs[selected or "first-order-derived"]
    del runs
    checks.append(
        CheckResult(
            name="residuals-select-exactly-one-variant",
            value=float(len(passing)),
            threshold=1.0,
            passed=len(passing) == 1,
            detail=f"passing={passing or 'none'}",
        )
    )

    sweep = None
    if selected is not None:
        # product-process identity on the selected candidate
        product = product_process_check(model, run.bundle, run.adjoint.p0[2])
        checks.append(
            CheckResult(
                name="product-process-max-deviation",
                value=product.max_deviation,
                threshold=PRODUCT_TOL,
                passed=product.max_deviation <= PRODUCT_TOL,
                detail=f"variant={selected}",
            )
        )
        res = run.residuals
        worst_u = float(np.max(np.abs(res.res_u) - RESIDUAL_N_SE * res.se_u))
        worst_mu = max(
            float(np.max(np.abs(r) - RESIDUAL_N_SE * res.se_mu[name]))
            for name, r in res.res_mu.items()
        )
        checks.append(
            CheckResult(
                name="first-order-residuals-3se",
                value=max(worst_u, worst_mu),
                threshold=RESIDUAL_FLOOR,
                passed=run.passes_residuals,
                detail=f"variant={selected}",
            )
        )

        plan = PerturbationPlan(
            directions=[
                Direction(kind="measure", t0=0.0, measure=DiscreteMeasure.dirac(model.v_probe)),
                Direction(kind="control", t0=0.0, scalar=1.0),
            ],
            lambdas=tuple(lambdas),
        )
        sweep = nash_perturbation_sweep(spec, run.controls, plan, run.bundle)
        worst_row = max((r.delta - 2.0 * r.std_err) for r in sweep.rows)
        checks.append(
            CheckResult(
                name="saddle-sweep-certified",
                value=worst_row,
                threshold=0.0,
                passed=sweep.certified,
                detail="max over directions of delta - 2se",
            )
        )

        # the frozen measures do not depend on rho: reuse the candidate's,
        # interval masses and all
        inflated_rate = _frozen_rate(closed_form_controls(model, selected), run.bundle, INFLATION)
        inflated_controls = replace(run.controls, scalar_ctrl=inflated_rate)
        inflated_plan = PerturbationPlan(
            directions=[Direction(kind="control", t0=0.0, scalar=1.0)],
            lambdas=tuple(lambdas),
        )
        inflated_base = simulate(spec.model, inflated_controls, noise=noise)
        inflated = nash_perturbation_sweep(
            spec, inflated_controls, inflated_plan, inflated_base
        )
        best_gain = max((r.delta - 2.0 * r.std_err) for r in inflated.rows)
        checks.append(
            CheckResult(
                name="inflated-rho-breaks-sweep",
                value=best_gain,
                threshold=0.0,
                passed=not inflated.certified,
                detail=f"rho scaled by {INFLATION}",
            )
        )

        # penalty identity under the derived-variant control
        if selected == "first-order-derived":
            theta_bar = model.theta_bar()
            times_k = run.bundle.times[:-1]
            lhs = (run.mu_v_path - run.mass_path) ** 2
            rhs = 0.25 * (model.horizon - times_k + theta_bar) ** 2
            rel = float(np.max(np.abs(lhs - rhs) / np.maximum(rhs, 1e-300)))
            checks.append(
                CheckResult(
                    name="penalty-identity",
                    value=rel,
                    threshold=1e-12,
                    passed=rel <= 1e-12,
                )
            )

        min_state = float(run.bundle.states.min())
        checks.append(
            CheckResult(
                name="state-positivity",
                value=min_state,
                threshold=0.0,
                passed=min_state > 0.0,
            )
        )

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(
            os.path.join(out_dir, "report.csv"),
            ["criterion", "value", "threshold", "pass"],
            [[c.name, c.value, c.threshold, int(c.passed)] for c in checks],
            seed,
        )
        cf_stated = closed_form_controls(model, "stated-theorem")
        cf_derived = closed_form_controls(model, "first-order-derived")
        rows = []
        for t, mass in zip(run.bundle.times[:-1], run.mass_path):
            rows.append(
                [
                    t,
                    cf_derived.rho_hat(float(t)),
                    cf_stated.mu_hat_V(float(t), mass),
                    cf_derived.mu_hat_V(float(t), mass),
                ]
            )
        write_csv(
            os.path.join(out_dir, "controls.csv"),
            ["t", "rho_hat", "mu_hat_V_stated", "mu_hat_V_derived"],
            rows,
            seed,
        )
        if sweep is not None:
            sweep.to_csv(os.path.join(out_dir, "sweep.csv"), seed=seed)
        if selected is not None:
            run.residuals.to_csv(
                os.path.join(out_dir, "residuals.csv"), seed=seed
            )

    return ConsumptionGameReport(checks=checks, selected_variant=selected)
