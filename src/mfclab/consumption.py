"""Optimal consumption of a mean-field cash flow under model uncertainty.

The cash flow

    dX = [mu(t)(V) - rho(t)] X dt + sigma X dB
         + integral zeta X Ntilde(dt, dzeta),    X(0) = x0 > 0,

is consumed at relative rate rho (player 2, maximizing) while an adversary
steers the measure process mu (player 1, minimizing), penalized by the
quadratic distance of mu(t)(V) from the law mass M(t)(V).  The zero-sum
criterion is

    J(mu, rho) = E[ integral {log(rho X) + [(mu - M)(V)]^2} dt + theta log X(T) ].

The terminal weight theta is a positive constant, so every conditional
mean E[theta | G_t] the closed forms read is theta itself.  Closed-form
candidates: the consumption rate is

    rho_hat(t) = 1 / (T - t + theta),

and the adversarial mass on V ships in BOTH circulating variants,

    stated-theorem:       mu_hat(t)(V) = M_hat(t)(V) + (T - t) - theta/2
    first-order-derived:  mu_hat(t)(V) = M_hat(t)(V) - (T - t + theta)/2,

the second obtained by substituting the product identity
p0_hat(t) X_hat(t) = theta + T - t into the stationarity condition
mu_hat(V) = E[M_hat(V) - p0_hat X_hat / 2 | G^(1)].  The two variants
disagree; the first-order residual test adjudicates numerically, and the
check lines name the surviving one rather than silently picking.

sigma is a constant and the jump amplitude of the cash flow is the Levy atom
zeta itself (so every atom must exceed -1 to keep X positive).  The closed
forms read neither: rho_hat and mu_hat hold for any such sigma and Levy
measure.

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
    GameSpec,
    IntervalMass,
    PerturbationPlan,
    ResidualCurves,
    SweepTable,
    _base_samples,
    _sweep_rows,
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


@dataclass
class ConsumptionModel:
    """Section-scale cash-flow model: plain numbers.

    ``sigma`` multiplies the state in the Brownian term, and a jump of Levy
    atom zeta multiplies it by 1 + zeta, so every atom must exceed -1.
    ``theta`` is the terminal utility weight.  ``info`` is the information
    pattern of both players' controls.  V is the interval whose mass the
    adversary's control and penalty read; ``v_probe``, an atom inside V, and
    ``v_outside``, one outside it, are derived from V (the signed pair that
    calibrates mu_hat's mass).
    """

    x0: float
    horizon: float
    sigma: float
    theta: float
    v_interval: tuple[float, float] = (0.25, math.inf)
    levy: LevyMeasure | None = None
    info: InfoPattern = field(default_factory=InfoPattern)
    v_probe: float = field(init=False)
    v_outside: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.x0) and self.x0 > 0):
            raise ValueError(f"x0 must be finite and positive (log utility), got {self.x0}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, got {self.sigma}")
        self.theta = float(self.theta)
        if not (math.isfinite(self.theta) and self.theta > 0):
            raise ValueError(f"theta must be finite and positive, got {self.theta}")
        lo, hi = self.v_interval
        if not math.isfinite(lo):
            raise ValueError(f"v_interval needs a finite lower end, got {lo}")
        if not lo < hi:
            raise ValueError("V interval is empty")
        self.v_probe = lo + 1.0 if math.isinf(hi) else 0.5 * (lo + hi)
        if not lo < self.v_probe <= hi:
            raise ValueError(f"v_interval {self.v_interval} puts its probe atom {self.v_probe} outside it")
        self.v_outside = lo - 1.0
        if self.levy is not None and np.any(self.levy.jump_sizes <= -1.0):
            raise ValueError("Levy jump sizes must stay above -1 so X remains positive")


def state_model(model: ConsumptionModel) -> ControlledModel:
    """The cash flow as a controlled SDE with analytic x-partials of its coefficients."""
    lo, hi = model.v_interval

    def drift(t, x, mu, u):
        return (mu.mass_on(lo, hi) - u) * x

    def vol(t, x, mu, u):
        return model.sigma * x

    partials = CoefficientPartials(
        drift_dx=lambda t, x, mu, u: (mu.mass_on(lo, hi) - u) * np.ones_like(x),
        vol_dx=lambda t, x, mu, u: model.sigma * np.ones_like(x),
    )
    jump = None
    if model.levy is not None:
        def jump(t, x, mu, u, zeta):
            return zeta * x

        partials.jump_dx = lambda t, x, mu, u, zeta: zeta * np.ones_like(x)

    return ControlledModel(
        drift=drift,
        vol=vol,
        x0=model.x0,
        horizon=model.horizon,
        jump=jump,
        levy=model.levy,
        partials=partials,
    )


def performance(model: ConsumptionModel) -> PerformanceSpec:
    """The zero-sum criterion J; player 2 maximizes it, player 1 minimizes."""
    lo, hi = model.v_interval
    theta = model.theta

    def running(t, x, m, mu, u):
        gap = mu.mass_on(lo, hi) - m.mass_on(lo, hi)
        return np.log(u * x) + gap * gap

    def terminal(x, m):
        return theta * np.log(x)

    def terminal_dx(x, m):
        return theta / x

    return PerformanceSpec(
        running=running,
        terminal=terminal,
        running_dx=lambda t, x, m, mu, u: 1.0 / x,
        running_du=lambda t, x, m, mu, u: (1.0 / u) * np.ones_like(np.asarray(x, dtype=float)),
        terminal_dx=terminal_dx,
    )


def game_spec(model: ConsumptionModel) -> GameSpec:
    lo, hi = model.v_interval
    functional = IntervalMass(lo, hi, probe=model.v_probe, name="mass_V")
    return GameSpec.zero_sum_game(state_model(model), performance(model), functionals=(functional,))


# ---------------------------------------------------------------------------
# closed-form candidates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedFormControls:
    """Feedback form of the candidate saddle controls."""

    rho_hat: Callable[[float], float]
    mu_hat_V: Callable[[float, float], float]


def closed_form_controls(model: ConsumptionModel, variant: str = "first-order-derived") -> ClosedFormControls:
    """Candidate optimal consumption rate and adversarial mass on V.

    ``rho_hat(t) = 1 / (T - t + theta)`` in both variants; the mu_hat mass
    offset from M_hat(t)(V) is ``+ (T - t) - theta/2`` as the theorem
    states it and ``- (T - t + theta)/2`` for the version derived from the
    first-order condition.  The residual tests select the variant.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    horizon = model.horizon
    theta = model.theta

    def rho_hat(t: float) -> float:
        return 1.0 / (horizon - t + theta)

    if variant == "stated-theorem":
        def mu_hat_V(t: float, m_v: float) -> float:
            return m_v + (horizon - t) - 0.5 * theta
    else:
        def mu_hat_V(t: float, m_v: float) -> float:
            return m_v - 0.5 * (horizon - t + theta)

    return ClosedFormControls(rho_hat=rho_hat, mu_hat_V=mu_hat_V)


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
        mu_info=model.info,
        u_info=model.info,
        u_bounds=(0.0, math.inf),
    )


def frozen_pair(
    model: ConsumptionModel, cf: ClosedFormControls, bundle: ParticleBundle
) -> tuple[ControlPair, np.ndarray, np.ndarray]:
    """Freeze the candidate as explicit control processes pinned to a bundle.

    Game-theoretic sweeps must hold one player's control fixed while the
    other deviates, so the feedback rules are evaluated once along the
    baseline bundle and replayed as exogenous processes.  At step k the
    frozen mu_hat reads the law that the feedback control saw there, the
    law at step k - lag under the model's information delay (the concurrent
    law at delay 0).  Returns the pair plus the law masses M(t_{k-lag})(V)
    and the frozen mu_hat(t_k)(V).
    """
    lo, hi = model.v_interval
    times = bundle.times
    m = bundle.n_steps
    dt = bundle.dt
    lag = model.info.lag_steps(dt)
    laws = [bundle.law_at(max(0, k - lag)) for k in range(m)]
    mass_path = np.array([law.mass_on(lo, hi) for law in laws])
    mu_v_path = np.array(
        [cf.mu_hat_V(float(times[k]), mass_path[k]) for k in range(m)]
    )
    frozen_measures = [
        law + _signed_pair(model, mu_v - mass)
        for law, mu_v, mass in zip(laws, mu_v_path, mass_path)
    ]

    def measure_ctrl(t, info):
        return frozen_measures[int(round(t / dt))]

    pair = ControlPair(
        measure_ctrl=measure_ctrl,
        scalar_ctrl=_frozen_rate(cf, bundle, 1.0),
        mu_info=model.info,
        u_info=model.info,
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

def product_process_check(
    model: ConsumptionModel, bundle: ParticleBundle, adjoint: BsdeSolution
) -> float:
    """Largest deviation of p0(t) X(t) from theta + T - t along the bundle.

    The maximum is taken one time column at a time (a max does not depend
    on the order it is taken in), so no (N, M+1) product table is built.
    """
    target = model.theta + model.horizon - bundle.times
    return float(np.max([
        np.abs(adjoint.p_at(k) * bundle.states[:, k] - target[k]).max()
        for k in range(bundle.times.size)
    ]))


# ---------------------------------------------------------------------------
# end-to-end verification
# ---------------------------------------------------------------------------

@dataclass
class VariantRun:
    bundle: ParticleBundle
    controls: ControlPair
    mass_path: np.ndarray
    mu_v_path: np.ndarray
    residuals: ResidualCurves
    passes_residuals: bool
    product_deviation: float | None


def _variant_run(spec: GameSpec, model: ConsumptionModel, variant: str, noise) -> VariantRun:
    """Simulate, freeze, solve the adjoints of and test the residuals of one
    variant, and check the product identity of a variant that passes them.

    The adjoints are read by nothing after the product check, so they go
    when this returns.  While the adjoint is solved, the live (N, M+1)
    tables are the noise bank, the states (which the frozen laws view) and
    one Gamma/P table: `adjoint_p0_solve` stores no phi table.
    """
    cf = closed_form_controls(model, variant)
    bundle = simulate(spec.model, feedback_pair(model, cf), noise=noise)
    controls, mass_path, mu_v_path = frozen_pair(model, cf, bundle)
    adjoint = solve_adjoints(spec, bundle, controls)
    residuals = first_order_residuals(spec, controls, bundle, adjoint)
    passes = residuals.u_within() and residuals.mu_within()
    return VariantRun(
        bundle=bundle,
        controls=controls,
        mass_path=mass_path,
        mu_v_path=mu_v_path,
        residuals=residuals,
        passes_residuals=passes,
        product_deviation=product_process_check(model, bundle, adjoint[2]) if passes else None,
    )


def _inflated_sweep(
    spec: GameSpec, controls: ControlPair, plan: PerturbationPlan, noise
) -> SweepTable:
    """`nash_perturbation_sweep` of ``controls`` from a base simulated here on
    ``noise``.  The base's paths go once its samples are taken, before the
    first deviation is simulated: the rows read only its noise."""
    base = simulate(spec.model, controls, noise=noise)
    samples = _base_samples(spec, controls, plan, base)
    del base
    return _sweep_rows(spec, controls, plan, samples, noise)


def verify_consumption_game(
    model: ConsumptionModel,
    n_particles: int = 10_000,
    n_steps: int = 200,
    seed: int = 2024,
    out_dir: str | None = None,
    lambdas: Sequence[float] = (0.05, 0.1, 0.2, -0.05, -0.1, -0.2),
) -> list[CheckResult]:
    """Run the full candidate-verification pipeline on the consumption game.

    Simulates the mu_hat variants one at a time, in reverse order of
    ``VARIANTS``: a variant that fails its first-order residuals goes before
    the next one is simulated, and each variant's adjoints go once its
    product identity is checked (`_variant_run`).  The selected variant is
    the first in ``VARIANTS`` order that passes; the first check line's
    detail lists the passing variants (``passing=[...]``) and the later ones
    name the selected one (``variant=...``).  Each variant's adjoints,
    residuals and sweeps read its `frozen_pair`: the feedback control that
    simulated its bundle, frozen along it; the residual line reports
    `ResidualCurves.max_margin` against its ``FLOOR``.  Then runs the saddle
    perturbation sweep and re-runs it with the consumption rate inflated by
    ``INFLATION``, which must break the certificate; the inflated base's
    paths go once its samples are taken (`_inflated_sweep`).  Every
    simulation runs on one noise bank drawn from ``seed``.  Writes
    report.csv and controls.csv when ``out_dir`` is given; with no passing
    variant, controls.csv reads the run of ``VARIANTS[0]``.  Returns the
    check lines.
    """
    spec = game_spec(model)
    checks: list[CheckResult] = []
    noise = draw_noise(seed, n_particles, n_steps, model.horizon, model.levy)
    run = None
    passing: list[str] = []
    for variant in reversed(VARIANTS):
        candidate = _variant_run(spec, model, variant, noise)
        if candidate.passes_residuals:
            passing.insert(0, variant)
        # a failing variant goes before the next one is simulated; with no
        # pass at all, controls.csv reads VARIANTS[0], the last one run
        if candidate.passes_residuals or (variant == VARIANTS[0] and not passing):
            run = candidate
        del candidate
    selected = passing[0] if passing else None
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
        checks.append(
            CheckResult(
                name="product-process-max-deviation",
                value=run.product_deviation,
                threshold=PRODUCT_TOL,
                passed=run.product_deviation <= PRODUCT_TOL,
                detail=f"variant={selected}",
            )
        )
        checks.append(
            CheckResult(
                name="first-order-residuals-3se",
                value=run.residuals.max_margin,
                threshold=run.residuals.FLOOR,
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
        checks.append(
            CheckResult(
                name="saddle-sweep-certified",
                value=sweep.max_margin,
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
        inflated = _inflated_sweep(spec, inflated_controls, inflated_plan, noise)
        checks.append(
            CheckResult(
                name="inflated-rho-breaks-sweep",
                value=inflated.max_margin,
                threshold=0.0,
                passed=not inflated.certified,
                detail=f"rho scaled by {INFLATION}",
            )
        )

        # penalty identity under the derived-variant control
        if selected == "first-order-derived":
            times_k = run.bundle.times[:-1]
            lhs = (run.mu_v_path - run.mass_path) ** 2
            rhs = 0.25 * (model.horizon - times_k + model.theta) ** 2
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

    return checks
