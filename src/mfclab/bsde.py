"""Linear BSDEs with jumps, solved through the Gamma-process representation.

The backward equation

    dP = -[phi(t) + alpha(t) P + beta(t) Q + integral jump_phi(t, zeta) R nu(dzeta)] dt
         + Q dB + integral R Ntilde,          P(T) = theta,

has the closed-form first component

    P(t) = E[ theta Gamma(T)/Gamma(t)
              + integral_t^T Gamma(s)/Gamma(t) phi(s) ds | F_t ],

where dGamma = Gamma^- [alpha dt + beta dB + integral jump_phi dNtilde],
Gamma(0) = 1.  Q and R are never estimated on their own: every driver in
scope is absorbed by this linear reduction, and only P enters downstream
identities.

Estimators for the conditional expectation:

* ``closed-form``  -- deterministic coefficients and terminal value; the
  expectation collapses to products of (1 + alpha dt).
* ``pathwise``     -- the integrand evaluated path by path with no
  conditioning; exact whenever the integrand is measurable at time t (true
  for the consumption adjoint, where the Gamma ratio cancels the state).
* ``regression``   -- least-squares projection of the pathwise integrand on
  basis functions of the time-t state (ridge 1e-10).
* ``nested-mc``    -- branch n_inner fresh continuations from each scenario's
  time-t state; needs a re-simulatable Markov model.  Its inner
  continuations run in the measure mode recorded on the bundle (chosen once,
  in ``sde.simulate``), and that mode must be ``"exogenous"``.

``solve`` offers all four, so that the estimators can be checked against
each other.  The adjoint reduction ``adjoint_p0_solve`` uses the pathwise
estimator only: no certificate asks for another, and it is exact for the
adjoints of the catalogue games, whose integrands are measurable at time t.

The stochastic estimators read coefficient tables, not callables.  ``solve``
fills them from a ``LinearBsdeSpec`` along the bundle (nested-MC inner paths
carry their outer scenario into every coefficient); ``adjoint_p0_solve``
fills them from the model's partials.  Regression bases see the time-t state.

The tables are phi, Gamma and theta: Gamma is advanced while the
coefficients are evaluated, from each step's alpha, beta and jump_phi, so
those are never stored.  The pathwise estimator writes its values over the
Gamma table it consumes and reads phi one step at a time, so a ``solve``
holds two (N, M+1)-sized tables (phi and Gamma) and ``adjoint_p0_solve``
holds one: it stores no phi table, but evaluates step k's phi during the
backward sweep, just before that step's sum reads it.  Gamma paths, phi
tables and P estimates are stored time-major (see ``sde``): shapes (N, M+1)
or (N, M) with contiguous per-step columns.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lawproc import LevyMeasure
from .sde import (
    CoefficientPartials,
    ControlPair,
    ControlledModel,
    ParticleBundle,
    PerformanceSpec,
    _central_difference,
    _compensated_jump_step,
    _euler_sweep,
    _partial_x,
    _step_view,
    _time_major,
    draw_noise,
    iter_steps,
)

REGRESSION_RIDGE = 1e-10
_COND_LIMIT = 1e12


class GammaPositivityError(RuntimeError):
    """Euler step drove Gamma nonpositive; shrink the step size."""


class EstimationError(RuntimeError):
    """Conditional-expectation estimator failed (e.g. rank-deficient basis)."""


@dataclass(frozen=True)
class StepContext:
    """Per-step scenario data the BSDE coefficients may read; regression
    bases see no Brownian levels."""

    step: int
    t: float
    x: np.ndarray
    scenario: np.ndarray
    brownian: np.ndarray | None = None


@dataclass
class LinearBsdeSpec:
    """Coefficients of the linear BSDE.

    ``phi(t, ctx)``, ``alpha(t, ctx)``, ``beta(t, ctx)`` return scalars or
    per-scenario arrays; ``jump_phi(t, zeta, ctx)`` must stay above -1 so the
    Gamma process remains positive; ``terminal(ctx)`` is theta.
    """

    phi: Callable
    alpha: Callable
    beta: Callable
    jump_phi: Callable
    terminal: Callable
    levy: LevyMeasure | None = None


@dataclass
class BsdeSolution:
    """P-component estimates on the grid.

    ``P`` has shape (M+1,) for the closed-form estimator and (N, M+1)
    otherwise.
    """

    times: np.ndarray
    P: np.ndarray

    def p_at(self, k: int) -> np.ndarray:
        return np.atleast_1d(self.P[..., k])


@dataclass(frozen=True)
class _CoefficientTables:
    """Per scenario and step: phi time-major (N, M), the Gamma paths
    time-major (N, M+1), theta (N,)."""

    phi: np.ndarray
    gamma: np.ndarray
    theta: np.ndarray


def _step_context(bundle: ParticleBundle, k: int, scenario: np.ndarray) -> StepContext:
    return StepContext(
        step=k, t=float(bundle.times[k]), x=bundle.states[:, k],
        brownian=bundle.brownian_levels()[:, k], scenario=scenario,
    )


def _column(n: int, value) -> np.ndarray:
    """A coefficient's scalar or per-scenario value as a float (n,) array."""
    col = np.empty(n)
    col[:] = value
    return col


def _gamma_step(gam: np.ndarray, k: int, alpha, beta, jump_phi, levy, noise) -> None:
    """Fill Gamma at step k + 1 from step k and that step's coefficients:
    ``alpha`` and ``beta`` as returned, ``jump_phi`` one value per Levy atom.

    Gamma(0) = 1 and dGamma = Gamma^-[alpha dt + beta dB + jump_phi dNtilde];
    the compensated-jump Euler factor is
    1 + alpha dt + beta dB + sum_{events} jump_phi - dt sum_j rate_j jump_phi.
    """
    n, dt = noise.n_particles, noise.dt
    factor = 1.0 + _column(n, alpha) * dt + _column(n, beta) * noise.dB[:, k]
    if len(jump_phi):
        jp = np.empty((len(jump_phi), n))
        for j, value in enumerate(jump_phi):
            jp[j] = value
        if np.any(jp <= -1.0):
            raise GammaPositivityError(
                f"jump_phi <= -1 at step {k}; Gamma cannot stay positive"
            )
        factor = _compensated_jump_step(factor, dt, levy, noise, k, lambda j, i: jp[j, i])
    gam[:, k + 1] = gam[:, k] * factor
    if np.any(gam[:, k + 1] <= 0.0):
        bad = int(np.flatnonzero(gam[:, k + 1] <= 0.0)[0])
        raise GammaPositivityError(
            f"Gamma nonpositive at step {k + 1}, scenario {bad}; "
            "decrease the step size"
        )


def _gamma_start(n: int, m: int) -> np.ndarray:
    gam = _time_major(n, m + 1)
    gam[:, 0] = 1.0
    return gam


def _tabulate(spec: LinearBsdeSpec, bundle: ParticleBundle, scenario=None) -> _CoefficientTables:
    """Evaluate the spec's callables along a bundle, advancing Gamma step by step.

    ``scenario`` relabels ctx.scenario for every coefficient (scenario i is
    path i by default).
    """
    times = bundle.times
    n, m = bundle.n_particles, bundle.n_steps
    if scenario is None:
        scenario = np.arange(n)
    atoms = spec.levy.jump_sizes if spec.levy is not None else ()
    phi = _time_major(n, m)
    gam = _gamma_start(n, m)
    for k in range(m):
        t, ctx = float(times[k]), _step_context(bundle, k, scenario)
        alpha = spec.alpha(t, ctx)
        beta = spec.beta(t, ctx)
        jump_phi = [spec.jump_phi(t, zeta, ctx) for zeta in atoms]
        phi[:, k] = spec.phi(t, ctx)
        _gamma_step(gam, k, alpha, beta, jump_phi, spec.levy, bundle.noise)
    theta = _column(n, spec.terminal(_step_context(bundle, m, scenario)))
    return _CoefficientTables(phi, gam, theta)


def _pathwise_values(
    gamma: np.ndarray, theta: np.ndarray, phi_at: Callable[[int], np.ndarray], dt: float
) -> np.ndarray:
    """Y(t) = theta Gamma(T)/Gamma(t) + sum_{s>=t} Gamma(s)/Gamma(t) phi(s) dt.

    ``phi_at(k)`` gives phi's (N,) column at step k; the sweep reads it once,
    at step k.  Consumes ``gamma``: Y(t) is written over Gamma(t) as soon as
    the backward sweep has read it, and the returned array is that table.
    """
    values = gamma
    m = values.shape[1] - 1
    acc = theta * values[:, m]
    values[:, m] = theta
    for k in range(m - 1, -1, -1):
        acc = acc + values[:, k] * phi_at(k) * dt
        values[:, k] = acc / values[:, k]
    return values


def _tabulated_values(tables: _CoefficientTables, dt: float) -> np.ndarray:
    """The pathwise values of tabulated coefficients (consumes their Gamma)."""
    return _pathwise_values(tables.gamma, tables.theta, lambda k: tables.phi[:, k], dt)


def _regression_values(tables: _CoefficientTables, bundle: ParticleBundle, basis) -> np.ndarray:
    """Least-squares projection of the pathwise values on a basis of the time-t state."""
    times = bundle.times
    n, m = bundle.n_particles, bundle.n_steps
    # fit against a particle-major copy: matmul rounds short strided and
    # contiguous right-hand sides differently, and regression P keeps the
    # rounding of strided per-step columns
    raw = np.ascontiguousarray(_tabulated_values(tables, bundle.noise.dt))
    build = resolve_basis(basis)
    scenario = np.arange(n)
    fitted = _time_major(n, m + 1)
    fitted[:, m] = tables.theta
    for k in range(m):
        ctx = StepContext(step=k, t=float(times[k]), x=bundle.states[:, k], scenario=scenario)
        if np.ptp(ctx.x) < 1e-14:
            # constant cross-section (e.g. t = 0): conditioning is trivial
            fitted[:, k] = raw[:, k].mean()
        else:
            design = build(ctx)
            gram = design.T @ design + REGRESSION_RIDGE * np.eye(design.shape[1])
            cond = np.linalg.cond(gram)
            if not np.isfinite(cond) or cond > _COND_LIMIT:
                raise EstimationError(
                    f"regression basis is rank-deficient at step {k}: "
                    f"condition number {cond:.3e}"
                )
            coef = np.linalg.solve(gram, design.T @ raw[:, k])
            fitted[:, k] = design @ coef
    return fitted


def _poly_basis(degree: int):
    # polynomials in the standardized state span the same space as in the
    # raw state but keep the normal equations well conditioned
    def build(ctx: StepContext) -> np.ndarray:
        x = ctx.x
        spread = x.std()
        z = (x - x.mean()) / spread if spread > 0 else np.zeros_like(x)
        return np.column_stack([np.ones_like(x)] + [z**d for d in range(1, degree + 1)])

    return build


def resolve_basis(basis) -> Callable[[StepContext], np.ndarray]:
    """Accept "poly<k>", a list of callables of the time-t state (a
    StepContext without Brownian levels), or None for "poly3"."""
    if basis is None:
        return _poly_basis(3)
    if isinstance(basis, str):
        match = re.fullmatch(r"poly([0-9]+)", basis)
        if match is None:
            raise ValueError(f"unknown basis spec {basis!r}; expected 'poly<k>'")
        return _poly_basis(int(match[1]))
    try:
        fns = list(basis)
    except TypeError:
        raise TypeError(
            "basis must be 'poly<k>', a list of callables of the time-t state, "
            f"or None, got {type(basis).__name__}"
        ) from None

    def build(ctx: StepContext) -> np.ndarray:
        return np.column_stack([np.broadcast_to(f(ctx), ctx.x.shape) for f in fns])

    return build


def solve(
    spec: LinearBsdeSpec,
    *,
    times: np.ndarray | None = None,
    bundle: ParticleBundle | None = None,
    estimator: str = "closed-form",
    basis=None,
    n_inner: int | None = None,
    model: ControlledModel | None = None,
    controls: ControlPair | None = None,
    seed: int | None = None,
) -> BsdeSolution:
    """Estimate the P-component of the linear BSDE on the grid.

    ``closed-form`` needs ``times`` and deterministic data (coefficients
    are called with ctx=None and must return scalars).  The other estimators
    need a ``bundle``; ``nested-mc`` additionally needs ``n_inner``, the
    generating ``model``/``controls`` and a ``seed`` for inner noise, and
    rejects an empirical-mode bundle: an inner law would be taken over the
    N * n_inner cloned continuations, not over the outer population.
    P(T) equals theta exactly for every estimator (no smoothing at T).
    """
    if estimator == "nested-mc" and bundle is not None and bundle.mu_mode == "empirical":
        raise ValueError(
            "nested-mc does not support mu_mode='empirical': inner laws would "
            "couple the cloned continuations instead of the outer population"
        )
    if estimator == "closed-form":
        if times is None:
            raise ValueError("closed-form estimator needs a time grid")
        m = len(times) - 1
        dt = float(times[1] - times[0])
        p = np.empty(m + 1)
        theta = spec.terminal(None)
        if np.ndim(theta) != 0:
            raise ValueError("closed-form estimator requires a deterministic terminal value")
        p[m] = float(theta)
        for k in range(m - 1, -1, -1):
            t = float(times[k])
            a = float(spec.alpha(t, None))
            p[k] = (1.0 + a * dt) * p[k + 1] + float(spec.phi(t, None)) * dt
        return BsdeSolution(times=np.asarray(times, dtype=float), P=p)

    if bundle is None:
        raise ValueError(f"estimator {estimator!r} needs a particle bundle")
    if estimator == "pathwise":
        return BsdeSolution(times=bundle.times, P=_tabulated_values(_tabulate(spec, bundle), bundle.noise.dt))
    if estimator == "regression":
        return BsdeSolution(times=bundle.times, P=_regression_values(_tabulate(spec, bundle), bundle, basis))
    if estimator != "nested-mc":
        raise ValueError(f"unknown estimator {estimator!r}")

    if n_inner is None or model is None or controls is None or seed is None:
        raise ValueError("nested-mc needs n_inner, model, controls and seed")
    times = bundle.times
    n, m = bundle.n_particles, bundle.n_steps
    dt = bundle.dt
    p = np.empty((n, m + 1))
    p[:, m] = spec.terminal(_step_context(bundle, m, np.arange(n)))
    outer_b = bundle.brownian_levels()
    scen_rep = np.repeat(np.arange(n), n_inner)
    for k in range(m):
        sub_times = times[k:]
        msub = m - k
        child = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        inner_noise = draw_noise(child, n * n_inner, msub, msub * dt, model.levy)
        x_init = np.repeat(bundle.states[:, k], n_inner)
        inner = _euler_sweep(model, controls, inner_noise, sub_times, x_init, bundle.mu_mode)
        # shift inner Brownian levels so ctx.brownian is the absolute B(t)
        inner._brownian = inner.brownian_levels() + np.repeat(outer_b[:, k], n_inner)[:, None]
        y_inner = _tabulated_values(_tabulate(spec, inner, scen_rep), inner_noise.dt)
        y0 = y_inner[:, 0].reshape(n, n_inner)
        p[:, k] = y0.mean(axis=1)
    return BsdeSolution(times=times, P=p)


def backward_euler_reference(spec: LinearBsdeSpec, times: np.ndarray) -> np.ndarray:
    """Implicit backward-Euler sweep for deterministic data.

    A genuinely different O(dt) scheme from the Gamma representation, used as
    a cross-check: P_k = (P_{k+1} + phi_k dt) / (1 - alpha_k dt).
    """
    m = len(times) - 1
    dt = float(times[1] - times[0])
    p = np.empty(m + 1)
    p[m] = float(spec.terminal(None))
    for k in range(m - 1, -1, -1):
        t = float(times[k])
        a = float(spec.alpha(t, None))
        if abs(a * dt) >= 1.0:
            raise ValueError("implicit step requires |alpha| dt < 1")
        p[k] = (p[k + 1] + float(spec.phi(t, None)) * dt) / (1.0 - a * dt)
    return p


# ---------------------------------------------------------------------------
# adjoint reduction
# ---------------------------------------------------------------------------

def adjoint_p0_solve(
    model: ControlledModel,
    perf: PerformanceSpec,
    bundle: ParticleBundle,
    controls: ControlPair,
) -> BsdeSolution:
    """Solve the real-valued adjoint BSDE for one player's performance.

    The driver dH/dx = dl/dx + p0 db/dx + q0 dsigma/dx + integral r0 dgamma/dx
    maps exactly onto the linear BSDE with

        phi      = dl/dx            alpha    = db/dx
        beta     = dsigma/dx        jump_phi = dgamma/dx
        terminal = dg/dx(X(T), M(T)),

    all evaluated along the bundle's baseline paths.  The forward pass
    advances Gamma step by step; the pathwise estimator of `solve` then
    writes P over the Gamma table, evaluating each step's phi as its
    backward sweep reaches that step.  No phi table is stored: the live set
    is the Gamma/P table, and the controls are evaluated once per step in
    each pass.
    """
    n, m = bundle.n_particles, bundle.n_steps
    scen = np.arange(n)
    levy = model.levy
    atoms = levy.jump_sizes if levy is not None else ()
    partials = model.partials or CoefficientPartials()
    lx = _partial_x(perf.running, perf.running_dx)
    bx = _partial_x(model.drift, partials.drift_dx)
    sx = _partial_x(model.vol, partials.vol_dx)
    gx = _partial_x(model.jump, partials.jump_dx)

    gam = _gamma_start(n, m)
    for sv in iter_steps(bundle, controls):
        k, t, x, mu, u = sv.k, sv.t, sv.x, sv.mu_coeff, sv.u
        alpha = bx(t, x, mu, u, scen)
        beta = sx(t, x, mu, u, scen)
        jump_phi = [gx(t, x, mu, u, zeta, scen) for zeta in atoms]
        _gamma_step(gam, k, alpha, beta, jump_phi, levy, bundle.noise)

    x_T = bundle.states[:, -1]
    m_T = bundle.law_at(m)
    if perf.terminal_dx is not None:
        theta = _column(n, perf.terminal_dx(x_T, m_T, scen))
    else:
        theta = _column(n, _central_difference(lambda h: perf.terminal(x_T + h, m_T, scen)))

    def phi_at(k: int) -> np.ndarray:
        sv = _step_view(bundle, controls, k, scen)
        return _column(n, lx(sv.t, sv.x, sv.law, sv.mu_ctrl, sv.u, scen))

    return BsdeSolution(times=bundle.times, P=_pathwise_values(gam, theta, phi_at, bundle.noise.dt))
