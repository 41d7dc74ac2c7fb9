"""Two-player verification machinery: Hamiltonian derivatives, residuals, sweeps.

Player 1 steers the measure-valued control mu(.), player 2 the real-valued
control u(.); each maximizes its own criterion J_i.  In a zero-sum game
player 2 maximizes J and player 1's criterion is its exact negation (so mu
minimizes J -- the saddle orientation).

The Hamiltonian of player i is taken as

    H_i = l_i(t, x, m, mu, u) + p0_i b,

and only its derivatives in the controls are evaluated.

The paper's H_i also carries q0_i sigma + r0_i gamma and the pairing
<p1_i, beta(m)> with beta(m) = m'.  The pairing reads neither control, so
it cancels from every candidate comparison and every derivative in a
control, and it is not represented.  The q0/r0 terms drop out of every
derivative in a control as long as sigma and gamma read no control; models
whose sigma or gamma do raise UnsupportedModelError.

Frechet derivatives in the measure argument are realized as directional
derivatives along declared measure functionals (e.g. the mass on a fixed
interval), which is how every coefficient in scope reads its measures.
Optimality certificates are grid searches over step perturbations with
common random numbers: they certify at the tested resolution, not globally.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bsde import BsdeSolution, adjoint_p0_solve
from .measures import DiscreteMeasure
from .report import write_csv
from .sde import (
    FD_STEP,
    ControlPair,
    ControlledModel,
    Direction,
    ParticleBundle,
    PerformanceSpec,
    _central_difference,
    iter_steps,
    negate_performance,
    performance_samples,
    perturbed_controls,
    simulate,
)


# a residual is statistically zero within this many standard errors plus the floor
RESIDUAL_N_SE = 3.0
RESIDUAL_FLOOR = 1e-8


class UnsupportedModelError(RuntimeError):
    """The Hamiltonian derivative needs q0/r0 terms that are not available."""


@dataclass(frozen=True)
class IntervalMass:
    """The linear functional m -> m((lo, hi]), with a probe atom inside it.

    ``unit_direction`` returns a unit point mass inside the interval, i.e. a
    measure direction that moves this functional by exactly one.
    """

    lo: float
    hi: float
    probe: float
    name: str = "mass"

    def __post_init__(self):
        if not (self.lo < self.probe <= self.hi):
            raise ValueError("probe atom must lie inside the interval")

    def unit_direction(self) -> DiscreteMeasure:
        return DiscreteMeasure.dirac(self.probe)


@dataclass
class GameSpec:
    """Model, per-player criteria and the measure functionals they read."""

    model: ControlledModel
    perf1: PerformanceSpec
    perf2: PerformanceSpec
    functionals: tuple = ()

    @classmethod
    def zero_sum_game(cls, model, perf, functionals=()) -> "GameSpec":
        """Player 2 maximizes ``perf``; player 1 maximizes its negation."""
        return cls(model, negate_performance(perf), perf, tuple(functionals))

    def performance_for(self, player: int) -> PerformanceSpec:
        if player == 1:
            return self.perf1
        if player == 2:
            return self.perf2
        raise ValueError(f"player must be 1 or 2, got {player}")


@dataclass
class AdjointState:
    """Adjoint data needed to evaluate Hamiltonian derivatives along a bundle.

    ``p0`` maps player -> BsdeSolution.
    """

    p0: dict[int, BsdeSolution]


def solve_adjoints(spec: GameSpec, bundle: ParticleBundle, candidate: ControlPair) -> AdjointState:
    """Solve both players' real-valued adjoint BSDEs along the bundle."""
    p0 = {
        player: adjoint_p0_solve(spec.model, spec.performance_for(player), bundle, candidate)
        for player in (1, 2)
    }
    return AdjointState(p0=p0)


def _mu_shifts(sv, eta: DiscreteMeasure) -> dict[float, DiscreteMeasure]:
    """sv.mu_ctrl + h eta at h = +-FD_STEP, built once per step and direction
    for every central difference in mu along eta (each concatenates ~N atoms)."""
    return {h: sv.mu_ctrl + eta.scaled(h) for h in (FD_STEP, -FD_STEP)}


def _check_coefficient_independence(spec: GameSpec, sv, player: int, scen, mu_shifts) -> None:
    """sigma and gamma must not see the perturbed argument: q0/r0 are not estimated.

    Probes one grid step; callers run it at every step they visit, since a
    coefficient may read the control only from some time on.  Player 1 probes
    each `_mu_shifts` pair in ``mu_shifts`` (one per declared functional).
    """
    model = spec.model
    coeffs = [("sigma", "q0", lambda mu, u: model.vol(sv.t, sv.x, mu, u, scen))]
    if model.levy is not None:
        coeffs += [
            ("gamma", "r0", lambda mu, u, zeta=zeta: model.jump(sv.t, sv.x, mu, u, zeta, scen))
            for zeta in model.levy.jump_sizes
        ]
    if player == 2:
        shifts = [("u", lambda h: (sv.mu_ctrl, sv.u + h))]
    else:
        shifts = [("mu", lambda h, pair=pair: (pair[h], sv.u)) for pair in mu_shifts]
    for arg, shift in shifts:
        for name, adjoint, coeff in coeffs:
            d = _central_difference(lambda h: coeff(*shift(h)))
            if np.max(np.abs(d)) > 1e-10:
                raise UnsupportedModelError(
                    f"{name} depends on {arg} but no {adjoint} estimate is available"
                )


def _dh_du_samples(spec: GameSpec, sv, p0_vals, scen) -> np.ndarray:
    """Per-scenario dH_2/du at one step (q0/r0 terms checked absent)."""
    perf = spec.performance_for(2)
    model = spec.model
    if perf.running_du is not None:
        dl = perf.running_du(sv.t, sv.x, sv.law, sv.mu_ctrl, sv.u, scen)
    else:
        dl = _central_difference(
            lambda h: perf.running(sv.t, sv.x, sv.law, sv.mu_ctrl, sv.u + h, scen)
        )
    db = _central_difference(lambda h: model.drift(sv.t, sv.x, sv.mu_ctrl, sv.u + h, scen))
    return np.broadcast_to(dl + p0_vals * db, (sv.x.size,))


def _dh_dmu_samples(spec: GameSpec, sv, p0_vals, mu_shifts, player: int, scen) -> np.ndarray:
    """Per-scenario directional dH_player/dmu at one step along a `_mu_shifts` pair."""
    perf = spec.performance_for(player)
    model = spec.model
    dl = _central_difference(
        lambda h: perf.running(sv.t, sv.x, sv.law, mu_shifts[h], sv.u, scen)
    )
    db = _central_difference(lambda h: model.drift(sv.t, sv.x, mu_shifts[h], sv.u, scen))
    return np.broadcast_to(dl + p0_vals * db, (sv.x.size,))


@dataclass
class ResidualCurves:
    """First-order residual estimates E[dH/d(control) | info] per grid time.

    Reported as cross-scenario means with standard errors (the projection on
    any information pattern preserves the mean, which is what the 3-sigma
    tests consume).  ``u_at_boundary`` flags times where the candidate sits
    on the boundary of U and the residual need not vanish.
    """

    times: np.ndarray
    res_u: np.ndarray
    se_u: np.ndarray
    res_mu: dict[str, np.ndarray]
    se_mu: dict[str, np.ndarray]
    u_at_boundary: np.ndarray

    def u_within(self) -> bool:
        ok = np.abs(self.res_u) <= RESIDUAL_N_SE * self.se_u + RESIDUAL_FLOOR
        return bool(np.all(ok | self.u_at_boundary))

    def mu_within(self) -> bool:
        return all(
            bool(np.all(np.abs(r) <= RESIDUAL_N_SE * self.se_mu[name] + RESIDUAL_FLOOR))
            for name, r in self.res_mu.items()
        )

    def to_csv(self, path: str, seed) -> None:
        rows = []
        for k, t in enumerate(self.times):
            rows.append((t, "u", self.res_u[k], self.se_u[k]))
            rows += [
                (t, f"mu:{name}", res[k], self.se_mu[name][k]) for name, res in self.res_mu.items()
            ]
        write_csv(path, ["t", "direction", "residual", "std_err"], rows, seed)


def first_order_residuals(
    spec: GameSpec,
    candidate: ControlPair,
    bundle: ParticleBundle,
    adjoint: AdjointState,
) -> ResidualCurves:
    """Residuals of the necessary maximum principle along the candidate.

    res_u(t) estimates E[dH_2/du(t)] and res_mu(t) the directional
    E[dH_1/dmu(t)] per declared measure functional; at an interior optimum
    both curves are statistically zero.
    """
    n, m = bundle.n_particles, bundle.n_steps
    scen = np.arange(n)
    res_u = np.empty(m)
    se_u = np.empty(m)
    boundary = np.zeros(m, dtype=bool)
    res_mu = {f.name: np.empty(m) for f in spec.functionals}
    se_mu = {f.name: np.empty(m) for f in spec.functionals}
    sqrt_n = math.sqrt(n)
    for sv in iter_steps(bundle, candidate):
        mu_shifts = [_mu_shifts(sv, f.unit_direction()) for f in spec.functionals]
        _check_coefficient_independence(spec, sv, 2, scen, mu_shifts)
        _check_coefficient_independence(spec, sv, 1, scen, mu_shifts)
        p2 = adjoint.p0[2].p_at(sv.k)
        du = _dh_du_samples(spec, sv, p2, scen)
        res_u[sv.k] = du.mean()
        se_u[sv.k] = du.std(ddof=1) / sqrt_n if n > 1 else 0.0
        if candidate.u_bounds is not None:
            lo, hi = candidate.u_bounds
            u_min, u_max = float(np.min(sv.u)), float(np.max(sv.u))
            boundary[sv.k] = u_min <= lo + 1e-12 or u_max >= hi - 1e-12
        p1 = adjoint.p0[1].p_at(sv.k)
        for f, pair in zip(spec.functionals, mu_shifts):
            dmu = _dh_dmu_samples(spec, sv, p1, pair, 1, scen)
            res_mu[f.name][sv.k] = dmu.mean()
            se_mu[f.name][sv.k] = dmu.std(ddof=1) / sqrt_n if n > 1 else 0.0
    return ResidualCurves(
        times=bundle.times[:-1],
        res_u=res_u,
        se_u=se_u,
        res_mu=res_mu,
        se_mu=se_mu,
        u_at_boundary=boundary,
    )


# ---------------------------------------------------------------------------
# perturbation sweeps
# ---------------------------------------------------------------------------

@dataclass
class PerturbationPlan:
    """Directions and magnitudes for a Nash/saddle grid search."""

    directions: Sequence[Direction]
    lambdas: Sequence[float] = (0.2, 0.1, 0.05, -0.05, -0.1, -0.2)


@dataclass(frozen=True)
class SweepRow:
    direction_id: int
    lam: float
    delta: float
    std_err: float

    @property
    def improves(self) -> bool:
        """Did the deviating player gain beyond noise?"""
        return self.delta > 2.0 * self.std_err


@dataclass
class SweepTable:
    """Per-direction performance deltas of unilateral deviations (CRN)."""

    rows: list[SweepRow]

    @property
    def certified(self) -> bool:
        """Nash verdict at the tested resolution: no deviation improves."""
        return not any(r.improves for r in self.rows)

    def to_csv(self, path: str, seed) -> None:
        rows = [(r.direction_id, r.lam, r.delta, r.std_err) for r in self.rows]
        write_csv(path, ["direction_id", "lambda", "delta_J", "std_err"], rows, seed)


def _crn_samples(spec: GameSpec, controls: ControlPair, perf, bundle: ParticleBundle) -> np.ndarray:
    """Performance samples of ``controls`` re-run on ``bundle``'s noise and mode."""
    deviated = simulate(spec.model, controls, mu_mode=bundle.mu_mode, noise=bundle.noise)
    return performance_samples(deviated, controls, perf)


def nash_perturbation_sweep(
    spec: GameSpec,
    candidate: ControlPair,
    plan: PerturbationPlan,
    bundle: ParticleBundle,
) -> SweepTable:
    """Grid search over unilateral deviations with common random numbers.

    Every J evaluation reuses the candidate bundle's noise, so the lambda = 0
    row is exactly zero and the per-row standard error reflects only the
    control difference.  The deltas are in the deviating player's own
    criterion; a positive delta beyond 2 standard errors refutes the candidate.
    """
    base: dict[int, np.ndarray] = {}
    rows: list[SweepRow] = []
    sqrt_n = math.sqrt(bundle.n_particles)
    for d_id, direction in enumerate(plan.directions):
        player = 1 if direction.kind == "measure" else 2
        perf = spec.performance_for(player)
        if player not in base:
            base[player] = performance_samples(bundle, candidate, perf)
        for lam in plan.lambdas:
            pert = perturbed_controls(candidate, direction, lam)
            diff = _crn_samples(spec, pert, perf, bundle) - base[player]
            se = float(diff.std(ddof=1) / sqrt_n) if diff.size > 1 else 0.0
            rows.append(
                SweepRow(
                    direction_id=d_id,
                    lam=float(lam),
                    delta=float(diff.mean()),
                    std_err=se,
                )
            )
    return SweepTable(rows=rows)


# ---------------------------------------------------------------------------
# Gateaux check
# ---------------------------------------------------------------------------

@dataclass
class GateauxResult:
    lambdas: np.ndarray
    fd_slopes: np.ndarray
    fd_se: np.ndarray
    adjoint_slope: float
    adjoint_se: float
    tol: float
    agree: bool


def gateaux_check(
    spec: GameSpec,
    candidate: ControlPair,
    direction: Direction,
    lambdas: Sequence[float],
    bundle: ParticleBundle,
) -> GateauxResult:
    """Compare finite-difference dJ/dlambda against the adjoint expression.

    The finite-difference slopes are central differences under common random
    numbers; the adjoint slope is E[integral dH/dmu . eta dt] (or
    dH/du . pi).  The verdict is agreement at the smallest lambda within
    ``tol`` = max(3 combined SE, 5% of the adjoint slope, 1e-12), which the
    result records.
    """
    player = 1 if direction.kind == "measure" else 2
    perf = spec.performance_for(player)
    n = bundle.n_particles
    sqrt_n = math.sqrt(n)
    lambdas = np.asarray(sorted(lambdas, key=abs, reverse=True), dtype=float)
    if np.any(lambdas == 0.0):
        raise ValueError("finite-difference magnitudes must be nonzero")

    fd_slopes = np.empty(lambdas.size)
    fd_se = np.empty(lambdas.size)
    for i, lam in enumerate(lambdas):
        plus = perturbed_controls(candidate, direction, float(lam))
        minus = perturbed_controls(candidate, direction, -float(lam))
        s_plus = _crn_samples(spec, plus, perf, bundle)
        s_minus = _crn_samples(spec, minus, perf, bundle)
        slope_samples = (s_plus - s_minus) / (2.0 * lam)
        fd_slopes[i] = slope_samples.mean()
        fd_se[i] = slope_samples.std(ddof=1) / sqrt_n if n > 1 else 0.0

    # only the deviating player's adjoint is read
    p0_sol = adjoint_p0_solve(spec.model, perf, bundle, candidate)
    scen = np.arange(n)
    dt = bundle.dt
    slope_acc = np.zeros(n)
    for sv in iter_steps(bundle, candidate):
        mu_shifts = []
        if player == 1:
            mu_shifts = [_mu_shifts(sv, f.unit_direction()) for f in spec.functionals]
        _check_coefficient_independence(spec, sv, player, scen, mu_shifts)
        p0 = p0_sol.p_at(sv.k)
        if direction.kind == "measure":
            eta = direction.eta_at(sv.t)
            if eta is None:
                continue
            slope_acc += _dh_dmu_samples(spec, sv, p0, _mu_shifts(sv, eta), player, scen) * dt
        else:
            pi = direction.pi_at(sv.t)
            if pi == 0.0:
                continue
            slope_acc += _dh_du_samples(spec, sv, p0, scen) * pi * dt
    adjoint_slope = float(slope_acc.mean())
    adjoint_se = float(slope_acc.std(ddof=1) / sqrt_n) if n > 1 else 0.0

    smallest = int(np.argmin(np.abs(lambdas)))
    diff = abs(fd_slopes[smallest] - adjoint_slope)
    combined_se = math.hypot(fd_se[smallest], adjoint_se)
    tol = max(3.0 * combined_se, 0.05 * abs(adjoint_slope), 1e-12)
    return GateauxResult(
        lambdas=lambdas,
        fd_slopes=fd_slopes,
        fd_se=fd_se,
        adjoint_slope=adjoint_slope,
        adjoint_se=adjoint_se,
        tol=tol,
        agree=bool(diff <= tol),
    )
