"""Two-player verification machinery: Hamiltonian derivatives, residuals, sweeps.

Player 1 steers the measure-valued control mu(.), player 2 the real-valued
control u(.); each maximizes its own criterion J_i.  In a zero-sum game
player 2 maximizes J and player 1's criterion is its exact negation (so mu
minimizes J -- the saddle orientation).  Its adjoint is then the exact
negation of player 2's, so `solve_adjoints` solves player 2's alone and
reads player 1's as its negation; a game with two unrelated criteria solves
both.

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
from typing import Iterable, Sequence

import numpy as np

from .bsde import BsdeSolution, adjoint_p0_solve
from .measures import DiscreteMeasure
from .report import write_csv
from .sde import (
    ControlPair,
    ControlledModel,
    Direction,
    ParticleBundle,
    PerformanceSpec,
    _central_difference,
    _mu_shifts,
    _partial_mu,
    _partial_u,
    iter_steps,
    negate_performance,
    performance_samples,
    perturbed_controls,
    simulate,
)


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


class _NegatedSolution:
    """A BsdeSolution read as its exact negation, with no table of its own."""

    def __init__(self, solution: BsdeSolution):
        self._solution = solution

    def p_at(self, k: int) -> np.ndarray:
        return -self._solution.p_at(k)


def solve_adjoints(
    spec: GameSpec, bundle: ParticleBundle, candidate: ControlPair
) -> dict[int, BsdeSolution | _NegatedSolution]:
    """Solve the players' real-valued adjoint BSDEs along the bundle.

    Returns ``{1: p1, 2: p2}``, each read per grid step with ``p_at(k)``.
    When player 1's criterion is the negation of player 2's, player 1's
    adjoint is read as the negation of player 2's: IEEE negation commutes
    exactly with every sum, product, quotient and central difference of
    `adjoint_p0_solve`, so it is the same bits as a second solve (save the
    sign of an exact zero).
    """
    p2 = adjoint_p0_solve(spec.model, spec.perf2, bundle, candidate)
    if spec.perf1._negates is spec.perf2:
        p1 = _NegatedSolution(p2)
    else:
        p1 = adjoint_p0_solve(spec.model, spec.perf1, bundle, candidate)
    return {1: p1, 2: p2}


def _check_coefficient_independence(spec: GameSpec, sv, player: int, mu_shifts) -> None:
    """sigma and gamma must not see the perturbed argument: q0/r0 are not estimated.

    Probes one grid step; callers run it at every step they visit, since a
    coefficient may read the control only from some time on.  Player 1 probes
    each `_mu_shifts` pair in ``mu_shifts`` (one per declared functional).
    """
    model = spec.model
    coeffs = [("sigma", "q0", model.vol, ())]
    if model.levy is not None:
        coeffs += [("gamma", "r0", model.jump, (zeta,)) for zeta in model.levy.jump_sizes]
    # both partials take (t, x, mu or its shifted pair, u, *rest)
    if player == 2:
        arg, partial, measures = "u", _partial_u, [sv.mu_ctrl]
    else:
        arg, partial, measures = "mu", _partial_mu, mu_shifts
    for mu in measures:
        for name, adjoint, coeff, rest in coeffs:
            d = partial(coeff)(sv.t, sv.x, mu, sv.u, *rest)
            if np.max(np.abs(d)) > 1e-10:
                raise UnsupportedModelError(
                    f"{name} depends on {arg} but no {adjoint} estimate is available"
                )


def _dh_du_samples(spec: GameSpec, sv, p0_vals) -> np.ndarray:
    """Per-particle dH_2/du at one step (q0/r0 terms checked absent)."""
    perf = spec.performance_for(2)
    if perf.running_du is not None:
        dl = perf.running_du(sv.t, sv.x, sv.law, sv.mu_ctrl, sv.u)
    else:
        dl = _central_difference(
            lambda h: perf.running(sv.t, sv.x, sv.law, sv.mu_ctrl, sv.u + h)
        )
    db = _partial_u(spec.model.drift)(sv.t, sv.x, sv.mu_ctrl, sv.u)
    return np.broadcast_to(dl + p0_vals * db, (sv.x.size,))


def _dh_dmu_samples(spec: GameSpec, sv, p0_vals, mu_shifts, player: int) -> np.ndarray:
    """Per-particle directional dH_player/dmu at one step along a `_mu_shifts` pair."""
    perf = spec.performance_for(player)
    dl = _central_difference(
        lambda h: perf.running(sv.t, sv.x, sv.law, mu_shifts[h], sv.u)
    )
    db = _partial_mu(spec.model.drift)(sv.t, sv.x, mu_shifts, sv.u)
    return np.broadcast_to(dl + p0_vals * db, (sv.x.size,))


def _sqrt_n(n_particles: int, caller: str) -> float:
    """sqrt(N) for a standard error over N >= 2 particles."""
    if n_particles < 2:
        raise ValueError(
            f"{caller} reports standard errors and needs at least 2 particles, "
            f"got {n_particles}"
        )
    return math.sqrt(n_particles)


@dataclass
class ResidualCurves:
    """First-order residual estimates E[dH/d(control) | info] per grid time.

    Reported as cross-particle means with standard errors (the projection on
    any information pattern preserves the mean, which is what the 3-sigma
    tests consume).  A residual is statistically zero within ``N_SE``
    standard errors plus ``FLOOR``.  ``u_at_boundary`` flags times where the
    candidate sits on the boundary of U and the residual need not vanish.
    """

    N_SE = 3.0
    FLOOR = 1e-8

    times: np.ndarray
    res_u: np.ndarray
    se_u: np.ndarray
    res_mu: dict[str, np.ndarray]
    se_mu: dict[str, np.ndarray]
    u_at_boundary: np.ndarray

    def u_within(self) -> bool:
        ok = np.abs(self.res_u) <= self.N_SE * self.se_u + self.FLOOR
        return bool(np.all(ok | self.u_at_boundary))

    def mu_within(self) -> bool:
        return all(
            bool(np.all(np.abs(r) <= self.N_SE * self.se_mu[name] + self.FLOOR))
            for name, r in self.res_mu.items()
        )

    @property
    def max_margin(self) -> float:
        """Largest ``|residual| - N_SE se`` over every time and curve, u first
        and then each measure functional; a value above ``FLOOR`` is a
        residual that is not zero within noise (boundary times included)."""
        return max([
            float(np.max(np.abs(self.res_u) - self.N_SE * self.se_u)),
            *(
                float(np.max(np.abs(r) - self.N_SE * self.se_mu[name]))
                for name, r in self.res_mu.items()
            ),
        ])

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
    adjoint: dict[int, BsdeSolution | _NegatedSolution],
) -> ResidualCurves:
    """Residuals of the necessary maximum principle along the candidate.

    res_u(t) estimates E[dH_2/du(t)] and res_mu(t) the directional
    E[dH_1/dmu(t)] per declared measure functional; at an interior optimum
    both curves are statistically zero.
    """
    m = bundle.n_steps
    res_u = np.empty(m)
    se_u = np.empty(m)
    boundary = np.zeros(m, dtype=bool)
    res_mu = {f.name: np.empty(m) for f in spec.functionals}
    se_mu = {f.name: np.empty(m) for f in spec.functionals}
    sqrt_n = _sqrt_n(bundle.n_particles, "first_order_residuals")
    for sv in iter_steps(bundle, candidate):
        mu_shifts = [_mu_shifts(sv.mu_ctrl, f.unit_direction()) for f in spec.functionals]
        _check_coefficient_independence(spec, sv, 2, mu_shifts)
        _check_coefficient_independence(spec, sv, 1, mu_shifts)
        p2 = adjoint[2].p_at(sv.k)
        du = _dh_du_samples(spec, sv, p2)
        res_u[sv.k] = du.mean()
        se_u[sv.k] = du.std(ddof=1) / sqrt_n
        if candidate.u_bounds is not None:
            lo, hi = candidate.u_bounds
            u_min, u_max = float(np.min(sv.u)), float(np.max(sv.u))
            boundary[sv.k] = u_min <= lo + 1e-12 or u_max >= hi - 1e-12
        p1 = adjoint[1].p_at(sv.k)
        for f, pair in zip(spec.functionals, mu_shifts):
            dmu = _dh_dmu_samples(spec, sv, p1, pair, 1)
            res_mu[f.name][sv.k] = dmu.mean()
            se_mu[f.name][sv.k] = dmu.std(ddof=1) / sqrt_n
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
    lambdas: Sequence[float]

    def __post_init__(self):
        for name in ("directions", "lambdas"):
            if not len(getattr(self, name)):
                raise ValueError(f"a perturbation plan needs at least one of its {name}")
        if not all(math.isfinite(lam) for lam in self.lambdas):
            raise ValueError(f"lambdas must be finite, got {self.lambdas}")


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

    @property
    def max_margin(self) -> float:
        """Largest ``delta - 2 se`` over the rows, in row order; a positive
        value is a deviation that gains beyond noise."""
        return max(r.delta - 2.0 * r.std_err for r in self.rows)

    def to_csv(self, path: str, seed) -> None:
        rows = [(r.direction_id, r.lam, r.delta, r.std_err) for r in self.rows]
        write_csv(path, ["direction_id", "lambda", "delta_J", "std_err"], rows, seed)


def _crn_samples(spec: GameSpec, controls: ControlPair, perf, noise) -> np.ndarray:
    """Performance samples of ``controls`` re-run on a candidate's noise."""
    deviated = simulate(spec.model, controls, noise=noise)
    return performance_samples(deviated, controls, perf)


def _base_samples(
    spec: GameSpec, candidate: ControlPair, plan: PerturbationPlan, bundle: ParticleBundle
) -> dict[int, np.ndarray]:
    """The candidate's performance samples for each player that a direction of
    the plan deviates, in the order the directions name them."""
    base: dict[int, np.ndarray] = {}
    for direction in plan.directions:
        player = direction.player
        if player not in base:
            base[player] = performance_samples(bundle, candidate, spec.performance_for(player))
    return base


def _sweep_rows(
    spec: GameSpec,
    candidate: ControlPair,
    plan: PerturbationPlan,
    base: dict[int, np.ndarray],
    noise,
) -> SweepTable:
    """The rows of a sweep, from its `_base_samples` and the candidate's
    noise: no row reads the candidate's paths."""
    rows: list[SweepRow] = []
    sqrt_n = _sqrt_n(noise.n_particles, "nash_perturbation_sweep")
    for d_id, direction in enumerate(plan.directions):
        player = direction.player
        perf = spec.performance_for(player)
        for lam in plan.lambdas:
            pert = perturbed_controls(candidate, direction, lam)
            diff = _crn_samples(spec, pert, perf, noise) - base[player]
            se = float(diff.std(ddof=1) / sqrt_n)
            rows.append(
                SweepRow(
                    direction_id=d_id,
                    lam=float(lam),
                    delta=float(diff.mean()),
                    std_err=se,
                )
            )
    return SweepTable(rows=rows)


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
    base = _base_samples(spec, candidate, plan, bundle)
    return _sweep_rows(spec, candidate, plan, base, bundle.noise)


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


def _gateaux_block(
    spec: GameSpec,
    candidate: ControlPair,
    direction: Direction,
    lambdas: np.ndarray,
    bundle: ParticleBundle,
) -> tuple[np.ndarray, np.ndarray]:
    """One block's per-particle samples for `gateaux_check`: each lambda's
    central-difference slope of J, shape (L, n), and the adjoint integral
    int dH/dmu . eta dt (or dH/du . pi dt), shape (n,).

    Each deviation's paths go once its performance samples are taken, and
    the Gamma/P table on return.
    """
    player = direction.player
    perf = spec.performance_for(player)
    fd = np.empty((lambdas.size, bundle.n_particles))
    for i, lam in enumerate(lambdas):
        fd[i] = _central_difference(
            lambda h: _crn_samples(spec, perturbed_controls(candidate, direction, h), perf, bundle.noise),
            float(lam),
        )

    # only the deviating player's adjoint is read
    p0_sol = adjoint_p0_solve(spec.model, perf, bundle, candidate)
    dt = bundle.dt
    slope_acc = np.zeros(bundle.n_particles)
    for sv in iter_steps(bundle, candidate):
        mu_shifts = []
        if player == 1:
            mu_shifts = [_mu_shifts(sv.mu_ctrl, f.unit_direction()) for f in spec.functionals]
        _check_coefficient_independence(spec, sv, player, mu_shifts)
        p0 = p0_sol.p_at(sv.k)
        if direction.kind == "measure":
            eta = direction.eta_at(sv.t)
            if eta is None:
                continue
            slope_acc += _dh_dmu_samples(spec, sv, p0, _mu_shifts(sv.mu_ctrl, eta), player) * dt
        else:
            pi = direction.pi_at(sv.t)
            if pi == 0.0:
                continue
            slope_acc += _dh_du_samples(spec, sv, p0) * pi * dt
    return fd, slope_acc


def gateaux_check(
    spec: GameSpec,
    candidate: ControlPair,
    direction: Direction,
    lambdas: Sequence[float],
    bundles: Iterable[ParticleBundle],
) -> GateauxResult:
    """Compare finite-difference dJ/dlambda against the adjoint expression.

    The finite-difference slopes are central differences under common random
    numbers; the adjoint slope is E[integral dH/dmu . eta dt] (or
    dH/du . pi) with the controls read along the baseline paths (open loop):
    a feedback control's response to the state is not differentiated, so the
    two slopes estimate one derivative only for a candidate that reads no
    state, such as ``consumption.frozen_pair``.  The verdict is agreement at
    the smallest lambda within ``tol`` = max(3 combined SE, 5% of the adjoint
    slope, 1e-12), which the result records.

    ``bundles`` yields the candidate's paths as blocks over consecutive
    particle rows of one noise bank, in row order; a whole bundle is the
    one block ``(bundle,)``.  Each block's samples are taken on its own
    noise, and the block, its deviations and its Gamma/P table go before the
    next block is drawn from ``bundles``.  The means, standard errors and
    verdict are taken once, over every block's samples joined in row order.
    Row blocks give the whole bundle's bits only when no coefficient,
    control or cost reads the law or another particle: each particle's
    paths, deviations, Gamma/P row and integral then depend on its own noise
    rows alone.  Any other candidate, such as the consumption game's, whose
    cost reads M(V), is passed as one block.  Raises ``ValueError`` when
    ``bundles`` yields no block, when a block's time grid differs from the
    first block's, or when the blocks hold fewer than 2 particles together.
    """
    lambdas = np.asarray(sorted(lambdas, key=abs, reverse=True), dtype=float)
    if not lambdas.size:
        raise ValueError("gateaux_check needs at least one finite-difference magnitude in lambdas")
    if np.any(lambdas == 0.0):
        raise ValueError("finite-difference magnitudes must be nonzero")
    if not np.all(np.isfinite(lambdas)):
        raise ValueError(f"finite-difference magnitudes must be finite, got {lambdas}")

    fd_blocks, slope_blocks, times = [], [], None
    for bundle in bundles:
        if times is None:
            times = bundle.times
        elif not np.array_equal(bundle.times, times):
            raise ValueError("gateaux_check blocks must share the first block's time grid")
        fd, slope_acc = _gateaux_block(spec, candidate, direction, lambdas, bundle)
        fd_blocks.append(fd)
        slope_blocks.append(slope_acc)
        # the next block is simulated only after this one is released
        del bundle
    if times is None:
        raise ValueError("gateaux_check needs at least one bundle block")
    fd = np.concatenate(fd_blocks, axis=1)
    slope_acc = np.concatenate(slope_blocks)
    sqrt_n = _sqrt_n(slope_acc.size, "gateaux_check")

    fd_slopes = np.empty(lambdas.size)
    fd_se = np.empty(lambdas.size)
    for i, slope_samples in enumerate(fd):
        fd_slopes[i] = slope_samples.mean()
        fd_se[i] = slope_samples.std(ddof=1) / sqrt_n
    adjoint_slope = float(slope_acc.mean())
    adjoint_se = float(slope_acc.std(ddof=1) / sqrt_n)

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
