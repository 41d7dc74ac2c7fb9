"""Named experiments binding the library modules, with CSV artifacts.

Each experiment takes an ExperimentConfig, runs its checks at pinned
tolerances, writes plot-ready CSVs into the output directory and returns the
check results.  Re-running an experiment with the same config and seed
produces byte-identical files.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import consumption as cons
from .bsde import LinearBsdeSpec, backward_euler_reference, solve
from .game import (
    GameSpec,
    IntervalMass,
    PerturbationPlan,
    gateaux_check,
    nash_perturbation_sweep,
)
from .lawproc import (
    LevyMeasure,
    MeasurePath,
    abs_continuity_scan,
    law_derivative_fd,
    loglog_slope,
)
from .measures import (
    DiscreteMeasure,
    SQRT_PI,
    gauss_hermite_rule,
    law_distance_bound_check,
    norm_sq,
)
from .report import CheckResult, write_csv
from .sde import (
    ControlPair,
    ControlledModel,
    Direction,
    InfoPattern,
    PerformanceSpec,
    _restrict_rows,
    draw_noise,
    perturbed_controls,
    simulate,
    simulate_derivative_process,
)

# Philox keys lie in [0, 2**128), and experiments also draw from seed + 1 and
# seed + 2
_SEED_LIMIT = 2**128 - 2
# the size caps that `mfclab list` states: law-distance's points per paired
# sample, and nash-sweep's particles and steps
_LAW_DISTANCE_MAX_SAMPLES, _NASH_MAX_PARTICLES, _NASH_MAX_STEPS = 1000, 4000, 100
# the consumption game's [model] keys and their defaults; v_hi = inf is the
# unbounded interval V = (v_lo, inf)
MODEL_DEFAULTS: dict[str, float] = {
    "x0": 1.0, "horizon": 1.0, "sigma": 0.2, "jump_size": 0.1,
    "jump_rate": 0.5, "theta": 1.0, "v_lo": 0.25, "v_hi": math.inf,
}


@dataclass
class ExperimentConfig:
    """Knobs shared by the experiment catalogue; see `list_experiments`.

    Construction validates the config, so a bad value, an unknown experiment
    or an unknown [model] key raises `ValueError` before anything runs.
    """

    name: str
    out_dir: str = "out"
    seed: int = 2024
    n_particles: int = 10_000
    n_steps: int = 200
    quad_n: int = 64
    lambdas: tuple[float, ...] = (0.05, 0.1, 0.2, -0.05, -0.1, -0.2)
    delay: float = 0.0
    model: dict = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.name not in CATALOGUE:
            raise ValueError(f"unknown experiment {self.name!r}; run `mfclab list` for the catalogue")
        if not self.out_dir:
            raise ValueError('out_dir must not be empty; name a directory, "." for the current one')
        for key in ("seed", "n_particles", "n_steps", "quad_n"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValueError(f"seed must lie in [0, 2**128 - 2), got {self.seed}")
        if self.n_particles < 1:
            raise ValueError("n_particles must be positive")
        if CATALOGUE[self.name].standard_errors and self.n_particles < 2:
            raise ValueError(
                f"experiment {self.name!r} reports standard errors and needs "
                f"n_particles >= 2, got {self.n_particles}"
            )
        if self.n_steps < 1:
            raise ValueError("n_steps must be positive")
        if self.quad_n < 2:
            raise ValueError("quad_n must be at least 2")
        if not math.isfinite(self.delay):
            raise ValueError(f"delay must be finite, got {self.delay}")
        if self.delay < 0:
            raise ValueError("delay must be nonnegative")
        if not self.lambdas:
            raise ValueError("lambda grid must be nonempty")
        if not all(math.isfinite(lam) for lam in self.lambdas):
            raise ValueError(f"lambdas must be finite, got {self.lambdas}")
        for key, value in self.model.items():
            if key not in MODEL_DEFAULTS:
                raise ValueError(f"unknown [model] key {key!r}; the keys are {list(MODEL_DEFAULTS)}")
            if not (math.isfinite(value) or (key == "v_hi" and value == math.inf)):
                raise ValueError(f"model value {key} must be finite, got {value}")
        if self.name == "consumption":
            # the model's own checks, run before any simulation
            model = consumption_model_from(self)
            # the sweeps shift the rate by every lambda from t = 0 on, where
            # rho_hat = 1/(T + theta) is smallest, and the cost takes log u
            rate = cons.closed_form_controls(model).rho_hat(0.0)
            if rate + min(self.lambdas) <= 0:
                raise ValueError(
                    f"consumption rate 1/(T + theta) = {rate:.6g} at theta = "
                    f"{model.theta:g} plus the smallest lambda {min(self.lambdas):g} "
                    "must stay positive"
                )
        elif self.model:
            raise ValueError(f"experiment {self.name!r} reads no [model] section; only consumption does")


def _out(cfg: ExperimentConfig, filename: str) -> str:
    return os.path.join(cfg.out_dir, filename)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def run_norms(cfg: ExperimentConfig) -> list[CheckResult]:
    """Dirac-norm exactness in M0 and M^(2)."""
    rule = gauss_hermite_rule(cfg.quad_n)
    rows = []
    checks = []
    for x0 in (0.0, 1.0, -3.7):
        val = norm_sq(DiscreteMeasure.dirac(x0), 0, rule)
        err = abs(val - SQRT_PI)
        rows.append([x0, 0, val, SQRT_PI, err])
        checks.append(
            CheckResult(f"dirac-norm-k0-x0={x0}", err, 1e-10, err <= 1e-10)
        )
    val = norm_sq(DiscreteMeasure.dirac(0.0), 2, rule)
    err = abs(val - SQRT_PI / 2)
    rows.append([0.0, 2, val, SQRT_PI / 2, err])
    checks.append(CheckResult("dirac-norm-k2", err, 1e-10, err <= 1e-10))
    write_csv(_out(cfg, "norms.csv"), ["x0", "k", "norm_sq", "exact", "abs_err"], rows, cfg.seed)
    return checks


# ---------------------------------------------------------------------------
# law-distance
# ---------------------------------------------------------------------------

def run_law_distance(cfg: ExperimentConfig) -> list[CheckResult]:
    """Law-distance bound on randomized paired samples plus the Dirac case."""
    rule = gauss_hermite_rule(cfg.quad_n)
    rng = np.random.default_rng(cfg.seed)
    n_instances = 100
    n_samples = min(cfg.n_particles, _LAW_DISTANCE_MAX_SAMPLES)
    rows = []
    worst_margin = -math.inf
    all_hold = True
    for i in range(n_instances):
        scale = 0.3 + 1.2 * rng.random()
        shift = rng.uniform(-2.0, 2.0)
        x1 = shift + scale * rng.standard_normal(n_samples)
        mode = i % 3
        if mode == 0:
            x2 = x1 + rng.normal(0.0, 0.3, n_samples)
        elif mode == 1:
            x2 = x1 + rng.uniform(-0.5, 0.5, n_samples)
        else:
            # partially independent pair with the same marginal scale
            x2 = shift + scale * rng.standard_normal(n_samples)
        chk = law_distance_bound_check(x1, x2, rule)
        rows.append([i, chk.lhs, chk.rhs, int(chk.holds)])
        worst_margin = max(worst_margin, chk.lhs - chk.rhs)
        all_hold = all_hold and chk.holds
    checks = [
        CheckResult("law-distance-randomized-100", worst_margin, 1e-8, all_hold,
                    detail="max over instances of lhs - rhs")
    ]
    dirac_rows = []
    for c in (0.1, 1.0, 3.0):
        n = 64
        chk = law_distance_bound_check(np.zeros(n), np.full(n, c), rule)
        exact = 2.0 * SQRT_PI * (1.0 - math.exp(-c * c / 4.0))
        err = abs(chk.lhs - exact)
        dirac_rows.append([c, chk.lhs, exact, err, chk.rhs])
        checks.append(CheckResult(f"law-distance-dirac-c={c}", err, 1e-8, err <= 1e-8 and chk.holds))
    write_csv(_out(cfg, "law_distance.csv"), ["instance", "lhs", "rhs", "holds"], rows, cfg.seed)
    write_csv(
        _out(cfg, "law_distance_dirac.csv"), ["c", "lhs", "exact", "abs_err", "rhs"], dirac_rows, cfg.seed
    )
    return checks


# ---------------------------------------------------------------------------
# law-derivative (plus the h^2 scaling scan)
# ---------------------------------------------------------------------------

def _binned_normal(std: float, half_width: float = 8.0, n_bins: int = 1600) -> DiscreteMeasure:
    """N(0, std^2) binned into atoms by exact bin probabilities."""
    edges = np.linspace(-half_width, half_width, n_bins + 1)
    z = edges / (std * math.sqrt(2.0))
    cdf = np.array([0.5 * (1.0 + math.erf(v)) for v in z])
    weights = np.diff(cdf)
    centers = 0.5 * (edges[:-1] + edges[1:])
    keep = weights > 0.0
    return DiscreteMeasure(centers[keep], weights[keep])


def _poisson_pmf_measure(lam_t: float, k_max: int = 30) -> DiscreteMeasure:
    ks = np.arange(k_max + 1)
    pmf = np.array([math.exp(-lam_t) * lam_t**k / math.factorial(k) for k in ks])
    return DiscreteMeasure(ks.astype(float), pmf)


def _poisson_pmf_derivative(lam: float, t: float, k_max: int = 30) -> DiscreteMeasure:
    """d/dt P(N_t = k): lam e^{-lam t}(lam t)^{k-1}(k - lam t)/k!, k >= 1."""
    lam_t = lam * t
    vals = [-lam * math.exp(-lam_t)]  # k = 0
    for k in range(1, k_max + 1):
        vals.append(lam * math.exp(-lam_t) * lam_t ** (k - 1) * (k - lam_t) / math.factorial(k))
    return DiscreteMeasure(np.arange(k_max + 1, dtype=float), np.array(vals))


def law_derivative_checks(cfg: ExperimentConfig) -> list[CheckResult]:
    """Law-derivative oracles: Brownian density and Poisson pmf t-derivatives."""
    rule = gauss_hermite_rule(cfg.quad_n)
    checks = []
    rows = []

    # Brownian law path at t=1: derivative values vs -y^2/2 e^{-t y^2 / 2}
    h = 0.01
    t_mid = 1.0
    path = MeasurePath(
        [t_mid - h, t_mid, t_mid + h],
        [_binned_normal(math.sqrt(t_mid + s)) for s in (-h, 0.0, h)],
    )
    fd = law_derivative_fd(path, 1, rule)
    target = -0.5 * rule.nodes**2 * np.exp(-t_mid * rule.nodes**2 / 2)
    err_b = math.sqrt(rule.integrate(np.abs(fd - target) ** 2))
    rows.append(["brownian-density", err_b, 1e-3])
    checks.append(CheckResult("law-derivative-brownian", err_b, 1e-3, err_b <= 1e-3))

    # Poisson pmf path at t=1, lambda = 1
    lam, t_mid, h_p = 1.0, 1.0, 1e-3
    path_p = MeasurePath(
        [t_mid - h_p, t_mid, t_mid + h_p],
        [_poisson_pmf_measure(lam * (t_mid + s)) for s in (-h_p, 0.0, h_p)],
    )
    fd_p = law_derivative_fd(path_p, 1, rule)
    target_p = _poisson_pmf_derivative(lam, t_mid).fourier(rule.nodes)
    err_p = math.sqrt(rule.integrate(np.abs(fd_p - target_p) ** 2))
    rows.append(["poisson-pmf", err_p, 1e-4])
    checks.append(CheckResult("law-derivative-poisson", err_p, 1e-4, err_p <= 1e-4))
    write_csv(_out(cfg, "law_derivative.csv"), ["case", "m0_error", "tolerance"], rows, cfg.seed)
    return checks


def increment_scaling_checks(cfg: ExperimentConfig) -> list[CheckResult]:
    """h^2 scaling of worst-case squared law increments (Dirac drift, Brownian)."""
    rule = gauss_hermite_rule(cfg.quad_n)
    checks = []
    scan_rows = []
    dirac_path = MeasurePath(
        np.linspace(0.0, 1.0, 101),
        [DiscreteMeasure.dirac(t) for t in np.linspace(0.0, 1.0, 101)],
    )
    scan_d = abs_continuity_scan(dirac_path, rule)
    slope_d = loglog_slope(scan_d)
    scan_rows += [["dirac-drift", h, v] for h, v in scan_d]
    checks.append(CheckResult("increment-slope-dirac", slope_d, 1.8, slope_d >= 1.8))

    model = ControlledModel(
        drift=lambda t, x, mu, u: np.zeros_like(x),
        vol=lambda t, x, mu, u: np.ones_like(x),
        x0=0.0,
        horizon=1.0,
    )
    origin = DiscreteMeasure.dirac(0.0)
    ctrl = ControlPair(
        measure_ctrl=lambda t, info: origin,
        scalar_ctrl=lambda t, info: 0.0,
    )
    bundle = simulate(model, ctrl, cfg.n_particles, 100, cfg.seed)
    scan_b = abs_continuity_scan(bundle.law_path, rule)
    slope_b = loglog_slope(scan_b)
    scan_rows += [["brownian-particles", h, v] for h, v in scan_b]
    checks.append(
        CheckResult("increment-slope-brownian", slope_b, 1.6, 1.6 <= slope_b <= 2.2,
                    detail="must lie in [1.6, 2.2]")
    )
    write_csv(_out(cfg, "abs_continuity.csv"), ["case", "h", "max_sq_increment"], scan_rows, cfg.seed)
    return checks


def run_law_derivative(cfg: ExperimentConfig) -> list[CheckResult]:
    """Law-derivative oracles plus the h^2 increment scaling scan."""
    return law_derivative_checks(cfg) + increment_scaling_checks(cfg)


# ---------------------------------------------------------------------------
# sde-moments
# ---------------------------------------------------------------------------

def _mean_z_score(xt: np.ndarray, target: float) -> tuple[float, float, float]:
    """Sample mean, its standard error and its z-score against target.  A
    sample without spread (two particles that never jumped) certifies no
    mean: its z-score is inf, a failed check, not a ZeroDivisionError."""
    mean, se = float(xt.mean()), float(xt.std(ddof=1) / math.sqrt(xt.size))
    return mean, se, (mean - target) / se if se > 0 else math.inf


def run_sde_moments(cfg: ExperimentConfig) -> list[CheckResult]:
    """Geometric-dynamics mean oracles and compensated-jump mean preservation."""
    n, m = cfg.n_particles, cfg.n_steps
    origin = DiscreteMeasure.dirac(0.0)
    ctrl = ControlPair(
        measure_ctrl=lambda t, info: origin,
        scalar_ctrl=lambda t, info: 0.0,
    )
    rows = []
    checks = []
    # no model here reads the law, so each section simulates one row half of
    # its bank at a time: one bank and half a states table are live at once;
    # both geometric cases replay one bank
    bank = draw_noise(cfg.seed, n, m, 1.0)
    for a, s in ((0.1, 0.2), (-0.05, 0.3)):
        model = ControlledModel(
            drift=lambda t, x, mu, u, a=a: a * x,
            vol=lambda t, x, mu, u, s=s: s * x,
            x0=1.0,
            horizon=1.0,
        )
        target = math.exp(a)
        mean, se, z = _mean_z_score(_terminal_states(model, ctrl, bank), target)
        rows.append([f"geometric a={a} s={s}", mean, target, se, z])
        checks.append(
            CheckResult(f"sde-mean-geometric-a={a}", abs(z), 3.0, abs(z) <= 3.0,
                        detail=f"mean={mean:.6f} target={target:.6f}")
        )
    del bank
    model_j = ControlledModel(
        drift=lambda t, x, mu, u: np.zeros_like(x),
        vol=lambda t, x, mu, u: np.zeros_like(x),
        jump=lambda t, x, mu, u, zeta: 0.3 * x,
        levy=LevyMeasure([1.0], [1.0]),
        x0=1.0,
        horizon=1.0,
    )
    mean, se, z = _mean_z_score(
        _terminal_states(model_j, ctrl, draw_noise(cfg.seed + 1, n, m, 1.0, model_j.levy)), 1.0
    )
    rows.append(["compensated-jump", mean, 1.0, se, z])
    checks.append(CheckResult("sde-mean-compensated-jump", abs(z), 3.0, abs(z) <= 3.0))

    # consumption-style drift with constant mass and consumption rate
    c_gross, r = 0.3, 0.1
    mu_const = DiscreteMeasure.dirac(1.0, c_gross)
    model_c = ControlledModel(
        drift=lambda t, x, mu, u: (mu.mass_on(0.0, 2.0) - u) * x,
        vol=lambda t, x, mu, u: 0.2 * x,
        x0=1.0,
        horizon=1.0,
    )
    ctrl_c = ControlPair(
        measure_ctrl=lambda t, info: mu_const,
        scalar_ctrl=lambda t, info: r,
    )
    target = math.exp(c_gross - r)
    mean, se, z = _mean_z_score(
        _terminal_states(model_c, ctrl_c, draw_noise(cfg.seed + 2, n, m, 1.0)), target
    )
    rows.append(["consumption-drift", mean, target, se, z])
    checks.append(CheckResult("sde-mean-consumption-drift", abs(z), 3.0, abs(z) <= 3.0))
    write_csv(_out(cfg, "sde_moments.csv"), ["case", "mean", "target", "std_err", "z"], rows, cfg.seed)
    return checks


# ---------------------------------------------------------------------------
# bsde-oracles
# ---------------------------------------------------------------------------

def run_bsde_oracles(cfg: ExperimentConfig) -> list[CheckResult]:
    """Closed-form BSDE identities and the Gamma vs backward-Euler cross-check."""
    times = np.linspace(0.0, 1.0, cfg.n_steps + 1)
    dt = times[1] - times[0]
    theta0 = 1.0
    rows = []
    checks = []

    spec_const = LinearBsdeSpec(phi=lambda t: 0.0, alpha=lambda t: 0.0, terminal=theta0)
    dev = float(np.abs(solve(spec_const, times) - theta0).max())
    rows.append(["constant", dev, 1e-12])
    checks.append(CheckResult("bsde-constant", dev, 1e-12, dev <= 1e-12))

    spec_lin = LinearBsdeSpec(phi=lambda t: 1.0, alpha=lambda t: 0.0, terminal=theta0)
    dev = float(np.abs(solve(spec_lin, times) - (theta0 + 1.0 - times)).max())
    rows.append(["theta0-plus-T-minus-t", dev, 1e-12])
    checks.append(CheckResult("bsde-linear-exact", dev, 1e-12, dev <= 1e-12))

    a = 0.5
    spec_exp = LinearBsdeSpec(phi=lambda t: 0.0, alpha=lambda t: a, terminal=theta0)
    gamma_rep = solve(spec_exp, times)
    implicit = backward_euler_reference(spec_exp, times)
    dev_schemes = float(np.abs(gamma_rep - implicit).max())
    tol_schemes = 2.0 * dt * abs(a) * theta0
    rows.append(["gamma-vs-backward-euler", dev_schemes, tol_schemes])
    checks.append(
        CheckResult("bsde-gamma-vs-backward-euler", dev_schemes, tol_schemes,
                     dev_schemes <= tol_schemes)
    )
    dev_exact = float(np.abs(gamma_rep - theta0 * np.exp(a * (1.0 - times))).max())
    tol_exact = theta0 * math.exp(abs(a)) * a * a * dt
    rows.append(["exponential-vs-analytic", dev_exact, tol_exact])
    checks.append(
        CheckResult("bsde-exponential", dev_exact, tol_exact, dev_exact <= tol_exact)
    )
    write_csv(_out(cfg, "bsde_oracles.csv"), ["case", "deviation", "tolerance"], rows, cfg.seed)
    return checks


# ---------------------------------------------------------------------------
# gateaux
# ---------------------------------------------------------------------------

# the lambda grid of both Gateaux checks
_GATEAUX_LAMBDAS = (0.1, 0.05, 0.025)
# particle rows per block of the quotient's L^2 error; a block's temporaries
# are (_L2_BLOCK_ROWS, M+1), never another (N, M+1) table
_L2_BLOCK_ROWS = 128


def _quotient_row_sums(shifted, base, z, lam: float, out: np.ndarray) -> None:
    """Write each path's sum over the time grid of |(shifted - base)/lam - z|^2
    into ``out``, one block of particle rows at a time.

    Bitwise equal to the whole-table row sums: each element is the same
    IEEE operation and each path's time sum is one pairwise sum over its
    C-ordered row.
    """
    for start in range(0, base.shape[0], _L2_BLOCK_ROWS):
        rows = slice(start, start + _L2_BLOCK_ROWS)
        q = (shifted[rows] - base[rows]) / lam
        out[rows] = np.sum(np.square(q - z[rows], order="C"), axis=1)


def _row_halves(bank):
    """(rows, bank of those rows) for the first ceil(N/2) particles and the
    rest; the experiments that simulate halves need N >= 2."""
    mid = (bank.n_particles + 1) // 2
    for rows in (slice(0, mid), slice(mid, bank.n_particles)):
        yield rows, _restrict_rows(bank, rows.start, rows.stop)


def _terminal_states(model: ControlledModel, ctrl: ControlPair, bank) -> np.ndarray:
    """X(T) of every particle of ``bank``, simulated one row half at a time;
    bitwise the whole bank's X(T) when nothing reads the law."""
    xt = np.empty(bank.n_particles)
    for rows, half in _row_halves(bank):
        xt[rows] = simulate(model, ctrl, noise=half).states[:, -1]
    return xt


def _quotient_row_sums_on(model, ctrl, direction, bank, outs) -> None:
    """Row sums of each lambda's quotient error on one bank, into ``outs``.
    Each lambda's paths go before the next lambda is simulated; the base
    paths and Z go on return."""
    bundle = simulate(model, ctrl, noise=bank)
    z = simulate_derivative_process(bundle, model, ctrl, direction)
    for lam, out in zip(_GATEAUX_LAMBDAS, outs):
        _quotient_row_sums(
            simulate(model, perturbed_controls(ctrl, direction, lam), noise=bank).states,
            bundle.states, z, lam, out,
        )


def _quotient_l2_errors(cfg: ExperimentConfig) -> list[float]:
    """L^2 errors E int |(X^lam - X)/lam - Z|^2 dt of the difference quotient
    against Z over `_GATEAUX_LAMBDAS`, with jumps and CRN.

    The model reads only the fixed measure control base + lam eta, never the
    law, and every Euler operation is elementwise, so each particle's path,
    its Z and its row sum depend on its own noise rows alone.  The bank is
    drawn once and each row half simulated on its own rows: the halves'
    row sums are bitwise the whole table's, and each error is the mean over
    the same (N,) vector.  One bank and half of three (N, M+1) tables are
    live at a time.
    """
    v = (0.0, 2.0)
    model = ControlledModel(
        drift=lambda t, x, mu, u: mu.mass_on(*v) * x,
        vol=lambda t, x, mu, u: 0.2 * x,
        jump=lambda t, x, mu, u, zeta: zeta * x,
        levy=LevyMeasure([0.1], [0.5]),
        x0=1.0,
        horizon=1.0,
    )
    base_measure = DiscreteMeasure.dirac(1.0, 0.5)
    ctrl = ControlPair(
        measure_ctrl=lambda t, info: base_measure,
        scalar_ctrl=lambda t, info: 0.0,
    )
    direction = Direction(kind="measure", t0=0.0, measure=DiscreteMeasure.dirac(1.0))
    bank = draw_noise(cfg.seed, cfg.n_particles, cfg.n_steps, model.horizon, model.levy)
    per_path = [np.empty(bank.n_particles) for _ in _GATEAUX_LAMBDAS]
    for rows, half in _row_halves(bank):
        _quotient_row_sums_on(model, ctrl, direction, half, [out[rows] for out in per_path])
    return [float(np.mean(out * bank.dt)) for out in per_path]


def run_gateaux(cfg: ExperimentConfig) -> list[CheckResult]:
    """Derivative-process L^2 convergence and FD-vs-adjoint slope agreement.

    The L^2 section simulates its particle-independent model one row half
    of its bank at a time (see `_quotient_l2_errors`), and its paths, Z and
    noise are gone before the slope check simulates, so the run never holds
    both sections' (N, M+1) tables.  The slope model reads neither the law
    nor another particle (b = u, sigma = 0.3, a fixed measure control,
    l = -u^2/2, g = x), so `gateaux_check` takes its candidate's paths as
    two row halves of one bank: its outputs are bitwise the whole bundle's,
    and one bank and half of two (N, M+1) tables are live at a time.
    """
    checks = []
    errs = _quotient_l2_errors(cfg)
    rows_l2 = [["quotient-l2", lam, err] for lam, err in zip(_GATEAUX_LAMBDAS, errs)]
    monotone = errs[0] > errs[1] > errs[2]
    checks.append(
        CheckResult("quotient-l2-monotone", errs[-1], errs[0], monotone,
                    detail=f"errors={[f'{e:.3e}' for e in errs]}")
    )

    # FD slope vs adjoint slope on the drift-control model (p0 = 1)
    model_u = ControlledModel(
        drift=lambda t, x, mu, u: np.full_like(x, u),
        vol=lambda t, x, mu, u: np.full_like(x, 0.3),
        x0=0.0,
        horizon=1.0,
    )
    perf = PerformanceSpec(
        running=lambda t, x, m_, mu, u: np.full_like(x, -0.5 * u * u),
        terminal=lambda x, m_: x,
    )
    spec = GameSpec(model_u, perf1=perf, perf2=perf)
    u0 = 0.5
    origin = DiscreteMeasure.dirac(0.0)
    ctrl_u = ControlPair(
        measure_ctrl=lambda t, info: origin,
        scalar_ctrl=lambda t, info: u0,
    )
    # the bank simulate(model_u, ctrl_u, N, M, seed + 1) would draw
    bank_u = draw_noise(cfg.seed + 1, cfg.n_particles, cfg.n_steps, model_u.horizon)
    halves = (simulate(model_u, ctrl_u, noise=half) for _, half in _row_halves(bank_u))
    direction_u = Direction(kind="control", t0=0.0, scalar=1.0)
    result = gateaux_check(spec, ctrl_u, direction_u, _GATEAUX_LAMBDAS, halves)
    analytic = (1.0 - u0) * 1.0
    rows_fd = [["drift-control", lam, slope, result.adjoint_slope]
               for lam, slope in zip(result.lambdas, result.fd_slopes)]
    checks.append(
        CheckResult("gateaux-fd-vs-adjoint", abs(result.fd_slopes[-1] - result.adjoint_slope),
                    result.tol, result.agree,
                    detail=f"adjoint={result.adjoint_slope:.6f} analytic={analytic}")
    )
    checks.append(
        CheckResult("gateaux-adjoint-analytic", abs(result.adjoint_slope - analytic),
                    1e-6, abs(result.adjoint_slope - analytic) <= 1e-6)
    )
    write_csv(_out(cfg, "gateaux_l2.csv"), ["case", "lambda", "l2_error"], rows_l2, cfg.seed)
    write_csv(
        _out(cfg, "gateaux_slopes.csv"),
        ["case", "lambda", "fd_slope", "adjoint_slope"],
        rows_fd,
        cfg.seed,
    )
    return checks


# ---------------------------------------------------------------------------
# nash-sweep (linear-quadratic toy game)
# ---------------------------------------------------------------------------

def lq_toy_game(q1: float = 1.0, q2: float = 1.0):
    """Two-player LQ game with independent first-order systems.

    b = u + mu(V), sigma = 0.3, l_1 = -mu(V)^2/2 + q1 x,
    l_2 = -u^2/2 + q2 x, g_i = 0.  The adjoints are p_i(t) = q_i (T - t), so
    the Nash candidates are mu_hat(V)(t) = q1 (T - t), u_hat(t) = q2 (T - t).
    """
    v = (-1.0, 1.0)
    model = ControlledModel(
        drift=lambda t, x, mu, u: u + mu.mass_on(*v) + 0.0 * x,
        vol=lambda t, x, mu, u: np.full_like(x, 0.3),
        x0=0.0,
        horizon=1.0,
    )
    perf1 = PerformanceSpec(
        running=lambda t, x, m_, mu, u: -0.5 * mu.mass_on(*v) ** 2 + q1 * x,
        terminal=lambda x, m_: np.zeros_like(x),
    )
    perf2 = PerformanceSpec(
        running=lambda t, x, m_, mu, u: -0.5 * np.asarray(u) ** 2 + q2 * x,
        terminal=lambda x, m_: np.zeros_like(x),
    )
    functional = IntervalMass(*v, probe=0.0, name="mass_V")
    return GameSpec(model, perf1, perf2, functionals=(functional,))


def lq_candidates(q1: float, q2: float, horizon: float, dt_shift: float = 0.0) -> ControlPair:
    """LQ Nash candidates; dt_shift = dt gives the discrete-grid optimum."""

    def measure_ctrl(t, info):
        return DiscreteMeasure.dirac(0.0, q1 * (horizon - t - dt_shift))

    def scalar_ctrl(t, info):
        return q2 * (horizon - t - dt_shift)

    return ControlPair(measure_ctrl=measure_ctrl, scalar_ctrl=scalar_ctrl)


def run_nash_sweep(cfg: ExperimentConfig) -> list[CheckResult]:
    """Certify the LQ toy equilibrium and break an inflated candidate."""
    q1 = q2 = 1.0
    horizon = 1.0
    spec = lq_toy_game(q1=q1, q2=q2)
    n, m = min(cfg.n_particles, _NASH_MAX_PARTICLES), min(cfg.n_steps, _NASH_MAX_STEPS)
    dt = horizon / m
    # full-interval step directions: a 10% candidate inflation then shows a
    # first-order gain at the smallest grid lambda
    t0 = 0.0
    plan = PerturbationPlan(
        directions=[
            Direction(kind="measure", t0=t0, measure=DiscreteMeasure.dirac(0.0)),
            Direction(kind="control", t0=t0, scalar=1.0),
        ],
        lambdas=tuple(cfg.lambdas),
    )
    candidate = lq_candidates(q1, q2, horizon, dt_shift=dt)
    bundle = simulate(spec.model, candidate, n, m, cfg.seed)
    sweep = nash_perturbation_sweep(spec, candidate, plan, bundle)
    checks = [
        CheckResult("lq-sweep-certified", sweep.max_margin, 0.0, sweep.certified)
    ]
    # the quadratic expansion is exact for the discrete-grid optimum
    worst = 0.0
    for r in sweep.rows:
        predicted = -0.5 * r.lam**2 * (horizon - t0)
        worst = max(worst, abs(r.delta - predicted) - max(2 * r.std_err, 1e-9))
    checks.append(
        CheckResult("lq-quadratic-expansion", worst, 0.0, worst <= 0.0,
                    detail="|delta + lambda^2 (T - t0)/2| within max(2se, 1e-9)")
    )
    inflated = lq_candidates(1.1 * q1, 1.1 * q2, horizon, dt_shift=dt)
    bundle_bad = simulate(spec.model, inflated, n, m, cfg.seed)
    sweep_bad = nash_perturbation_sweep(spec, inflated, plan, bundle_bad)
    checks.append(
        CheckResult("lq-inflated-breaks", sweep_bad.max_margin, 0.0, not sweep_bad.certified,
                    detail="10% inflation must be refuted")
    )
    sweep.to_csv(_out(cfg, "nash_sweep.csv"), seed=cfg.seed)
    return checks


# ---------------------------------------------------------------------------
# consumption
# ---------------------------------------------------------------------------

def consumption_model_from(cfg: ExperimentConfig) -> cons.ConsumptionModel:
    p = {key: float(value) for key, value in {**MODEL_DEFAULTS, **cfg.model}.items()}
    if p["jump_rate"] < 0:
        raise ValueError(f"jump_rate must be nonnegative (0 means no jumps), got {p['jump_rate']}")
    levy = LevyMeasure([p["jump_size"]], [p["jump_rate"]]) if p["jump_rate"] > 0 else None
    return cons.ConsumptionModel(
        x0=p["x0"],
        horizon=p["horizon"],
        sigma=p["sigma"],
        theta=p["theta"],
        v_interval=(p["v_lo"], p["v_hi"]),
        levy=levy,
        info=InfoPattern(cfg.delay),
    )


def run_consumption(cfg: ExperimentConfig) -> list[CheckResult]:
    """End-to-end verification of the consumption game's closed-form solution."""
    return cons.verify_consumption_game(
        consumption_model_from(cfg),
        n_particles=cfg.n_particles,
        n_steps=cfg.n_steps,
        seed=cfg.seed,
        out_dir=cfg.out_dir,
        lambdas=tuple(cfg.lambdas),
    )


@dataclass(frozen=True)
class Experiment:
    """One catalogue entry: its runner, the [knobs] it reads (a config
    setting any other is rejected), its `mfclab list` summary, and whether
    its checks read a standard error over the particles (then it needs
    n_particles >= 2)."""

    run: Callable[[ExperimentConfig], list[CheckResult]]
    knobs: tuple[str, ...]
    summary: str
    standard_errors: bool = False


CATALOGUE: dict[str, Experiment] = {
    "norms": Experiment(run_norms, ("quad_n", "seed"), "Dirac norm exactness in M0/M^(2)"),
    "law-distance": Experiment(
        run_law_distance, ("n_particles", "quad_n", "seed"), "law-distance bound on 100 randomized "
        f"paired samples of min(n_particles, {_LAW_DISTANCE_MAX_SAMPLES}) draws each"),
    "law-derivative": Experiment(run_law_derivative, ("n_particles", "quad_n", "seed"),
                                 "law-derivative oracles and h^2 increment scaling"),
    "sde-moments": Experiment(run_sde_moments, ("n_particles", "n_steps", "seed"),
                              "Euler moment oracles and jump compensation", standard_errors=True),
    "bsde-oracles": Experiment(run_bsde_oracles, ("n_steps", "seed"), "closed-form linear BSDE identities"),
    "gateaux": Experiment(run_gateaux, ("n_particles", "n_steps", "seed"),
                          "derivative-process L2 convergence and FD-vs-adjoint slopes", standard_errors=True),
    "nash-sweep": Experiment(
        run_nash_sweep, ("n_particles", "n_steps", "seed", "lambdas"), "LQ toy-game Nash certificate and "
        f"refutation, run at min(n_particles, {_NASH_MAX_PARTICLES}) particles and min(n_steps, "
        f"{_NASH_MAX_STEPS}) steps", standard_errors=True),
    "consumption": Experiment(
        run_consumption, ("n_particles", "n_steps", "seed", "lambdas", "delay"), "consumption-game end-to-end"
        " verification with a [model] section; its certificate is known to hold only while the law keeps its"
        " mass in V", standard_errors=True),
}

# the runners alone, which `run_experiment` calls (a test may swap one in)
EXPERIMENTS = {name: entry.run for name, entry in CATALOGUE.items()}


def run_experiment(cfg: ExperimentConfig) -> list[CheckResult]:
    cfg.validate()
    return EXPERIMENTS[cfg.name](cfg)
