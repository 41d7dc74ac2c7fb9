"""Particle simulation of controlled mean-field jump diffusions.

Simulates N i.i.d. copies of

    dX = b(t, X, mu, u) dt + sigma(t, X, mu, u) dB
         + integral gamma(t, X, mu, u, zeta) Ntilde(dt, dzeta)

by an explicit Euler scheme with left-endpoint coefficients and compensated
finite-activity jumps.  The measure argument fed to the coefficients is
either a measure-valued control (``mu_mode="exogenous"``) or the previous
step's cross-sectional empirical law (``mu_mode="empirical"``, the mean-field
coupling) -- the explicit coupling avoids a fixed-point solve per step.  The
mode is chosen once, in ``simulate``, and recorded on the bundle as
``ParticleBundle.mu_mode``; every replay of a bundle (``iter_steps`` and all
that build on it) reads it from there.

Coefficients are numpy-vectorized over particles:

    b(t, x, mu, u, scen) -> array
    sigma(t, x, mu, u, scen) -> array
    gamma(t, x, mu, u, zeta, scen) -> array

with ``x`` the particle-state vector, ``mu`` a DiscreteMeasure, ``u`` a
scalar or per-particle array and ``scen`` the particle indices.  Noise is
drawn once per bundle, before stepping, from a counter-based Philox stream
keyed by the seed, with row i of each draw forming particle i's block.  The
noise bank is the one record of N, M, dt and the Levy measure it was drawn
for: a bundle is a bit-for-bit function of (model, controls, noise,
mu_mode), independent of any parallel schedule, and re-running a bundle's
bank under other controls gives common random numbers.

Particle-by-time arrays (states, Brownian increments and levels, derivative
processes, and the Gamma and coefficient tables of ``bsde``) are stored
time-major: the public shapes stay (N, M+1) or (N, M), but each is the
transposed view of a C-ordered (M+1, N) or (M, N) buffer, so the per-step
column ``a[:, k]`` that every kernel reads or writes is contiguous.
Reductions over the particle axis of a whole array therefore run over the
fast axis; where their accumulation order matters, reduce a C-ordered copy.

Noise banks, Levy measures and the measures handed to coefficients are
read-only values, and so is a bundle's ``states`` array once the Euler sweep
has filled it (with its cached Brownian levels and each law's state column):
writing to any of them raises ``ValueError``, so edit a ``.copy()``.  Every
cache here (sorted laws, interval masses, the laws of a bundle, the sums of a
perturbed measure control) rests on this.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .lawproc import LevyMeasure, MeasurePath, empirical_law
from .measures import DiscreteMeasure, _read_only

FD_STEP = 1e-5


def _time_major(n_particles: int, n_times: int) -> np.ndarray:
    """Uninitialized (n_particles, n_times) array with contiguous time columns."""
    return np.empty((n_times, n_particles)).T


def _central_difference(g, step=FD_STEP):
    """g'(0) by the central difference of a one-parameter shift g(h)."""
    return (g(step) - g(-step)) / (2 * step)


class SimulationError(RuntimeError):
    """Non-finite state or coefficient during particle integration."""


class InadmissiblePerturbation(ValueError):
    """A perturbed control leaves the admissible set."""


@dataclass(frozen=True)
class InfoPattern:
    """Information available to a control: observation with a fixed delay.

    The control sees state and law from time (t - delay)+, rounded to the
    simulation grid; the default delay 0 is full information.
    """

    delay: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.delay) and self.delay >= 0):
            raise ValueError(f"delay must be finite and nonnegative, got {self.delay}")

    def lag_steps(self, dt: float) -> int:
        return int(round(self.delay / dt))


class SimInfo:
    """What a control is allowed to see at evaluation time.

    Exposes the (possibly delayed) observation time, per-particle states and
    the cross-sectional empirical law at that time; the law comes from the
    observed particle system's ``law_at`` cache, and its atoms are built on
    their first read, at most once per grid step.
    """

    __slots__ = ("t", "step", "x", "scenario", "_bundle")

    def __init__(self, bundle: "ParticleBundle", step: int, scenario: np.ndarray):
        self.t = float(bundle.times[step])
        self.step = step
        self.x = bundle.states[:, step]
        self.scenario = scenario
        self._bundle = bundle

    @property
    def law(self) -> DiscreteMeasure:
        return self._bundle.law_at(self.step)

    def law_mass(self, lo: float, hi: float) -> float:
        """Empirical mass on (lo, hi] without building the atom list."""
        return float(np.mean((self.x > lo) & (self.x <= hi)))


@dataclass
class ControlPair:
    """A measure-valued control and a real-valued control with info patterns.

    ``measure_ctrl(t, info) -> DiscreteMeasure`` is the first player's
    control, ``scalar_ctrl(t, info) -> float | array`` the second player's;
    each sees a SimInfo restricted by its own pattern.  ``u_bounds`` declares
    the convex admissible set of the scalar control.
    """

    measure_ctrl: Callable[[float, SimInfo], DiscreteMeasure]
    scalar_ctrl: Callable[[float, SimInfo], float | np.ndarray]
    mu_info: InfoPattern = field(default_factory=InfoPattern)
    u_info: InfoPattern = field(default_factory=InfoPattern)
    u_bounds: tuple[float, float] | None = None


@dataclass
class CoefficientPartials:
    """Optional analytic partial derivatives of the model coefficients.

    Any entry left as None falls back to a central finite difference with
    step ``FD_STEP``: in x for the ``*_dx`` slots, in the control for
    ``*_du``, and along a measure direction eta for ``*_dmu`` (directional).
    """

    drift_dx: Callable | None = None
    vol_dx: Callable | None = None
    jump_dx: Callable | None = None
    drift_du: Callable | None = None
    vol_du: Callable | None = None
    jump_du: Callable | None = None
    drift_dmu: Callable | None = None
    vol_dmu: Callable | None = None
    jump_dmu: Callable | None = None


@dataclass
class ControlledModel:
    """Coefficients, Levy measure, initial state and horizon of the state SDE."""

    drift: Callable
    vol: Callable
    x0: float
    horizon: float
    jump: Callable | None = None
    levy: LevyMeasure | None = None
    partials: CoefficientPartials | None = None

    def __post_init__(self):
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if (self.levy is None) != (self.jump is None):
            raise ValueError("jump coefficient and Levy measure must come together")


@dataclass
class PerformanceSpec:
    """Running and terminal cost of a performance functional.

    ``running(t, x, m, mu, u, scen)`` sees the current law ``m`` and the
    measure control ``mu``; ``terminal(x, m, scen)`` the terminal pair.
    Partials default to central finite differences.
    """

    running: Callable
    terminal: Callable
    running_dx: Callable | None = None
    running_du: Callable | None = None
    terminal_dx: Callable | None = None


def negate_performance(perf: PerformanceSpec) -> PerformanceSpec:
    """The performance of the opposing player in a zero-sum game."""
    return PerformanceSpec(
        running=lambda *a: -perf.running(*a),
        terminal=lambda *a: -perf.terminal(*a),
        running_dx=None if perf.running_dx is None else (lambda *a: -perf.running_dx(*a)),
        running_du=None if perf.running_du is None else (lambda *a: -perf.running_du(*a)),
        terminal_dx=None if perf.terminal_dx is None else (lambda *a: -perf.terminal_dx(*a)),
    )


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def _levy_arrays(levy: LevyMeasure | None) -> tuple[np.ndarray, np.ndarray]:
    """Copies of a Levy measure's jump sizes and rates; both empty for none."""
    if levy is None:
        return np.empty(0), np.empty(0)
    return levy.jump_sizes.copy(), levy.rates.copy()


class NoiseBank:
    """Brownian increments and jump events for one particle system.

    Jump events are stored flat as (particle, step, zeta-index) triples sorted
    by step; ``events_at(k)`` returns the slice for one interval.  The bank
    records the Levy jump sizes and rates it was drawn for (its own copies,
    both empty without a Levy measure).  Every array is frozen in place.
    """

    __slots__ = (
        "n_particles", "n_steps", "dt", "dB", "ev_particle", "ev_step", "ev_zeta",
        "_step_offsets", "jump_sizes", "jump_rates",
    )

    def __init__(self, n_particles, n_steps, dt, dB, ev_particle, ev_step, ev_zeta, levy):
        self.n_particles = n_particles
        self.n_steps = n_steps
        self.dt = dt
        self.dB = _read_only(dB)
        self.ev_particle = _read_only(ev_particle)
        self.ev_step = _read_only(ev_step)
        self.ev_zeta = _read_only(ev_zeta)
        self.jump_sizes, self.jump_rates = map(_read_only, _levy_arrays(levy))
        self._step_offsets = _read_only(np.searchsorted(ev_step, np.arange(n_steps + 1)))

    @property
    def n_events(self) -> int:
        return self.ev_step.size

    def drawn_for(self, levy: LevyMeasure | None) -> bool:
        """True when the bank's jump events come from exactly this Levy measure."""
        sizes, rates = _levy_arrays(levy)
        return np.array_equal(self.jump_sizes, sizes) and np.array_equal(self.jump_rates, rates)

    def events_at(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._step_offsets[k], self._step_offsets[k + 1]
        return self.ev_particle[lo:hi], self.ev_zeta[lo:hi]


def draw_noise(
    seed: int,
    n_particles: int,
    n_steps: int,
    horizon: float,
    levy: LevyMeasure | None = None,
) -> NoiseBank:
    """Draw all randomness up front from one counter-based Philox stream.

    Row i of every draw is particle i's noise block, so the layout is a pure
    function of (seed, N, M) and never depends on how the integration is
    scheduled; the Euler sweep itself consumes no randomness.  The scaled
    Brownian draw is written straight into time-major storage.
    """
    if n_particles < 1 or n_steps < 1:
        raise ValueError("need at least one particle and one step")
    dt = horizon / n_steps
    gen = np.random.Generator(np.random.Philox(key=seed))
    dB = _time_major(n_particles, n_steps)
    np.multiply(gen.standard_normal((n_particles, n_steps)), math.sqrt(dt), out=dB)
    particle = np.empty(0, dtype=np.int64)
    step = np.empty(0, dtype=np.int64)
    zeta = np.empty(0, dtype=np.int64)
    if levy is not None:
        counts = gen.poisson(levy.total_rate * dt, (n_particles, n_steps))
        idx_p, idx_s = np.nonzero(counts)
        if idx_p.size:
            reps = counts[idx_p, idx_s]
            particle = np.repeat(idx_p, reps)
            step = np.repeat(idx_s, reps)
            if levy.n_atoms == 1:
                zeta = np.zeros(particle.size, dtype=np.int64)
            else:
                zeta = gen.choice(
                    levy.n_atoms, size=particle.size, p=levy.rates / levy.total_rate
                )
            order = np.lexsort((particle, step))
            particle, step, zeta = particle[order], step[order], zeta[order]
    return NoiseBank(n_particles, n_steps, dt, dB, particle, step, zeta, levy)


# ---------------------------------------------------------------------------
# particle bundle
# ---------------------------------------------------------------------------

class ParticleBundle:
    """Simulated paths plus the noise that produced them (for CRN reuse).

    ``mu_mode`` is the measure mode the paths were simulated in; replays
    read it.  ``law_at`` keeps the one cache of cross-sectional laws of this
    particle system; the Euler sweep, the controls' ``SimInfo`` and
    ``iter_steps`` all read it.  A cached law builds its atoms on their first
    read, so a step whose law nothing reads costs no empirical law.  The
    Euler sweep freezes ``states`` once it has filled them.
    """

    __slots__ = ("times", "states", "noise", "mu_mode", "_laws", "_brownian")

    def __init__(self, times: np.ndarray, states: np.ndarray, noise: NoiseBank, mu_mode: str):
        self.times = times
        self.states = states
        self.noise = noise
        self.mu_mode = mu_mode
        self._laws: dict[int, DiscreteMeasure] = {}
        self._brownian: np.ndarray | None = None

    @property
    def n_particles(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.states.shape[1] - 1

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def law_at(self, k: int) -> DiscreteMeasure:
        """Cross-sectional empirical law at grid index k (cached, built on first read)."""
        law = self._laws.get(k)
        if law is None:
            law = _LazyLaw(self.states[:, k])
            self._laws[k] = law
        return law

    @property
    def law_path(self) -> MeasurePath:
        return MeasurePath(self.times, [self.law_at(k) for k in range(len(self.times))])

    def brownian_levels(self) -> np.ndarray:
        """B(t) per particle on the grid (zero at t=0)."""
        if self._brownian is None:
            levels = _time_major(self.n_particles, self.n_steps + 1)
            levels[:, 0] = 0.0
            np.cumsum(self.noise.dB.T, axis=0, out=levels.T[1:])
            self._brownian = _read_only(levels)
        return self._brownian

class _LazyLaw(DiscreteMeasure):
    """Empirical law of one state column; ``empirical_law`` runs on the first
    read of an atom slot and fills all of them."""

    __slots__ = ("_column",)

    def __init__(self, column: np.ndarray):
        # a read-only view of its own: the sweep may still be filling states
        self._column = _read_only(column.view())
        self._masses = {}

    def __getattr__(self, name):
        # only reached while a slot is unset; later reads are plain slot reads
        if name not in DiscreteMeasure.__slots__:
            raise AttributeError(name)
        law = empirical_law(self._column)
        self._set_atoms(law._sorted_loc, law._sorted_w, law._tail_loc, law._tail_w)
        return getattr(self, name)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _info_for(pattern: InfoPattern, k: int, bundle: ParticleBundle, scenario) -> SimInfo:
    return SimInfo(bundle, max(0, k - pattern.lag_steps(bundle.dt)), scenario)


def _as_particle_values(u, idx: np.ndarray):
    return u[idx] if isinstance(u, np.ndarray) and u.ndim else u


def _step_controls(k, bundle, controls, scenario):
    """Evaluate both controls at step k and pick the coefficients' measure."""
    t = float(bundle.times[k])
    mu_ctrl = controls.measure_ctrl(t, _info_for(controls.mu_info, k, bundle, scenario))
    u = controls.scalar_ctrl(t, _info_for(controls.u_info, k, bundle, scenario))
    if controls.u_bounds is not None:
        lo, hi = controls.u_bounds
        if np.ndim(u) == 0:
            u_min = u_max = float(u)
        else:
            u_min = float(np.min(u))
            u_max = float(np.max(u))
        if u_min < lo - 1e-12 or u_max > hi + 1e-12:
            raise InadmissiblePerturbation(
                f"scalar control leaves U=[{lo}, {hi}] at t={t:.6g}: "
                f"range [{u_min:.6g}, {u_max:.6g}]"
            )
    mu_coeff = bundle.law_at(k) if bundle.mu_mode == "empirical" else mu_ctrl
    return mu_ctrl, u, mu_coeff


def _compensated_jump_step(y, dt, levy, noise, k, term):
    """y - dt sum_j rate_j term(j) plus the jumps of step k's events.

    ``term(j, i)`` is the jump contribution of Levy atom j at particles i:
    one atom at every particle (``i`` a full slice) for the compensator, and
    each event's own atom at its particle for the jumps themselves.
    """
    comp = np.zeros(y.shape)
    for j in range(levy.n_atoms):
        comp += levy.rates[j] * term(j, slice(None))
    y = y - dt * comp
    idx, zeta_idx = noise.events_at(k)
    if idx.size:
        np.add.at(y, idx, term(zeta_idx, idx))
    return y


def _euler_sweep(model, controls, noise, times, x_init, mu_mode) -> ParticleBundle:
    """Integrate forward from ``x_init`` on ``times``, filling a new bundle's states."""
    n = noise.n_particles
    m = len(times) - 1
    dt = float(times[1] - times[0])
    scenario = np.arange(n)
    bundle = ParticleBundle(times, _time_major(n, m + 1), noise, mu_mode)
    states = bundle.states
    states[:, 0] = x_init
    levy = model.levy
    for k in range(m):
        t = float(times[k])
        x = states[:, k]
        _, u, mu_coeff = _step_controls(k, bundle, controls, scenario)
        b = model.drift(t, x, mu_coeff, u, scenario)
        s = model.vol(t, x, mu_coeff, u, scenario)
        x_next = x + b * dt + s * noise.dB[:, k]
        if levy is not None:

            def jump_term(j, i):
                return model.jump(
                    t, x[i], mu_coeff, _as_particle_values(u, i),
                    levy.jump_sizes[j], scenario[i],
                )

            x_next = _compensated_jump_step(x_next, dt, levy, noise, k, jump_term)
        if not np.isfinite(x_next).all():
            bad = int(np.flatnonzero(~np.isfinite(x_next))[0])
            raise SimulationError(
                f"non-finite state at step {k} (t={t:.6g}), particle {bad}"
            )
        states[:, k + 1] = x_next
    _read_only(states)
    return bundle


def simulate(
    model: ControlledModel,
    controls: ControlPair,
    n_particles: int | None = None,
    n_steps: int | None = None,
    seed: int | None = None,
    mu_mode: str = "exogenous",
    noise: NoiseBank | None = None,
) -> ParticleBundle:
    """Euler-Maruyama particle simulation of the controlled SDE.

    The noise is drawn from ``(n_particles, n_steps, seed)`` or given as a
    previously drawn ``noise`` bank, never both; a bank supplies N and M
    itself, and re-running it under other controls gives common random
    numbers.  A bank is rejected only when its step is not ``horizon / M``
    or it was drawn for another Levy measure than the model's.  The result
    is a bit-for-bit function of (model, controls, noise, mu_mode) and
    records its bank and ``mu_mode``.
    """
    if mu_mode not in ("exogenous", "empirical"):
        raise ValueError(f"unknown mu_mode {mu_mode!r}")
    drawn_from = (n_particles, n_steps, seed)
    if noise is None:
        if any(v is None for v in drawn_from):
            raise TypeError("simulate needs n_particles, n_steps and seed, or a noise bank")
        noise = draw_noise(seed, n_particles, n_steps, model.horizon, model.levy)
    elif any(v is not None for v in drawn_from):
        raise TypeError("simulate takes a noise bank or (n_particles, n_steps, seed), not both")
    elif noise.dt != model.horizon / noise.n_steps:
        raise ValueError(f"supplied noise bank has step {noise.dt!r}, not horizon / M")
    elif not noise.drawn_for(model.levy):
        raise ValueError(
            "supplied noise bank was drawn for Levy jump sizes "
            f"{noise.jump_sizes.tolist()} at rates {noise.jump_rates.tolist()}, "
            "not for the model's Levy measure"
        )
    times = np.linspace(0.0, model.horizon, noise.n_steps + 1)
    return _euler_sweep(model, controls, noise, times, model.x0, mu_mode)


@dataclass(frozen=True)
class StepView:
    """Everything observable at one grid step of a bundle.

    ``law`` is the bundle's cached law at step k, whose atoms are built on
    their first read, so a replay whose costs read no law builds none.
    """

    k: int
    t: float
    x: np.ndarray
    mu_ctrl: DiscreteMeasure
    mu_coeff: DiscreteMeasure
    u: float | np.ndarray
    bundle: ParticleBundle = field(repr=False)

    @property
    def law(self) -> DiscreteMeasure:
        return self.bundle.law_at(self.k)


def iter_steps(bundle: ParticleBundle, controls: ControlPair):
    """Replay the per-step control and measure arguments of a simulation,
    in the measure mode the bundle was simulated in."""
    scenario = np.arange(bundle.n_particles)
    for k in range(bundle.n_steps):
        mu_ctrl, u, mu_coeff = _step_controls(k, bundle, controls, scenario)
        yield StepView(
            k=k, t=float(bundle.times[k]), x=bundle.states[:, k],
            mu_ctrl=mu_ctrl, mu_coeff=mu_coeff, u=u, bundle=bundle,
        )


# ---------------------------------------------------------------------------
# performance functionals
# ---------------------------------------------------------------------------

def performance_samples(
    bundle: ParticleBundle,
    controls: ControlPair,
    perf: PerformanceSpec,
) -> np.ndarray:
    """Per-particle performance: left-endpoint time integral plus terminal cost."""
    n = bundle.n_particles
    dt = bundle.dt
    scenario = np.arange(n)
    total = np.zeros(n)
    for sv in iter_steps(bundle, controls):
        total += np.broadcast_to(
            perf.running(sv.t, sv.x, sv.law, sv.mu_ctrl, sv.u, scenario), (n,)
        ) * dt
    m_terminal = bundle.law_at(bundle.n_steps)
    total = total + np.broadcast_to(
        perf.terminal(bundle.states[:, -1], m_terminal, scenario), (n,)
    )
    if not np.isfinite(total).all():
        bad = int(np.flatnonzero(~np.isfinite(total))[0])
        raise SimulationError(f"performance evaluation is non-finite for particle {bad}")
    return total


# ---------------------------------------------------------------------------
# perturbation directions and the derivative process
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Direction:
    """Step perturbation switched on at t0: a measure alpha_1 or a scalar alpha_2."""

    kind: str
    t0: float = 0.0
    measure: DiscreteMeasure | None = None
    scalar: float = 1.0

    def __post_init__(self):
        if self.kind not in ("measure", "control"):
            raise ValueError(f"unknown direction kind {self.kind!r}")
        if self.kind == "measure" and self.measure is None:
            raise ValueError("measure direction needs its measure alpha_1")

    def eta_at(self, t: float) -> DiscreteMeasure | None:
        if self.kind != "measure" or t < self.t0:
            return None
        return self.measure

    def pi_at(self, t: float) -> float:
        if self.kind != "control" or t < self.t0:
            return 0.0
        return self.scalar


def perturbed_controls(controls: ControlPair, direction: Direction, lam: float) -> ControlPair:
    """Candidate controls shifted by lam along a step direction.

    A measure shift keeps, per time, the base measure it was last given and
    the sum it built, and returns that sum while the base is the same
    object, so a simulation and its replay share one ``base + lam eta`` (and
    its interval masses).  A base that is a new object gets a new sum.
    """
    if direction.kind == "measure":
        # t -> (base, sum); holding the base keeps its id from being reused
        sums: dict[float, tuple[DiscreteMeasure, DiscreteMeasure]] = {}

        def measure_ctrl(t, info, _base=controls.measure_ctrl):
            base = _base(t, info)
            eta = direction.eta_at(t)
            if eta is None or lam == 0.0:
                return base
            held = sums.get(t)
            if held is None or held[0] is not base:
                held = sums[t] = (base, base + eta.scaled(lam))
            return held[1]

        return replace(controls, measure_ctrl=measure_ctrl)

    def scalar_ctrl(t, info, _base=controls.scalar_ctrl):
        return _base(t, info) + lam * direction.pi_at(t)

    return replace(controls, scalar_ctrl=scalar_ctrl)


# Analytic partials, when supplied, use the same argument order as the
# coefficient they differentiate; directional measure partials insert the
# direction eta right after mu.  The finite-difference fallbacks serve the
# jump coefficient too, whose extra zeta argument rides along in ``rest``.

def _partial_x(fn, analytic):
    if analytic is not None:
        return analytic
    return lambda t, x, *rest: _central_difference(lambda h: fn(t, x + h, *rest))


def _partial_mu(fn, analytic):
    if analytic is not None:
        return analytic
    return lambda t, x, mu, eta, *rest: _central_difference(
        lambda h: fn(t, x, mu + eta.scaled(h), *rest)
    )


def _partial_u(fn, analytic):
    if analytic is not None:
        return analytic
    return lambda t, x, mu, u, *rest: _central_difference(
        lambda h: fn(t, x, mu, u + h, *rest)
    )


def simulate_derivative_process(
    bundle: ParticleBundle,
    model: ControlledModel,
    controls: ControlPair,
    direction: Direction,
) -> np.ndarray:
    """Euler integration of the linear derivative SDE along the baseline paths.

    Reuses the bundle's Brownian increments and jump events; Z(0) = 0.  The
    coefficient partials come from the model's declared partials or central
    finite differences.
    """
    p = model.partials or CoefficientPartials()
    bx = _partial_x(model.drift, p.drift_dx)
    sx = _partial_x(model.vol, p.vol_dx)
    bmu = _partial_mu(model.drift, p.drift_dmu)
    smu = _partial_mu(model.vol, p.vol_dmu)
    bu = _partial_u(model.drift, p.drift_du)
    su = _partial_u(model.vol, p.vol_du)
    if model.levy is not None:
        gx = _partial_x(model.jump, p.jump_dx)
        gmu = _partial_mu(model.jump, p.jump_dmu)
        gu = _partial_u(model.jump, p.jump_du)

    n, m = bundle.n_particles, bundle.n_steps
    dt = bundle.dt
    scenario = np.arange(n)
    z = _time_major(n, m + 1)
    z[:, 0] = 0.0
    noise = bundle.noise
    levy = model.levy
    for sv in iter_steps(bundle, controls):
        k, t, x, mu, u = sv.k, sv.t, sv.x, sv.mu_coeff, sv.u
        zk = z[:, k]
        eta = direction.eta_at(t)
        pi = direction.pi_at(t)
        if eta is not None:
            b_dir = bmu(t, x, mu, eta, u, scenario)
            s_dir = smu(t, x, mu, eta, u, scenario)
        elif pi != 0.0:
            b_dir = bu(t, x, mu, u, scenario) * pi
            s_dir = su(t, x, mu, u, scenario) * pi
        else:
            b_dir = s_dir = 0.0
        z_next = zk + (bx(t, x, mu, u, scenario) * zk + b_dir) * dt
        z_next = z_next + (sx(t, x, mu, u, scenario) * zk + s_dir) * noise.dB[:, k]
        if levy is not None:

            def jump_term(j, i):
                zeta = levy.jump_sizes[j]
                x_i, u_i, scen_i = x[i], _as_particle_values(u, i), scenario[i]
                term = gx(t, x_i, mu, u_i, zeta, scen_i) * zk[i]
                if eta is not None:
                    term = term + gmu(t, x_i, mu, eta, u_i, zeta, scen_i)
                elif pi != 0.0:
                    term = term + gu(t, x_i, mu, u_i, zeta, scen_i) * pi
                return term

            z_next = _compensated_jump_step(z_next, dt, levy, noise, k, jump_term)
        if not np.isfinite(z_next).all():
            bad = int(np.flatnonzero(~np.isfinite(z_next))[0])
            raise SimulationError(
                f"non-finite derivative state at step {k} (t={t:.6g}), particle {bad}"
            )
        z[:, k + 1] = z_next
    return z
