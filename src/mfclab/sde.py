"""Particle simulation of controlled mean-field jump diffusions.

Simulates N i.i.d. copies of

    dX = b(t, X, mu, u) dt + sigma(t, X, mu, u) dB
         + integral gamma(t, X, mu, u, zeta) Ntilde(dt, dzeta)

by an explicit Euler scheme with left-endpoint coefficients and compensated
finite-activity jumps.  One step, ``_euler_step``, advances X, the derivative
process Z and the Gamma process of ``bsde`` on the same noise, and rejects a
non-finite result with ``SimulationError``; the sweeps of X and Z run under
``np.errstate(all="ignore")``, so that error is the only report of an
overflow.  The measure argument fed to the coefficients is player 1's
measure-valued control.  The classical mean-field coupling
mu(t) = L(X(t)) is one such control: ``lambda t, info: info.law`` under full
information hands the coefficients each step's left-endpoint cross-sectional
law, an explicit coupling that avoids a fixed-point solve per step.  Each
control's ``info`` is a ``StepView``, the one per-step view of a bundle,
taken at the control's observation step (k - lag)+.

Coefficients are numpy-vectorized over particles:

    b(t, x, mu, u) -> array
    sigma(t, x, mu, u) -> array
    gamma(t, x, mu, u, zeta) -> array

with ``x`` the particle-state vector (``gamma`` also sees one step's jump
event rows), ``mu`` a DiscreteMeasure and ``u`` a scalar or one value per
row of ``x``; no coefficient sees a particle index.  Noise is
drawn once per bundle, before stepping, from a counter-based Philox stream
keyed by the seed, with row i of each draw forming particle i's block.  The
noise bank is the one record of N, M, dt and the Levy measure it was drawn
for: a bundle is a bit-for-bit function of (model, controls, noise),
independent of any parallel schedule, and re-running a bundle's bank under
other controls gives common random numbers.

Particle-by-time arrays (states, Brownian increments, derivative
processes, and the Gamma/P tables of ``bsde``) are stored time-major: the
public shapes stay (N, M+1) or (N, M), but each is the transposed view of a
C-ordered (M+1, N) or (M, N) buffer, so the per-step column ``a[:, k]`` that
every kernel reads or writes is contiguous.
Reductions over the particle axis of a whole array therefore run over the
fast axis; where their accumulation order matters, reduce a C-ordered copy.

Noise banks, Levy measures and the measures handed to coefficients are
read-only values, and so is a bundle's ``states`` array once the Euler sweep
has filled it (with each law's state column):
writing to any of them raises ``ValueError``, so edit a ``.copy()``.  Every
cache here (the laws of a bundle, whose head is a view of the state column
where its values are distinct, the sample counts and interval masses they
keep, the sums of a perturbed measure control) rests on this.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .lawproc import LevyMeasure, MeasurePath, empirical_law
from .measures import DiscreteMeasure, _read_only

FD_STEP = 1e-5
# particle rows per block of a noise draw
_NOISE_BLOCK_ROWS = 1024


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


class StepView:
    """Everything observable at one grid step k of a bundle.

    ``t``, ``x`` and ``law`` are the step's time, state column and the
    bundle's cached law there, whose atoms are built on their first read, so
    a replay whose costs read no law builds none.  A control sees the view at
    its observation step, with ``mu_ctrl`` and ``u`` None; ``iter_steps``
    yields the view at step k with the controls' values filled in.
    """

    __slots__ = ("k", "t", "x", "bundle", "mu_ctrl", "u")

    def __init__(self, bundle: ParticleBundle, k: int):
        self.k = k
        self.t = float(bundle.times[k])
        self.x = bundle.states[:, k]
        self.bundle = bundle
        self.mu_ctrl = self.u = None

    @property
    def law(self) -> DiscreteMeasure:
        return self.bundle.law_at(self.k)

    def law_mass(self, lo: float, hi: float) -> float:
        """Empirical mass on (lo, hi] without building the atom list."""
        return float(np.mean((self.x > lo) & (self.x <= hi)))


@dataclass
class ControlPair:
    """A measure-valued control and a real-valued control with info patterns.

    ``measure_ctrl(t, info) -> DiscreteMeasure`` is the first player's
    control, ``scalar_ctrl(t, info) -> float | array`` the second player's;
    each sees the StepView at its observation step under its own pattern.
    ``u_bounds`` declares the convex admissible set of the scalar control.
    """

    measure_ctrl: Callable[[float, StepView], DiscreteMeasure]
    scalar_ctrl: Callable[[float, StepView], float | np.ndarray]
    mu_info: InfoPattern = field(default_factory=InfoPattern)
    u_info: InfoPattern = field(default_factory=InfoPattern)
    u_bounds: tuple[float, float] | None = None


@dataclass
class CoefficientPartials:
    """Optional analytic x-derivatives of the model coefficients.

    Any entry left as None falls back to a central finite difference in x
    with step ``FD_STEP``.  ``bsde.adjoint_p0_solve`` and
    ``simulate_derivative_process`` read them; every derivative in the
    control or along a measure direction is a central difference.
    """

    drift_dx: Callable | None = None
    vol_dx: Callable | None = None
    jump_dx: Callable | None = None


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

    ``running(t, x, m, mu, u)`` sees the current law ``m`` and the
    measure control ``mu``; ``terminal(x, m)`` the terminal pair.
    Partials default to central finite differences.  ``_negates`` is the
    spec that `negate_performance` negated to build this one, else None.
    """

    running: Callable
    terminal: Callable
    running_dx: Callable | None = None
    running_du: Callable | None = None
    terminal_dx: Callable | None = None
    _negates: PerformanceSpec | None = field(default=None, init=False, repr=False, compare=False)


def negate_performance(perf: PerformanceSpec) -> PerformanceSpec:
    """The performance of the opposing player in a zero-sum game."""
    negated = PerformanceSpec(
        running=lambda *a: -perf.running(*a),
        terminal=lambda *a: -perf.terminal(*a),
        running_dx=None if perf.running_dx is None else (lambda *a: -perf.running_dx(*a)),
        running_du=None if perf.running_du is None else (lambda *a: -perf.running_du(*a)),
        terminal_dx=None if perf.terminal_dx is None else (lambda *a: -perf.terminal_dx(*a)),
    )
    negated._negates = perf
    return negated


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def _levy_arrays(levy: LevyMeasure | None) -> tuple[np.ndarray, np.ndarray]:
    """Copies of a Levy measure's jump sizes and rates; both empty for none."""
    if levy is None:
        return np.empty(0), np.empty(0)
    return levy.jump_sizes.copy(), levy.rates.copy()


def _check_bank(n_particles, n_steps, dt, dB, particle, step, zeta, n_atoms) -> None:
    """Raise ``ValueError`` unless the arrays make a bank: one increment per
    particle and step, and events in step order naming a particle, a step
    and a Levy atom that exist."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"noise bank step dt must be finite and positive, got {dt!r}")
    if dB.shape != (n_particles, n_steps):
        raise ValueError(
            f"noise bank dB has shape {dB.shape}, not (n_particles, n_steps) = "
            f"({n_particles}, {n_steps})"
        )
    events = (particle, step, zeta)
    if any(a.ndim != 1 or a.dtype.kind not in "iu" for a in events) or not (
        particle.size == step.size == zeta.size
    ):
        raise ValueError(
            "noise bank event arrays must be 1-d integer arrays of equal length, got "
            + ", ".join(f"{a.dtype} {a.shape}" for a in events)
        )
    if not step.size:
        return
    if np.any(step[1:] < step[:-1]):
        raise ValueError("noise bank event steps must be nondecreasing")
    for name, values, stop in (
        ("steps", step, n_steps), ("particles", particle, n_particles), ("atoms", zeta, n_atoms),
    ):
        if values.min() < 0 or values.max() >= stop:
            raise ValueError(f"noise bank event {name} must lie in [0, {stop})")


class NoiseBank:
    """Brownian increments and jump events for one particle system.

    Jump events are stored flat as (particle, step, zeta-index) triples sorted
    by step; ``events_at(k)`` returns the slice for one interval.  The bank
    records the Levy jump sizes and rates it was drawn for (its own copies,
    both empty without a Levy measure).  Every array is frozen in place.
    Construction raises ``ValueError`` on arrays that make no bank (see
    ``_check_bank``).
    """

    __slots__ = (
        "n_particles", "n_steps", "dt", "dB", "ev_particle", "ev_step", "ev_zeta",
        "_step_offsets", "jump_sizes", "jump_rates",
    )

    def __init__(self, n_particles, n_steps, dt, dB, ev_particle, ev_step, ev_zeta, levy):
        dB = np.asarray(dB)
        events = [np.asarray(a) for a in (ev_particle, ev_step, ev_zeta)]
        jump_sizes, jump_rates = _levy_arrays(levy)
        _check_bank(n_particles, n_steps, dt, dB, *events, jump_sizes.size)
        self.n_particles = n_particles
        self.n_steps = n_steps
        self.dt = dt
        self.dB = _read_only(dB)
        self.ev_particle, self.ev_step, self.ev_zeta = map(_read_only, events)
        self.jump_sizes, self.jump_rates = map(_read_only, (jump_sizes, jump_rates))
        self._step_offsets = _read_only(np.searchsorted(self.ev_step, np.arange(n_steps + 1)))

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
    scheduled; the Euler sweep itself consumes no randomness.  Each draw
    runs ``_NOISE_BLOCK_ROWS`` particle rows at a time, which consumes the
    stream in the same row-major order as one (N, M) draw and so gives the
    same bits with no (N, M) temporary; the scaled Brownian block is
    written straight into time-major storage.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
    if n_particles < 1 or n_steps < 1:
        raise ValueError("need at least one particle and one step")
    dt = horizon / n_steps
    gen = np.random.Generator(np.random.Philox(key=seed))
    dB = _time_major(n_particles, n_steps)
    blocks = [slice(lo, min(lo + _NOISE_BLOCK_ROWS, n_particles))
              for lo in range(0, n_particles, _NOISE_BLOCK_ROWS)]
    normal = np.empty((blocks[0].stop, n_steps))
    sqrt_dt = math.sqrt(dt)
    for rows in blocks:
        block = normal[: rows.stop - rows.start]
        gen.standard_normal(out=block)
        np.multiply(block, sqrt_dt, out=dB[rows])
    particle = np.empty(0, dtype=np.int64)
    step = np.empty(0, dtype=np.int64)
    zeta = np.empty(0, dtype=np.int64)
    if levy is not None:
        idx_p, idx_s, reps = [], [], []
        for rows in blocks:
            counts = gen.poisson(levy.total_rate * dt, (rows.stop - rows.start, n_steps))
            p, s = np.nonzero(counts)
            idx_p.append(p + rows.start)
            idx_s.append(s)
            reps.append(counts[p, s])
        idx_p, idx_s, reps = map(np.concatenate, (idx_p, idx_s, reps))
        if idx_p.size:
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


def _restrict_rows(noise: NoiseBank, lo: int, hi: int) -> NoiseBank:
    """The bank of particles lo, ..., hi - 1 of ``noise``: a view of their
    Brownian rows and their jump events in the same order, re-indexed from 0,
    with the same step and Levy arrays.

    A model whose coefficients and controls never read the law (a fixed
    measure control) moves each particle by its own noise alone, so its
    paths on this bank are bitwise rows lo:hi of its paths on ``noise``.
    """
    keep = (noise.ev_particle >= lo) & (noise.ev_particle < hi)
    levy = LevyMeasure(noise.jump_sizes, noise.jump_rates) if noise.jump_sizes.size else None
    return NoiseBank(
        hi - lo, noise.n_steps, noise.dt, noise.dB[lo:hi],
        noise.ev_particle[keep] - lo, noise.ev_step[keep], noise.ev_zeta[keep], levy,
    )


# ---------------------------------------------------------------------------
# particle bundle
# ---------------------------------------------------------------------------

class ParticleBundle:
    """Simulated paths plus the noise that produced them (for CRN reuse).

    ``law_at`` keeps the one cache of cross-sectional laws of this
    particle system; the Euler sweep, the controls and ``iter_steps`` all
    read it through ``StepView.law``.  A cached law builds its atoms on their
    first read, so a step whose law nothing reads costs no empirical law.
    The Euler sweep freezes ``states`` once it has filled them.
    """

    __slots__ = ("times", "states", "noise", "_laws")

    def __init__(self, times: np.ndarray, states: np.ndarray, noise: NoiseBank):
        self.times = times
        self.states = states
        self.noise = noise
        self._laws: dict[int, DiscreteMeasure] = {}

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


class _LazyLaw(DiscreteMeasure):
    """Empirical law of one state column; ``empirical_law`` runs on the first
    read of an atom slot and fills all of them.  A column of distinct values
    becomes the law's head, so the law holds no copy of it; with ties the law
    is all tail, ``empirical_law``'s coalesced atoms."""

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
        head = self._column if law._head_loc.size else law._head_loc
        self._set_atoms(head, law._tail_loc, law._tail_w, law._counts)
        return getattr(self, name)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _as_particle_values(u, idx: np.ndarray):
    return u[idx] if isinstance(u, np.ndarray) and u.ndim else u


def _euler_step(y, drift, vol, noise, k, levy, jump_term, name):
    """y + drift dt + vol dB_k - dt sum_j rate_j jump_term(j) plus the jumps of
    step k's events; a non-finite result raises ``SimulationError`` naming it.

    ``jump_term(j, i)`` is the jump contribution of Levy atom j at particles i:
    one atom at every particle (``i`` a full slice) for the compensator, and
    each event's own atom at its particle for the jumps themselves.  Without
    a Levy measure it is never called.
    """
    dt = noise.dt
    y = y + drift * dt + vol * noise.dB[:, k]
    if levy is not None:
        comp = np.zeros(y.shape)
        for j in range(levy.n_atoms):
            comp += levy.rates[j] * jump_term(j, slice(None))
        y = y - dt * comp
        idx, zeta_idx = noise.events_at(k)
        if idx.size:
            np.add.at(y, idx, jump_term(zeta_idx, idx))
    if not np.isfinite(y).all():
        bad = int(np.flatnonzero(~np.isfinite(y))[0])
        raise SimulationError(
            f"non-finite {name} at step {k} (t={k * dt:.6g}), particle {bad}"
        )
    return y


def simulate(
    model: ControlledModel,
    controls: ControlPair,
    n_particles: int | None = None,
    n_steps: int | None = None,
    seed: int | None = None,
    noise: NoiseBank | None = None,
) -> ParticleBundle:
    """Euler-Maruyama particle simulation of the controlled SDE.

    The noise is drawn from ``(n_particles, n_steps, seed)`` or given as a
    previously drawn ``noise`` bank, never both; a bank supplies N and M
    itself, and re-running it under other controls gives common random
    numbers.  A bank is rejected only when its step is not ``horizon / M``
    or it was drawn for another Levy measure than the model's.  The result
    is a bit-for-bit function of (model, controls, noise) and records its
    bank.
    """
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
    n, m = noise.n_particles, noise.n_steps
    bundle = ParticleBundle(np.linspace(0.0, model.horizon, m + 1), _time_major(n, m + 1), noise)
    states = bundle.states
    states[:, 0] = model.x0
    levy = model.levy
    # iter_steps builds step k's view only after this loop has written column k;
    # an overflow is reported once, by _euler_step's SimulationError, not by
    # numpy warnings on stderr
    with np.errstate(all="ignore"):
        for sv in iter_steps(bundle, controls):
            t, x, mu, u = sv.t, sv.x, sv.mu_ctrl, sv.u

            def jump_term(j, i):
                return model.jump(t, x[i], mu, _as_particle_values(u, i), levy.jump_sizes[j])

            states[:, sv.k + 1] = _euler_step(
                x, model.drift(t, x, mu, u), model.vol(t, x, mu, u), noise, sv.k, levy,
                jump_term, "state",
            )
    _read_only(states)
    return bundle


def _step_view(bundle: ParticleBundle, controls: ControlPair, k: int) -> StepView:
    """The view at step k with the controls' values, u checked against
    ``u_bounds``; each control reads the view at its observation step."""
    view, dt = StepView(bundle, k), bundle.dt
    t = view.t
    mu_seen = StepView(bundle, max(0, k - controls.mu_info.lag_steps(dt)))
    view.mu_ctrl = controls.measure_ctrl(t, mu_seen)
    u_seen = StepView(bundle, max(0, k - controls.u_info.lag_steps(dt)))
    view.u = u = controls.scalar_ctrl(t, u_seen)
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
    return view


def iter_steps(bundle: ParticleBundle, controls: ControlPair):
    """Replay the per-step control and measure arguments of a simulation."""
    for k in range(bundle.n_steps):
        yield _step_view(bundle, controls, k)


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
    total = np.zeros(n)
    # a cost outside its domain (log of a negative Euler state) is reported
    # once, by the SimulationError below, not by numpy warnings on stderr
    with np.errstate(all="ignore"):
        for sv in iter_steps(bundle, controls):
            total += np.broadcast_to(
                perf.running(sv.t, sv.x, sv.law, sv.mu_ctrl, sv.u), (n,)
            ) * dt
        m_terminal = bundle.law_at(bundle.n_steps)
        total = total + np.broadcast_to(
            perf.terminal(bundle.states[:, -1], m_terminal), (n,)
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
        for name in ("t0", "scalar"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def player(self) -> int:
        """The player whose control the direction moves: 1 for a measure, 2 for a scalar."""
        return 1 if self.kind == "measure" else 2

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


# An analytic x-partial, when supplied, uses the argument order of the
# coefficient it differentiates.  The central differences serve the jump
# coefficient too, whose extra zeta argument rides along in ``rest``.

def _partial_x(fn, analytic):
    if analytic is not None:
        return analytic
    return lambda t, x, *rest: _central_difference(lambda h: fn(t, x + h, *rest))


def _mu_shifts(mu: DiscreteMeasure, eta: DiscreteMeasure) -> dict[float, DiscreteMeasure]:
    """mu + h eta at h = +-FD_STEP, built once per step and direction for
    every central difference in mu along eta (each concatenates ~N atoms)."""
    return {h: mu + eta.scaled(h) for h in (FD_STEP, -FD_STEP)}


def _partial_mu(fn):
    """Directional measure partial, called as ``(t, x, shifts, *rest)`` with
    ``shifts = _mu_shifts(mu, eta)`` in place of ``mu``."""
    return lambda t, x, shifts, *rest: _central_difference(
        lambda h: fn(t, x, shifts[h], *rest)
    )


def _partial_u(fn):
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
    x-partials come from the model's declared partials or central finite
    differences; the partials in u and along the measure direction are
    central differences, the latter on one `_mu_shifts` pair per step.  The
    controls are read along the baseline paths (open loop), so a feedback
    control's response to the state is not differentiated.
    """
    p = model.partials or CoefficientPartials()
    bx = _partial_x(model.drift, p.drift_dx)
    sx = _partial_x(model.vol, p.vol_dx)
    bmu, smu = _partial_mu(model.drift), _partial_mu(model.vol)
    bu, su = _partial_u(model.drift), _partial_u(model.vol)
    if model.levy is not None:
        gx = _partial_x(model.jump, p.jump_dx)
        gmu, gu = _partial_mu(model.jump), _partial_u(model.jump)

    n, m = bundle.n_particles, bundle.n_steps
    z = _time_major(n, m + 1)
    z[:, 0] = 0.0
    levy = model.levy
    # as in simulate, _euler_step reports an overflow; numpy does not warn
    with np.errstate(all="ignore"):
        for sv in iter_steps(bundle, controls):
            k, t, x, mu, u = sv.k, sv.t, sv.x, sv.mu_ctrl, sv.u
            zk = z[:, k]
            eta = direction.eta_at(t)
            pi = direction.pi_at(t)
            if eta is not None:
                # one shifted pair per step, shared by every measure partial
                shifts = _mu_shifts(mu, eta)
                b_dir = bmu(t, x, shifts, u)
                s_dir = smu(t, x, shifts, u)
            elif pi != 0.0:
                b_dir = bu(t, x, mu, u) * pi
                s_dir = su(t, x, mu, u) * pi
            else:
                b_dir = s_dir = 0.0

            def jump_term(j, i):
                zeta = levy.jump_sizes[j]
                x_i, u_i = x[i], _as_particle_values(u, i)
                term = gx(t, x_i, mu, u_i, zeta) * zk[i]
                if eta is not None:
                    term = term + gmu(t, x_i, shifts, u_i, zeta)
                elif pi != 0.0:
                    term = term + gu(t, x_i, mu, u_i, zeta) * pi
                return term

            z[:, k + 1] = _euler_step(
                zk, bx(t, x, mu, u) * zk + b_dir, sx(t, x, mu, u) * zk + s_dir,
                bundle.noise, k, levy, jump_term, "derivative state",
            )
    return z
