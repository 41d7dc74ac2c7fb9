"""Linear BSDEs with jumps, solved through the Gamma-process representation.

The backward equation

    dP = -[phi(t) + alpha(t) P + beta(t) Q + integral jump_phi(t, zeta) R nu(dzeta)] dt
         + Q dB + integral R Ntilde,          P(T) = theta,

has the closed-form first component

    P(t) = E[ theta Gamma(T)/Gamma(t)
              + integral_t^T Gamma(s)/Gamma(t) phi(s) ds | F_t ],

where dGamma = Gamma^- [alpha dt + beta dB + integral jump_phi dNtilde],
Gamma(0) = 1, advanced by the Euler step of ``sde``.  Gamma must stay in
(0, inf): ``GammaPositivityError``, a ``SimulationError``, names the first
step and particle that leave it.  Q and R are never estimated on their own:
every driver in scope is absorbed by this linear reduction, and only P
enters downstream identities.

Two solvers:

* ``solve``            -- deterministic phi, alpha and theta (a
  ``LinearBsdeSpec``): the expectation collapses to products of
  (1 + alpha dt).  ``backward_euler_reference`` is an implicit scheme that
  cross-checks it.
* ``adjoint_p0_solve`` -- the adjoint BSDE of one player's performance
  along a particle bundle, with coefficients from the model's partials.  The
  integrand is evaluated path by path with no conditioning, which is exact
  whenever it is measurable at time t (true for the adjoints of the
  catalogue games, where the Gamma ratio cancels the state).

``adjoint_p0_solve`` advances Gamma while alpha, beta and jump_phi are
evaluated, so those are never stored.  Its backward sweep writes P over the
Gamma table it consumes and evaluates step k's phi just before that step's
sum reads it, so one (N, M+1) table is live.  Gamma paths and P are stored
time-major (see ``sde``): shape (N, M+1) with contiguous per-step columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sde import (
    CoefficientPartials,
    ControlPair,
    ControlledModel,
    ParticleBundle,
    PerformanceSpec,
    SimulationError,
    _central_difference,
    _euler_step,
    _partial_x,
    _step_view,
    _time_major,
    iter_steps,
)


class GammaPositivityError(SimulationError):
    """Euler step drove Gamma out of (0, inf); shrink the step size."""


@dataclass
class LinearBsdeSpec:
    """Deterministic data of the linear BSDE.

    ``phi(t)`` and ``alpha(t)`` return floats and ``terminal`` is theta, a
    finite scalar.  With deterministic data beta and jump_phi do not enter P.
    """

    phi: Callable[[float], float]
    alpha: Callable[[float], float]
    terminal: float

    def __post_init__(self):
        if np.ndim(self.terminal) != 0 or not math.isfinite(self.terminal):
            raise ValueError(f"terminal must be a finite scalar, got {self.terminal!r}")


@dataclass
class BsdeSolution:
    """P-component estimates on the bundle's grid, shape (N, M+1)."""

    P: np.ndarray

    def p_at(self, k: int) -> np.ndarray:
        return self.P[:, k]


def _column(n: int, value) -> np.ndarray:
    """A coefficient's scalar or per-particle value as a float (n,) array."""
    col = np.empty(n)
    col[:] = value
    return col


def _gamma_step(gam: np.ndarray, k: int, alpha, beta, jump_phi, levy, noise) -> None:
    """Fill Gamma at step k + 1 from step k and that step's coefficients:
    ``alpha`` and ``beta`` as returned, ``jump_phi`` one value per Levy atom.

    Gamma(0) = 1 and dGamma = Gamma^-[alpha dt + beta dB + jump_phi dNtilde];
    the factor Gamma(k + 1)/Gamma(k) is the Euler step of ``sde`` from 1.
    """
    jp = np.empty((len(jump_phi), noise.n_particles))
    for j, value in enumerate(jump_phi):
        jp[j] = value
    if np.any(jp <= -1.0):
        raise GammaPositivityError(
            f"jump_phi <= -1 at step {k}; Gamma cannot stay positive"
        )
    factor = _euler_step(1.0, alpha, beta, noise, k, levy, lambda j, i: jp[j, i], "Gamma factor")
    # an overflow to inf is reported below, not by a numpy warning
    with np.errstate(over="ignore"):
        gam[:, k + 1] = gam[:, k] * factor
    outside = ~((gam[:, k + 1] > 0.0) & (gam[:, k + 1] < np.inf))
    if outside.any():
        bad = int(np.flatnonzero(outside)[0])
        raise GammaPositivityError(
            f"Gamma outside (0, inf) at step {k + 1}, particle {bad}; decrease the step size"
        )


def _gamma_start(n: int, m: int) -> np.ndarray:
    gam = _time_major(n, m + 1)
    gam[:, 0] = 1.0
    return gam


def solve(spec: LinearBsdeSpec, times: np.ndarray) -> np.ndarray:
    """P on the grid ``times``, shape (M+1,): P(T) = theta and
    P_k = (1 + alpha_k dt) P_{k+1} + phi_k dt."""
    m = len(times) - 1
    dt = float(times[1] - times[0])
    p = np.empty(m + 1)
    p[m] = float(spec.terminal)
    for k in range(m - 1, -1, -1):
        t = float(times[k])
        a = float(spec.alpha(t))
        p[k] = (1.0 + a * dt) * p[k + 1] + float(spec.phi(t)) * dt
    return p


def backward_euler_reference(spec: LinearBsdeSpec, times: np.ndarray) -> np.ndarray:
    """Implicit backward-Euler sweep for deterministic data.

    A genuinely different O(dt) scheme from the Gamma representation, used as
    a cross-check: P_k = (P_{k+1} + phi_k dt) / (1 - alpha_k dt).
    """
    m = len(times) - 1
    dt = float(times[1] - times[0])
    p = np.empty(m + 1)
    p[m] = float(spec.terminal)
    for k in range(m - 1, -1, -1):
        t = float(times[k])
        a = float(spec.alpha(t))
        if abs(a * dt) >= 1.0:
            raise ValueError("implicit step requires |alpha| dt < 1")
        p[k] = (p[k + 1] + float(spec.phi(t)) * dt) / (1.0 - a * dt)
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
    advances Gamma step by step; the backward sweep then takes, path by path,

        P(t) = theta Gamma(T)/Gamma(t) + sum_{s>=t} Gamma(s)/Gamma(t) phi(s) dt,

    writing P(t) over Gamma(t) as soon as it has read it and evaluating each
    step's phi as it reaches that step.  No phi table is stored: the live
    set is the Gamma/P table, and the controls are evaluated once per step
    in each pass.
    """
    n, m = bundle.n_particles, bundle.n_steps
    levy = model.levy
    atoms = levy.jump_sizes if levy is not None else ()
    partials = model.partials or CoefficientPartials()
    lx = _partial_x(perf.running, perf.running_dx)
    bx = _partial_x(model.drift, partials.drift_dx)
    sx = _partial_x(model.vol, partials.vol_dx)
    gx = _partial_x(model.jump, partials.jump_dx)

    gam = _gamma_start(n, m)
    for sv in iter_steps(bundle, controls):
        k, t, x, mu, u = sv.k, sv.t, sv.x, sv.mu_ctrl, sv.u
        alpha = bx(t, x, mu, u)
        beta = sx(t, x, mu, u)
        jump_phi = [gx(t, x, mu, u, zeta) for zeta in atoms]
        _gamma_step(gam, k, alpha, beta, jump_phi, levy, bundle.noise)

    x_T = bundle.states[:, -1]
    m_T = bundle.law_at(m)
    if perf.terminal_dx is not None:
        theta = _column(n, perf.terminal_dx(x_T, m_T))
    else:
        theta = _column(n, _central_difference(lambda h: perf.terminal(x_T + h, m_T)))

    p, dt = gam, bundle.noise.dt
    acc = theta * p[:, m]
    p[:, m] = theta
    for k in range(m - 1, -1, -1):
        sv = _step_view(bundle, controls, k)
        phi = _column(n, lx(sv.t, sv.x, sv.law, sv.mu_ctrl, sv.u))
        acc = acc + p[:, k] * phi * dt
        p[:, k] = acc / p[:, k]
    return BsdeSolution(P=p)
