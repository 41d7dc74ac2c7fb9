"""Law process of an Ito-Levy state: empirical laws, generator, t-derivative.

The marginal law M(t) = L(X(t)) of a jump diffusion, viewed as a path in
measure space, is absolutely continuous in t with squared increments of order
h^2; its derivative M'(t) is represented here purely through its Fourier
transform at a quadrature rule's nodes y, a plain complex array

    M'_hat(y) ~= (M_hat(t+h)(y) - M_hat(t-h)(y)) / (2h)

that the same rule integrates, never as a recovered signed density
(inversion is ill-posed and no downstream use needs it).  On the test
functions phi_y(x) = exp(ixy) the generator of

    dX = alpha dt + beta dB + integral gamma(t, zeta) Ntilde(dt, dzeta)

has the closed form

    A phi_y(x) = (i y alpha - 0.5 beta^2 y^2
                  + sum_j rate_j {exp(i gamma(t, zeta_j) y) - 1 - i y gamma(t, zeta_j)})
                 * exp(ixy)

for a finite-activity Levy measure nu = sum_j rate_j delta_{zeta_j}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .measures import DiscreteMeasure, QuadratureRule, _EMPTY, _read_only, fourier_tables


@dataclass(frozen=True)
class LevyMeasure:
    """Finite-activity Levy measure nu = sum_j rates[j] * delta_{jump_sizes[j]}.

    Both arrays are read-only copies of what the caller passed.
    """

    jump_sizes: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        sizes = np.array(self.jump_sizes, dtype=float).reshape(-1)
        rates = np.array(self.rates, dtype=float).reshape(-1)
        if sizes.shape != rates.shape:
            raise ValueError("jump_sizes and rates must have equal length")
        for name, values in (("jump_sizes", sizes), ("rates", rates)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        if np.any(sizes == 0.0):
            raise ValueError("jump sizes must be nonzero (support in R \\ {0})")
        if np.any(rates <= 0.0):
            raise ValueError("jump rates must be positive")
        object.__setattr__(self, "jump_sizes", _read_only(sizes))
        object.__setattr__(self, "rates", _read_only(rates))

    @property
    def n_atoms(self) -> int:
        return self.jump_sizes.size

    @property
    def total_rate(self) -> float:
        return float(self.rates.sum())


@dataclass
class ItoLevyCoeffs:
    """Bounded predictable coefficients of an uncontrolled Ito-Levy process.

    ``alpha(t)`` and ``beta(t)`` return drift/volatility,
    ``gamma(t, zeta)`` the jump amplitude.
    """

    alpha: Callable
    beta: Callable
    gamma: Callable
    levy: LevyMeasure | None = None


class MeasurePath:
    """A measure-valued path: one DiscreteMeasure per grid time."""

    __slots__ = ("times", "values")

    def __init__(self, times, values: Sequence[DiscreteMeasure]):
        times = np.asarray(times, dtype=float).reshape(-1)
        values = list(values)
        if times.size != len(values):
            raise ValueError("times and values must have equal length")
        if times.size and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        self.times = times
        self.values = values

    def __len__(self) -> int:
        return self.times.size

    def step(self) -> float:
        """Grid spacing; requires a uniform grid."""
        dts = np.diff(self.times)
        if dts.size == 0:
            raise ValueError("path has a single time point")
        h = float(dts[0])
        if not np.allclose(dts, h, rtol=1e-9, atol=1e-12):
            raise ValueError("path grid is not uniform")
        return h


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def empirical_law(particles) -> DiscreteMeasure:
    """Empirical law of a sample vector: uniform-weight atoms, mass 1.

    Duplicate sample values are coalesced by exact equality, which never
    changes the Fourier transform.  The atoms come out sorted, bit for bit
    as from ``np.unique(x, return_counts=True)`` with weights counts / n.
    ``n`` distinct samples, sorted, are the law's head, under the weights
    array that all such laws share; a sample with ties gives a law that is
    all tail.  A bundle's cached law (``ParticleBundle.law_at``) calls this
    once to learn whether its column is distinct; if so its head is the
    column instead.
    """
    x = np.asarray(particles, dtype=float).reshape(-1)
    n = x.size
    if n == 0:
        raise ValueError("empirical law of an empty sample")
    loc = np.sort(x)
    # NaN sorts last, so the two ends show any non-finite sample
    if not (math.isfinite(loc[0]) and math.isfinite(loc[-1])):
        raise ValueError("atom locations must be finite")
    distinct = np.empty(n, dtype=bool)
    distinct[0] = True
    np.not_equal(loc[1:], loc[:-1], out=distinct[1:])
    if distinct.all():
        return DiscreteMeasure._from_parts(loc, _EMPTY, _EMPTY, {})
    starts = np.flatnonzero(distinct)
    counts = np.diff(starts, append=n)
    return DiscreteMeasure._from_parts(_EMPTY, loc[starts], counts / n, {})


def generator_on_test_fn(
    coeffs: ItoLevyCoeffs, t: float, x, y: float
) -> complex | np.ndarray:
    """Generator applied to phi_y(x) = exp(ixy) for finite-activity dynamics.

    Returns ``(iy a - b^2 y^2 / 2 + sum_j rate_j {e^{i g_j y} - 1 - i y g_j})
    * exp(ixy)`` where ``a = alpha(t)``, ``b = beta(t)`` and
    ``g_j = gamma(t, zeta_j)``.  Vectorized over ``x``.
    """
    a = coeffs.alpha(t)
    b = coeffs.beta(t)
    symbol = 1j * y * a - 0.5 * b * b * y * y
    if coeffs.levy is not None and coeffs.levy.n_atoms:
        for zeta, rate in zip(coeffs.levy.jump_sizes, coeffs.levy.rates):
            g = coeffs.gamma(t, zeta)
            symbol = symbol + rate * (np.exp(1j * g * y) - 1.0 - 1j * y * g)
    phi = np.exp(1j * np.asarray(x, dtype=float) * y)
    out = symbol * phi
    return out if np.ndim(x) else complex(out)


def law_derivative_fd(path: MeasurePath, index: int, rule: QuadratureRule) -> np.ndarray:
    """Central-difference t-derivative of a law path in Fourier space.

    Returns the (n,) complex values (M_hat(t+h)(y) - M_hat(t-h)(y)) / (2h)
    at the rule's n nodes y; O(h^2)-consistent on smooth law paths.
    """
    if not 1 <= index <= len(path) - 2:
        raise ValueError(f"central difference needs an interior index, got {index}")
    h = _central_step(path, index)
    y = rule.nodes
    plus = path.values[index + 1].fourier(y)
    minus = path.values[index - 1].fourier(y)
    return (plus - minus) / (2.0 * h)


def _central_step(path: MeasurePath, index: int) -> float:
    """Grid step around an interior index; the two sides must agree."""
    h_left = path.times[index] - path.times[index - 1]
    h_right = path.times[index + 1] - path.times[index]
    if abs(h_left - h_right) > 1e-9 * max(h_left, h_right):
        raise ValueError("grid is not locally uniform around the index")
    return 0.5 * (h_left + h_right)


#: the dyadic multiples of the grid step that `abs_continuity_scan` takes as lags
_SCAN_MULTIPLES = (1, 2, 4, 8, 16)


def abs_continuity_scan(path: MeasurePath, rule: QuadratureRule) -> list[tuple[float, float]]:
    """Worst-case squared law increment per lag: (h, max_t ||M_{t+h} - M_t||^2).

    Scans the lags ``_SCAN_MULTIPLES`` times the grid step that the path is
    long enough for; downstream tests fit the log-log slope, which the h^2
    bound puts at 2 for smooth paths.
    """
    if len(path) < 3:
        raise ValueError("scan needs a path with at least 3 grid points")
    dt = path.step()
    # Fourier tables per grid time, computed once; increments are table
    # differences under the rule.
    tables = fourier_tables(path.values, rule.nodes)
    out: list[tuple[float, float]] = []
    for mult in _SCAN_MULTIPLES:
        if mult >= len(path):
            continue
        diffs = tables[mult:] - tables[:-mult]
        sq = (np.abs(diffs) ** 2) @ rule.weights
        out.append((mult * dt, float(sq.max())))
    return out


def loglog_slope(scan: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(value) vs log(h); zero values are skipped."""
    pts = [(h, v) for h, v in scan if v > 0.0]
    if len(pts) < 2:
        raise ValueError("need at least two positive scan points for a slope")
    logh = np.log([p[0] for p in pts])
    logv = np.log([p[1] for p in pts])
    slope, _ = np.polyfit(logh, logv, 1)
    return float(slope)
