"""Fourier-weighted Hilbert space of (random) measures on the real line.

A finite signed measure mu with atoms (x_j, w_j) has Fourier transform

    mu_hat(y) = sum_j w_j * exp(i * x_j * y),

which is exact (no discretization) for atomic measures.  Atoms and weights
are real, so mu_hat(-y) = conj(mu_hat(y)): on exactly antisymmetric nodes
(every Gauss-Hermite rule) ``fourier`` sums only the nonnegative half and
mirrors the rest.  The order-k inner product of two random measures is

    <mu, eta>_k = E[ integral Re(conj(mu_hat(y)) * eta_hat(y)) |y|^k e^{-y^2} dy ],

where the expectation is a weighted average over paired scenarios.  The dy
integral is evaluated by a quadrature rule against the weight e^{-y^2}:
Gauss-Hermite by default, with a truncated trapezoid rule as an independent
cross-check.  The |y|^k factor is folded into the integrand (it is not smooth
at 0), so a single rule serves every k.

The induced norm gives a computable distance between laws of random variables;
for X1, X2 in L^2 the empirical-law distance satisfies

    || L(X1) - L(X2) ||^2  <=  sqrt(pi) * E[(X1 - X2)^2],

which `law_distance_bound_check` evaluates on paired samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss

SQRT_PI = math.sqrt(math.pi)

#: negatives of a squared norm larger than this are treated as a real error,
#: anything closer to zero is quadrature round-off and clamped.
NORM_SQ_ROUNDOFF = 1e-12

_FOURIER_CHUNK = 65536


class DiscreteMeasure:
    """Finite signed measure represented as weighted point masses.

    Parameters
    ----------
    locations : array_like
        Atom positions; finite reals.
    weights : array_like
        Signed atom weights, same length as ``locations``.

    The first ``_n_sorted`` atoms are known to be sorted ascending, so
    ``mass_on`` finds them by binary search.  An empirical law is sorted
    throughout, and a sum keeps its left operand's prefix.
    """

    __slots__ = ("locations", "weights", "_n_sorted")

    def __init__(self, locations, weights):
        loc = np.asarray(locations, dtype=float).reshape(-1)
        wts = np.asarray(weights, dtype=float).reshape(-1)
        if loc.shape != wts.shape:
            raise ValueError(
                f"locations and weights differ in length: {loc.size} vs {wts.size}"
            )
        if loc.size and not np.isfinite(loc).all():
            raise ValueError("atom locations must be finite")
        if wts.size and not np.isfinite(wts).all():
            raise ValueError("atom weights must be finite")
        self.locations = loc
        self.weights = wts
        self._n_sorted = 0

    @classmethod
    def _from_checked(cls, locations, weights, n_sorted: int) -> "DiscreteMeasure":
        """Measure on 1-d float arrays of equal length, finite locations and
        weights, whose first ``n_sorted`` locations ascend; nothing is rescanned."""
        mu = cls.__new__(cls)
        mu.locations = locations
        mu.weights = weights
        mu._n_sorted = n_sorted
        return mu

    # -- constructors -------------------------------------------------------
    @classmethod
    def dirac(cls, x0: float, weight: float = 1.0) -> "DiscreteMeasure":
        """Unit point mass at ``x0`` (or ``weight``-scaled point mass)."""
        return cls([x0], [weight])

    @classmethod
    def zero(cls) -> "DiscreteMeasure":
        return cls([], [])

    # -- basic queries -------------------------------------------------------
    @property
    def n_atoms(self) -> int:
        return self.locations.size

    def total_mass(self) -> float:
        return float(math.fsum(self.weights.tolist()))

    def is_probability(self, tol: float = 1e-12) -> bool:
        """True when all weights are nonnegative and the total mass is 1."""
        if self.n_atoms == 0:
            return False
        return bool(
            np.all(self.weights >= -tol) and abs(self.total_mass() - 1.0) <= tol
        )

    def mass_on(self, lo: float, hi: float) -> float:
        """Signed mass of the half-open interval ``(lo, hi]``.

        ``hi`` may be ``inf``; atoms exactly at ``lo`` are excluded so that
        complementary intervals partition the line.  The sorted prefix is
        binary-searched and only the tail is masked; the weights summed, and
        their order, are those a mask over every atom selects.
        """
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError(f"interval bounds must not be NaN, got ({lo}, {hi}]")
        if self.n_atoms == 0:
            return 0.0
        k = self._n_sorted
        i, j = np.searchsorted(self.locations[:k], (lo, hi), side="right")
        if k == self.n_atoms:
            return float(self.weights[i:j].sum())
        tail = self.locations[k:]
        inside = (tail > lo) & (tail <= hi)
        return float(np.concatenate([self.weights[i:j], self.weights[k:][inside]]).sum())

    # -- algebra -------------------------------------------------------------
    def __add__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        # both operands were checked when built
        return DiscreteMeasure._from_checked(
            np.concatenate([self.locations, other.locations]),
            np.concatenate([self.weights, other.weights]),
            self._n_sorted,
        )

    def __sub__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        return DiscreteMeasure(
            np.concatenate([self.locations, other.locations]),
            np.concatenate([self.weights, -other.weights]),
        )

    def __neg__(self) -> "DiscreteMeasure":
        return DiscreteMeasure(self.locations, -self.weights)

    def scaled(self, a: float) -> "DiscreteMeasure":
        return DiscreteMeasure(self.locations, a * self.weights)

    def __mul__(self, a: float) -> "DiscreteMeasure":
        return self.scaled(float(a))

    __rmul__ = __mul__

    def coalesce(self) -> "DiscreteMeasure":
        """Merge atoms with exactly equal locations (no binning tolerance)."""
        if self.n_atoms == 0:
            return self
        loc, inverse = np.unique(self.locations, return_inverse=True)
        wts = np.zeros(loc.size)
        np.add.at(wts, inverse, self.weights)
        return DiscreteMeasure(loc, wts)

    # -- Fourier transform ----------------------------------------------------
    def fourier(self, y) -> np.ndarray:
        """Fourier transform ``sum_j w_j exp(i x_j y)`` at the points ``y``.

        On nodes with ``y == -y[::-1]`` exactly (every Gauss-Hermite rule)
        only the nonnegative half is summed and the rest is its conjugate
        mirror, which equals the full sum bit for bit.  A single-node half
        is not mirrored: numpy rounds a one-row product differently.
        """
        y = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.zeros(y.shape, dtype=complex)
        n = y.size
        if y.ndim == 1 and n > 2 and np.array_equal(y, -y[::-1]):
            upper = out[n // 2 :]
            self._fourier_sum(y[n // 2 :], upper)
            lower = n - upper.size
            # added into zeros, not assigned, so an exactly cancelled
            # imaginary part is +0.0 as in the full sum, never -0.0
            out[:lower] += np.conj(upper[::-1][:lower])
        else:
            self._fourier_sum(y, out)
        return out

    def _fourier_sum(self, y: np.ndarray, out: np.ndarray) -> None:
        """Add ``sum_j w_j exp(i x_j y)`` into ``out``, in atom chunks."""
        for start in range(0, self.n_atoms, _FOURIER_CHUNK):
            x = self.locations[start : start + _FOURIER_CHUNK]
            w = self.weights[start : start + _FOURIER_CHUNK]
            out += np.exp(1j * np.outer(y, x)) @ w

    def __repr__(self) -> str:
        return f"DiscreteMeasure(n_atoms={self.n_atoms}, mass={self.total_mass():.6g})"


class RandomMeasureEnsemble:
    """A random measure sampled scenario-by-scenario (one measure per omega).

    Scenarios are equally likely, so the expectation in the inner product is
    a plain average.  Scenarios of two ensembles are paired by index (common
    omega).
    """

    __slots__ = ("scenarios",)

    def __init__(self, scenarios: Sequence[DiscreteMeasure]):
        scenarios = list(scenarios)
        if not scenarios:
            raise ValueError("ensemble needs at least one scenario")
        self.scenarios = scenarios

    @property
    def n_scenarios(self) -> int:
        return len(self.scenarios)


def as_ensemble(mu) -> RandomMeasureEnsemble:
    """Coerce a DiscreteMeasure to a one-scenario ensemble."""
    if isinstance(mu, RandomMeasureEnsemble):
        return mu
    if isinstance(mu, DiscreteMeasure):
        return RandomMeasureEnsemble([mu])
    raise TypeError(f"expected a measure or ensemble, got {type(mu).__name__}")


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature for integrals ``integral f(y) e^{-y^2} dy``.

    ``weights`` already include the Gaussian factor, so

        rule.integrate(f) == sum_i weights[i] * f(nodes[i]).

    The |y|^k factor of an order-k integrand is applied by the caller.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("quadrature nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise ValueError("quadrature weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.nodes.size

    def integrate(self, f: Callable[[np.ndarray], np.ndarray] | np.ndarray) -> float:
        """Integrate ``f(y) e^{-y^2}`` over the line.

        ``f`` is either a callable evaluated on the nodes or an array of
        values already sampled on them.
        """
        vals = f(self.nodes) if callable(f) else np.asarray(f)
        if vals.shape != self.nodes.shape:
            raise ValueError("integrand values must match the node count")
        return float(np.dot(self.weights, vals))


def gauss_hermite_rule(n: int) -> QuadratureRule:
    """Gauss-Hermite rule with weight function e^{-y^2}.

    Exact for polynomial integrands of degree <= 2n-1.  The |y|^k factor of
    the order-k inner product is left to the integrand, so one rule serves
    all k.
    """
    if n < 2:
        raise ValueError(f"Gauss-Hermite rule needs n >= 2, got {n}")
    nodes, weights = hermgauss(n)
    return QuadratureRule(nodes=nodes, weights=weights)


def trapezoid_rule(n: int = 4096, half_width: float = 8.0) -> QuadratureRule:
    """Truncated trapezoid rule on [-L, L] with e^{-y^2} folded into the weights.

    Independent cross-check for the Gauss-Hermite rule; spectrally accurate
    for smooth integrands because every derivative of the Gaussian weight is
    negligible at +-L for L >= 8.
    """
    if n < 2:
        raise ValueError(f"trapezoid rule needs n >= 2, got {n}")
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    nodes = np.linspace(-half_width, half_width, n)
    h = nodes[1] - nodes[0]
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    weights = w * np.exp(-nodes**2)
    return QuadratureRule(nodes=nodes, weights=weights)


# ---------------------------------------------------------------------------
# inner products, norms, distances
# ---------------------------------------------------------------------------

def fourier_transform(mu: DiscreteMeasure, y: float) -> complex:
    """Fourier transform of an atomic measure at a single frequency."""
    return complex(mu.fourier(y)[0])


def inner_product(mu, eta, k: int, rule: QuadratureRule) -> float:
    """Order-k inner product of two (random) measures.

    Average of
    ``integral Re(conj(mu_hat) eta_hat)(y) |y|^k e^{-y^2} dy`` over paired
    scenarios.  Symmetric in its measure arguments and bilinear in the atom
    weights.

    Raises
    ------
    ValueError
        If the ensembles have different scenario counts (pairing is by
        scenario index).
    """
    mu_e, eta_e = as_ensemble(mu), as_ensemble(eta)
    if mu_e.n_scenarios != eta_e.n_scenarios:
        raise ValueError(
            "scenario pairing error: "
            f"{mu_e.n_scenarios} vs {eta_e.n_scenarios} scenarios"
        )
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    y = rule.nodes
    yk = np.abs(y) ** k if k else 1.0
    weight = 1.0 / mu_e.n_scenarios
    total = 0.0
    for m_i, e_i in zip(mu_e.scenarios, eta_e.scenarios):
        integrand = np.real(np.conj(m_i.fourier(y)) * e_i.fourier(y)) * yk
        total += weight * rule.integrate(integrand)
    return float(total)


def norm_sq(mu, k: int, rule: QuadratureRule) -> float:
    """Squared order-k norm; tiny quadrature negatives are clamped to zero."""
    val = inner_product(mu, mu, k, rule)
    if val < 0.0:
        if val < -NORM_SQ_ROUNDOFF:
            raise ValueError(f"squared norm is negative beyond round-off: {val}")
        val = 0.0
    return val


def distance(mu: DiscreteMeasure, eta: DiscreteMeasure, k: int, rule: QuadratureRule) -> float:
    """Norm distance ||mu - eta|| for deterministic measures."""
    return math.sqrt(norm_sq(mu - eta, k, rule))


class BoundCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def law_distance_bound_check(
    x1, x2, rule: QuadratureRule, tol: float = 1e-8
) -> BoundCheck:
    """Check ||L(X1) - L(X2)||^2 <= sqrt(pi) E[(X1 - X2)^2] on paired samples.

    Both sides are computed from the empirical laws (uniform-weight atoms at
    the sample values); the inequality is exact for empirical laws, so
    ``holds`` is true for every input up to quadrature tolerance.
    """
    a = np.asarray(x1, dtype=float).reshape(-1)
    b = np.asarray(x2, dtype=float).reshape(-1)
    if a.size != b.size:
        raise ValueError(f"sample length mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        raise ValueError("need at least one paired sample")
    n = a.size
    law1 = DiscreteMeasure(a, np.full(n, 1.0 / n))
    law2 = DiscreteMeasure(b, np.full(n, 1.0 / n))
    lhs = norm_sq(law1 - law2, 0, rule)
    rhs = SQRT_PI * float(np.mean((a - b) ** 2))
    return BoundCheck(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + tol))
