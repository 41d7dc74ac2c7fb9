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

A measure is a read-only value: its atom arrays are copied in and frozen
(``flags.writeable`` is False), so writing to them raises ``ValueError``;
edit a ``.copy()`` and build a new measure from it.  Because nothing can
change its atoms, a measure keeps every interval mass it has computed, and
``mass_on`` computes each ``(lo, hi]`` once per measure.  For the same
reason values share arrays instead of copying them: a sum ``a + b`` shares
``a``'s sorted prefix and copies only the small tail after it, and builds
its whole ``locations``/``weights`` on their first read (``mass_on`` and
``n_atoms`` never need them); empirical laws of ``n`` distinct samples share
one weights array.

``fourier_tables`` evaluates a list of measures on one node array.  Above a
small amount of work it shares whole measures between the calling thread and
one helper thread per further CPU in the process's affinity set; the helpers
start with the call and are joined before it returns.  Each measure runs the
same kernel as ``fourier``, so the table is bitwise independent of the CPU
count, and ``taskset -c 0`` runs it serially.  These helpers are separate
from the BLAS library's own threads (the benchmark pins those to one).
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss

SQRT_PI = math.sqrt(math.pi)

#: negatives of a squared norm larger than this are treated as a real error,
#: anything closer to zero is quadrature round-off and clamped.
NORM_SQ_ROUNDOFF = 1e-12

_FOURIER_CHUNK = 65536

#: atom x node products below which ``fourier_tables`` starts no thread;
#: starting and joining a helper costs far less than this much kernel work
_PARALLEL_MIN_WORK = 100_000


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_EMPTY = _read_only(np.empty(0))


class DiscreteMeasure:
    """Finite signed measure represented as weighted point masses.

    Parameters
    ----------
    locations : array_like
        Atom positions; finite reals.
    weights : array_like
        Signed atom weights, same length as ``locations``.

    The atoms are held in two parts: a prefix sorted ascending, which
    ``mass_on`` binary-searches, followed by a tail in any order, which it
    masks.  A measure built from arrays is all tail; an empirical law is all
    prefix.  A sum ``a + b`` shares ``a``'s prefix arrays, without a copy,
    and owns the tail ``a``'s tail then ``b``'s atoms.  ``locations`` and
    ``weights`` are the prefix then the tail: one part's arrays themselves,
    or, for a sum with both parts, arrays built on their first read and kept.
    Every array is read-only, and the constructor copies what the caller
    passed.  ``_masses`` holds the interval masses computed so far, keyed by
    ``(lo, hi)``.
    """

    __slots__ = (
        "locations", "weights", "_sorted_loc", "_sorted_w", "_tail_loc", "_tail_w", "_masses",
    )

    def __init__(self, locations, weights):
        # copies: a read-only view would not stop writes through the caller's array
        loc = np.array(locations, dtype=float).reshape(-1)
        wts = np.array(weights, dtype=float).reshape(-1)
        if loc.shape != wts.shape:
            raise ValueError(
                f"locations and weights differ in length: {loc.size} vs {wts.size}"
            )
        if loc.size and not np.isfinite(loc).all():
            raise ValueError("atom locations must be finite")
        if wts.size and not np.isfinite(wts).all():
            raise ValueError("atom weights must be finite")
        self._set_atoms(_EMPTY, _EMPTY, loc, wts)
        self._masses = {}

    @classmethod
    def _from_parts(cls, sorted_loc, sorted_w, tail_loc=_EMPTY, tail_w=_EMPTY) -> "DiscreteMeasure":
        """Measure on 1-d float arrays of finite locations and weights, paired
        by length, whose ``sorted_loc`` ascend; nothing is rescanned or
        copied, and the arrays are frozen in place."""
        mu = cls.__new__(cls)
        mu._set_atoms(sorted_loc, sorted_w, tail_loc, tail_w)
        mu._masses = {}
        return mu

    def _set_atoms(self, sorted_loc, sorted_w, tail_loc, tail_w) -> None:
        self._sorted_loc, self._sorted_w = _read_only(sorted_loc), _read_only(sorted_w)
        self._tail_loc, self._tail_w = _read_only(tail_loc), _read_only(tail_w)
        if not tail_loc.size:
            self.locations, self.weights = sorted_loc, sorted_w
        elif not sorted_loc.size:
            self.locations, self.weights = tail_loc, tail_w

    def __getattr__(self, name):
        # only reached while a slot is unset: a sum's whole arrays before their first read
        if name not in ("locations", "weights"):
            raise AttributeError(name)
        self.locations = _read_only(np.concatenate([self._sorted_loc, self._tail_loc]))
        self.weights = _read_only(np.concatenate([self._sorted_w, self._tail_w]))
        return getattr(self, name)

    # -- constructors -------------------------------------------------------
    @classmethod
    def dirac(cls, x0: float, weight: float = 1.0) -> "DiscreteMeasure":
        """Unit point mass at ``x0`` (or ``weight``-scaled point mass)."""
        return cls([x0], [weight])

    # -- basic queries -------------------------------------------------------
    @property
    def n_atoms(self) -> int:
        # never builds a sum's whole arrays
        return self._sorted_loc.size + self._tail_loc.size

    @property
    def _n_sorted(self) -> int:
        """Length of the sorted prefix."""
        return self._sorted_loc.size

    def total_mass(self) -> float:
        return float(math.fsum(self.weights.tolist()))

    def mass_on(self, lo: float, hi: float) -> float:
        """Signed mass of the half-open interval ``(lo, hi]``.

        ``hi`` may be ``inf``; atoms exactly at ``lo`` are excluded so that
        complementary intervals partition the line.  Each interval's mass is
        computed once and kept; ``0.0`` and ``-0.0`` are one key, as they are
        one bound.
        """
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError(f"interval bounds must not be NaN, got ({lo}, {hi}]")
        key = (float(lo), float(hi))
        mass = self._masses.get(key)
        if mass is None:
            mass = self._masses[key] = self._mass_on(*key)
        return mass

    def _mass_on(self, lo: float, hi: float) -> float:
        """``mass_on`` computed afresh.  The sorted prefix is binary-searched
        and only the tail is masked; the weights summed, and their order, are
        those a mask over ``locations`` selects."""
        i, j = np.searchsorted(self._sorted_loc, (lo, hi), side="right")
        tail = self._tail_loc
        if not tail.size:
            return float(self._sorted_w[i:j].sum())
        inside = (tail > lo) & (tail <= hi)
        return float(np.concatenate([self._sorted_w[i:j], self._tail_w[inside]]).sum())

    # -- algebra -------------------------------------------------------------
    def __add__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        # both operands were checked when built; the prefix is shared, O(tail) is copied
        return DiscreteMeasure._from_parts(
            self._sorted_loc,
            self._sorted_w,
            np.concatenate([self._tail_loc, other.locations]),
            np.concatenate([self._tail_w, other.weights]),
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

    # -- Fourier transform ----------------------------------------------------
    def fourier(self, y) -> np.ndarray:
        """Fourier transform ``sum_j w_j exp(i x_j y)`` at the points ``y``.

        ``y`` is a scalar or a 1-d array of finite nodes.  On nodes with
        ``y == -y[::-1]`` exactly (every Gauss-Hermite rule) only the
        nonnegative half is summed and the rest is its conjugate mirror,
        which equals the full sum bit for bit.  A single-node half is not
        mirrored: numpy rounds a one-row product differently.
        """
        y = _fourier_nodes(y)
        out = np.zeros(y.shape, dtype=complex)
        self._fourier_into(y, out)
        return out

    def _fourier_into(self, y: np.ndarray, out: np.ndarray) -> None:
        """Write the transform at the checked 1-d nodes ``y`` into the zeros ``out``."""
        n = y.size
        if n > 2 and np.array_equal(y, -y[::-1]):
            upper = out[n // 2 :]
            self._fourier_sum(y[n // 2 :], upper)
            lower = n - upper.size
            # added into zeros, not assigned, so an exactly cancelled
            # imaginary part is +0.0 as in the full sum, never -0.0
            out[:lower] += np.conj(upper[::-1][:lower])
        else:
            self._fourier_sum(y, out)

    def _fourier_sum(self, y: np.ndarray, out: np.ndarray) -> None:
        """Add ``sum_j w_j exp(i x_j y)`` into ``out``, in atom chunks."""
        for start in range(0, self.n_atoms, _FOURIER_CHUNK):
            x = self.locations[start : start + _FOURIER_CHUNK]
            w = self.weights[start : start + _FOURIER_CHUNK]
            e = 1j * np.outer(y, x)
            np.exp(e, out=e)
            out += e @ w

    def __repr__(self) -> str:
        return f"DiscreteMeasure(n_atoms={self.n_atoms}, mass={self.total_mass():.6g})"


def _fourier_nodes(y) -> np.ndarray:
    """Fourier nodes as a 1-d float array; anything else is rejected here,
    not deep in the kernel."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.ndim > 1:
        raise ValueError(f"Fourier nodes must be a scalar or a 1-d array, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("Fourier nodes must be finite")
    return y


def fourier_tables(measures: Sequence[DiscreteMeasure], y) -> np.ndarray:
    """Fourier transforms of ``measures`` at ``y``, one row per measure.

    Bit for bit ``np.stack([mu.fourier(y) for mu in measures])``.  Above
    ``_PARALLEL_MIN_WORK`` atom x node products, the calling thread and one
    helper thread per further CPU, started for this call, each claim whole
    measures in turn; every measure still runs the kernel of ``fourier``, so
    the CPU count changes no bit.
    """
    y = _fourier_nodes(y)
    measures = list(measures)
    out = np.zeros((len(measures), y.size), dtype=complex)
    # reading n_atoms builds a lazy law here, on the calling thread
    work = sum(mu.n_atoms for mu in measures) * y.size
    n_threads = min(_cpu_count(), len(measures))
    if n_threads < 2 or work < _PARALLEL_MIN_WORK:
        for mu, row in zip(measures, out):
            mu._fourier_into(y, row)
    else:
        _share_out(lambda i: measures[i]._fourier_into(y, out[i]), len(measures), n_threads)
    return out


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _share_out(run: Callable[[int], None], count: int, n_threads: int) -> None:
    """Call ``run(i)`` for every ``i < count`` on the calling thread and
    ``n_threads - 1`` helper threads, each claiming the next unclaimed index.

    The helpers start here and are joined before this returns, so none
    outlives the call; the first error raised on any thread is then raised
    here, and no index is claimed after it.
    """
    lock = threading.Lock()
    indices = iter(range(count))
    errors: list[BaseException] = []

    def share() -> None:
        try:
            while True:
                with lock:
                    i = None if errors else next(indices, None)
                if i is None:
                    return
                run(i)
        except BaseException as exc:  # raised again on the calling thread
            with lock:
                errors.append(exc)

    helpers = [threading.Thread(target=share) for _ in range(n_threads - 1)]
    for helper in helpers:
        helper.start()
    share()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]


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
        m_hat = m_i.fourier(y)
        # a squared norm pairs each scenario with itself: one transform
        e_hat = m_hat if e_i is m_i else e_i.fourier(y)
        integrand = np.real(np.conj(m_hat) * e_hat) * yk
        total += weight * rule.integrate(integrand)
    return float(total)


def norm_sq(mu, k: int, rule: QuadratureRule) -> float:
    """Squared order-k norm; tiny quadrature negatives are clamped to zero."""
    return _clamp_norm_sq(inner_product(mu, mu, k, rule))


def _clamp_norm_sq(val: float) -> float:
    """A squared norm with quadrature round-off below zero clamped to zero."""
    if val < 0.0:
        if val < -NORM_SQ_ROUNDOFF:
            raise ValueError(f"squared norm is negative beyond round-off: {val}")
        val = 0.0
    return val


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
