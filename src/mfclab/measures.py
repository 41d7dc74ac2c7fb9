"""Fourier-weighted Hilbert space of (random) measures on the real line.

A finite signed measure mu with atoms (x_j, w_j) has Fourier transform

    mu_hat(y) = sum_j w_j * exp(i * x_j * y),

which is exact (no discretization) for atomic measures.  Atoms and weights
are real, so mu_hat(-y) = conj(mu_hat(y)): on exactly antisymmetric nodes
(every Gauss-Hermite rule) ``fourier`` sums only the nonnegative half and
mirrors the rest.

The kernel fills one complex block per chunk of atoms, ``cos(y x_j)`` into
its real half and ``sin(y x_j)`` into its imaginary half, and sums it with
one complex mat-vec ``e @ w``.  The block is the C-contiguous prefix of a
flat work block that the kernel's caller owns, and it equals the complex
exponential ``exp(i y x_j)`` bit for bit up to the sign of a zero: glibc's
``cexp`` of ``+-0 + ib`` is exactly ``(cos b, sin b)``, numpy's float64
``cos`` and ``sin`` call the same C library (``tests/test_measures.py``
checks this against the exponential), and a signed zero in the block adds
nothing to a sum that starts from ``+0``.  Two real mat-vecs, ``cos @ w`` and ``sin @ w``,
would round differently and are not used.  Every atom x node product must be
finite; a measure and nodes whose largest product overflows are refused with
``ValueError`` before the kernel runs.

A random measure is a non-empty sequence of equally likely scenario
measures, and two random measures pair their scenarios by index (common
omega).  The order-k inner product of two random measures is

    <mu, eta>_k = E[ integral Re(conj(mu_hat(y)) * eta_hat(y)) |y|^k e^{-y^2} dy ],

where the expectation is the plain average over paired scenarios.  The dy
integral is evaluated by a Gauss-Hermite rule against the weight e^{-y^2}.
The |y|^k factor is folded into the integrand (it is not smooth at 0), so a
single rule serves every k.

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
``a``'s head (a law's sample column and the counts taken on it) and copies
only the small tail after it (``mass_on`` and ``n_atoms`` read the two
parts, never their join); empirical laws of ``n`` distinct samples share
one weights array.

``fourier_tables`` evaluates a list of measures on one node array.  Above a
small amount of work it shares whole measures between the calling thread and
one helper thread per further CPU in the process's affinity set; the helpers
start with the call and are joined before it returns.  Each measure runs the
same kernel as ``fourier``, so the table is bitwise independent of the CPU
count, and ``taskset -c 0`` runs it serially.  The calling thread allocates
every thread's kernel block before any helper starts, and each thread
reuses its block for all the measures it claims: glibc serves a thread's
allocations from an arena of its own, memory a helper frees stays with that
arena, and the calling thread cannot reuse it, so blocks allocated on the
helpers would stay resident after the call.  These helpers are separate
from the BLAS library's own threads (the benchmark pins those to one).
"""
from __future__ import annotations

import functools
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

#: quadrature slack of the law-distance bound's verdict
_BOUND_TOL = 1e-8

_FOURIER_CHUNK = 65536

#: atom x node products below which ``fourier_tables`` starts no thread;
#: starting and joining a helper costs far less than this much kernel work
_PARALLEL_MIN_WORK = 100_000


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_EMPTY = _read_only(np.empty(0))


@functools.lru_cache(maxsize=8)
def _uniform_weights(n: int) -> np.ndarray:
    """``np.full(n, 1 / n)``, one read-only array per ``n`` that every
    all-distinct law of ``n`` samples shares."""
    return _read_only(np.full(n, 1 / n))


class DiscreteMeasure:
    """Finite signed measure represented as weighted point masses.

    Parameters
    ----------
    locations : array_like
        Atom positions; finite reals.
    weights : array_like
        Signed atom weights, same length as ``locations``.

    The atoms are held in two parts: a head, which ``mass_on`` reads without
    a mask, followed by a tail in any order, which it masks.  The head is a
    column of ``n`` distinct samples in any order, each weighing the ``1/n``
    of the shared ``_uniform_weights(n)``: the count ``k`` of samples in
    ``(lo, hi]`` is taken once per interval and kept in ``_counts``, and the
    head's mass is the sum of ``k`` of those weights, the same bits wherever
    the ``k`` sit.  A measure built from arrays is all tail; an empirical
    law of distinct samples is all head, and one with ties all tail.  A sum
    ``a + b`` shares ``a``'s head and counts, without a copy, and owns the
    tail ``a``'s tail then ``b``'s atoms.  ``locations`` and ``weights`` are
    the head in ascending order then the tail: the tail's arrays themselves
    where the head is empty, else a new array on each read.  Every array is
    read-only, and the constructor copies what the caller passed.
    ``_masses`` holds the interval masses computed so far, keyed by
    ``(lo, hi)``.
    """

    __slots__ = ("_head_loc", "_head_w", "_counts", "_tail_loc", "_tail_w", "_masses")

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
        self._set_atoms(_EMPTY, loc, wts, {})
        self._masses = {}

    @classmethod
    def _from_parts(cls, head_loc, tail_loc, tail_w, counts: dict) -> "DiscreteMeasure":
        """Measure of head ``head_loc``, distinct samples that weigh
        ``_uniform_weights``, with ``counts`` taken on it so far, and tail
        atoms ``tail_loc``, ``tail_w`` of one length: 1-d float arrays of
        finite values, neither rescanned nor copied but frozen in place."""
        mu = cls.__new__(cls)
        mu._set_atoms(head_loc, tail_loc, tail_w, counts)
        mu._masses = {}
        return mu

    def _set_atoms(self, head_loc, tail_loc, tail_w, counts: dict) -> None:
        self._head_loc = _read_only(head_loc)
        self._head_w = _uniform_weights(head_loc.size) if head_loc.size else _EMPTY
        self._tail_loc, self._tail_w = _read_only(tail_loc), _read_only(tail_w)
        self._counts = counts

    @property
    def locations(self) -> np.ndarray:
        head = self._head_loc
        if head.size:
            # sorted on each read and never kept: the column is the one copy
            head = _read_only(np.sort(head))
        return _joined(head, self._tail_loc)

    @property
    def weights(self) -> np.ndarray:
        return _joined(self._head_w, self._tail_w)

    # -- constructors -------------------------------------------------------
    @classmethod
    def dirac(cls, x0: float, weight: float = 1.0) -> "DiscreteMeasure":
        """Unit point mass at ``x0`` (or ``weight``-scaled point mass)."""
        return cls([x0], [weight])

    # -- basic queries -------------------------------------------------------
    @property
    def n_atoms(self) -> int:
        # never builds a sum's whole arrays
        return self._head_loc.size + self._tail_loc.size

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
        """``mass_on`` computed afresh.  The head's ``k`` samples in the
        interval are counted once and kept in ``_counts``, and only the tail
        is masked; the weights summed, and their order, are those a mask over
        ``locations`` selects (for the head, as many equal weights)."""
        k = self._counts.get((lo, hi))
        if k is None:
            col = self._head_loc
            k = self._counts[(lo, hi)] = int(np.count_nonzero((col > lo) & (col <= hi)))
        head = self._head_w[:k]
        tail = self._tail_loc
        if not tail.size:
            return float(head.sum())
        inside = (tail > lo) & (tail <= hi)
        return float(np.concatenate([head, self._tail_w[inside]]).sum())

    # -- algebra -------------------------------------------------------------
    def __add__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        # both operands were checked when built; the head and its counts are
        # shared, O(tail) is copied
        return DiscreteMeasure._from_parts(
            self._head_loc,
            np.concatenate([self._tail_loc, other.locations]),
            np.concatenate([self._tail_w, other.weights]),
            self._counts,
        )

    def __sub__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        return DiscreteMeasure(
            np.concatenate([self.locations, other.locations]),
            np.concatenate([self.weights, -other.weights]),
        )

    def scaled(self, a: float) -> "DiscreteMeasure":
        return DiscreteMeasure(self.locations, a * self.weights)

    # -- Fourier transform ----------------------------------------------------
    def fourier(self, y) -> np.ndarray:
        """Fourier transform ``sum_j w_j exp(i x_j y)`` at the points ``y``.

        ``y`` is a scalar or a 1-d array of finite nodes.  On nodes with
        ``y == -y[::-1]`` exactly (every Gauss-Hermite rule) only the
        nonnegative half is summed and the rest is its conjugate mirror,
        which equals the full sum bit for bit.  A single-node half is not
        mirrored: numpy rounds a one-row product differently.  Raises
        ``ValueError`` for non-finite nodes and for an atom x node product
        that overflows.  This is the one row of ``fourier_tables([self], y)``,
        which starts no thread for a single measure.
        """
        return fourier_tables([self], y)[0]

    def _fourier_into(self, y: np.ndarray, rows: int, out: np.ndarray, work: np.ndarray) -> None:
        """Write the transform at the checked 1-d nodes ``y`` into the zeros
        ``out``, summing the last ``rows = _summed_rows(y)`` nodes in the
        block ``work`` and mirroring the rest."""
        lower = y.size - rows
        upper = out[lower:]
        self._fourier_sum(y[lower:], upper, work)
        # added into zeros, not assigned, so an exactly cancelled
        # imaginary part is +0.0 as in the full sum, never -0.0
        out[:lower] += np.conj(upper[::-1][:lower])

    def _fourier_sum(self, y: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
        """Add ``sum_j w_j exp(i x_j y)`` into ``out``, in atom chunks, each
        one complex block of ``cos + i sin`` and one complex mat-vec.

        Each block is the C-contiguous ``(y.size, chunk)`` prefix of the
        caller's flat complex ``work``, which holds at least ``y.size *
        min(n_atoms, _FOURIER_CHUNK)`` values: the products go into its real
        half, their sines into its imaginary half, then their cosines over
        the products.  Nothing the size of a block is allocated here, and
        the products need no buffer of their own, which would add half a
        block per thread to the peak of a ``law-derivative`` run.  A row
        split or a strided block would round the mat-vec differently.
        """
        loc, wts = self.locations, self.weights
        for start in range(0, loc.size, _FOURIER_CHUNK):
            x = loc[start : start + _FOURIER_CHUNK]
            e = work[: y.size * x.size].reshape(y.size, x.size)
            np.outer(y, x, out=e.real)
            np.sin(e.real, out=e.imag)
            np.cos(e.real, out=e.real)
            out += e @ wts[start : start + _FOURIER_CHUNK]

    def __repr__(self) -> str:
        return f"DiscreteMeasure(n_atoms={self.n_atoms}, mass={self.total_mass():.6g})"


def _joined(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """``head`` then ``tail``: one of them itself when the other is empty."""
    if not tail.size:
        return head
    if not head.size:
        return tail
    return _read_only(np.concatenate([head, tail]))


def _fourier_nodes(y) -> np.ndarray:
    """Fourier nodes as a 1-d float array; anything else is rejected here,
    not deep in the kernel."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.ndim > 1:
        raise ValueError(f"Fourier nodes must be a scalar or a 1-d array, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("Fourier nodes must be finite")
    return y


def _check_products(measures: Sequence[DiscreteMeasure], y: np.ndarray) -> None:
    """Refuse nodes and measures with an atom x node product that overflows.

    Rounding is monotone, so no ``|y_i x_j|`` exceeds the product of the
    largest ``|y|`` and the largest ``|x|``, itself one of the products:
    that one is finite exactly when all are.  Each measure's head and tail
    are read in place, never sorted or joined.
    """
    y_max = float(np.abs(y).max(initial=0.0))
    x_max = max(
        (float(np.abs(part).max(initial=0.0)) for mu in measures for part in (mu._head_loc, mu._tail_loc)),
        default=0.0,
    )
    if not math.isfinite(x_max * y_max):
        raise ValueError(
            f"atom x node products overflow: max |x| = {x_max:g} times max |y| = {y_max:g}"
        )


def _summed_rows(y: np.ndarray) -> int:
    """Nodes the kernel sums: the nonnegative half ``n - n // 2`` of exactly
    antisymmetric nodes (``y == -y[::-1]``), whose other half is its mirror,
    else all ``n``; a half of one node is not mirrored."""
    n = y.size
    return n - n // 2 if n > 2 and np.array_equal(y, -y[::-1]) else n


def _work_blocks(measures: Sequence[DiscreteMeasure], rows: int, n_threads: int) -> np.ndarray:
    """One flat complex kernel block per thread, each row big enough for
    ``rows`` nodes times the largest atom chunk of ``measures``."""
    atoms = max((min(mu.n_atoms, _FOURIER_CHUNK) for mu in measures), default=0)
    return np.empty((n_threads, rows * atoms), dtype=complex)


def fourier_tables(measures: Sequence[DiscreteMeasure], y) -> np.ndarray:
    """Fourier transforms of ``measures`` at ``y``, one row per measure.

    Bit for bit ``np.stack([mu.fourier(y) for mu in measures])``, and the
    one entry point of the kernel: ``fourier`` is a one-measure table.  Above
    ``_PARALLEL_MIN_WORK`` atom x node products, the calling thread and one
    helper thread per further CPU, started for this call, each claim whole
    measures in turn; every measure runs the same serial kernel, so the CPU
    count changes no bit.  Each thread's kernel block is allocated
    here, on the calling thread, before any helper starts, and each thread
    reuses its own block for every measure it claims: a helper allocates no
    block, so nothing it frees stays resident in an allocator arena of its
    own, which the calling thread cannot reuse.
    """
    y = _fourier_nodes(y)
    measures = list(measures)
    # reads every lazy law's atoms here, on the calling thread
    _check_products(measures, y)
    rows = _summed_rows(y)
    out = np.zeros((len(measures), y.size), dtype=complex)
    products = sum(mu.n_atoms for mu in measures) * y.size
    n_threads = min(_cpu_count(), len(measures)) if products >= _PARALLEL_MIN_WORK else 1
    blocks = _work_blocks(measures, rows, max(n_threads, 1))
    _share_out(lambda i, slot: measures[i]._fourier_into(y, rows, out[i], blocks[slot]),
               len(measures), n_threads)
    return out


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _share_out(run: Callable[[int, int], None], count: int, n_threads: int) -> None:
    """Call ``run(i, slot)`` for every ``i < count`` on the calling thread
    (``slot`` 0) and ``n_threads - 1`` helper threads (slots 1 and up), each
    claiming the next unclaimed index.

    The helpers start here and are joined before this returns, so none
    outlives the call; the first error raised on any thread is then raised
    here, and no index is claimed after it.  Below two threads no helper
    starts.
    """
    lock = threading.Lock()
    indices = iter(range(count))
    errors: list[BaseException] = []

    def share(slot: int) -> None:
        try:
            while True:
                with lock:
                    i = None if errors else next(indices, None)
                if i is None:
                    return
                run(i, slot)
        except BaseException as exc:  # raised again on the calling thread
            with lock:
                errors.append(exc)

    helpers = [threading.Thread(target=share, args=(slot,)) for slot in range(1, n_threads)]
    for helper in helpers:
        helper.start()
    share(0)
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature for integrals ``integral f(y) e^{-y^2} dy``.

    ``weights`` already include the Gaussian factor, so for f's values on
    the nodes, ``f_nodes[i] = f(nodes[i])``,

        rule.integrate(f_nodes) == sum_i weights[i] * f_nodes[i].

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

    def integrate(self, f_nodes: np.ndarray) -> float:
        """Integrate ``f(y) e^{-y^2}`` over the line from f's values on the nodes."""
        vals = np.asarray(f_nodes)
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


# ---------------------------------------------------------------------------
# inner products, norms, distances
# ---------------------------------------------------------------------------

def inner_product(mu, eta, k: int, rule: QuadratureRule) -> float:
    """Order-k inner product of two (random) measures.

    Each argument is a measure or a non-empty sequence of equally likely
    scenario measures; a measure is one scenario.  Average of
    ``integral Re(conj(mu_hat) eta_hat)(y) |y|^k e^{-y^2} dy`` over paired
    scenarios.  Symmetric in its measure arguments and bilinear in the atom
    weights.

    Raises
    ------
    ValueError
        If an argument has no scenario, or the two have different scenario
        counts (pairing is by scenario index).
    """
    mu_s, eta_s = _scenarios(mu), _scenarios(eta)
    if not mu_s or not eta_s:
        raise ValueError("a random measure needs at least one scenario")
    if len(mu_s) != len(eta_s):
        raise ValueError(f"scenario pairing error: {len(mu_s)} vs {len(eta_s)} scenarios")
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    y = rule.nodes
    yk = np.abs(y) ** k if k else 1.0
    weight = 1.0 / len(mu_s)
    total = 0.0
    for m_i, e_i in zip(mu_s, eta_s):
        m_hat = m_i.fourier(y)
        # a squared norm pairs each scenario with itself: one transform
        e_hat = m_hat if e_i is m_i else e_i.fourier(y)
        integrand = np.real(np.conj(m_hat) * e_hat) * yk
        total += weight * rule.integrate(integrand)
    return float(total)


def _scenarios(mu) -> list[DiscreteMeasure]:
    """A measure as its one scenario, or a sequence's scenarios as a list."""
    return [mu] if isinstance(mu, DiscreteMeasure) else list(mu)


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


def law_distance_bound_check(x1, x2, rule: QuadratureRule) -> BoundCheck:
    """Check ||L(X1) - L(X2)||^2 <= sqrt(pi) E[(X1 - X2)^2] on paired samples.

    Both sides are computed from the empirical laws (uniform-weight atoms at
    the sample values); the inequality is exact for empirical laws, so
    ``holds`` is true for every input up to ``_BOUND_TOL``.
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
    return BoundCheck(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + _BOUND_TOL))
