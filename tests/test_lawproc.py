"""Tests for the law process: empirical laws, generator, t-derivatives."""
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfclab.experiments import _binned_normal, _poisson_pmf_derivative, _poisson_pmf_measure
from mfclab.lawproc import (
    ItoLevyCoeffs,
    LevyMeasure,
    MeasurePath,
    abs_continuity_scan,
    empirical_law,
    generator_on_test_fn,
    law_derivative_fd,
    loglog_slope,
)
from mfclab import lawproc, measures, sde
from mfclab.measures import DiscreteMeasure, SQRT_PI, gauss_hermite_rule, norm_sq
from mfclab.sde import ControlPair, ControlledModel, _LazyLaw, simulate


@pytest.fixture(scope="module")
def rule():
    return gauss_hermite_rule(64)


# -- Levy measure -------------------------------------------------------------

def test_levy_measure_validation():
    with pytest.raises(ValueError):
        LevyMeasure([0.0], [1.0])
    with pytest.raises(ValueError):
        LevyMeasure([0.5], [-1.0])
    lm = LevyMeasure([0.5, -0.2], [1.0, 2.0])
    assert lm.total_rate == pytest.approx(3.0)


# -- empirical law -------------------------------------------------------------

def test_empirical_law_single_sample():
    mu = empirical_law([0.0])
    assert mu.n_atoms == 1
    assert mu.total_mass() == 1.0


def test_empirical_law_coalesces_duplicates():
    mu = empirical_law([1.0, 1.0, 3.0])
    assert mu.locations.tolist() == [1.0, 3.0]
    assert mu.weights == pytest.approx([2 / 3, 1 / 3])


def test_empirical_law_empty_raises():
    with pytest.raises(ValueError):
        empirical_law([])


def test_empirical_law_mass_is_one():
    rng = np.random.default_rng(2)
    for n in (3, 17, 1000):
        mu = empirical_law(rng.standard_normal(n))
        assert abs(mu.total_mass() - 1.0) <= 1e-14


def _unique_law(x):
    """The former kernel: ``np.unique`` counts over n."""
    x = np.asarray(x, dtype=float).reshape(-1)
    loc, counts = np.unique(x, return_counts=True)
    return loc, counts / x.size


@st.composite
def samples(draw):
    """Samples with or without repeats and signed zeros, up to 3000 values."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x = rng.normal(size=draw(st.integers(1, 3000)))
        if draw(st.booleans()):
            x = np.round(x, draw(st.integers(0, 2)))
        if draw(st.booleans()):
            x[:: draw(st.integers(2, 7))] = draw(st.sampled_from([0.0, -0.0]))
        return x
    pool = st.sampled_from([-0.0, 0.0, 0.5, -2.25, 5e-324])
    value = st.one_of(pool, st.floats(allow_nan=False, allow_infinity=False))
    return np.array(draw(st.lists(value, min_size=1, max_size=60)), dtype=float)


@settings(max_examples=60, deadline=None)
@given(x=samples())
def test_empirical_law_is_bitwise_unique_counts(x):
    law = empirical_law(x)
    loc, wts = _unique_law(x)
    assert law.locations.tobytes() == loc.tobytes()
    assert np.array_equal(np.signbit(law.locations), np.signbit(loc))
    assert law.weights.tobytes() == wts.tobytes()
    # n distinct samples are all head, a sample with ties all tail
    distinct = loc.size == x.size
    assert law._head_loc.size == (x.size if distinct else 0)
    assert law._tail_loc.size == (0 if distinct else loc.size)


@settings(max_examples=30, deadline=None)
@given(
    x=samples(),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    where=st.floats(0.0, 1.0),
)
def test_empirical_law_rejects_non_finite_sample(x, bad, where):
    x = x.copy()
    x[int(where * (x.size - 1))] = bad
    with pytest.raises(ValueError, match="atom locations must be finite"):
        empirical_law(x)


def test_lazy_law_fills_sorted_prefix_on_first_read():
    column = np.array([0.3, -1.0, 0.3, 2.0, -0.0, 0.0])
    law = _LazyLaw(column)
    # the first read: ties, so four distinct values, sorted and coalesced
    # into the tail
    assert law._head_loc.size == 0 and law._tail_loc.size == 4
    expected = empirical_law(column)
    assert law.locations.tobytes() == expected.locations.tobytes()
    assert law.weights.tobytes() == expected.weights.tobytes()
    shifted = _LazyLaw(column) + DiscreteMeasure([0.1], [1.0])
    assert shifted._head_loc.size == 0 and shifted.n_atoms == 5


def test_lazy_law_of_distinct_values_keeps_only_its_column():
    column = np.array([0.3, -1.0, 2.0, -0.0, 0.7])
    law = _LazyLaw(column)
    assert law.n_atoms == 5
    # the head is the column view itself, in sample order, with no sorted copy
    assert law._head_loc is law._column and np.shares_memory(law._head_loc, column)
    expected = empirical_law(column)
    assert law.locations.tobytes() == expected.locations.tobytes()
    assert law.weights is expected.weights
    shifted = law + DiscreteMeasure([0.1], [1.0])
    assert shifted._head_loc is law._column and shifted._counts is law._counts
    # one count per interval, shared by the law and its sums
    assert shifted.mass_on(0.0, 1.0) == 0.4 + 1.0 and law._counts == {(0.0, 1.0): 2}
    assert law.mass_on(0.0, 1.0) == 0.4 and law._counts == {(0.0, 1.0): 2}


def test_empirical_law_close_to_binned_normal(rule):
    """10^5 standard normal draws vs the exactly binned density (seed 7)."""
    rng = np.random.default_rng(7)
    emp = empirical_law(rng.standard_normal(100_000))
    dist = math.sqrt(norm_sq(emp - _binned_normal(1.0), 0, rule))
    assert dist <= 0.05


# -- generator on Fourier test functions ---------------------------------------

def test_generator_null_dynamics():
    coeffs = ItoLevyCoeffs(alpha=lambda t: 0.0, beta=lambda t: 0.0, gamma=lambda t, z: 0.0)
    assert generator_on_test_fn(coeffs, 0.0, 1.0, 2.0) == 0j


def test_generator_pure_drift():
    coeffs = ItoLevyCoeffs(alpha=lambda t: 1.0, beta=lambda t: 0.0, gamma=lambda t, z: 0.0)
    x, y = 0.7, 1.9
    expected = 1j * y * complex(math.cos(x * y), math.sin(x * y))
    assert generator_on_test_fn(coeffs, 0.0, x, y) == pytest.approx(expected)


def test_generator_pure_diffusion():
    coeffs = ItoLevyCoeffs(alpha=lambda t: 0.0, beta=lambda t: 1.0, gamma=lambda t, z: 0.0)
    x, y = -0.4, 1.1
    expected = -0.5 * y * y * complex(math.cos(x * y), math.sin(x * y))
    assert generator_on_test_fn(coeffs, 0.0, x, y) == pytest.approx(expected)


def test_generator_jump_term_manual():
    levy = LevyMeasure([0.3, -0.1], [1.0, 2.0])
    coeffs = ItoLevyCoeffs(
        alpha=lambda t: 0.2,
        beta=lambda t: 0.5,
        gamma=lambda t, z: 2.0 * z,
        levy=levy,
    )
    x, y = 0.9, 1.3
    symbol = 1j * y * 0.2 - 0.125 * y * y
    for z, r in ((0.3, 1.0), (-0.1, 2.0)):
        g = 2.0 * z
        symbol += r * (complex(math.cos(g * y), math.sin(g * y)) - 1 - 1j * y * g)
    expected = symbol * complex(math.cos(x * y), math.sin(x * y))
    assert generator_on_test_fn(coeffs, 0.0, x, y) == pytest.approx(expected)


def test_generator_vectorized_over_states():
    coeffs = ItoLevyCoeffs(alpha=lambda t: 1.0, beta=lambda t: 0.0, gamma=lambda t, z: 0.0)
    x = np.array([0.0, 0.5])
    out = generator_on_test_fn(coeffs, 0.0, x, 1.0)
    assert out.shape == (2,)


@pytest.mark.parametrize("alpha,beta", [(0.5, 0.0), (0.0, 1.0)])
def test_dynkin_consistency(alpha, beta):
    """E[phi_y(X_{t+h})] - E[phi_y(X_t)] matches E[int A phi_y ds] to C(h^2 + N^-1/2)."""
    n, m_steps = 10_000, 500
    model = ControlledModel(
        drift=lambda t, x, mu, u: alpha * np.ones_like(x),
        vol=lambda t, x, mu, u: beta * np.ones_like(x),
        x0=0.3,
        horizon=1.0,
    )
    ctrl = ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(0.0),
        scalar_ctrl=lambda t, info: 0.0,
    )
    bundle = simulate(model, ctrl, n, m_steps, seed=9)
    coeffs = ItoLevyCoeffs(alpha=lambda t: alpha, beta=lambda t: beta, gamma=lambda t, z: 0.0)
    dt = bundle.dt
    k0, k1 = 200, 250  # h = 0.1
    h = (k1 - k0) * dt
    bound = h * h + 1.0 / math.sqrt(n)
    for y in (0.5, 1.0, 2.0):
        lhs = np.exp(1j * y * bundle.states[:, k1]).mean() - np.exp(1j * y * bundle.states[:, k0]).mean()
        rhs = sum(
            generator_on_test_fn(coeffs, bundle.times[k], bundle.states[:, k], y).mean() * dt
            for k in range(k0, k1)
        )
        assert abs(lhs - rhs) <= bound


# -- t-derivative of the law path ------------------------------------------------

def test_law_derivative_constant_path(rule):
    mu = DiscreteMeasure.dirac(0.5)
    path = MeasurePath([0.0, 0.1, 0.2], [mu, mu, mu])
    values = law_derivative_fd(path, 1, rule)
    assert np.max(np.abs(values)) == 0.0


def test_law_derivative_boundary_index(rule):
    mu = DiscreteMeasure.dirac(0.5)
    path = MeasurePath([0.0, 0.1, 0.2], [mu, mu, mu])
    for bad in (0, 2):
        with pytest.raises(ValueError):
            law_derivative_fd(path, bad, rule)


def test_law_derivative_brownian_density(rule):
    """Example: N(0, t) path; derivative transform is -y^2/2 e^{-t y^2/2}."""
    h, t_mid = 0.01, 1.0
    path = MeasurePath(
        [t_mid - h, t_mid, t_mid + h],
        [_binned_normal(math.sqrt(t_mid + s)) for s in (-h, 0.0, h)],
    )
    fd = law_derivative_fd(path, 1, rule)
    assert fd.shape == rule.nodes.shape and fd.dtype == complex
    target = -0.5 * rule.nodes**2 * np.exp(-t_mid * rule.nodes**2 / 2)
    assert math.sqrt(rule.integrate(np.abs(fd - target) ** 2)) <= 1e-3


def test_law_derivative_poisson_pmf(rule):
    lam, t_mid, h = 1.0, 1.0, 1e-3
    path = MeasurePath(
        [t_mid - h, t_mid, t_mid + h],
        [_poisson_pmf_measure(lam * (t_mid + s)) for s in (-h, 0.0, h)],
    )
    fd = law_derivative_fd(path, 1, rule)
    target = _poisson_pmf_derivative(lam, t_mid).fourier(rule.nodes)
    assert math.sqrt(rule.integrate(np.abs(fd - target) ** 2)) <= 1e-4


def test_poisson_derivative_formula_matches_forward_equation():
    """lam e^{-lam t}(lam t)^{k-1}(k - lam t)/k! equals lam (p_{k-1} - p_k)."""
    lam, t = 1.0, 1.0
    pmf = _poisson_pmf_measure(lam * t, 25)
    deriv = _poisson_pmf_derivative(lam, t, 25)
    for k in range(1, 26):
        forward = lam * (pmf.weights[k - 1] - pmf.weights[k])
        assert deriv.weights[k] == pytest.approx(forward, rel=1e-12, abs=1e-18)


def test_law_derivative_h2_convergence(rule):
    """Central differences on the analytic Brownian path converge at order h^2."""
    target = -0.5 * rule.nodes**2 * np.exp(-rule.nodes**2 / 2)
    errs = {}
    for h in (0.02, 0.01):
        path = MeasurePath(
            [1 - h, 1, 1 + h], [_binned_normal(math.sqrt(1 + s)) for s in (-h, 0.0, h)]
        )
        fd = law_derivative_fd(path, 1, rule)
        errs[h] = math.sqrt(rule.integrate(np.abs(fd - target) ** 2))
    assert 3.0 <= errs[0.02] / errs[0.01] <= 8.0


# -- absolute-continuity scan ----------------------------------------------------

def test_scan_constant_path(rule):
    mu = DiscreteMeasure.dirac(0.0)
    path = MeasurePath(np.linspace(0, 1, 11), [mu] * 11)
    scan = abs_continuity_scan(path, rule)
    assert all(v == 0.0 for _, v in scan)


def test_scan_short_path_raises(rule):
    mu = DiscreteMeasure.dirac(0.0)
    with pytest.raises(ValueError):
        abs_continuity_scan(MeasurePath([0.0, 1.0], [mu, mu]), rule)


def test_scan_dirac_drift_analytic(rule):
    """Worst squared increment of the path delta_t is 2 sqrt(pi)(1 - e^{-h^2/4})."""
    ts = np.linspace(0.0, 1.0, 101)
    path = MeasurePath(ts, [DiscreteMeasure.dirac(t) for t in ts])
    scan = abs_continuity_scan(path, rule)
    for h, worst in scan:
        assert worst == pytest.approx(2 * SQRT_PI * (1 - math.exp(-h * h / 4)), abs=1e-10)
    assert loglog_slope(scan) >= 1.96


def _brownian_bundle(n_particles, n_steps, seed):
    model = ControlledModel(
        drift=lambda t, x, mu, u: np.zeros_like(x),
        vol=lambda t, x, mu, u: np.ones_like(x),
        x0=0.0,
        horizon=1.0,
    )
    ctrl = ControlPair(
        measure_ctrl=lambda t, info: DiscreteMeasure.dirac(0.0),
        scalar_ctrl=lambda t, info: 0.0,
    )
    return simulate(model, ctrl, n_particles, n_steps, seed=seed)


def test_scan_brownian_particles_slope(rule):
    bundle = _brownian_bundle(10_000, 100, seed=2024)
    slope = loglog_slope(abs_continuity_scan(bundle.law_path, rule))
    assert 1.6 <= slope <= 2.2


def test_scan_reads_laws_on_the_calling_thread(rule, monkeypatch):
    """Helpers run only the private kernel: every law build and every public
    transform happens on the calling thread, and the scan's bits do not
    depend on how many CPUs shared it."""
    caller = threading.get_ident()
    seen = []

    def spy(fn):
        def on_thread(*args, **kwargs):
            seen.append((fn.__name__, threading.get_ident()))
            return fn(*args, **kwargs)
        return on_thread

    kernel_threads = set()
    kernel = DiscreteMeasure._fourier_sum

    def kernel_spy(self, y, out, work):
        kernel_threads.add(threading.get_ident())
        kernel(self, y, out, work)

    # the lazy law calls sde's name for empirical_law, other callers lawproc's
    monkeypatch.setattr(sde, "empirical_law", spy(lawproc.empirical_law))
    monkeypatch.setattr(lawproc, "empirical_law", spy(lawproc.empirical_law))
    monkeypatch.setattr(DiscreteMeasure, "fourier", spy(DiscreteMeasure.fourier))
    monkeypatch.setattr(DiscreteMeasure, "_fourier_sum", kernel_spy)
    monkeypatch.setattr(measures, "_PARALLEL_MIN_WORK", 0)
    monkeypatch.setattr(measures, "_cpu_count", lambda: 3)
    shared = abs_continuity_scan(_brownian_bundle(2000, 40, seed=11).law_path, rule)
    assert [name for name, _ in seen] == ["empirical_law"] * 41
    assert {ident for _, ident in seen} == {caller}
    monkeypatch.setattr(measures, "_cpu_count", lambda: 1)
    kernel_threads.clear()
    assert abs_continuity_scan(_brownian_bundle(2000, 40, seed=11).law_path, rule) == shared
    assert kernel_threads == {caller}


def test_scan_of_dirac_laws_starts_no_thread(rule, monkeypatch):
    """101 one-atom laws are far below the work worth a helper."""

    def no_thread_start(self):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread_start)
    monkeypatch.setattr(measures, "_cpu_count", lambda: 2)
    ts = np.linspace(0.0, 1.0, 101)
    abs_continuity_scan(MeasurePath(ts, [DiscreteMeasure.dirac(t) for t in ts]), rule)


# -- measure path plumbing ---------------------------------------------------------

def test_measure_path_validation():
    mu = DiscreteMeasure.dirac(0.0)
    with pytest.raises(ValueError):
        MeasurePath([0.0, 0.0], [mu, mu])
    with pytest.raises(ValueError):
        MeasurePath([0.0, 1.0], [mu])
    with pytest.raises(ValueError):
        MeasurePath([0.0, 0.1, 0.5], [mu] * 3).step()
