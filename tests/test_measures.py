"""Tests for the Fourier-weighted measure space: norms, bounds, quadrature."""
import gc
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfclab import measures as measures_module
from mfclab.lawproc import empirical_law
from mfclab.measures import (
    DiscreteMeasure,
    RandomMeasureEnsemble,
    SQRT_PI,
    fourier_tables,
    gauss_hermite_rule,
    inner_product,
    law_distance_bound_check,
    norm_sq,
    trapezoid_rule,
)


@pytest.fixture(scope="module")
def rule():
    return gauss_hermite_rule(64)


@pytest.fixture(scope="module")
def trap():
    return trapezoid_rule()


# -- Fourier transform ------------------------------------------------------

def test_fourier_dirac():
    """Unit point mass at x0: transform is exp(i x0 y)."""
    mu = DiscreteMeasure.dirac(1.3)
    for y in (-2.0, 0.0, 0.7):
        assert mu.fourier(y)[0] == pytest.approx(complex(math.cos(1.3 * y), math.sin(1.3 * y)))


def test_fourier_zero_measure():
    assert DiscreteMeasure([], []).fourier(1.7)[0] == 0j


def test_fourier_symmetric_pair_is_cosine():
    mu = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
    for y in (0.3, 1.1, 4.0):
        val = mu.fourier(y)[0]
        assert val.real == pytest.approx(math.cos(y), abs=1e-14)
        assert val.imag == pytest.approx(0.0, abs=1e-14)


def test_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        DiscreteMeasure([np.inf], [1.0])
    with pytest.raises(ValueError):
        DiscreteMeasure([0.0], [np.nan])


def test_mass_and_probability_predicate():
    mu = DiscreteMeasure([0.0, 2.0], [0.25, 0.75])
    assert mu.total_mass() == pytest.approx(1.0)
    assert mu.mass_on(1.0, 3.0) == pytest.approx(0.75)
    assert mu.mass_on(-1.0, math.inf) == pytest.approx(1.0)


# -- inner products and norms -----------------------------------------------

def test_dirac_norm_is_sqrt_pi(rule):
    """|mu_hat| = 1 for any point mass, so the squared M0 norm is sqrt(pi)."""
    for x0 in (0.0, 1.0, -3.7):
        assert norm_sq(DiscreteMeasure.dirac(x0), 0, rule) == pytest.approx(SQRT_PI, abs=1e-10)


def test_dirac_norm_k2(rule):
    assert norm_sq(DiscreteMeasure.dirac(0.0), 2, rule) == pytest.approx(SQRT_PI / 2, abs=1e-10)


def test_mass_bound_any_positive_measure(rule):
    """|mu_hat(y)| <= mu(R) gives ||mu||^2 <= mass^2 * int |y|^k e^{-y^2}."""
    rng = np.random.default_rng(3)
    for k in (0, 2, 4):
        moment = rule.integrate(np.abs(rule.nodes) ** k)
        for _ in range(5):
            n = rng.integers(1, 8)
            mu = DiscreteMeasure(rng.uniform(-3, 3, n), rng.uniform(0.1, 2.0, n))
            bound = mu.total_mass() ** 2 * moment
            assert norm_sq(mu, k, rule) <= bound * (1 + 1e-12)


def test_dirac_distance_analytic(rule, trap):
    """||d_0 - d_c||^2 = 2 sqrt(pi)(1 - e^{-c^2/4}); trapezoid cross-checks."""
    for c in (0.1, 1.0, 3.0):
        diff = DiscreteMeasure.dirac(0.0) - DiscreteMeasure.dirac(c)
        exact = 2 * SQRT_PI * (1 - math.exp(-c * c / 4))
        assert norm_sq(diff, 0, rule) == pytest.approx(exact, abs=1e-10)
        assert norm_sq(diff, 0, trap) == pytest.approx(exact, abs=1e-10)


def test_gh_vs_trapezoid_on_empirical_measures(rule, trap):
    rng = np.random.default_rng(11)
    for _ in range(5):
        mu = DiscreteMeasure(rng.uniform(-5, 5, 50), rng.uniform(-1, 1, 50))
        for k in (0, 2):
            assert norm_sq(mu, k, rule) == pytest.approx(norm_sq(mu, k, trap), rel=1e-9, abs=1e-9)


def test_symmetry_and_bilinearity(rule):
    rng = np.random.default_rng(5)
    for _ in range(10):
        mu = DiscreteMeasure(rng.uniform(-3, 3, 4), rng.uniform(-1, 1, 4))
        eta = DiscreteMeasure(rng.uniform(-3, 3, 3), rng.uniform(-1, 1, 3))
        a = rng.uniform(-2, 2)
        assert inner_product(mu, eta, 0, rule) == pytest.approx(inner_product(eta, mu, 0, rule), rel=1e-12, abs=1e-14)
        assert inner_product(mu.scaled(a), eta, 0, rule) == pytest.approx(
            a * inner_product(mu, eta, 0, rule), rel=1e-10, abs=1e-12
        )


def test_cauchy_schwarz(rule):
    rng = np.random.default_rng(17)
    for _ in range(20):
        mu = DiscreteMeasure(rng.uniform(-3, 3, 5), rng.uniform(-1, 1, 5))
        eta = DiscreteMeasure(rng.uniform(-3, 3, 5), rng.uniform(-1, 1, 5))
        ip = inner_product(mu, eta, 0, rule)
        bound = norm_sq(mu, 0, rule) * norm_sq(eta, 0, rule)
        assert ip * ip <= bound * (1 + 1e-9)


def test_triangle_inequality(rule):
    rng = np.random.default_rng(23)
    for _ in range(20):
        ms = [DiscreteMeasure(rng.uniform(-3, 3, 4), rng.uniform(-1, 1, 4)) for _ in range(3)]
        d02 = math.sqrt(norm_sq(ms[0] - ms[2], 0, rule))
        d01 = math.sqrt(norm_sq(ms[0] - ms[1], 0, rule))
        d12 = math.sqrt(norm_sq(ms[1] - ms[2], 0, rule))
        assert d02 <= d01 + d12 + 1e-12


def test_norm_sq_never_negative(rule):
    assert norm_sq(DiscreteMeasure([], []), 0, rule) == 0.0
    mu = DiscreteMeasure([0.5], [1e-9])
    assert norm_sq(mu, 4, rule) >= 0.0


# -- ensembles ---------------------------------------------------------------

def test_ensemble_pairing_error(rule):
    e1 = RandomMeasureEnsemble([DiscreteMeasure.dirac(0.0)] * 2)
    e2 = RandomMeasureEnsemble([DiscreteMeasure.dirac(1.0)] * 3)
    with pytest.raises(ValueError, match="pairing"):
        inner_product(e1, e2, 0, rule)


def test_ensemble_weights_validation():
    with pytest.raises(ValueError):
        RandomMeasureEnsemble([])


def test_random_ensemble_norm_averages(rule):
    """Ensemble norm is the scenario-weighted average of per-scenario norms."""
    e = RandomMeasureEnsemble([DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(1.0, 2.0)])
    expected = 0.5 * SQRT_PI + 0.5 * 4.0 * SQRT_PI
    assert norm_sq(e, 0, rule) == pytest.approx(expected, rel=1e-12)


# -- the law-distance bound ---------------------------------------------------

def test_bound_identical_samples(rule):
    x = np.linspace(-1, 1, 50)
    chk = law_distance_bound_check(x, x, rule)
    assert chk.lhs == pytest.approx(0.0, abs=1e-12)
    assert chk.rhs == 0.0
    assert chk.holds


def test_bound_dirac_shift(rule):
    """Shifted constants: lhs analytic, rhs = sqrt(pi) c^2."""
    for c in (0.1, 1.0, 3.0):
        chk = law_distance_bound_check(np.zeros(8), np.full(8, c), rule)
        assert chk.lhs == pytest.approx(2 * SQRT_PI * (1 - math.exp(-c * c / 4)), abs=1e-10)
        assert chk.rhs == pytest.approx(SQRT_PI * c * c, rel=1e-12)
        assert chk.holds


def test_bound_regression_fixture(rule):
    """Frozen 1000-sample shifted-normal instance (seed 42)."""
    rng = np.random.default_rng(42)
    x1 = rng.standard_normal(1000)
    chk = law_distance_bound_check(x1, x1 + 0.1, rule)
    assert chk.holds
    assert chk.lhs == pytest.approx(0.00321534419253115, rel=1e-9)
    assert chk.rhs == pytest.approx(0.0177245385090552, rel=1e-9)


def test_bound_randomized(rule):
    rng = np.random.default_rng(1234)
    for _ in range(25):
        n = int(rng.integers(5, 400))
        x1 = rng.uniform(-2, 2) + rng.uniform(0.3, 1.5) * rng.standard_normal(n)
        x2 = x1 + rng.normal(0, 0.4, n)
        assert law_distance_bound_check(x1, x2, rule).holds


def test_bound_input_validation(rule):
    with pytest.raises(ValueError, match="mismatch"):
        law_distance_bound_check([1.0], [1.0, 2.0], rule)
    with pytest.raises(ValueError):
        law_distance_bound_check([], [], rule)


# -- quadrature rules ----------------------------------------------------------

def test_gh_two_point_rule():
    """n=2 is forced by the moment conditions: nodes +-1/sqrt(2), weights sqrt(pi)/2."""
    r = gauss_hermite_rule(2)
    assert r.nodes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert r.weights == pytest.approx([SQRT_PI / 2, SQRT_PI / 2])


def test_gh_constant_and_cosine():
    r = gauss_hermite_rule(20)
    assert r.integrate(np.ones_like(r.nodes)) == pytest.approx(SQRT_PI, abs=1e-12)
    assert r.integrate(np.cos(r.nodes)) == pytest.approx(SQRT_PI * math.exp(-0.25), abs=1e-10)


def test_gh_rejects_small_n():
    with pytest.raises(ValueError):
        gauss_hermite_rule(1)


def test_trapezoid_rejects_bad_args():
    with pytest.raises(ValueError):
        trapezoid_rule(1)
    with pytest.raises(ValueError):
        trapezoid_rule(half_width=-1.0)


def test_quadrature_convergence_monotone():
    """GH error on cos(3y) decreases over n in {8,16,32,64} down to <= 1e-10."""
    exact = SQRT_PI * math.exp(-9 / 4)
    errs = []
    for n in (8, 16, 32, 64):
        r = gauss_hermite_rule(n)
        errs.append(abs(r.integrate(np.cos(3 * r.nodes)) - exact))
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-15  # slack: round-off floor at large n
    assert errs[-1] <= 1e-10


def test_rule_invariants():
    r = gauss_hermite_rule(16)
    assert np.all(np.diff(r.nodes) > 0)
    assert np.all(r.weights > 0)
    with pytest.raises(ValueError):
        type(r)(nodes=np.array([1.0, 0.0]), weights=np.array([1.0, 1.0]))


# -- properties on arbitrary inputs ------------------------------------------

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)
_GH16 = gauss_hermite_rule(16)
_coords = st.floats(-6.0, 6.0, allow_nan=False)
_weights = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def measures(draw, locations=_coords, max_atoms=6):
    n = draw(st.integers(1, max_atoms))
    return DiscreteMeasure(
        draw(st.lists(locations, min_size=n, max_size=n)),
        draw(st.lists(_weights, min_size=n, max_size=n)),
    )


@PROPERTY_SETTINGS
@given(mu=measures(), eta=measures(), k=st.integers(0, 2))
def test_inner_product_symmetric(mu, eta, k):
    assert inner_product(mu, eta, k, _GH16) == pytest.approx(inner_product(eta, mu, k, _GH16), rel=1e-12, abs=1e-12)


@PROPERTY_SETTINGS
@given(
    mu1=measures(), mu2=measures(), eta=measures(), k=st.integers(0, 2),
    a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0),
)
def test_inner_product_bilinear(mu1, mu2, eta, k, a, b):
    ip1 = inner_product(mu1, eta, k, _GH16)
    ip2 = inner_product(mu2, eta, k, _GH16)
    combined = inner_product(mu1.scaled(a) + mu2.scaled(b), eta, k, _GH16)
    scale = 1.0 + abs(a * ip1) + abs(b * ip2)
    assert combined == pytest.approx(a * ip1 + b * ip2, abs=1e-10 * scale)


@PROPERTY_SETTINGS
@given(
    st.integers(1, 30).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n),
            st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n),
        )
    )
)
def test_law_distance_bound_holds_on_paired_samples(samples):
    x1, x2 = samples
    check = law_distance_bound_check(x1, x2, _GH16)
    assert check.holds, check


# -- half-node Fourier evaluation --------------------------------------------

def _full_fourier(mu, y):
    """The chunked kernel on every node, without the conjugate mirror."""
    out = np.zeros(y.shape, dtype=complex)
    mu._fourier_sum(y, out)
    return out


@st.composite
def fourier_measures(draw):
    """Small measures with repeated atoms, optionally mirrored to x -> -x (so
    imaginary parts cancel exactly), or more than one 65536-atom chunk."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = 65536 + draw(st.integers(1, 4096))
        loc = rng.normal(scale=draw(st.sampled_from([0.01, 1.0, 6.0])), size=n)
        loc[:: draw(st.integers(2, 9))] = draw(_coords)
        wts = rng.uniform(-1.0, 1.0, size=n) / n
        return DiscreteMeasure(loc, wts)
    mu = draw(measures(locations=st.one_of(_coords, st.sampled_from([-1.5, 0.0, 0.5])), max_atoms=40))
    if draw(st.booleans()):
        mu = mu + DiscreteMeasure(-mu.locations, mu.weights)
    return mu


@settings(max_examples=40, deadline=None)
@given(mu=fourier_measures(), n=st.integers(2, 128))
def test_mirrored_fourier_is_bitwise_full(mu, n):
    y = gauss_hermite_rule(n).nodes
    full = _full_fourier(mu, y)
    assert mu.fourier(y).tobytes() == full.tobytes()
    assert np.array_equal(full[::-1], np.conj(full))


def test_fourier_mirrors_only_antisymmetric_nodes(monkeypatch):
    seen = []
    kernel = DiscreteMeasure._fourier_sum

    def spy(self, y, out):
        seen.append(y.size)
        kernel(self, y, out)

    monkeypatch.setattr(DiscreteMeasure, "_fourier_sum", spy)
    mu = DiscreteMeasure([-0.7, 0.2, 0.2, 1.9], [0.1, -0.4, 0.3, 1.0])
    trap = trapezoid_rule().nodes
    assert not np.array_equal(trap, -trap[::-1])
    assert mu.fourier(trap).tobytes() == _full_fourier(mu, trap).tobytes()
    assert seen[0] == trap.size
    seen.clear()
    for n in (2, 3, 64, 65):
        mu.fourier(gauss_hermite_rule(n).nodes)
    # a two-node rule keeps the full sum: its half would be a one-row product
    assert seen == [2, 2, 32, 33]


def test_fourier_rejects_bad_nodes():
    mu = DiscreteMeasure([0.1, 0.5, 2.0], [0.2, 0.3, 0.5])
    for y in (np.ones((2, 3)), np.ones((2, 1)), [0.5, np.nan], [-np.inf, 0.0]):
        with pytest.raises(ValueError, match="Fourier nodes"):
            mu.fourier(y)
        with pytest.raises(ValueError, match="Fourier nodes"):
            fourier_tables([mu, mu], y)


def test_norm_sq_transforms_each_scenario_once(rule, monkeypatch):
    calls = []
    kernel = DiscreteMeasure._fourier_sum

    def spy(self, y, out):
        calls.append(self)
        kernel(self, y, out)

    scenarios = [empirical_law(np.linspace(-1.0, 1.0, 7) * s) for s in (0.5, 1.0, 2.0)]
    copies = [DiscreteMeasure(m.locations, m.weights) for m in scenarios]
    paired = inner_product(RandomMeasureEnsemble(scenarios), RandomMeasureEnsemble(copies), 2, rule)
    monkeypatch.setattr(DiscreteMeasure, "_fourier_sum", spy)
    value = norm_sq(RandomMeasureEnsemble(scenarios), 2, rule)
    assert calls == scenarios
    assert np.float64(value).tobytes() == np.float64(paired).tobytes()


# -- Fourier tables of many measures ------------------------------------------

_edge_measures = st.sampled_from(
    [DiscreteMeasure([], []), DiscreteMeasure([0.0, -0.0, 0.0, 1.0], [0.5, -0.25, 1.0, -0.0])]
)
_nodes = st.one_of(
    st.integers(2, 128).map(lambda n: gauss_hermite_rule(n).nodes),
    st.integers(2, 300).map(lambda n: trapezoid_rule(n).nodes),
)


@settings(max_examples=30, deadline=None)
@given(
    ms=st.lists(st.one_of(fourier_measures(), _edge_measures), min_size=1, max_size=5),
    y=_nodes,
    cpus=st.sampled_from([1, 2, 3]),
)
def test_fourier_tables_are_bitwise_stacked_transforms(ms, y, cpus):
    stacked = np.stack([m.fourier(y) for m in ms])
    with mock.patch.object(measures_module, "_cpu_count", lambda: cpus), \
            mock.patch.object(measures_module, "_PARALLEL_MIN_WORK", 0):
        tables = fourier_tables(ms, y)
    assert tables.tobytes() == stacked.tobytes()


def _small_laws():
    return [empirical_law(np.arange(50.0) * s) for s in np.linspace(0.1, 1.0, 12)]


def test_fourier_tables_error_surfaces_after_every_helper(rule, monkeypatch):
    monkeypatch.setattr(measures_module, "_cpu_count", lambda: 3)
    monkeypatch.setattr(measures_module, "_PARALLEL_MIN_WORK", 0)
    ms = _small_laws()
    baseline = threading.active_count()
    kernel = DiscreteMeasure._fourier_sum

    def fails_once(self, y, out):
        if self is ms[5]:
            raise RuntimeError("kernel failed")
        kernel(self, y, out)

    monkeypatch.setattr(DiscreteMeasure, "_fourier_sum", fails_once)
    with pytest.raises(RuntimeError, match="kernel failed"):
        fourier_tables(ms, rule.nodes)
    assert threading.active_count() == baseline
    monkeypatch.setattr(DiscreteMeasure, "_fourier_sum", kernel)
    stacked = np.stack([m.fourier(rule.nodes) for m in ms])
    assert fourier_tables(ms, rule.nodes).tobytes() == stacked.tobytes()


def test_no_thread_outlives_a_parallel_call(rule, monkeypatch):
    monkeypatch.setattr(measures_module, "_cpu_count", lambda: 3)
    monkeypatch.setattr(measures_module, "_PARALLEL_MIN_WORK", 0)
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    before = threading.active_count()
    fourier_tables(_small_laws(), rule.nodes)
    assert len(started) == 2
    assert threading.active_count() == before


class _Tracked(DiscreteMeasure):
    __slots__ = ("__weakref__",)


def test_idle_helpers_keep_no_measure_alive(rule, monkeypatch):
    monkeypatch.setattr(measures_module, "_cpu_count", lambda: 3)
    monkeypatch.setattr(measures_module, "_PARALLEL_MIN_WORK", 0)
    ms = [_Tracked(np.arange(50.0) * s, np.full(50, 0.02)) for s in np.linspace(0.1, 1.0, 12)]
    refs = [weakref.ref(m) for m in ms]
    fourier_tables(ms, rule.nodes)
    del ms
    gc.collect()
    assert all(ref() is None for ref in refs)


def _no_thread_start(self):
    raise AssertionError("a helper thread was started")


def test_fourier_tables_on_one_cpu_start_no_thread(rule, monkeypatch):
    monkeypatch.setattr(threading.Thread, "start", _no_thread_start)
    monkeypatch.setattr(measures_module, "_cpu_count", lambda: 1)
    monkeypatch.setattr(measures_module, "_PARALLEL_MIN_WORK", 0)
    ms = _small_laws()[:2]
    assert fourier_tables(ms, rule.nodes).shape == (2, rule.n)
    assert fourier_tables([], rule.nodes).shape == (0, rule.n)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
# Python 3.12+ warns on a fork while the OS lists more than one thread, which
# the BLAS library's own thread pool does once numpy is imported
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_starts_helpers_of_its_own(rule, monkeypatch):
    monkeypatch.setattr(measures_module, "_cpu_count", lambda: 2)
    monkeypatch.setattr(measures_module, "_PARALLEL_MIN_WORK", 0)
    ms = _small_laws()
    expected = fourier_tables(ms, rule.nodes).tobytes()  # the parent's helper runs
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            status = 0 if fourier_tables(ms, rule.nodes).tobytes() == expected else 2
        finally:
            os._exit(status)
    for _ in range(600):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child waited for helpers it does not have")
    assert os.waitstatus_to_exitcode(status) == 0


def test_import_loads_no_executor_and_starts_no_thread():
    src = str(Path(measures_module.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, threading, mfclab; print('concurrent.futures' in sys.modules, threading.active_count())"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["False", "1"]


# -- interval masses on a sorted prefix ---------------------------------------

def _mask_mass(mu, lo, hi):
    """The former kernel: a boolean mask over every atom."""
    inside = (mu.locations > lo) & (mu.locations <= hi)
    return float(mu.weights[inside].sum())


@st.composite
def sorted_prefix_measures(draw):
    """An empirical law, law + signed pair (a frozen control) or law + pair +
    lambda eta (a CRN deviation); repeats and signed zeros included."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=draw(st.integers(1, 3000)))
    if draw(st.booleans()):
        x = np.round(x, 1)
    x[:: draw(st.integers(2, 9))] = draw(st.sampled_from([0.0, -0.0, 0.25]))
    mu = empirical_law(x)
    if draw(st.booleans()):
        offset = draw(st.floats(-1.0, 1.0))
        mu = mu + DiscreteMeasure([0.25, draw(_coords)], [offset, -offset])
        if draw(st.booleans()):
            eta = DiscreteMeasure([draw(_coords), 0.0], [1.0, -1.0])
            mu = mu + eta.scaled(draw(st.floats(-0.2, 0.2)))
    return mu


_bounds = st.one_of(_coords, st.sampled_from([-0.0, 0.0, 0.25, -math.inf, math.inf]))


@settings(max_examples=60, deadline=None)
@given(mu=sorted_prefix_measures(), lo=_bounds, hi=_bounds)
def test_mass_on_is_bitwise_mask_sum(mu, lo, hi):
    assert np.all(np.diff(mu.locations[: mu._n_sorted]) > 0)
    bounds = [(lo, hi), (lo, math.inf), (lo, lo), (hi, hi), (0.0, hi), (-0.0, hi), (lo, -0.0)]
    # repeated and interleaved reads: the second pass is served by the memo
    for a, b in bounds + bounds[::-1]:
        assert np.float64(mu.mass_on(a, b)).tobytes() == np.float64(_mask_mass(mu, a, b)).tobytes()


def test_mass_on_unsorted_measure_and_nan_bounds():
    mu = DiscreteMeasure([2.0, -1.0, 0.5, 0.5], [0.1, 0.2, 0.3, 0.4])
    assert mu._n_sorted == 0
    assert mu.mass_on(0.0, 2.0) == _mask_mass(mu, 0.0, 2.0)
    law = empirical_law([0.3, 1.2, -0.4])
    for m in (mu, law, law + mu):
        m.mass_on(0.0, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            m.mass_on(0.0, math.nan)
        with pytest.raises(ValueError, match="NaN"):
            m.mass_on(math.nan, 1.0)


def test_mass_on_computes_each_interval_once(monkeypatch):
    computed = []
    kernel = DiscreteMeasure._mass_on

    def spy(self, lo, hi):
        computed.append((self, lo, hi))
        return kernel(self, lo, hi)

    monkeypatch.setattr(DiscreteMeasure, "_mass_on", spy)
    law = empirical_law([-0.5, 0.0, 0.0, 1.0, 2.0])
    pair = law + DiscreteMeasure([0.25, -1.0], [0.1, -0.1])
    for _ in range(3):
        assert law.mass_on(0.0, 1.0) == 0.2
        assert law.mass_on(-0.0, 1.0) == 0.2
        assert law.mass_on(0.0, math.inf) == 0.4
        assert pair.mass_on(0.0, 1.0) == _mask_mass(pair, 0.0, 1.0)
    assert computed == [
        (law, 0.0, 1.0), (law, 0.0, math.inf), (pair, 0.0, 1.0),
    ]
    # a new measure starts with no masses of its own
    assert (-law).mass_on(0.0, 1.0) == -0.2
    assert len(computed) == 4


def test_measure_arrays_are_read_only_copies():
    loc, wts = np.array([3.0, 1.0, 2.0]), np.full(3, 1 / 3)
    mu = DiscreteMeasure(loc, wts)
    for caller, mine in ((loc, mu.locations), (wts, mu.weights)):
        assert caller.flags.writeable and not np.shares_memory(caller, mine)
    loc[0] = 9.0
    assert mu.locations[0] == 3.0
    law = empirical_law(loc)
    built = [
        mu, law, law + mu, law - mu, -law, law.scaled(2.0),
        DiscreteMeasure.dirac(0.5), DiscreteMeasure([], []),
    ]
    for m in built:
        for arr in (m.locations, m.weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[:1] = 1.2
    # the write that used to desynchronise a sorted law from its binary search
    with pytest.raises(ValueError, match="read-only"):
        law.locations[2] = 1.2
    assert law.mass_on(0.5, 1.5) == _mask_mass(law, 0.5, 1.5)


# -- shared atoms: sums, laws and their memory ---------------------------------

def _whole_arrays_built(mu) -> bool:
    """True once ``locations`` is set; for a sum of two nonempty parts, only
    after its first whole read."""
    try:
        DiscreteMeasure.locations.__get__(mu)
    except AttributeError:
        return False
    return True


@st.composite
def measure_chains(draw, depth=2):
    """(measure, locations, weights): a law, a plain measure or a sum of two
    such, the left one possibly a sum itself (law + pair + lambda eta), with
    the atoms the concatenation must hold, computed without the measure."""
    kinds = ["law", "plain", "sum", "sum"] if depth else ["law", "plain"]
    kind = draw(st.sampled_from(kinds))
    if kind == "law":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x = rng.normal(size=draw(st.integers(1, 300)))
        if draw(st.booleans()):
            x = np.round(x, 1)
        x[:: draw(st.integers(2, 9))] = draw(st.sampled_from([0.0, -0.0, 0.25]))
        loc, counts = np.unique(x, return_counts=True)
        return empirical_law(x), loc, counts / x.size
    if kind == "plain":
        n = draw(st.integers(0, 4))
        loc = np.array(draw(st.lists(_bounds.filter(math.isfinite), min_size=n, max_size=n)), dtype=float)
        wts = np.array(draw(st.lists(_weights, min_size=n, max_size=n)), dtype=float)
        mu = DiscreteMeasure(loc, wts)
        if draw(st.booleans()):
            lam = draw(st.floats(-0.2, 0.2))
            return mu.scaled(lam), loc, lam * wts
        return mu, loc, wts
    a, a_loc, a_w = draw(measure_chains(depth - 1))
    b, b_loc, b_w = draw(measure_chains(depth - 1))
    return a + b, np.concatenate([a_loc, b_loc]), np.concatenate([a_w, b_w])


def _masked(loc, wts, lo, hi) -> float:
    inside = (loc > lo) & (loc <= hi)
    return float(wts[inside].sum())


@settings(max_examples=80, deadline=None)
@given(chain=measure_chains(), lo=_bounds, hi=_bounds, n=st.integers(2, 40))
def test_sums_read_as_their_concatenation(chain, lo, hi, n):
    mu, loc, wts = chain
    assert mu.n_atoms == loc.size
    two_parts = mu._n_sorted and mu._n_sorted < mu.n_atoms
    bounds = [(lo, hi), (lo, math.inf), (-math.inf, hi), (0.0, hi), (-0.0, hi), (lo, -0.0), (lo, 0.0)]
    for a, b in bounds:
        assert np.float64(mu.mass_on(a, b)).tobytes() == np.float64(_masked(loc, wts, a, b)).tobytes()
    # n_atoms and every mass above leave a two-part sum's whole arrays unbuilt
    assert _whole_arrays_built(mu) == (not two_parts)
    y = gauss_hermite_rule(n).nodes
    assert mu.fourier(y).tobytes() == DiscreteMeasure(loc, wts).fourier(y).tobytes()
    for mine, expected in ((mu.locations, loc), (mu.weights, wts)):
        assert mine.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            mine[:1] = 1.2
    # built once and kept
    assert mu.locations is mu.locations and mu.weights is mu.weights


def _kept_bytes(build):
    """Bytes still allocated after ``build()`` returns, while its result lives."""
    tracemalloc.start()
    try:
        kept = build()  # noqa: F841 (alive while the memory is read)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_frozen_candidate_shares_the_laws_atoms():
    """Each frozen measure law + pair used to copy its law's atoms."""
    import mfclab.consumption as cons
    from mfclab.sde import simulate

    n, m = 2000, 50
    model = cons.ConsumptionModel(x0=1.0, horizon=1.0, vol=lambda t: 0.2, theta=1.0)
    cf = cons.closed_form_controls(model)
    bundle = simulate(cons.state_model(model), cons.feedback_pair(model, cf), n, m, seed=5)
    for k in range(m + 1):
        bundle.law_at(k).n_atoms  # the laws are built outside the measured call
    kept = _kept_bytes(lambda: cons.frozen_pair(model, cf, bundle))
    assert kept < 0.2 * n * (m + 1) * 8


def test_all_distinct_laws_share_one_weights_array():
    n, count = 2000, 50
    samples = np.random.default_rng(3).standard_normal((count, n))
    kept = _kept_bytes(lambda: [empirical_law(row) for row in samples])
    assert kept < 1.1 * n * (count + 1) * 8
    a, b = empirical_law(samples[0]), empirical_law(samples[1])
    assert a.weights is b.weights and not a.weights.flags.writeable
    assert a.weights.tobytes() == np.full(n, 1 / n).tobytes()
