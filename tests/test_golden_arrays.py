"""Bitwise gate on intermediate arrays: small seeded runs against frozen digests.

``test_golden_csv.py`` pins what the catalogue writes; this file pins the
arrays in between, so that a change meant to keep every bit (a cache, a
batched kernel, a reordered loop) can prove it by running one test:

- states and ``performance_samples`` of the consumption cash flow under its
  feedback candidate, with and without a 3-atom Levy measure, and with and
  without delayed information (N=400, M=30), and the states of the same
  runs with the measure control replaced by the law under full information
- every ``empirical_law``'s atoms and weights along two of those bundles
- ``mass_on`` over laws, over laws plus a signed pair (the frozen candidate)
  and over lambda deviations of the frozen and of the feedback candidate,
  each interval list read twice; the feedback deviation is read along two
  bundles with one perturbed control pair
- the per-row sample differences of the main and the inflated consumption
  sweeps, and the residual curves of both variants, at N=600, M=40
- ``fourier_tables`` of one bundle's laws with one and with two CPUs
- the whole atoms, weights and Fourier tables of the frozen candidate's
  measures and of their lambda deviations, read after their masses
- both players' ``adjoint_p0_solve`` P with and without the Levy measure, and the Gamma paths of state-dependent
  coefficients on the same bundles
- ``simulate_derivative_process`` in the measure and the control direction,
  with the model's declared x-partials and with finite-difference partials
- ``gateaux_check``'s slopes and standard errors on a control direction

Each array is hashed with its dtype and shape.  The digests depend on
numpy's rounding, so the tests skip on a numpy other than the one that
recorded them.  Regenerate the fixture, only in a change meant to move the
numbers, with

    PYTHONPATH=src python tests/test_golden_arrays.py
"""
import hashlib
import json
import math
import pathlib
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import mfclab.consumption as cons
from mfclab import game as game_module
from mfclab import measures as measures_module
from mfclab.bsde import _gamma_start, _gamma_step, adjoint_p0_solve
from mfclab.game import gateaux_check
from mfclab.lawproc import LevyMeasure
from mfclab.measures import DiscreteMeasure, fourier_tables, gauss_hermite_rule
from mfclab.sde import (
    Direction,
    InfoPattern,
    StepView,
    draw_noise,
    performance_samples,
    perturbed_controls,
    simulate,
    simulate_derivative_process,
)

GOLDEN = pathlib.Path(__file__).with_name("golden_arrays.json")
KNOBS = dict(seed=2024, run_particles=400, run_steps=30, game_particles=600, game_steps=40)
LEVY = LevyMeasure([-0.2, 0.1, 0.3], [0.5, 1.0, 0.7])
DELAY = 0.1
LAMBDA = 0.1
GROUPS = (
    "run", "law", "mass", "sweep", "residuals", "fourier",
    "sum", "adjoint", "gamma", "gateaux", "deriv",
)


def _digest(a) -> str:
    a = np.asarray(a)
    head = f"{a.dtype.str}{a.shape}".encode()
    return hashlib.sha256(head + np.ascontiguousarray(a).tobytes()).hexdigest()


def _model(levy: bool, delay: bool) -> cons.ConsumptionModel:
    return cons.ConsumptionModel(
        x0=1.0, horizon=1.0, sigma=0.3, theta=1.0, levy=LEVY if levy else None,
        info=InfoPattern(DELAY if delay else 0.0),
    )


def _intervals(
    mu: DiscreteMeasure, model: cons.ConsumptionModel, k: int
) -> list[tuple[float, float]]:
    """Bounds that share a ``lo``, signed zeros, infinities, and bounds on
    atoms of the law that ``mu`` was built on, whose ``k`` atoms lead
    ``mu.locations``, where the count's or the mask's comparisons decide the
    answer."""
    lo, hi = model.v_interval
    out = [
        (lo, hi), (lo, 1.5), (lo, lo), (-math.inf, lo), (-0.0, 1.0), (0.0, 1.0),
        (model.v_outside, model.v_probe), (model.v_probe, math.inf),
    ]
    a, b = mu.locations[k // 4], mu.locations[(3 * k) // 4]
    return out + [(a, b), (a, math.inf), (-math.inf, b)]


def _masses(mu: DiscreteMeasure, model: cons.ConsumptionModel, law: DiscreteMeasure) -> list[float]:
    bounds = _intervals(mu, model, law.n_atoms)
    return [mu.mass_on(lo, hi) for _ in range(2) for lo, hi in bounds]


def _gamma_paths(bundle, levy: bool) -> np.ndarray:
    """Gamma paths of state-dependent alpha and jump_phi along a bundle; a
    scalar beta, as the model's partials may return."""
    levy_measure = LEVY if levy else None
    atoms = LEVY.jump_sizes if levy else ()
    gam = _gamma_start(bundle.n_particles, bundle.n_steps)
    for k in range(bundle.n_steps):
        x = bundle.states[:, k]
        alpha = -0.2 - 0.1 * np.tanh(x)
        jump_phi = [z * (0.5 + 0.2 * np.tanh(x)) for z in atoms]
        _gamma_step(gam, k, alpha, 0.3, jump_phi, levy_measure, bundle.noise)
    return gam


def _run_arrays(out: dict, seed: int, n: int, m: int) -> None:
    """Feedback-candidate runs: states, samples, laws, masses, Fourier tables,
    adjoints and Gamma paths."""
    for levy in (False, True):
        for delay in (False, True):
            model = _model(levy, delay)
            cf = cons.closed_form_controls(model)
            controls = cons.feedback_pair(model, cf)
            noise = draw_noise(seed, n, m, model.horizon, model.levy)
            tag = f"levy={int(levy)},delay={int(delay)}"
            # the classical coupling mu(t) = L(X(t)) as a measure control
            law_control = replace(
                controls, measure_ctrl=lambda t, info: info.law, mu_info=InfoPattern()
            )
            out[f"run/{tag},law-control/states"] = simulate(
                cons.state_model(model), law_control, noise=noise
            ).states
            name = f"{tag},exogenous"
            bundle = simulate(cons.state_model(model), controls, noise=noise)
            out[f"run/{name}/states"] = bundle.states
            out[f"run/{name}/performance"] = performance_samples(
                bundle, controls, cons.performance(model)
            )
            if delay:
                continue
            spec = cons.game_spec(model)
            frozen, _, _ = cons.frozen_pair(model, cf, bundle)
            for player in (1, 2):
                out[f"adjoint/{name}/player={player}"] = adjoint_p0_solve(
                    spec.model, spec.performance_for(player), bundle, frozen
                ).P
            out[f"gamma/{name}"] = _gamma_paths(bundle, levy)
            directions = {
                "measure": Direction(kind="measure", measure=DiscreteMeasure.dirac(model.v_probe)),
                "control": Direction(kind="control", t0=0.5, scalar=1.0),
            }
            partials = {"analytic": spec.model, "fd": replace(spec.model, partials=None)}
            for kind, direction in directions.items():
                for label, state in partials.items():
                    out[f"deriv/{name}/{kind}/{label}"] = simulate_derivative_process(
                        bundle, state, frozen, direction
                    )
            laws = [bundle.law_at(k) for k in range(m + 1)]
            out[f"law/{name}/locations"] = np.concatenate([law.locations for law in laws])
            out[f"law/{name}/weights"] = np.concatenate([law.weights for law in laws])
            out[f"mass/{name}/laws"] = [_masses(law, model, law) for law in laws]
            infos = [StepView(bundle, k) for k in range(m)]
            out[f"mass/{name}/frozen"] = [
                _masses(frozen.measure_ctrl(info.t, info), model, info.law) for info in infos
            ]
            direction = Direction(kind="measure", measure=DiscreteMeasure.dirac(model.v_probe))
            pert = perturbed_controls(frozen, direction, LAMBDA)
            out[f"mass/{name}/frozen-deviation"] = [
                _masses(pert.measure_ctrl(info.t, info), model, info.law) for info in infos
            ]
            nodes = gauss_hermite_rule(32).nodes
            for label, ctrl in (("frozen", frozen), ("frozen-deviation", pert)):
                sums = [ctrl.measure_ctrl(info.t, info) for info in infos]
                out[f"sum/{name}/{label}/locations"] = np.concatenate([mu.locations for mu in sums])
                out[f"sum/{name}/{label}/weights"] = np.concatenate([mu.weights for mu in sums])
                out[f"sum/{name}/{label}/fourier"] = np.stack([mu.fourier(nodes) for mu in sums])
            # one perturbed feedback pair read along two bundles: the same
            # t meets another base measure
            pert = perturbed_controls(controls, direction, LAMBDA)
            other = simulate(cons.state_model(model), controls, n, m, seed + 1)
            for label, b in (("", bundle), ("-other", other)):
                out[f"mass/{name}/feedback-deviation{label}"] = [
                    _masses(pert.measure_ctrl(float(b.times[k]), StepView(b, k)), model, b.law_at(k))
                    for k in range(m)
                ]
            for cpus in (1, 2):
                with mock.patch.object(measures_module, "_cpu_count", lambda: cpus):
                    table = fourier_tables(laws, nodes)
                out[f"fourier/{name}/cpus={cpus}"] = table


def _game_arrays(out: dict, seed: int, n: int, m: int) -> None:
    """Sweep rows and residual curves of the consumption certificate; each
    curve is labelled with the variant whose run produced it.  Both sweeps
    reach the row loop `_sweep_rows`, the main one through
    `nash_perturbation_sweep` and the inflated one through its own helper;
    the spy there sees each sweep's base samples and noise."""
    sweeps, residuals = [], {}

    def rows_spy(spec, candidate, plan, base, noise):
        sweeps.append((spec, candidate, plan, base, noise))
        return real_rows(spec, candidate, plan, base, noise)

    def variant_spy(spec, model, variant, noise):
        run = real_variant_run(spec, model, variant, noise)
        residuals[variant] = run.residuals
        return run

    real_rows, real_variant_run = game_module._sweep_rows, cons._variant_run
    model = _model(levy=True, delay=False)
    with mock.patch.object(game_module, "_sweep_rows", rows_spy), \
            mock.patch.object(cons, "_sweep_rows", rows_spy), \
            mock.patch.object(cons, "_variant_run", variant_spy):
        cons.verify_consumption_game(model, n_particles=n, n_steps=m, seed=seed)
    assert len(sweeps) == 2 and sorted(residuals) == sorted(cons.VARIANTS)
    for label, (spec, candidate, plan, base, noise) in zip(("main", "inflated"), sweeps):
        for d_id, direction in enumerate(plan.directions):
            player = 1 if direction.kind == "measure" else 2
            perf = spec.performance_for(player)
            for lam in plan.lambdas:
                pert = perturbed_controls(candidate, direction, lam)
                deviated = simulate(spec.model, pert, noise=noise)
                out[f"sweep/{label}/direction={d_id},lambda={lam}"] = (
                    performance_samples(deviated, pert, perf) - base[player]
                )
    for variant, curves in residuals.items():
        out[f"residuals/{variant}/u"] = [curves.res_u, curves.se_u]
        out[f"residuals/{variant}/mu"] = [curves.res_mu["mass_V"], curves.se_mu["mass_V"]]


def _gateaux_arrays(out: dict, seed: int, n: int, m: int) -> None:
    """Gateaux slopes of a scaled-rate candidate along a late control step."""
    model = _model(levy=True, delay=False)
    spec = cons.game_spec(model)
    cf = cons.closed_form_controls(model)
    noise = draw_noise(seed, n, m, model.horizon, model.levy)
    base = simulate(spec.model, cons.feedback_pair(model, cf), noise=noise)
    frozen, _, _ = cons.frozen_pair(model, cf, base)
    candidate = replace(frozen, scalar_ctrl=cons._frozen_rate(cf, base, 1.5))
    bundle = simulate(spec.model, candidate, noise=noise)
    direction = Direction(kind="control", t0=0.5, scalar=1.0)
    res = gateaux_check(spec, candidate, direction, (0.1, 0.05), (bundle,))
    out["gateaux/control"] = [*res.fd_slopes, *res.fd_se, res.adjoint_slope, res.adjoint_se]


def golden_digests() -> dict[str, str]:
    arrays: dict = {}
    _run_arrays(arrays, KNOBS["seed"], KNOBS["run_particles"], KNOBS["run_steps"])
    _gateaux_arrays(arrays, KNOBS["seed"], KNOBS["run_particles"], KNOBS["run_steps"])
    _game_arrays(arrays, KNOBS["seed"], KNOBS["game_particles"], KNOBS["game_steps"])
    return {key: _digest(a) for key, a in arrays.items()}


@pytest.fixture(scope="module")
def golden_and_run():
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests recorded with numpy {golden['numpy']}, running numpy {np.__version__}")
    return golden, golden_digests()


@pytest.mark.parametrize("group", GROUPS)
def test_intermediate_arrays_match_golden_digests(golden_and_run, group):
    golden, digests = golden_and_run
    mine = {k: v for k, v in digests.items() if k.startswith(group + "/")}
    pinned = {k: v for k, v in golden["digests"].items() if k.startswith(group + "/")}
    assert pinned and sorted(mine) == sorted(pinned)
    changed = [key for key, digest in mine.items() if pinned[key] != digest]
    assert not changed, f"arrays changed: {changed}"


if __name__ == "__main__":
    digests = golden_digests()
    record = {"numpy": np.__version__, "knobs": KNOBS, "digests": digests}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} array digests to {GOLDEN}", file=sys.stderr)
