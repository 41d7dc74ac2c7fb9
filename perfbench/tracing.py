"""Span tracing of mfclab from outside the package, and the per-layer metrics.

The package is never edited.  ``traced`` wraps every public module-level
function of the traced modules and rebinds each module-level name that
refers to it across ``mfclab.*``; the modules import ``simulate`` and
friends by name, so patching the defining module alone would miss those
calls.  ``DiscreteMeasure.fourier`` and ``DiscreteMeasure.mass_on`` are
wrapped on the class.  Spans (name, start, end, parent, run id) stay in
memory until the benchmark writes them out.

Work counters are computed from call arguments and results by per-function
hooks.  The clock is paused while a hook runs, so counting never shows up as
time in any span; it does show in the traced wall time, and so in
``experiments.trace_overhead_s``.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import sys
import time
from collections import Counter, defaultdict

TRACED_MODULES = ("measures", "lawproc", "sde", "bsde", "game", "consumption", "experiments", "report")
TRACED_METHODS = (("measures", "DiscreteMeasure", "fourier"), ("measures", "DiscreteMeasure", "mass_on"))

# (name, unit, better, end-to-end metric and workload it should move).
# "computed" counters are derived from call arguments and results.
LAYER_METRICS = (
    ("sde.draw_noise.self_s", "s", "lower", "wall_s on consumption; about half of the ungated sde-moments"),
    ("sde.noise_bytes", "bytes", "lower", "computed; wall_s on consumption; peak_rss_mb on the ungated sde-moments"),
    ("sde.simulate.self_s", "s", "lower", "the Euler sweep; wall_s on consumption and the ungated sde-moments"),
    ("sde.simulate.calls", "count", "lower", "wall_s on consumption and the ungated sde-moments"),
    ("sde.particle_steps", "count", "lower", "computed sum of N*M; wall_s on consumption and the ungated sde-moments"),
    ("sde.jump_events", "count", "lower", "computed; wall_s on consumption and the ungated sde-moments"),
    ("sde.performance_samples.self_s", "s", "lower", "wall_s on consumption"),
    ("sde.simulate_derivative_process.self_s", "s", "lower", "wall_s on derivatives"),
    ("lawproc.empirical_law.calls", "count", "lower", "wall_s on consumption and derivatives; 0 on the ungated sde-moments"),
    ("lawproc.empirical_law.self_s", "s", "lower", "wall_s on consumption and derivatives"),
    ("lawproc.law_atoms", "count", "lower", "computed; wall_s on consumption and derivatives"),
    ("lawproc.empirical_law.distinct_ratio", "ratio", "higher",
     "computed distinct input arrays / calls; wall_s on consumption and derivatives"),
    ("measures.mass_on.calls", "count", "lower", "wall_s on consumption"),
    ("measures.mass_on.self_s", "s", "lower", "wall_s on consumption"),
    ("measures.mass_on.atoms_scanned", "count", "lower", "computed; wall_s on consumption"),
    ("measures.fourier.calls", "count", "lower", "wall_s and cpu_s on derivatives"),
    ("measures.fourier.self_s", "s", "lower", "wall_s and cpu_s on derivatives"),
    ("measures.fourier.atom_nodes", "count", "lower", "computed atom x node products; wall_s and cpu_s on derivatives"),
    ("bsde.simulate_gamma.self_s", "s", "lower", "wall_s on consumption and derivatives"),
    ("bsde.solve.self_s", "s", "lower", "wall_s on consumption and derivatives"),
    ("bsde.adjoint_p0_solve.self_s", "s", "lower", "wall_s on consumption and derivatives"),
    ("game.first_order_residuals.self_s", "s", "lower", "wall_s on consumption"),
    ("game.nash_perturbation_sweep.incl_s", "s", "lower", "wall_s on consumption"),
    ("game.sweep_rows", "count", "lower", "computed; wall_s on consumption"),
    ("game.sweep_row_s", "s", "lower", "one CRN sweep row (sweep time / rows); wall_s on consumption"),
    ("game.gateaux_check.incl_s", "s", "lower", "wall_s on derivatives"),
    ("consumption.verify_consumption_game.self_s", "s", "lower", "wall_s on consumption"),
    ("consumption.frozen_pair.self_s", "s", "lower", "wall_s on consumption"),
    ("experiments.first_iter_s", "s", "lower", "the untimed warm-up run; not gated"),
    ("experiments.wall_s_tail", "s", "lower", "tail of wall_s; reported, not gated"),
    ("experiments.samples", "count", "higher", "untraced timed runs behind wall_s_tail"),
    ("experiments.trace_overhead_s", "s", "lower", "traced wall minus untraced wall_s; not gated"),
    ("report.write_csv.self_s", "s", "lower", "wall_s on every workload"),
    ("report.csv_bytes", "bytes", "lower", "computed size of the CSVs one run writes"),
    ("report.csv_drift", "count", "lower", "CSVs that differ from the stored seed-2024 digests; not a failure"),
)


class Tracer:
    """In-memory span recorder with work counters and a pausable clock."""

    def __init__(self, run_id: int = 0):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.run_ids: list[int] = []
        self.counters: Counter = Counter()
        self.seen_laws: set[bytes] = set()
        self.run_id = run_id
        self._stack: list[int] = []
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextlib.contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.run_ids.append(self.run_id)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(self.now())
        try:
            yield
        finally:
            self.ends[idx] = self.now()
            self._stack.pop()

    def wrap(self, fn, name: str):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                with self.paused():
                    hook(self, args, kwargs, result)
            return result

        return traced_call

    def spans(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": r}
            for n, s, e, p, r in zip(self.names, self.starts, self.ends, self.parents, self.run_ids)
        ]

    def layer_times(self, run_id: int) -> tuple[dict, dict, Counter]:
        """Self time, inclusive time and call count per span name of one run.

        Self time is a span's duration minus the part covered by its direct
        children; children of one span never overlap, as everything runs on
        one thread.
        """
        child_cover = defaultdict(float)
        for i, p in enumerate(self.parents):
            if p >= 0 and self.run_ids[i] == run_id:
                child_cover[p] += self.ends[i] - self.starts[i]
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, name in enumerate(self.names):
            if self.run_ids[i] == run_id:
                duration = self.ends[i] - self.starts[i]
                self_s[name] += duration - child_cover[i]
                incl_s[name] += duration
                calls[name] += 1
        return self_s, incl_s, calls

    def layer_metrics(self, run_id: int) -> dict[str, float]:
        """Values for the names in ``LAYER_METRICS``, from one run's spans and counters.

        A name ending in ``.self_s``, ``.incl_s`` or ``.calls`` reads the span
        named by the rest of it; any other name reads the counter of that name,
        which is 0 when nothing counted it.  The benchmark fills in the
        ``experiments.*`` and ``report.csv_*`` values itself.
        """
        by_measure = dict(zip(("self_s", "incl_s", "calls"), self.layer_times(run_id)))
        out = {}
        for name, *_ in LAYER_METRICS:
            span, _, measure = name.rpartition(".")
            table = by_measure.get(measure)
            out[name] = table.get(span, 0) if table is not None else self.counters[name]
        law_calls = out["lawproc.empirical_law.calls"]
        out["lawproc.empirical_law.distinct_ratio"] = len(self.seen_laws) / law_calls if law_calls else 0.0
        rows = out["game.sweep_rows"]
        out["game.sweep_row_s"] = out["game.nash_perturbation_sweep.incl_s"] / rows if rows else 0.0
        return out


# -- counter hooks: (tracer, call args, call kwargs, result) ------------------

def _count_noise(tr, args, kwargs, noise):
    tr.counters["sde.noise_bytes"] += sum(
        a.nbytes for a in (noise.dB, noise.ev_particle, noise.ev_step, noise.ev_zeta)
    )


def _count_simulate(tr, args, kwargs, bundle):
    tr.counters["sde.particle_steps"] += bundle.n_particles * bundle.n_steps
    tr.counters["sde.jump_events"] += bundle.noise.n_events


def _count_law(tr, args, kwargs, law):
    particles = args[0] if args else kwargs["particles"]
    tr.seen_laws.add(hashlib.blake2b(particles.tobytes(), digest_size=16).digest())
    tr.counters["lawproc.law_atoms"] += law.n_atoms


def _count_mass_on(tr, args, kwargs, mass):
    tr.counters["measures.mass_on.atoms_scanned"] += args[0].n_atoms


def _count_fourier(tr, args, kwargs, values):
    tr.counters["measures.fourier.atom_nodes"] += args[0].n_atoms * values.size


def _count_sweep(tr, args, kwargs, table):
    tr.counters["game.sweep_rows"] += len(table.rows)


HOOKS = {
    "sde.draw_noise": _count_noise,
    "sde.simulate": _count_simulate,
    "lawproc.empirical_law": _count_law,
    "measures.mass_on": _count_mass_on,
    "measures.fourier": _count_fourier,
    "game.nash_perturbation_sweep": _count_sweep,
}


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every traced mfclab call through ``tracer`` inside the block."""
    # keyed by id: each wrapper keeps its original alive as ``__wrapped__``
    wrappers = {}
    for short in TRACED_MODULES:
        mod = sys.modules[f"mfclab.{short}"]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and not inspect.isgeneratorfunction(obj)):
                wrappers[id(obj)] = tracer.wrap(obj, f"{short}.{name}")

    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "mfclab" and not mod_name.startswith("mfclab."):
            continue
        for name, obj in list(vars(mod).items()):
            new = wrappers.get(id(obj))
            if new is not None:
                undo.append((mod, name, obj))
                setattr(mod, name, new)
    for short, cls_name, meth in TRACED_METHODS:
        cls = getattr(sys.modules[f"mfclab.{short}"], cls_name)
        original = cls.__dict__[meth]
        undo.append((cls, meth, original))
        setattr(cls, meth, tracer.wrap(original, f"{short}.{meth}"))
    try:
        yield tracer
    finally:
        for target, name, original in reversed(undo):
            setattr(target, name, original)
