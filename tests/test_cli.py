"""Tests for the config-driven experiment runner."""
import contextlib
import io
import itertools
import math
import os
import pathlib
import re
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mfclab.bsde import GammaPositivityError
from mfclab.cli import load_config, main
from mfclab.experiments import CATALOGUE, MODEL_DEFAULTS, ExperimentConfig
from mfclab.sde import SimulationError


def write_config(tmp_path, body, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def test_list_has_eight_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 8
    assert any(line.startswith("consumption:") for line in out)


def test_list_prints_the_catalogue(capsys):
    """Each line is a name, its summary with the size caps it states, and
    the [knobs] it reads."""
    assert main(["list"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "norms: Dirac norm exactness in M0/M^(2) (quad_n, seed)",
        "law-distance: law-distance bound on 100 randomized paired samples of min(n_particles, 1000) "
        "draws each (n_particles, quad_n, seed)",
        "law-derivative: law-derivative oracles and h^2 increment scaling (n_particles, quad_n, seed)",
        "sde-moments: Euler moment oracles and jump compensation (n_particles, n_steps, seed)",
        "bsde-oracles: closed-form linear BSDE identities (n_steps, seed)",
        "gateaux: derivative-process L2 convergence and FD-vs-adjoint slopes (n_particles, n_steps, seed)",
        "nash-sweep: LQ toy-game Nash certificate and refutation, run at min(n_particles, 4000) particles "
        "and min(n_steps, 100) steps (n_particles, n_steps, seed, lambdas)",
        "consumption: consumption-game end-to-end verification with a [model] section; its certificate "
        "is known to hold only while the law keeps its mass in V "
        "(n_particles, n_steps, seed, lambdas, delay)",
    ]


def test_unknown_subcommand_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_run_help_exits_zero(capsys):
    assert main(["run", "--help"]) == 0
    assert "config" in capsys.readouterr().out


def test_run_norms_writes_csv(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        f"[experiment]\nname = norms\nout_dir = {tmp_path}/out\n",
    )
    assert main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    csv_path = tmp_path / "out" / "norms.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x0,k,norm_sq,exact,abs_err"
    assert "1.7724538509055159" in lines[1]  # the sqrt(pi) row
    assert lines[-1].startswith("# seed=")


def test_negative_particles_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[experiment]\nname = norms\n\n[knobs]\nn_particles = -5\n",
    )
    assert main(["run", cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "knobs",
    [
        dict(delay=math.nan),
        dict(delay=math.inf),
        dict(lambdas=(0.1, math.nan)),
        dict(lambdas=(-math.inf, 0.1)),
        dict(model={"sigma": math.nan}),
        dict(model={"theta": math.inf}),
        dict(model={"v_lo": -math.inf}),
        dict(model={"v_hi": math.nan}),
        dict(model={"v_hi": -math.inf}),
    ],
    ids=lambda knobs: ",".join(f"{k}={v}" for k, v in knobs.items()),
)
def test_non_finite_config_value_rejected(knobs):
    with pytest.raises(ValueError, match="finite"):
        ExperimentConfig(name="consumption", **knobs).validate()


def test_unbounded_v_interval_is_valid():
    ExperimentConfig(name="consumption", model={"v_hi": math.inf}).validate()


@pytest.mark.parametrize(
    "name,section",
    [
        ("consumption", "[model]\ntheta = 0.0\n"),
        ("consumption", "[model]\nx0 = -1.0\n"),
        ("consumption", "[model]\nhorizon = 0.0\n"),
        ("consumption", "[model]\nv_lo = 2.0\nv_hi = 1.0\n"),
        ("consumption", "[model]\njump_size = 0.0\n"),
        ("consumption", "[model]\njump_size = -1.5\n"),
        ("consumption", "[model]\njump_rate = -0.5\n"),
        ("consumption", "[knobs]\nseed = -1\n"),
        ("consumption", f"[knobs]\nseed = {2**128}\n"),
        # only consumption reads [model]; elsewhere it would be silently ignored
        ("norms", "[model]\ntheta = 0.0\n"),
        # so is a knob the experiment never reads
        ("norms", "[knobs]\ndelay = 0.5\n"),
        ("norms", "[knobs]\nlambdas = 7.0\n"),
        ("consumption", "[knobs]\nquad_n = 64\n"),
        ("bsde-oracles", "[knobs]\nn_particles = 100\n"),
    ],
    ids=[
        "theta=0", "x0=-1", "horizon=0", "v_lo>v_hi", "jump_size=0", "jump_size=-1.5",
        "jump_rate=-0.5", "seed=-1", "seed=2**128", "model-for-norms",
        "delay-for-norms", "lambdas-for-norms", "quad_n-for-consumption", "n_particles-for-bsde",
    ],
)
def test_bad_model_value_or_seed_is_config_error(tmp_path, capsys, name, section):
    """Rejected while loading the config: exit 2, one line, nothing simulated."""
    cfg = write_config(
        tmp_path, f"[experiment]\nname = {name}\nout_dir = {tmp_path}/out\n\n{section}"
    )
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "theta, lambdas", [("10.0", "-0.2"), ("4.0", "-0.2"), ("1.0", "-0.5")],
    ids=["theta=10", "theta=4", "lambda=-0.5"],
)
def test_nonpositive_consumption_rate_is_config_error(tmp_path, capsys, theta, lambdas):
    """rho_hat(0) + min(lambda) = 1/(T + theta) + min(lambda) <= 0 would
    leave U (theta > 4 at the default grid: a traceback and exit 1 before) or
    reach log 0 (theta = 4: exit 3); both are config faults."""
    cfg = write_config(
        tmp_path,
        f"[experiment]\nname = consumption\nout_dir = {tmp_path}/out\n\n"
        f"[knobs]\nn_particles = 500\nn_steps = 40\nlambdas = 0.1, {lambdas}\n\n"
        f"[model]\ntheta = {theta}\n",
    )
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: consumption rate") and err.count("\n") == 1
    assert f"theta = {float(theta):g}" in err and f"lambda {float(lambdas):g}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("theta, lambdas", [(3.9, (-0.2,)), (10.0, (-0.05, 0.1))])
def test_positive_consumption_rate_is_valid(theta, lambdas):
    ExperimentConfig(name="consumption", lambdas=lambdas, model={"theta": theta}).validate()


@pytest.mark.parametrize("name", ["sde-moments", "gateaux", "nash-sweep", "consumption"])
def test_one_particle_is_config_error(tmp_path, capsys, name):
    """A standard error over one particle is 0, so one path would pass
    every check (consumption exited 0 with 7/7 before)."""
    cfg = write_config(
        tmp_path,
        f"[experiment]\nname = {name}\nout_dir = {tmp_path}/out\n\n"
        "[knobs]\nn_particles = 1\nn_steps = 10\n",
    )
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"config error: experiment {name!r} reports standard errors and needs "
        "n_particles >= 2, got 1\n"
    )
    assert not (tmp_path / "out").exists()


def test_unread_knob_reported_after_bad_value(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "[experiment]\nname = norms\n\n[knobs]\nn_particles = -5\ndelay = 0.5\n"
    )
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "n_particles must be positive" in err and "delay" not in err


_KNOB_SAMPLES = {"seed": 3, "n_particles": 10, "n_steps": 5, "quad_n": 8, "lambdas": "0.1, -0.1", "delay": 0.0}


def test_knob_readers_match_the_runners(tmp_path):
    """Each catalogue entry's knobs are the ``cfg`` knobs its runner and the
    helpers it passes ``cfg`` to read; every knob it reads is accepted."""
    import ast
    import inspect

    import mfclab.experiments as exp

    tree = ast.parse(inspect.getsource(exp))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def knobs_read(fn, seen):
        out = set()
        for node in ast.walk(defs[fn]):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "cfg":
                out.add(node.attr)
            callee = getattr(node.func, "id", None) if isinstance(node, ast.Call) else None
            passes_cfg = callee and any(getattr(a, "id", None) == "cfg" for a in node.args)
            if passes_cfg and callee in defs and callee not in seen:
                seen.add(callee)
                out |= knobs_read(callee, seen)
        return out

    knob_names = {key for entry in exp.CATALOGUE.values() for key in entry.knobs}
    for name, entry in exp.CATALOGUE.items():
        read = knobs_read(entry.run.__name__, set()) & knob_names
        assert read == set(entry.knobs), name
        knobs = "".join(f"{k} = {_KNOB_SAMPLES[k]}\n" for k in entry.knobs)
        load_config(write_config(tmp_path, f"[experiment]\nname = {name}\n\n[knobs]\n{knobs}"))


def test_zero_jump_rate_means_no_jumps():
    from mfclab.experiments import consumption_model_from

    cfg = ExperimentConfig(name="consumption", model={"jump_rate": 0.0})
    cfg.validate()
    assert consumption_model_from(cfg).levy is None


@pytest.mark.parametrize(
    "section",
    ["[knobs]\ndelay = nan\n", "[knobs]\nlambdas = 0.1, inf\n", "[model]\nsigma = nan\n"],
    ids=["delay", "lambdas", "model"],
)
def test_non_finite_ini_value_is_config_error(tmp_path, capsys, section):
    cfg = write_config(
        tmp_path, f"[experiment]\nname = consumption\nout_dir = {tmp_path}/out\n\n{section}"
    )
    assert main(["run", cfg]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[experiment]\nname = norms\nturbo = yes\n",
    )
    assert main(["run", cfg]) == 2
    assert "unknown" in capsys.readouterr().err


@pytest.mark.parametrize(
    "default",
    ["[DEFAULT]\nseed = 3\n", "[DEFAULT]\n"],
    ids=["with-a-key", "empty"],
)
def test_default_section_is_an_unknown_section(tmp_path, capsys, default):
    """INI's [DEFAULT] would copy its keys into every section; it is rejected
    by name, before it can misname a key or pass unread."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"{default}[experiment]\nname = norms\nout_dir = {out}\n")
    assert main(["run", cfg]) == 2
    assert "unknown config sections: ['DEFAULT']" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_experiment_rejected(tmp_path):
    cfg = write_config(tmp_path, "[experiment]\nname = alchemy\n")
    assert main(["run", cfg]) == 2


def test_malformed_ini_reports_line(tmp_path, capsys):
    cfg = write_config(tmp_path, "[experiment\nname = norms\n")
    assert main(["run", cfg]) == 2
    assert "line" in capsys.readouterr().err.lower()


def test_missing_file_is_config_error(capsys):
    assert main(["run", "/nonexistent/conf.ini"]) == 2


def test_empty_out_dir_is_config_error(tmp_path, capsys, monkeypatch):
    """`out_dir =` wrote the CSVs into the current directory and reported
    ``checks passed -> `` with no path; an empty $MFCLAB_OUT counts as unset."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MFCLAB_OUT", "")
    cfg = write_config(tmp_path, "[experiment]\nname = norms\nout_dir =\n")
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: out_dir must not be empty")
    assert not list(tmp_path.glob("*.csv"))


def test_env_var_overrides_out_dir(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("MFCLAB_OUT", str(override))
    cfg = write_config(
        tmp_path,
        f"[experiment]\nname = norms\nout_dir = {tmp_path}/ignored\n",
    )
    assert main(["run", cfg]) == 0
    assert (override / "norms.csv").exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize(
    "knob", ["seed = 1.5", "n_steps = 1e3", "lambdas = 0.1, x"], ids=["seed", "n_steps", "lambdas"]
)
def test_mistyped_knob_is_config_error(tmp_path, capsys, knob):
    """Each knob is parsed to the type of its default: an int knob takes no
    float spelling, and every lambda must be a float."""
    cfg = write_config(
        tmp_path, f"[experiment]\nname = consumption\nout_dir = {tmp_path}/out\n\n[knobs]\n{knob}\n"
    )
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad [knobs] value: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_space_separated_lambdas_are_accepted(tmp_path):
    cfg = load_config(
        write_config(tmp_path, "[experiment]\nname = nash-sweep\n\n[knobs]\nlambdas = 0.1 -0.2\n")
    )
    assert cfg.lambdas == (0.1, -0.2)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(name="consumption", model={"sigmaa": 0.9}), "unknown [model] key 'sigmaa'"),
        (dict(name="alchemy"), "unknown experiment 'alchemy'; run `mfclab list`"),
        (dict(name="norms", out_dir=""), "out_dir must not be empty"),
    ],
    ids=["model-key", "experiment", "out-dir"],
)
def test_library_config_is_validated_on_construction(kwargs, message):
    """A Python caller gets the checks that the CLI applies: a misspelt
    [model] key was run with its default before, and an empty out_dir wrote
    the CSVs into the current directory."""
    with pytest.raises(ValueError) as info:
        ExperimentConfig(**kwargs)
    assert message in str(info.value)


def test_integer_knobs_reject_other_numbers():
    """seed = 1.5 ran as seed 1 (Philox truncates its key) under CSV trailers
    that said 1.5, and n_steps = 2.5 or quad_n = 3.5 raised numpy's TypeError
    mid-run; a bool is no count either.  numpy integers stay valid."""
    for key in ("seed", "n_particles", "n_steps", "quad_n"):
        for value in (1.5, 4.0, True):
            with pytest.raises(ValueError, match=f"{key} must be an integer, got {value!r}"):
                ExperimentConfig(name="norms", **{key: value})
    cfg = ExperimentConfig(
        name="norms", seed=np.uint64(3), n_particles=np.int32(5), n_steps=np.int64(4), quad_n=np.int16(8)
    )
    assert cfg.seed == 3 and cfg.quad_n == 8


def _model_example(text):
    """The ``key = value`` lines under the first ``[model]`` line of an INI example."""
    lines = text[re.search(r"^\s*\[model\]", text, re.M).end():].splitlines()[1:]
    pairs = [line.split(";")[0].split("=") for line in itertools.takewhile(lambda l: "=" in l, lines)]
    return {key.strip(): float(value) for key, value in pairs}


@pytest.mark.parametrize("source", ["README.md", "cli"])
def test_model_examples_match_the_defaults(source):
    """The README's and the CLI docstring's [model] examples list every key
    of `MODEL_DEFAULTS` at its default, and no other."""
    import mfclab.cli

    if source == "cli":
        text = mfclab.cli.__doc__
    else:
        text = (pathlib.Path(__file__).resolve().parents[1] / source).read_text()
    assert _model_example(text) == MODEL_DEFAULTS


def test_lambda_and_model_parsing(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path,
            "[experiment]\nname = consumption\n\n"
            "[knobs]\nseed = 1\nlambdas = 0.1, -0.1\n\n"
            "[model]\nx0 = 2.0\ntheta = 1.5\n",
        )
    )
    assert cfg.lambdas == (0.1, -0.1)
    assert cfg.model == {"x0": 2.0, "theta": 1.5}


def test_rerun_is_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        cfg = write_config(
            tmp_path,
            f"[experiment]\nname = bsde-oracles\nout_dir = {out}\n\n[knobs]\nseed = 5\n",
            name=f"{out.name}.ini",
        )
        assert main(["run", cfg]) == 0
    fa = (out_a / "bsde_oracles.csv").read_bytes()
    fb = (out_b / "bsde_oracles.csv").read_bytes()
    assert fa == fb


def test_failing_check_exits_one(tmp_path, capsys, monkeypatch):
    """A red check exits 1 (forced by breaking a tolerance through the registry)."""
    import mfclab.experiments as exp
    from mfclab.report import CheckResult

    def always_fails(cfg):
        return [CheckResult("forced-failure", 1.0, 0.0, False)]

    monkeypatch.setitem(exp.EXPERIMENTS, "norms", always_fails)
    cfg = write_config(tmp_path, f"[experiment]\nname = norms\nout_dir = {tmp_path}/o\n")
    assert main(["run", cfg]) == 1
    assert "[FAIL]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "error",
    [SimulationError, GammaPositivityError],
    ids=lambda error: error.__name__,
)
def test_numerical_error_exits_three(tmp_path, capsys, monkeypatch, error):
    """A numerical failure inside an experiment is one stderr line and exit 3."""
    import mfclab.experiments as exp

    def blows_up(cfg):
        raise error("non-finite state at step 7")

    monkeypatch.setitem(exp.EXPERIMENTS, "norms", blows_up)
    cfg = write_config(tmp_path, f"[experiment]\nname = norms\nout_dir = {tmp_path}/o\n")
    assert main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert err == "numerical error: non-finite state at step 7\n"


# -- the exit code as a contract ------------------------------------------------------

@st.composite
def _model_sections(draw):
    """Some [model] keys, each inside the range that the config accepts."""
    ranges = {
        "x0": st.floats(1e-3, 1e3),
        "horizon": st.floats(1e-2, 10.0),
        "sigma": st.floats(-2.0, 2.0),
        "jump_size": st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True)
        | st.floats(0.0, 2.0, exclude_min=True),
        "jump_rate": st.floats(0.0, 5.0),
        "theta": st.floats(1e-3, 50.0),
        "v_lo": st.floats(-3.0, 3.0),
    }
    model = {key: draw(st.none() | value) for key, value in ranges.items()}
    model = {key: value for key, value in model.items() if value is not None}
    width = draw(st.none() | st.just(math.inf) | st.floats(1e-3, 5.0))
    if width is not None:
        model["v_hi"] = model.get("v_lo", 0.25) + width
    return model


def _contract_ini(name, n, m, seed, lambdas, delay, model):
    values = {
        "seed": seed, "n_particles": n, "n_steps": m, "delay": repr(delay),
        "lambdas": ", ".join(repr(lam) for lam in lambdas),
    }
    knobs = "".join(f"{k} = {values[k]}\n" for k in CATALOGUE[name].knobs if k in values)
    body = f"[experiment]\nname = {name}\n\n[knobs]\n{knobs}"
    if name == "consumption" and model:
        body += "\n[model]\n" + "".join(f"{k} = {v!r}\n" for k, v in model.items())
    return body


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(CATALOGUE)),
    n=st.integers(1, 64),
    m=st.integers(1, 16),
    seed=st.integers(0, 1000),
    lambdas=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6),
    delay=st.floats(0.0, 2.0),
    model=_model_sections(),
)
# the three configs of the first exit-code fixes: theta > 4 left U (exit 1),
# theta = 4 reached log 0 (exit 3), and one particle passed every check
@example(name="consumption", n=500, m=40, seed=2024,
         lambdas=(0.05, 0.1, 0.2, -0.05, -0.1, -0.2), delay=0.0, model={"theta": 10.0})
@example(name="consumption", n=500, m=40, seed=2024,
         lambdas=(0.05, 0.1, 0.2, -0.05, -0.1, -0.2), delay=0.0, model={"theta": 4.0})
@example(name="consumption", n=1, m=10, seed=2024,
         lambdas=(0.05, 0.1, 0.2, -0.05, -0.1, -0.2), delay=0.0, model={})
# an Euler state below 0 puts log x out of its domain: exit 3, and numpy's
# "invalid value encountered in log" warnings went to stderr beside it
@example(name="consumption", n=8, m=7, seed=176, lambdas=(0.1,), delay=0.0, model={"sigma": 1.0})
# sigma * x overflows at step 1: exit 3, and numpy's "overflow encountered in
# multiply" warning went to stderr before the numerical error line
@example(name="consumption", n=10, m=10, seed=2024,
         lambdas=(0.05, 0.1, 0.2, -0.05, -0.1, -0.2), delay=0.0, model={"sigma": 1e200})
# neither particle jumps, so the standard error is 0: a ZeroDivisionError
# traceback and exit 1
@example(name="sde-moments", n=2, m=4, seed=225, lambdas=(0.0,), delay=0.0, model={})
# v_lo + 1.0 == v_lo puts the probe atom outside V: a ValueError traceback
# from the game's interval functional, mid-run, instead of exit 2
@example(name="consumption", n=10, m=10, seed=2024, lambdas=(0.1,), delay=0.0, model={"v_lo": 1e16})
def test_exit_code_contract(name, n, m, seed, lambdas, delay, model):
    """Exit 0, 1, 2 or 3; stderr holds only config and numerical error lines;
    exit 0 exactly when every check line passes; exit 2 writes nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.ini")
        with open(path, "w") as fh:
            fh.write(_contract_ini(name, n, m, seed, lambdas, delay, model))
        out_dir = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, {"MFCLAB_OUT": out_dir}), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            # a warning would print to stderr outside pytest
            warnings.simplefilter("always")
            code = main(["run", path])
        assert code in (0, 1, 2, 3)
        err_lines = stderr.getvalue().splitlines()
        err_lines += [f"{w.category.__name__}: {w.message}" for w in caught]
        assert all(line.startswith(("config error:", "numerical error:")) for line in err_lines)
        checks = [line for line in stdout.getvalue().splitlines() if line.startswith("[")]
        if code in (0, 1):
            assert checks and not err_lines
            assert (code == 0) == all(line.startswith("[PASS]") for line in checks)
        else:
            assert not checks and len(err_lines) == 1
        if code == 2:
            assert err_lines[0].startswith("config error:")
            assert not os.path.exists(out_dir)
