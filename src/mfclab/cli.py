"""Experiment runner: `mfclab run <config.ini>` and `mfclab list`.

The config is flat INI with three sections::

    [experiment]
    name = consumption       ; one of the catalogue names
    out_dir = out            ; overridden by $MFCLAB_OUT when set

    [knobs]
    seed = 2024
    n_particles = 10000
    n_steps = 200
    lambdas = 0.05, 0.1, 0.2, -0.05, -0.1, -0.2
    delay = 0.0

    [model]                  ; consumption only
    x0 = 1.0
    horizon = 1.0
    sigma = 0.2
    jump_size = 0.1
    jump_rate = 0.5
    theta = 1.0
    v_lo = 0.25
    v_hi = inf

The CLI only reads the file.  `ExperimentConfig` validates on construction
and owns the [model] keys (`experiments.MODEL_DEFAULTS`), so a Python caller
gets the same checks, an unknown [model] key included.  Unknown sections
(INI's [DEFAULT] among them) or keys are rejected, and so are a [knobs] key
that the named experiment does not read (`mfclab list` names the ones each
reads) and a non-empty [model] section for any experiment but consumption.
Exit codes: 0 all checks passed, 1 some check failed, 2 usage or config
error, 3 numerical failure (a non-finite state or a Gamma outside (0, inf)),
reported as one ``numerical error: ...`` line on stderr.
"""
from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import fields

from .experiments import CATALOGUE, ExperimentConfig, run_experiment
from .sde import SimulationError

_KNOB_KEYS = {key for entry in CATALOGUE.values() for key in entry.knobs}
# each knob is parsed to the type of its default: int, float or a tuple of floats
_KNOB_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig) if f.name in _KNOB_KEYS}
_EXPERIMENT_KEYS = {"name", "out_dir"}


class ConfigError(ValueError):
    pass


def _parse_knob(key: str, text: str):
    default = _KNOB_DEFAULTS[key]
    if isinstance(default, tuple):
        return tuple(float(v) for v in text.replace(",", " ").split())
    return type(default)(text)


def load_config(path: str) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    # no section header can name "" (a header holds at least one character),
    # so [DEFAULT] is a section like any other, and so an unknown one
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), default_section="")
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    unknown_sections = set(parser.sections()) - {"experiment", "knobs", "model"}
    if unknown_sections:
        raise ConfigError(f"unknown config sections: {sorted(unknown_sections)}")
    if not parser.has_section("experiment") or not parser.has_option("experiment", "name"):
        raise ConfigError("config needs [experiment] with a name key")

    exp = dict(parser.items("experiment"))
    if set(exp) - _EXPERIMENT_KEYS:
        raise ConfigError(f"unknown [experiment] keys: {sorted(set(exp) - _EXPERIMENT_KEYS)}")
    knobs = dict(parser.items("knobs")) if parser.has_section("knobs") else {}
    if set(knobs) - _KNOB_KEYS:
        raise ConfigError(f"unknown [knobs] keys: {sorted(set(knobs) - _KNOB_KEYS)}")
    try:
        values = {key: _parse_knob(key, text) for key, text in knobs.items()}
    except ValueError as exc:
        raise ConfigError(f"bad [knobs] value: {exc}") from exc
    model = dict(parser.items("model")) if parser.has_section("model") else {}
    try:
        model = {key: float(text) for key, text in model.items()}
    except ValueError as exc:
        raise ConfigError(f"bad [model] value: {exc}") from exc

    out_dir = os.environ.get("MFCLAB_OUT") or exp.get("out_dir", "out")
    try:
        cfg = ExperimentConfig(name=exp["name"], out_dir=out_dir, model=model, **values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # after validation, so a bad value is reported for its own sake
    reads = CATALOGUE[cfg.name].knobs
    unread = set(knobs) - set(reads)
    if unread:
        raise ConfigError(
            f"experiment {cfg.name!r} reads no [knobs] {sorted(unread)}; it reads {list(reads)}"
        )
    return cfg


def list_experiments() -> str:
    return "\n".join(
        f"{name}: {entry.summary} ({', '.join(entry.knobs)})" for name, entry in CATALOGUE.items()
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfclab",
        description="Experiment runner for the mean-field control laboratory.",
    )
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run an experiment from an INI config")
    run_p.add_argument("config", help="path to the INI config file")
    sub.add_parser("list", help="print the experiment catalogue")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors
        return int(exc.code or 0)

    if args.command == "list":
        print(list_experiments())
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 2

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        checks = run_experiment(cfg)
    except SimulationError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    for check in checks:
        print(check.line())
    n_failed = sum(not c.passed for c in checks)
    print(f"{cfg.name}: {len(checks) - n_failed}/{len(checks)} checks passed -> {cfg.out_dir}")
    return 0 if n_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
