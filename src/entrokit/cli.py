"""Command-line front end: describe families, run experiments, emit JSON/CSV.

Subcommands
-----------
describe   exact population summary of one distribution ("harmonic:1000")
clt        standardized-statistic experiment over an n-grid
be         bound-shape sweep (KS distance vs. the constant-free shape)
mdp        moderate-deviation exceedance experiment

JSON is the canonical output; floats are serialized with 17 significant
digits so every emitted file parses back losslessly.  CSV is a lossy
convenience export.  Experiment output is a pure function of the
configuration (seed included), so files are byte-identical across worker
counts; wall time goes to stderr, never into the payload.

Exit codes: 0 success, 2 configuration error, 3 numeric degeneracy
(zero log-probability variance where it is forbidden).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import sys
import time
import warnings
from pathlib import Path
from typing import Any, Iterable, NamedTuple, Sequence

# entrokit calls no BLAS routine; its parallelism is --workers processes.
# OpenBLAS starts its thread pool when numpy is first imported, so this must
# run before that; the pool workers inherit it.  A value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .alphabet import PmfError, _as_float, _is_integer, _is_real, build_family, parse_family
from .exact import (
    DegenerateVarianceError,
    MdpSchedule,
    abs_central_moment,
    exp_moment,
    exp_moment_envelope,
    population_summary,
    split_moment_bound,
)
from .montecarlo import (
    ConfigError,
    ExperimentConfig,
    parse_k_rule,
    run_be_sweep,
    run_clt,
    run_mdp,
)

SCHEMA_VERSION = "1.0.0"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3


# ---------------------------------------------------------------------------
# Canonical JSON: 17-significant-digit floats, stable key order, trailing \n.
# ---------------------------------------------------------------------------

def _format_float(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float {value!r} cannot enter a JSON payload")
    text = format(value, ".17g")
    if not any(c in text for c in ".eE"):
        text += ".0"
    return text


def _emit(obj: Any, indent: int, out: list[str]) -> None:
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (dict, list, tuple)):
        if isinstance(obj, dict):
            brackets, values = "{}", obj.values()
            prefixes: Iterable[str] = (f"{inner}{json.dumps(str(key))}: " for key in obj)
        else:
            brackets, values, prefixes = "[]", obj, itertools.repeat(inner)
        if not obj:
            out.append(brackets)
            return
        separator = "\n"
        out.append(brackets[0])
        for prefix, value in zip(prefixes, values):
            out += (separator, prefix)
            _emit(value, indent + 2, out)
            separator = ",\n"
        out.append("\n" + pad + brackets[1])
    # Last, so that no float of an array's list pays for these two checks.
    elif dataclasses.is_dataclass(obj):
        _emit({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, indent, out)
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), indent, out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def canonical_json(obj: Any) -> str:
    out: list[str] = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _write_record(
    args: argparse.Namespace,
    command: str,
    config: dict,
    results: Any,
    rows: Iterable[dict] | None = None,
) -> None:
    """Write the JSON record to ``--out`` (else stdout) and, given ``--csv``, its ``rows``.

    ``results`` may hold records and arrays.  The CSV has one line per row,
    headed by the row's keys; floats as repr, None as an empty field.
    """
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "results": results,
    }
    text = canonical_json(record)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if rows is not None and args.csv:
        rows = list(rows)
        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)


# ---------------------------------------------------------------------------
# Experiment settings: one table drives the flags, the config file, the type
# checks, the missing-option report and the echo.
# ---------------------------------------------------------------------------

class _Setting(NamedTuple):
    """One experiment setting: flag ``--name`` (``-`` for ``_``), config-file key ``name``."""

    name: str
    kind: str  # its JSON type: "integer", "number", "string" or "grid"
    default: Any  # None: the setting is required
    help: str
    # Worker count cannot change results, so it stays out of the echo and
    # cannot break byte-identity.
    echo: bool = True


_SETTINGS = (
    _Setting("family", "string", None, "parametric family kind (harmonic|expgeom|logharmonic|uniform)"),
    _Setting("K_rule", "string", None, "alphabet rule: fixed:K | pow:kappa | logpow:kappa"),
    _Setting("n_grid", "grid", None, "comma-separated sample sizes, strictly increasing"),
    _Setting("reps", "integer", None, "replicates per grid point (>= 100, <= 2^24)"),
    _Setting("seed", "integer", None, "64-bit master seed (required; no silent default)"),
    _Setting("delta", "number", 1.0, "moment exponent offset in [0, 1] (default 1); "
             "changes be's results only: clt and mdp check and echo it"),
    _Setting("sampler", "string", "multinomial", "categorical | multinomial (default multinomial)"),
    _Setting("workers", "integer", 1, "worker processes; never changes results (default 1)", echo=False),
)
_MDP_SETTINGS = (
    _Setting("mdp_rho", "number", None, "deviation scale exponent, b_n = n^rho, 0 < rho < 1/2"),
    _Setting("mdp_eps", "number", None, "epsilon in the summability condition (> 0)"),
    _Setting("mdp_r", "number", None, "exceedance threshold r (>= 0)"),
)


def _flag(setting: _Setting) -> str:
    return "--" + setting.name.replace("_", "-")


def _grid(text: str) -> list[int]:
    """The text of an ``--n-grid`` flag: comma-separated integers."""
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r}: entries must be integers") from None


# JSON type -> (its name in errors, the check every value must pass, the parser of flag text).
# JSON true/false load as bool, which _is_integer and _is_real refuse.
_JSON_TYPES = {
    "integer": ("an integer", _is_integer, int),
    "number": ("a number", _is_real, float),
    "string": ("a string", lambda v: isinstance(v, str), str),
    "grid": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_integer, v)), _grid),
}


def _load_config_file(path: str) -> dict:
    """The settings a JSON config file sets, each checked against its JSON type
    whatever the command (numbers become floats; null leaves a setting unset)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    settings = {s.name: s for s in _SETTINGS + _MDP_SETTINGS}
    unknown = set(data) - set(settings)
    if unknown:
        raise ConfigError(f"config file {path} has unknown keys: {sorted(unknown)}")
    values = {}
    for name, value in data.items():
        if value is None:
            continue
        kind = settings[name].kind
        what, check, _ = _JSON_TYPES[kind]
        if not check(value):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        values[name] = _as_float(name, value) if kind == "number" else value
    return values


def _resolve_experiment(args: argparse.Namespace) -> tuple[ExperimentConfig, dict]:
    """Merge flags over config-file values over defaults into an ExperimentConfig
    plus its canonical echo.  Values are never converted: flags are parsed
    to, and config-file values checked against, their setting's JSON type."""
    base = _load_config_file(args.config) if args.config else {}
    values: dict[str, Any] = {}
    for setting in args.settings:
        value = getattr(args, setting.name)
        values[setting.name] = base.get(setting.name, setting.default) if value is None else value
    missing = [_flag(s) for s in args.settings if values[s.name] is None]
    if missing:
        raise ConfigError(f"missing required options: {', '.join(missing)} (no silent defaults)")
    mdp = None
    if "mdp_r" in values:
        mdp = MdpSchedule(rho=values["mdp_rho"], epsilon=values["mdp_eps"], r=values["mdp_r"])
    config = ExperimentConfig(
        family=values["family"],
        k_rule=parse_k_rule(values["K_rule"]),
        n_grid=tuple(values["n_grid"]),
        replicates=values["reps"],
        master_seed=values["seed"],
        delta=values["delta"],
        sampler=values["sampler"],
        mdp=mdp,
        workers=values["workers"],
    )
    return config, {s.name: values[s.name] for s in args.settings if s.echo}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_describe(args: argparse.Namespace) -> int:
    spec = parse_family(args.family)
    delta = float(args.delta)
    pmf = build_family(spec)
    pop = population_summary(pmf)
    results: dict[str, Any] = {
        "K": pmf.size,
        "normalizer": pmf.normalizer,
        "ln_K": math.log(pmf.size),
        "entropy": pop.entropy,
        "sigma2": pop.sigma2,
        "sigma": pop.sigma,
        "degenerate": pop.degenerate,
        "abs_central_moment": abs_central_moment(pmf, delta),
        "split_moment_bound": split_moment_bound(pmf, delta),
    }
    notes: list[str] = []
    if pop.degenerate or delta <= 0.0:
        results["exp_moment"] = None
        results["exp_moment_envelope"] = None
        notes.append(
            "sigma is zero: exponential moments are undefined"
            if pop.degenerate
            else "delta is zero: exponential moments are trivially 1"
        )
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            moment = exp_moment(pmf, delta)
            envelope = exp_moment_envelope(pmf, delta)
        results["exp_moment"] = None if math.isinf(moment) else moment
        results["exp_moment_envelope"] = None if math.isinf(envelope) else envelope
        if math.isinf(moment) or math.isinf(envelope):
            notes.append("exponential moment overflowed float range for this delta")
        if delta / pop.sigma >= 1.0:
            notes.append("delta/sigma >= 1: the envelope is not uniform in K")
    results["notes"] = notes
    _write_record(args, "describe", {"family": args.family, "delta": delta}, results)
    return EXIT_OK


def _cmd_clt(args: argparse.Namespace) -> int:
    config, echo = _resolve_experiment(args)
    per_n = run_clt(config)
    rows = (
        {"n": e.n, "K": e.K, "rank": j, "z": z}
        for e in per_n
        for j, z in enumerate(e.z_samples.tolist())
    )
    _write_record(args, "clt", echo, {"experiments": per_n}, rows)
    return EXIT_OK


def _cmd_be(args: argparse.Namespace) -> int:
    config, echo = _resolve_experiment(args)
    sweep = run_be_sweep(config)
    _write_record(args, "be", echo, sweep, map(dataclasses.asdict, sweep.rows))
    return EXIT_OK


def _cmd_mdp(args: argparse.Namespace) -> int:
    config, echo = _resolve_experiment(args)
    cells = run_mdp(config)
    _write_record(args, "mdp", echo, {"cells": cells}, map(dataclasses.asdict, cells))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrokit",
        description="Plug-in entropy on growing alphabets: exact functionals and Monte Carlo checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_desc = sub.add_parser("describe", help="exact population summary of one distribution")
    p_desc.add_argument("--family", required=True, help="family string, e.g. harmonic:1000 or custom:probs.json")
    p_desc.add_argument("--delta", type=float, default=1.0, help="moment exponent offset in [0, 1]")
    p_desc.add_argument("--out", help="write the JSON record here instead of stdout")
    p_desc.set_defaults(func=_cmd_describe)

    experiments = (
        ("clt", "standardized-statistic experiment", _cmd_clt, _SETTINGS),
        ("be", "bound-shape sweep", _cmd_be, _SETTINGS),
        ("mdp", "moderate-deviation exceedance experiment", _cmd_mdp, _SETTINGS + _MDP_SETTINGS),
    )
    for name, help_text, func, settings in experiments:
        p_exp = sub.add_parser(name, help=help_text)
        for setting in settings:
            p_exp.add_argument(_flag(setting), type=_JSON_TYPES[setting.kind][2], help=setting.help)
        p_exp.add_argument("--config", help="JSON config file mirroring these flags (flags win)")
        p_exp.add_argument("--out", help="write the JSON record here instead of stdout")
        p_exp.add_argument("--csv", help="also write a CSV convenience export here")
        p_exp.set_defaults(func=func, settings=settings)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.func(args)
    except DegenerateVarianceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ConfigError, PmfError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wall time: {time.perf_counter() - started:.3f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
