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
import json
import math
import sys
import time
import warnings
from pathlib import Path
from typing import Any, Sequence

from .alphabet import PmfError, build_family, parse_family
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
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f"{inner}{json.dumps(str(key))}: ")
            _emit(value, indent + 2, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(inner)
            _emit(value, indent + 2, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def canonical_json(obj: Any) -> str:
    out: list[str] = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _write_output(record: dict, out_path: str | None) -> None:
    text = canonical_json(record)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_csv(path: str, rows: Sequence[dict]) -> None:
    """One line per record row, headed by its keys; floats as repr, None as an empty field."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Configuration assembly (flags over config-file values).
# ---------------------------------------------------------------------------

_CONFIG_KEYS = (
    "family",
    "K_rule",
    "n_grid",
    "reps",
    "seed",
    "delta",
    "sampler",
    "workers",
    "mdp_rho",
    "mdp_eps",
    "mdp_r",
)


def _load_config_file(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(data) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"config file {path} has unknown keys: {sorted(unknown)}")
    return data


def _parse_n_grid(raw: Any) -> tuple[int, ...]:
    if isinstance(raw, str):
        parts = [p for p in raw.split(",") if p.strip()]
        try:
            return tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"--n-grid {raw!r}: entries must be integers") from exc
    if isinstance(raw, (list, tuple)):
        if not all(_is_integer(v) for v in raw):
            raise ConfigError("n_grid in a config file must be a list of integers")
        return tuple(raw)
    raise ConfigError(f"cannot interpret n_grid value {raw!r}")


def _is_integer(value: Any) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(name: str, value: Any) -> int:
    """A config value that must be a JSON integer; nothing is truncated or parsed."""
    if not _is_integer(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _number(name: str, value: Any) -> float:
    """A config value that must be a JSON number (integer or float)."""
    if not (_is_integer(value) or isinstance(value, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _resolve_experiment(args: argparse.Namespace, want_mdp: bool) -> tuple[ExperimentConfig, dict]:
    """Merge config file and flags into an ExperimentConfig plus its canonical echo."""
    base = _load_config_file(args.config) if args.config else {}

    def pick(flag_value, key):
        return flag_value if flag_value is not None else base.get(key)

    family = pick(args.family, "family")
    rule_text = pick(args.K_rule, "K_rule")
    n_grid_raw = pick(args.n_grid, "n_grid")
    reps = pick(args.reps, "reps")
    seed = pick(args.seed, "seed")
    delta = pick(args.delta, "delta")
    sampler = pick(args.sampler, "sampler")
    workers = pick(args.workers, "workers")

    missing = [
        name
        for name, value in (
            ("--family", family),
            ("--K-rule", rule_text),
            ("--n-grid", n_grid_raw),
            ("--reps", reps),
            ("--seed", seed),
        )
        if value is None
    ]
    if missing:
        raise ConfigError(f"missing required options: {', '.join(missing)} (no silent defaults)")

    reps = _integer("reps", reps)
    seed = _integer("seed", seed)
    delta = 1.0 if delta is None else _number("delta", delta)
    sampler = sampler or "multinomial"
    workers = 1 if workers is None else _integer("workers", workers)
    n_grid = _parse_n_grid(n_grid_raw)
    rule = parse_k_rule(str(rule_text))

    mdp = None
    echo: dict[str, Any] = {
        "family": str(family),
        "K_rule": str(rule_text),
        "n_grid": list(n_grid),
        "reps": reps,
        "seed": seed,
        "delta": delta,
        "sampler": str(sampler),
    }
    if want_mdp:
        rho = pick(args.mdp_rho, "mdp_rho")
        eps = pick(args.mdp_eps, "mdp_eps")
        r = pick(args.mdp_r, "mdp_r")
        missing_mdp = [
            name
            for name, value in (("--mdp-rho", rho), ("--mdp-eps", eps), ("--mdp-r", r))
            if value is None
        ]
        if missing_mdp:
            raise ConfigError(f"missing required options: {', '.join(missing_mdp)}")
        rho = _number("mdp_rho", rho)
        eps = _number("mdp_eps", eps)
        r = _number("mdp_r", r)
        try:
            mdp = MdpSchedule(rho=rho, epsilon=eps, r=r)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        echo["mdp_rho"] = rho
        echo["mdp_eps"] = eps
        echo["mdp_r"] = r

    try:
        config = ExperimentConfig(
            family=str(family),
            k_rule=rule,
            n_grid=n_grid,
            replicates=reps,
            master_seed=seed,
            delta=delta,
            sampler=str(sampler),
            mdp=mdp,
            workers=workers,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # The echo carries the experiment definition only: worker count and
    # output paths cannot change results and must not break byte-identity.
    return config, echo


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
    if pop.degenerate:
        results["exp_moment"] = None
        results["exp_moment_envelope"] = None
        notes.append("sigma is zero: exponential moments are undefined")
    elif delta <= 0.0:
        results["exp_moment"] = None
        results["exp_moment_envelope"] = None
        notes.append("delta is zero: exponential moments are trivially 1")
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
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "describe",
        "config": {"family": args.family, "delta": delta},
        "results": results,
    }
    _write_output(record, args.out)
    return EXIT_OK


def _cmd_clt(args: argparse.Namespace) -> int:
    config, echo = _resolve_experiment(args, want_mdp=False)
    summaries = run_clt(config)
    per_n = []
    for s in summaries:
        per_n.append(
            {
                "n": s.n,
                "K": s.size,
                "replicates": s.replicates,
                "entropy": s.entropy,
                "sigma": s.sigma,
                "ks_distance": s.ks_distance,
                "z_mean": s.z_mean,
                "z_var": s.z_var,
                "mean_kl_term": s.mean_kl,
                "mean_chi2_term": s.mean_chi2,
                "expected_chi2_mean": (s.size - 1) / s.n,
                "z_samples": [float(z) for z in s.z_samples],
            }
        )
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "clt",
        "config": echo,
        "results": {"experiments": per_n},
    }
    _write_output(record, args.out)
    if args.csv:
        rows = [
            {"n": e["n"], "K": e["K"], "rank": j, "z": z}
            for e in per_n
            for j, z in enumerate(e["z_samples"])
        ]
        _write_csv(args.csv, rows)
    return EXIT_OK


def _cmd_be(args: argparse.Namespace) -> int:
    config, echo = _resolve_experiment(args, want_mdp=False)
    sweep = run_be_sweep(config)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "be",
        "config": echo,
        "results": {
            "rows": [
                {
                    "n": r.n,
                    "K": r.size,
                    "ks_distance": r.ks_distance,
                    "bound_shape": r.bound_shape,
                    "ratio": r.ratio,
                }
                for r in sweep.rows
            ],
            "noise_band": sweep.noise_band,
            "noise_inversions": sweep.noise_inversions,
            "hard_violations": sweep.hard_violations,
            "ks_nonincreasing": sweep.ks_nonincreasing,
        },
    }
    _write_output(record, args.out)
    if args.csv:
        _write_csv(args.csv, record["results"]["rows"])
    return EXIT_OK


def _cmd_mdp(args: argparse.Namespace) -> int:
    config, echo = _resolve_experiment(args, want_mdp=True)
    cells = run_mdp(config)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "mdp",
        "config": echo,
        "results": {
            "cells": [
                {
                    "n": c.n,
                    "K": c.size,
                    "b_n": c.scale,
                    "threshold": c.threshold,
                    "replicates_used": c.replicates_used,
                    "exceedances": c.exceedances,
                    "p_hat": c.p_hat,
                    "scaled_log_prob": c.scaled_log_prob,
                    "target": c.target,
                    "condition_value": c.condition_value,
                    "flag": c.flag,
                }
                for c in cells
            ]
        },
    }
    _write_output(record, args.out)
    if args.csv:
        _write_csv(args.csv, record["results"]["cells"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_experiment_flags(parser: argparse.ArgumentParser, mdp: bool) -> None:
    parser.add_argument("--family", help="parametric family kind (harmonic|expgeom|logharmonic|uniform)")
    parser.add_argument("--K-rule", dest="K_rule", help="alphabet rule: fixed:K | pow:kappa | logpow:kappa")
    parser.add_argument("--n-grid", dest="n_grid", help="comma-separated sample sizes, strictly increasing")
    parser.add_argument("--reps", type=int, help="replicates per grid point (>= 100)")
    parser.add_argument("--seed", type=int, help="64-bit master seed (required; no silent default)")
    parser.add_argument("--delta", type=float, help="moment exponent offset in [0, 1] (default 1)")
    parser.add_argument("--sampler", choices=("categorical", "multinomial"), help="count sampler (default multinomial)")
    parser.add_argument("--workers", type=int, help="worker processes; never changes results (default 1)")
    parser.add_argument("--config", help="JSON config file mirroring these flags (flags win)")
    parser.add_argument("--out", help="write the JSON record here instead of stdout")
    parser.add_argument("--csv", help="also write a CSV convenience export here")
    if mdp:
        parser.add_argument("--mdp-rho", dest="mdp_rho", type=float, help="deviation scale exponent, b_n = n^rho, 0 < rho < 1/2")
        parser.add_argument("--mdp-eps", dest="mdp_eps", type=float, help="epsilon in the summability condition (> 0)")
        parser.add_argument("--mdp-r", dest="mdp_r", type=float, help="exceedance threshold r (>= 0)")


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

    p_clt = sub.add_parser("clt", help="standardized-statistic experiment")
    _add_experiment_flags(p_clt, mdp=False)
    p_clt.set_defaults(func=_cmd_clt)

    p_be = sub.add_parser("be", help="bound-shape sweep")
    _add_experiment_flags(p_be, mdp=False)
    p_be.set_defaults(func=_cmd_be)

    p_mdp = sub.add_parser("mdp", help="moderate-deviation exceedance experiment")
    _add_experiment_flags(p_mdp, mdp=True)
    p_mdp.set_defaults(func=_cmd_mdp)
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
