"""Plug-in Shannon entropy on growing finite alphabets.

Exact population functionals of explicit finite distributions, a
reproducible multinomial sampling core with two cross-validating
samplers, the exact error decomposition of the plug-in estimator, and
deterministic Monte Carlo experiments for its distributional behavior.

Public names resolve lazily (PEP 562): ``import entrokit`` imports no
submodule, and so no numpy; the first use of a name, or of a submodule
such as ``entrokit.exact``, imports that submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "CUSTOM": "alphabet",
    "EXP_GEOMETRIC": "alphabet",
    "FAMILY_KINDS": "alphabet",
    "HARMONIC": "alphabet",
    "LOG_HARMONIC": "alphabet",
    "UNIFORM": "alphabet",
    "FamilySpec": "alphabet",
    "Pmf": "alphabet",
    "PmfError": "alphabet",
    "build_family": "alphabet",
    "load_custom_pmf": "alphabet",
    "parse_family": "alphabet",
    "validate_pmf": "alphabet",
    "DegenerateVarianceError": "exact",
    "MdpSchedule": "exact",
    "PopulationSummary": "exact",
    "abs_central_moment": "exact",
    "berry_esseen_shape": "exact",
    "entropy": "exact",
    "exp_moment": "exact",
    "exp_moment_envelope": "exact",
    "mdp_condition": "exact",
    "normal_cdf": "exact",
    "population_summary": "exact",
    "split_moment_bound": "exact",
    "DecompositionReport": "estimator",
    "decompose": "estimator",
    "plugin_entropy": "estimator",
    "BeSweepResult": "montecarlo",
    "BeSweepRow": "montecarlo",
    "ConfigError": "montecarlo",
    "EcdfSummary": "montecarlo",
    "ExperimentConfig": "montecarlo",
    "InvariantViolation": "montecarlo",
    "KRule": "montecarlo",
    "MdpCell": "montecarlo",
    "ks_distance": "montecarlo",
    "parse_k_rule": "montecarlo",
    "run_be_sweep": "montecarlo",
    "run_clt": "montecarlo",
    "run_mdp": "montecarlo",
    "CountVector": "sampling",
    "derive_stream_seeds": "sampling",
    "sample_counts_categorical": "sampling",
    "sample_counts_multinomial": "sampling",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> object:
    if name in _EXPORTS.values():
        return import_module(f".{name}", __name__)
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS.values()})
