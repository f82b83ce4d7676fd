"""Plug-in Shannon entropy on growing finite alphabets.

Exact population functionals of explicit finite distributions, a
reproducible multinomial sampling core with two cross-validating
samplers, the exact error decomposition of the plug-in estimator, and
deterministic Monte Carlo experiments for its distributional behavior.
"""

from .alphabet import (
    CUSTOM,
    EXP_GEOMETRIC,
    FAMILY_KINDS,
    HARMONIC,
    LOG_HARMONIC,
    UNIFORM,
    FamilySpec,
    Pmf,
    PmfError,
    build_family,
    load_custom_pmf,
    parse_family,
    validate_pmf,
)
from .exact import (
    DegenerateVarianceError,
    MdpSchedule,
    PopulationSummary,
    abs_central_moment,
    berry_esseen_shape,
    entropy,
    exp_moment,
    exp_moment_envelope,
    lindeberg_residual,
    mdp_condition,
    normal_cdf,
    population_summary,
    split_moment_bound,
)
from .estimator import (
    DecompositionReport,
    decompose,
    plugin_entropy,
)
from .montecarlo import (
    BeSweepResult,
    BeSweepRow,
    ConfigError,
    EcdfSummary,
    ExperimentConfig,
    InvariantViolation,
    KRule,
    MdpCell,
    ks_distance,
    parse_k_rule,
    run_be_sweep,
    run_clt,
    run_mdp,
)
from .sampling import (
    CountVector,
    derive_stream_seeds,
    sample_counts_categorical,
    sample_counts_multinomial,
)

__version__ = "0.1.0"

__all__ = [
    "BeSweepResult",
    "BeSweepRow",
    "ConfigError",
    "CountVector",
    "CUSTOM",
    "DecompositionReport",
    "DegenerateVarianceError",
    "EcdfSummary",
    "entropy",
    "EXP_GEOMETRIC",
    "ExperimentConfig",
    "FAMILY_KINDS",
    "FamilySpec",
    "HARMONIC",
    "InvariantViolation",
    "KRule",
    "LOG_HARMONIC",
    "MdpCell",
    "MdpSchedule",
    "Pmf",
    "PmfError",
    "PopulationSummary",
    "UNIFORM",
    "abs_central_moment",
    "berry_esseen_shape",
    "build_family",
    "decompose",
    "derive_stream_seeds",
    "exp_moment",
    "exp_moment_envelope",
    "ks_distance",
    "lindeberg_residual",
    "load_custom_pmf",
    "mdp_condition",
    "normal_cdf",
    "parse_family",
    "parse_k_rule",
    "plugin_entropy",
    "population_summary",
    "run_be_sweep",
    "run_clt",
    "run_mdp",
    "sample_counts_categorical",
    "sample_counts_multinomial",
    "split_moment_bound",
    "validate_pmf",
    "__version__",
]
