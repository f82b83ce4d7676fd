"""Replicated experiments for the distributional behavior of the plug-in estimator.

Three experiment types over an alphabet-growth rule ``K(n)``:

* ``run_clt``       — standardized-statistic samples and their
  Kolmogorov-Smirnov distance to the standard normal, per grid point;
* ``run_be_sweep``  — the same KS distances against the constant-free
  normal-approximation bound shape, with a monotonicity report;
* ``run_mdp``       — empirical moderate-deviation exceedance rates on the
  scale ``b_n = n^rho`` against the quadratic rate target ``-r^2/2``.

Standardization always uses the exact per-n entropy and sigma from the
population functionals, never sample estimates.  Replicates are keyed by
stream index (grid position * 2^32 + replicate); a worker chunk is a range
of consecutive indices, and chunks are joined in index order, so results
are bit-identical for a fixed master seed at any worker count.  A run
draws its replicates through one source (``_replicates``), which holds at
most one process pool, sized for the run's largest grid point, and shuts
it down when the run returns or raises.  Every
replicate re-checks the decomposition identity and the KL/chi-square
sandwich; each chunk tests them over its rows at once and raises for the
first failing replicate in stream order.

The result records (``EcdfSummary``, ``BeSweepResult``, ``BeSweepRow``,
``MdpCell``) are the CLI payload: their field names, in order, are its keys.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .alphabet import (
    EXP_GEOMETRIC,
    HARMONIC,
    LOG_HARMONIC,
    MAX_ALPHABET_SIZE,
    UNIFORM,
    FamilySpec,
    Pmf,
    build_family,
)
from .exact import (
    DegenerateVarianceError,
    MdpSchedule,
    PopulationSummary,
    berry_esseen_shape,
    entropy,
    mdp_condition,
    normal_cdf,
    population_summary,
)
from .estimator import decompose
from .sampling import (
    MAX_TOTAL,
    _is_integer,
    _is_real,
    derive_stream_seeds,
    sample_counts_categorical,
    sample_counts_multinomial,
)

RULE_KINDS = ("fixed", "pow", "logpow")
SAMPLERS = ("categorical", "multinomial")
PARAMETRIC_FAMILIES = (HARMONIC, EXP_GEOMETRIC, LOG_HARMONIC, UNIFORM)

# Replicate streams: grid point g owns indices [g * 2^32, (g+1) * 2^32).
_GRID_STRIDE = 1 << 32
# A run holds about 180 bytes per replicate of a grid point (about 3 GB at
# this cap), so it uses only the first 2^24 streams of each.
_MAX_REPLICATES = 1 << 24
# Identity |(plugin - H) - (linear - kl)| must close to this per replicate.
_IDENTITY_TOL = 1e-12
# Upper quantile multiplier of the KS null distribution, used as the
# monotonicity noise band (two deviations): 2 * 1.36 / sqrt(M).
_KS_NULL_95 = 1.36
_WORKER_CHUNK = 256
# A pool task carries about 1/_TASKS_PER_PROCESS of one process's share of a
# grid point's chunks.
_TASKS_PER_PROCESS = 4
# An mdp cell is infeasible when its Gaussian sizing asks for more than
# max(this, replicates) replicates.
_MDP_MAX_REPLICATES = 200_000
# The categorical sampler draws n symbols per replicate, at 14-35 ns a draw
# (K=2 to 1e6, 2-vCPU Xeon), so a grid point is refused above this many draws
# (4-11 hours); the chain's cost does not depend on n.
_MAX_CATEGORICAL_DRAWS = 1 << 40
# This process's current grid point, {spec: Pmf}: a worker keeps it, and so its
# per-Pmf tables, across tasks; forked workers start with the parent's.
_points: dict[FamilySpec, Pmf] = {}
# simulate(spec, n, grid_index, count): the (z, kl, chi2) rows of a grid point.
_Simulate = Callable[[FamilySpec, int, int, int], np.ndarray]


class ConfigError(ValueError):
    """An experiment configuration violates its contract."""


class InvariantViolation(AssertionError):
    """A per-replicate identity or inequality failed inside an experiment."""


@dataclass(frozen=True)
class KRule:
    """Alphabet growth rule: fixed K, ``floor(n^value)``, or ``floor((ln n)^value)``."""

    kind: str
    value: float

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ConfigError(f"unknown K rule kind {self.kind!r}; expected one of {RULE_KINDS}")
        if not (_is_real(self.value) and -math.inf < self.value < math.inf):
            raise ConfigError(f"K rule {self.kind}:{self.value!r} needs a finite int or float")
        if self.kind == "fixed":
            if self.value < 1 or self.value != int(self.value):
                raise ConfigError(f"fixed K rule needs a positive integer, got {self.value}")
        elif self.value <= 0.0:
            raise ConfigError(f"{self.kind} K rule needs a positive exponent, got {self.value}")

    def alphabet_size(self, n: int) -> int:
        if self.kind == "fixed":
            return int(self.value)
        base = float(n) if self.kind == "pow" else math.log(n)
        try:
            return int(math.floor(base**self.value))
        except OverflowError:
            raise ConfigError(f"K rule {self.render()} gives K beyond float range at n={n}") from None

    def render(self) -> str:
        if self.kind == "fixed":
            return f"fixed:{int(self.value)}"
        return f"{self.kind}:{self.value!r}"


def parse_k_rule(text: str) -> KRule:
    """Parse ``fixed:K`` | ``pow:kappa`` | ``logpow:kappa``."""
    if not isinstance(text, str):
        raise ConfigError(f"K rule must be a string such as fixed:K, got {text!r}")
    kind, sep, arg = text.partition(":")
    kind = kind.strip().lower()
    if not sep or kind not in RULE_KINDS:
        raise ConfigError(f"K rule {text!r} must look like fixed:K, pow:kappa or logpow:kappa")
    try:
        value = float(arg)
    except ValueError as exc:
        raise ConfigError(f"K rule {text!r}: {arg!r} is not a number") from exc
    return KRule(kind, value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Family rule, sample-size grid, replicate count, and seeding for one experiment."""

    family: str
    k_rule: KRule
    n_grid: tuple[int, ...]
    replicates: int
    master_seed: int
    delta: float = 1.0
    sampler: str = "multinomial"
    mdp: MdpSchedule | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.family not in PARAMETRIC_FAMILIES:
            raise ConfigError(
                f"experiments take a parametric family {PARAMETRIC_FAMILIES}, got {self.family!r}"
            )
        for value in (*self.n_grid, self.replicates, self.master_seed, self.workers):
            if not _is_integer(value):
                raise ConfigError(f"n_grid, replicates, master_seed and workers take integers, got {value!r}")
        for name in ("replicates", "master_seed", "workers"):
            object.__setattr__(self, name, int(getattr(self, name)))
        grid = tuple(map(int, self.n_grid))
        if not grid:
            raise ConfigError("n_grid must be non-empty")
        if any(n < 1 for n in grid):
            raise ConfigError("n_grid entries must be >= 1")
        if any(n > MAX_TOTAL for n in grid):
            raise ConfigError("n_grid entries must be <= 2^62, the samplers' domain")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("n_grid must be strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        if self.replicates < 100:
            raise ConfigError(
                f"replicates must be >= 100 for any distributional summary, got {self.replicates}"
            )
        if self.replicates > _MAX_REPLICATES:
            raise ConfigError(f"replicates must be <= 2^24 per grid point, got {self.replicates}")
        if not 0 <= self.master_seed <= (1 << 64) - 1:
            raise ConfigError("master_seed must be a 64-bit unsigned integer")
        if not _is_real(self.delta):
            raise ConfigError(f"delta takes an int or a float, got {self.delta!r}")
        if not 0 <= self.delta <= 1:
            raise ConfigError(f"delta must lie in [0, 1], got {self.delta}")
        object.__setattr__(self, "delta", float(self.delta))
        if self.sampler not in SAMPLERS:
            raise ConfigError(f"sampler must be one of {SAMPLERS}, got {self.sampler!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        for n in grid:
            size = self.k_rule.alphabet_size(n)
            if not 2 <= size <= MAX_ALPHABET_SIZE:
                need = "need K >= 2" if size < 2 else f"the cap is {MAX_ALPHABET_SIZE}"
                raise ConfigError(f"K rule {self.k_rule.render()} gives K={size} at n={n}; {need}")
        reps = self.replicates if self.mdp is None else max(self.replicates, _MDP_MAX_REPLICATES)
        if self.sampler == "categorical" and grid[-1] * reps > _MAX_CATEGORICAL_DRAWS:
            raise ConfigError(
                f"the categorical sampler would make {grid[-1] * reps:.3g} draws at n={grid[-1]} "
                f"({reps} replicates), above its budget of 2^40; "
                f"--sampler multinomial costs O(K) per replicate whatever n"
            )


@dataclass(frozen=True)
class EcdfSummary:
    """Standardized-statistic sample for one grid point, with its KS distance.

    ``expected_chi2_mean`` is (K-1)/n, the mean of the chi-square term.
    """

    n: int
    K: int
    replicates: int
    entropy: float
    sigma: float
    ks_distance: float
    z_mean: float
    z_var: float
    mean_kl_term: float
    mean_chi2_term: float
    expected_chi2_mean: float
    z_samples: np.ndarray  # sorted ascending


@dataclass(frozen=True)
class BeSweepRow:
    n: int
    K: int
    ks_distance: float
    bound_shape: float
    ratio: float


@dataclass(frozen=True)
class BeSweepResult:
    """Bound-shape sweep plus a KS monotonicity report.

    An adjacent KS increase within ``noise_band`` counts as a tolerated
    Monte Carlo inversion; anything larger is a hard violation.
    ``ks_nonincreasing`` holds with no hard violation and at most one
    inversion.
    """

    rows: tuple[BeSweepRow, ...]
    noise_band: float
    noise_inversions: int
    hard_violations: int
    ks_nonincreasing: bool


@dataclass(frozen=True)
class MdpCell:
    """One (n, r) moderate-deviation cell.

    ``scaled_log_prob`` is ``ln(p_hat) / b_n^2`` and is only present when
    exceedances were observed; infeasible cells are flagged, never filled
    with fabricated numbers.
    """

    n: int
    K: int
    b_n: float
    threshold: float
    replicates_used: int
    exceedances: int
    p_hat: float | None
    scaled_log_prob: float | None
    target: float
    condition_value: float
    flag: str  # "ok" | "no-exceedances" | "infeasible"


def ks_distance(sorted_samples: Sequence[float] | np.ndarray) -> float:
    """Exact sup distance between the sample ECDF and the standard normal CDF.

    Evaluated at the ECDF jump points: ``max_j max(j/M - Phi(z_j),
    Phi(z_j) - (j-1)/M)`` for ascending samples.
    """
    z = np.asarray(sorted_samples, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("ks_distance needs a non-empty 1-d sample")
    if np.isnan(z).any():  # NaN compares false, so it would pass the order check
        raise ValueError("samples must not be NaN")
    if np.any(np.diff(z) < 0.0):
        raise ValueError("samples must be sorted ascending")
    m = z.size
    phi = np.array([normal_cdf(float(v)) for v in z])
    steps = np.arange(1, m + 1, dtype=np.float64)
    d_plus = float(np.max(steps / m - phi))
    d_minus = float(np.max(phi - (steps - 1.0) / m))
    return max(d_plus, d_minus)


def _family(spec: FamilySpec) -> Pmf:
    """The Pmf of a parametric ``spec``, built once while it is this process's grid point."""
    pmf = _points.get(spec)
    if pmf is None:
        _points.clear()  # the previous grid point's Pmf dies before the next is built
        pmf = _points[spec] = build_family(spec)
    return pmf


def _replicate_chunk(
    spec: FamilySpec, n: int, sampler: str, master_seed: int, first: int, count: int
) -> np.ndarray:
    """Worker body: the (z, kl, chi2) rows of stream indices ``first .. first+count-1``.

    The identity and the sandwich are checked over the whole chunk at once;
    the first failing replicate in stream order raises, for the identity
    before the sandwich.
    """
    pmf = _family(spec)
    sample = sample_counts_categorical if sampler == "categorical" else sample_counts_multinomial
    h = entropy(pmf)
    seeds = derive_stream_seeds(master_seed, first, count).tolist()
    reps = [decompose(sample(pmf, n, seed), pmf) for seed in seeds]
    cols = np.array(
        [(r.standardized, r.kl_term, r.chi2_term, r.plugin_entropy, r.linear_term) for r in reps],
        dtype=np.float64,
    )
    _, kl, chi2, plugin, linear = cols.T
    identity = np.abs((plugin - h) - (linear - kl)) > _IDENTITY_TOL
    sandwich = (kl < 0.0) | (kl > chi2 + _IDENTITY_TOL)
    failed = identity | sandwich
    if failed.any():
        j = int(np.argmax(failed))
        rep, seed = reps[j], seeds[j]
        if identity[j]:
            raise InvariantViolation(
                f"decomposition identity failed at n={n}, seed={seed}: "
                f"gap={rep.plugin_entropy - h!r} vs linear-kl={rep.linear_term - rep.kl_term!r}"
            )
        raise InvariantViolation(
            f"KL/chi-square sandwich failed at n={n}, seed={seed}: "
            f"kl={rep.kl_term!r}, chi2={rep.chi2_term!r}"
        )
    return cols[:, :3].copy()


def _pool_size(workers: int, replicates: int) -> int:
    """Processes worth starting for grid points of up to ``replicates``
    replicates: no more than their chunks or the host's CPUs."""
    return min(workers, -(-replicates // _WORKER_CHUNK), os.cpu_count() or 1)


@contextlib.contextmanager
def _replicates(config: ExperimentConfig, largest: int) -> Iterator[_Simulate]:
    """The replicate source of one run whose largest grid point has ``largest``
    replicates: yields ``simulate``.

    The run owns at most one process pool, sized by :func:`_pool_size` for
    its largest grid point; a grid point of one chunk runs in this process.
    When the run returns or raises the pool is shut down, waiting for its
    workers, and the grid point is dropped.
    """
    processes = _pool_size(config.workers, largest)
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=processes) if processes > 1 else None

    def simulate(spec: FamilySpec, n: int, grid_index: int, count: int) -> np.ndarray:
        """Replicates ``0 .. count-1`` of grid point ``grid_index`` as ``(count, 3)``
        rows of (z, kl, chi2): replicate j reads stream index
        ``grid_index * 2^32 + j``, in chunks of ``_WORKER_CHUNK`` indices joined
        in stream order.  A pool task covers about ``1 / _TASKS_PER_PROCESS``
        of a process's share of the chunks, and names the Pmf by ``spec``,
        which :func:`_family` builds once per grid point in each process."""
        first = grid_index * _GRID_STRIDE
        starts = range(first, first + count, _WORKER_CHUNK)
        sizes = [min(_WORKER_CHUNK, first + count - start) for start in starts]
        body = partial(_replicate_chunk, spec, n, config.sampler, config.master_seed)
        if pool is None or len(sizes) < 2:
            parts = list(map(body, starts, sizes))
        else:
            chunksize = -(-len(sizes) // (_TASKS_PER_PROCESS * min(processes, len(sizes))))
            parts = list(pool.map(body, starts, sizes, chunksize=chunksize))
        return np.concatenate(parts)

    try:
        yield simulate
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        _points.clear()


def _grid_point(config: ExperimentConfig, n: int) -> tuple[FamilySpec, Pmf, PopulationSummary]:
    size = config.k_rule.alphabet_size(n)  # in [2, MAX_ALPHABET_SIZE], checked with the config
    spec = FamilySpec(config.family, size)
    pmf = _family(spec)
    pop = population_summary(pmf)
    if pop.degenerate:
        raise DegenerateVarianceError(
            f"family {config.family} at K={size} has zero log-probability variance"
        )
    return spec, pmf, pop


def _clt_points(
    config: ExperimentConfig, simulate: _Simulate
) -> Iterator[tuple[Pmf, EcdfSummary]]:
    """Each grid point's Pmf with its standardized-statistic summary, in grid order."""
    for gi, n in enumerate(config.n_grid):
        spec, pmf, pop = _grid_point(config, n)
        m = config.replicates
        z, kl, chi2 = simulate(spec, n, gi, m).T
        z_sorted = np.sort(z)
        z_sorted.flags.writeable = False
        mean = float(np.mean(z))
        var = float(np.sum((z - mean) ** 2) / (m - 1))
        yield pmf, EcdfSummary(
            n=n,
            K=pmf.size,
            replicates=m,
            entropy=pop.entropy,
            sigma=pop.sigma,
            ks_distance=ks_distance(z_sorted),
            z_mean=mean,
            z_var=var,
            mean_kl_term=float(np.mean(kl)),
            mean_chi2_term=float(np.mean(chi2)),
            expected_chi2_mean=(pmf.size - 1) / n,
            z_samples=z_sorted,
        )


def run_clt(config: ExperimentConfig) -> list[EcdfSummary]:
    """Standardized-statistic experiment: one EcdfSummary per grid point.

    Deterministic for a fixed master seed; replicate j at grid point g
    uses stream index ``g * 2^32 + j``.
    """
    with _replicates(config, config.replicates) as simulate:
        return [summary for _, summary in _clt_points(config, simulate)]


def run_be_sweep(config: ExperimentConfig) -> BeSweepResult:
    """KS distance against the bound shape along the grid, with monotonicity report."""
    rows = []
    with _replicates(config, config.replicates) as simulate:
        for pmf, summary in _clt_points(config, simulate):
            shape = berry_esseen_shape(pmf, summary.n, config.delta)
            rows.append(
                BeSweepRow(
                    n=summary.n,
                    K=summary.K,
                    ks_distance=summary.ks_distance,
                    bound_shape=shape,
                    ratio=summary.ks_distance / shape,
                )
            )
    band = 2.0 * _KS_NULL_95 / math.sqrt(config.replicates)
    noise = 0
    hard = 0
    for prev, cur in zip(rows, rows[1:]):
        rise = cur.ks_distance - prev.ks_distance
        if rise <= 0.0:
            continue
        if rise <= band:
            noise += 1
        else:
            hard += 1
    return BeSweepResult(
        rows=tuple(rows),
        noise_band=band,
        noise_inversions=noise,
        hard_violations=hard,
        ks_nonincreasing=hard == 0 and noise <= 1,
    )


def _mdp_replicates(schedule: MdpSchedule, replicates: int, n: int) -> int:
    """Replicates of the mdp cell at ``n`` for ~20 expected exceedances under
    the Gaussian approximation, or 0 if that is infeasible.  The tail is taken
    without cancellation, and compared before dividing, as 20/p overflows
    for a subnormal p (threshold near 38)."""
    p_gauss = 2.0 * normal_cdf(-schedule.r * schedule.scale(n))
    if 20.0 > max(_MDP_MAX_REPLICATES, replicates) * p_gauss:
        return 0
    return max(replicates, math.ceil(20.0 / p_gauss))


def run_mdp(config: ExperimentConfig) -> list[MdpCell]:
    """Moderate-deviation exceedance experiment over the grid.

    The replicate count is auto-raised per cell until the Gaussian-
    approximation expected exceedance count reaches 20; cells that would
    need more than max(200 000, replicates) are flagged infeasible and not
    sampled.  Every cell is sized before any is sampled, so the run's pool
    fits its largest cell.  Cells with zero observed exceedances are flagged
    rather than given a fabricated probability.
    """
    if config.mdp is None:
        raise ConfigError("run_mdp requires an MdpSchedule on the configuration")
    schedule = config.mdp
    sizes = [_mdp_replicates(schedule, config.replicates, n) for n in config.n_grid]
    cells = []
    with _replicates(config, max(sizes)) as simulate:
        for gi, (n, m_used) in enumerate(zip(config.n_grid, sizes)):
            spec, pmf, _ = _grid_point(config, n)
            b = schedule.scale(n)
            threshold = schedule.r * b
            target = -0.5 * schedule.r**2
            condition = mdp_condition(pmf, n, schedule)
            if m_used:
                z = simulate(spec, n, gi, m_used)[:, 0]
                exceedances = int(np.sum(np.abs(z) > threshold))
                flag = "ok" if exceedances else "no-exceedances"
            else:
                exceedances, flag = 0, "infeasible"
            p_hat = exceedances / m_used if exceedances else None
            cells.append(
                MdpCell(
                    n=n,
                    K=pmf.size,
                    b_n=b,
                    threshold=threshold,
                    replicates_used=m_used,
                    exceedances=exceedances,
                    p_hat=p_hat,
                    scaled_log_prob=None if p_hat is None else math.log(p_hat) / b**2,
                    target=target,
                    condition_value=condition,
                    flag=flag,
                )
            )
    return cells
