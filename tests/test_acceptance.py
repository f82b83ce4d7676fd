"""Acceptance gate: one test per criterion, each printing its own PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criteria mixing exact oracle equivalence with Monte Carlo use fixed seeds
throughout, so every number below is reproducible bit for bit.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

import entrokit
from entrokit.alphabet import (
    EXP_GEOMETRIC,
    HARMONIC,
    LOG_HARMONIC,
    FamilySpec,
    build_family,
    validate_pmf,
)
from entrokit.estimator import decompose
from entrokit.exact import (
    MdpSchedule,
    abs_central_moment,
    entropy,
    exp_moment,
    population_summary,
)
from entrokit.montecarlo import (
    ExperimentConfig,
    parse_k_rule,
    run_be_sweep,
    run_clt,
    run_mdp,
)
from entrokit.sampling import (
    derive_stream_seeds,
    sample_counts_categorical,
    sample_counts_multinomial,
)

from oracles import mp_abs_central_moment, mp_entropy, mp_exp_moment, mp_sigma2, random_pmf

MASTER_SEED = 20250808


def report(cid: int, ok: bool, detail: str) -> None:
    print(f"criterion {cid:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {cid}: {detail}"


@pytest.fixture(scope="module")
def clt_experiment():
    """Criterion-5 experiment, shared by criteria 5, 6 and 7."""
    config = ExperimentConfig(
        family=HARMONIC,
        k_rule=parse_k_rule("pow:0.3333333333333333"),
        n_grid=(10**5,),
        replicates=2000,
        master_seed=MASTER_SEED,
    )
    started = time.perf_counter()
    [summary] = run_clt(config)
    elapsed = time.perf_counter() - started
    return config, summary, elapsed


@pytest.fixture(scope="module")
def clt_replicates(clt_experiment):
    """The criterion-5 replicates regenerated one by one for direct inspection."""
    config, summary, _ = clt_experiment
    pmf = build_family(FamilySpec(HARMONIC, summary.K))
    pop = population_summary(pmf)
    seeds = derive_stream_seeds(config.master_seed, 0, config.replicates)
    reports = []
    for seed in seeds:
        counts = sample_counts_multinomial(pmf, summary.n, int(seed))
        reports.append(decompose(counts, pmf))
    return pmf, pop, summary.n, reports


def test_criterion_01_exact_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(715)
    pmfs = [validate_pmf(random_pmf(rng, int(rng.integers(2, 51)))) for _ in range(50)]
    pmfs.append(build_family(FamilySpec(HARMONIC, 10**4)))
    worst = 0.0
    for pmf in pmfs:
        probs = pmf.probs
        checks = [
            (entropy(pmf), mp_entropy(probs)),
            (population_summary(pmf).sigma2, mp_sigma2(probs)),
            (abs_central_moment(pmf, 0.5), mp_abs_central_moment(probs, 0.5)),
            (exp_moment(pmf, 0.1), mp_exp_moment(probs, 0.1)),
        ]
        for value, oracle in checks:
            worst = max(worst, abs(value - oracle) / abs(oracle))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 5.0
    report(1, ok, f"worst relative error {worst:.3e} over 51 pmfs x 4 functionals, {elapsed:.2f} s")


def test_criterion_02_harmonic_asymptotics():
    started = time.perf_counter()
    sizes = (10**3, 10**4, 10**5, 10**6)
    var_ratios = []
    ent_ratios = []
    for size in sizes:
        pop = population_summary(build_family(FamilySpec(HARMONIC, size)))
        log_k = math.log(size)
        var_ratios.append(12.0 * pop.sigma2 / log_k**2)
        ent_ratios.append(pop.entropy / (0.5 * log_k))
    elapsed = time.perf_counter() - started
    var_dev = [abs(r - 1.0) for r in var_ratios]
    var_monotone = all(b < a for a, b in zip(var_dev, var_dev[1:]))
    var_final = abs(var_ratios[-1] - 1.0) <= 0.30
    ent_dev = [abs(r - 1.0) for r in ent_ratios]
    ent_monotone = all(b < a for a, b in zip(ent_dev, ent_dev[1:]))
    ent_final = abs(ent_ratios[-1] - 1.0) <= 0.20
    ok = var_monotone and var_final and ent_monotone and ent_final and elapsed < 10.0
    report(
        2,
        ok,
        "12*sigma2/ln^2K -> "
        + ", ".join(f"{r:.4f}" for r in var_ratios)
        + f" (monotone={var_monotone}, final within 30%={var_final}); "
        + "H/(0.5 lnK) -> "
        + ", ".join(f"{r:.4f}" for r in ent_ratios)
        + f" (monotone={ent_monotone}, final within 20%={ent_final}); {elapsed:.2f} s",
    )


def test_criterion_03_expgeom_variance_bounded():
    started = time.perf_counter()
    values = [
        population_summary(build_family(FamilySpec(EXP_GEOMETRIC, size))).sigma2
        for size in range(5, 501)
    ]
    elapsed = time.perf_counter() - started
    ok = min(values) >= 0.1 and max(values) <= 10.0 and elapsed < 1.0
    report(3, ok, f"sigma2 in [{min(values):.4f}, {max(values):.4f}] over K=5..500, {elapsed:.2f} s")


def test_criterion_04_logharmonic_asymptotics():
    started = time.perf_counter()
    sizes = (10**3, 10**4, 10**5, 10**6)
    ratios = []
    for size in sizes:
        pop = population_summary(build_family(FamilySpec(LOG_HARMONIC, size)))
        log_k = math.log(size)
        ratios.append(2.0 * pop.sigma2 * math.log(log_k) / log_k**2)
    elapsed = time.perf_counter() - started
    deviations = [abs(r - 1.0) for r in ratios]
    monotone = all(b < a for a, b in zip(deviations, deviations[1:]))
    final = abs(ratios[-1] - 1.0) <= 0.30
    ok = monotone and final and elapsed < 10.0
    report(
        4,
        ok,
        "2*sigma2*lnlnK/ln^2K -> "
        + ", ".join(f"{r:.4f}" for r in ratios)
        + f" (monotone={monotone}, final within 30%={final}); {elapsed:.2f} s",
    )


def test_criterion_05_clt_ks_distance(clt_experiment):
    _, summary, elapsed = clt_experiment
    ok = summary.ks_distance <= 0.08 and elapsed < 60.0
    report(
        5,
        ok,
        f"K={summary.K}, n={summary.n}, M={summary.replicates}: "
        f"KS={summary.ks_distance:.4f} <= 0.08, {elapsed:.2f} s",
    )


def test_criterion_06_decomposition_identity_every_replicate(clt_replicates):
    _, pop, _, reports = clt_replicates
    worst_identity = 0.0
    sandwich_ok = True
    for rep in reports:
        gap = rep.plugin_entropy - pop.entropy
        worst_identity = max(worst_identity, abs(gap - (rep.linear_term - rep.kl_term)))
        if not 0.0 <= rep.kl_term <= rep.chi2_term + 1e-15:
            sandwich_ok = False
    ok = worst_identity <= 1e-12 and sandwich_ok and len(reports) >= 2000
    report(
        6,
        ok,
        f"{len(reports)} replicates: worst identity residual {worst_identity:.2e}, "
        f"0 <= kl <= chi2 everywhere: {sandwich_ok}",
    )


def test_criterion_07_chi2_mean_identity(clt_replicates):
    pmf, _, n, reports = clt_replicates
    chi2_values = np.array([rep.chi2_term for rep in reports])
    expected = (pmf.size - 1) / n
    se = chi2_values.std(ddof=1) / math.sqrt(len(chi2_values))
    deviation = abs(chi2_values.mean() - expected)
    ok = deviation <= 4.0 * se
    report(
        7,
        ok,
        f"mean chi2 {chi2_values.mean():.6e} vs (K-1)/n {expected:.6e}: "
        f"|dev| = {deviation / se:.2f} standard errors (<= 4)",
    )


def test_criterion_08_bound_shape_sweep():
    started = time.perf_counter()
    config = ExperimentConfig(
        family=HARMONIC,
        k_rule=parse_k_rule("pow:0.2"),
        n_grid=(10**3, 10**4, 10**5),
        replicates=2000,
        master_seed=MASTER_SEED,
        delta=1.0,
    )
    sweep = run_be_sweep(config)
    elapsed = time.perf_counter() - started
    ratios = [row.ratio for row in sweep.rows]
    spread = max(ratios) / min(ratios)
    ok = sweep.ks_nonincreasing and spread <= 5.0 and elapsed < 180.0
    report(
        8,
        ok,
        "ks="
        + ", ".join(f"{row.ks_distance:.4f}" for row in sweep.rows)
        + f" (inversions: {sweep.noise_inversions} noise / {sweep.hard_violations} hard); "
        f"ratio spread {spread:.2f} <= 5; {elapsed:.2f} s",
    )


def test_criterion_09_mdp_trend():
    started = time.perf_counter()
    config = ExperimentConfig(
        family=EXP_GEOMETRIC,
        k_rule=parse_k_rule("logpow:0.4"),
        n_grid=(10**3, 10**4, 10**5),
        replicates=2000,
        master_seed=MASTER_SEED,
        mdp=MdpSchedule(rho=0.1, epsilon=1.0, r=0.5),
    )
    cells = run_mdp(config)
    elapsed = time.perf_counter() - started
    all_ok = all(cell.flag == "ok" for cell in cells)
    deviations = [abs(cell.scaled_log_prob / cell.target - 1.0) for cell in cells]
    decreasing = all(b < a for a, b in zip(deviations, deviations[1:]))
    final_close = deviations[-1] <= 1.0
    conditions = [cell.condition_value for cell in cells]
    condition_decreasing = all(b < a for a, b in zip(conditions, conditions[1:]))
    ok = all_ok and decreasing and final_close and condition_decreasing and elapsed < 300.0
    report(
        9,
        ok,
        "|scaled/target - 1| -> "
        + ", ".join(f"{d:.3f}" for d in deviations)
        + f" (decreasing={decreasing}, final <= 1: {final_close}); "
        + "condition -> "
        + ", ".join(f"{c:.3f}" for c in conditions)
        + f" (strictly decreasing={condition_decreasing}); {elapsed:.2f} s",
    )


def test_criterion_10_sampler_cross_validation():
    started = time.perf_counter()
    pmf = build_family(FamilySpec(HARMONIC, 100))
    n, reps = 10**3, 10**4
    pools = []
    for offset, sample in ((0, sample_counts_categorical), (1 << 40, sample_counts_multinomial)):
        totals = np.zeros(pmf.size, dtype=np.int64)
        for seed in derive_stream_seeds(MASTER_SEED, offset, reps).tolist():
            totals += sample(pmf, n, seed).counts
        pools.append(totals.astype(np.float64))
    a, b = pools
    combined = a + b
    expected_a = combined * a.sum() / combined.sum()
    expected_b = combined * b.sum() / combined.sum()
    stat = float(np.sum((a - expected_a) ** 2 / expected_a) + np.sum((b - expected_b) ** 2 / expected_b))
    quantile = float(chi2.ppf(0.999, pmf.size - 1))
    elapsed = time.perf_counter() - started
    ok = stat < quantile and elapsed < 30.0
    report(
        10,
        ok,
        f"pooled homogeneity chi2 {stat:.2f} < 99.9% quantile {quantile:.2f} "
        f"(df={pmf.size - 1}), {elapsed:.2f} s",
    )


def test_criterion_11_worker_count_determinism(tmp_path):
    args = [
        "clt",
        "--family",
        "harmonic",
        "--K-rule",
        "pow:0.3333333333333333",
        "--n-grid",
        "100000",
        "--reps",
        "2000",
        "--seed",
        str(MASTER_SEED),
    ]
    # The CLI child imports the same entrokit as this process, installed or not.
    src = str(Path(entrokit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    outputs = []
    for workers in (1, 8):
        out = tmp_path / f"workers{workers}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "entrokit.cli", *args, "--workers", str(workers), "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]
    report(11, identical, f"workers 1 vs 8: JSON byte-identical = {identical} ({len(outputs[0])} bytes)")
