import gc
import math
import multiprocessing
import os
import weakref
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from entrokit.alphabet import FamilySpec, build_family
from entrokit.estimator import decompose
from entrokit.exact import DegenerateVarianceError, MdpSchedule
from entrokit.montecarlo import (
    ConfigError,
    ExperimentConfig,
    InvariantViolation,
    KRule,
    _pool_size,
    ks_distance,
    parse_k_rule,
    run_be_sweep,
    run_clt,
    run_mdp,
)
from entrokit import montecarlo, sampling
from entrokit.sampling import derive_stream_seeds, sample_counts_multinomial
from oracles import CounterRng


def small_config(**overrides):
    base = dict(
        family="harmonic",
        k_rule=KRule("fixed", 8),
        n_grid=(500,),
        replicates=200,
        master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestKRule:
    def test_parse_and_evaluate(self):
        assert parse_k_rule("fixed:46").alphabet_size(10**9) == 46
        assert parse_k_rule("pow:0.3333333333333333").alphabet_size(10**5) == 46
        assert parse_k_rule("logpow:0.4").alphabet_size(10**3) == 2

    def test_render_round_trip(self):
        for text in ("fixed:46", "pow:0.2", "logpow:0.4"):
            rule = parse_k_rule(text)
            assert parse_k_rule(rule.render()) == rule

    def test_errors(self):
        with pytest.raises(ConfigError):
            parse_k_rule("cube:2")
        with pytest.raises(ConfigError):
            parse_k_rule("pow")
        with pytest.raises(ConfigError):
            parse_k_rule("pow:fast")
        with pytest.raises(ConfigError):
            KRule("fixed", 2.5)
        with pytest.raises(ConfigError):
            KRule("pow", -0.1)
        with pytest.raises(ConfigError, match="unknown K rule kind 'cubic'"):
            KRule("cubic", 1.0)

    @pytest.mark.parametrize(
        "text",
        ["pow:inf", "fixed:inf", "logpow:inf", "fixed:1e400", "pow:-inf", "pow:nan", "fixed:nan", "logpow:nan"],
    )
    def test_non_finite_value_is_config_error(self, text):
        with pytest.raises(ConfigError, match=f"K rule {text.partition(':')[0]}:"):
            parse_k_rule(text)

    @pytest.mark.parametrize("value", [True, False, "5", None, np.float32(2.0)], ids=repr)
    def test_value_takes_an_int_or_a_float(self, value):
        # True was accepted as K = 1
        with pytest.raises(ConfigError, match="needs a finite int or float"):
            KRule("fixed", value)

    @pytest.mark.parametrize("text", [5, None, b"fixed:5"], ids=repr)
    def test_parse_takes_a_string(self, text):
        # 5 raised AttributeError from text.partition
        with pytest.raises(ConfigError, match="K rule must be a string"):
            parse_k_rule(text)

    @pytest.mark.parametrize("text", ["pow:1000", "logpow:1e5"])
    def test_k_beyond_float_range_is_config_error(self, text):
        with pytest.raises(ConfigError, match="float range"):
            parse_k_rule(text).alphabet_size(1000)


class TestExperimentConfig:
    def test_replicate_floor(self):
        with pytest.raises(ConfigError, match="replicates"):
            small_config(replicates=99)

    def test_grid_must_increase(self):
        with pytest.raises(ConfigError, match="increasing"):
            small_config(n_grid=(1000, 1000))

    def test_rejects_unknown_sampler_and_family(self):
        with pytest.raises(ConfigError, match="sampler"):
            small_config(sampler="bootstrap")
        with pytest.raises(ConfigError, match="family"):
            small_config(family="custom")

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(n_grid=()), "n_grid must be non-empty"),
            (dict(n_grid=(0, 500)), "n_grid entries must be >= 1"),
            (dict(master_seed=1 << 64), "master_seed must be a 64-bit unsigned integer"),
            (dict(workers=0), "workers must be >= 1"),
        ],
        ids=["empty-grid", "n-zero", "seed-2^64", "no-workers"],
    )
    def test_settings_out_of_range(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            small_config(**overrides)

    def test_delta_range(self):
        with pytest.raises(ConfigError, match="delta"):
            small_config(delta=1.5)

    @pytest.mark.parametrize("value", [-0.1, math.nan, 10**400], ids=["negative", "nan", "beyond-float-range"])
    def test_delta_outside_the_unit_interval(self, value):
        with pytest.raises(ConfigError, match="delta must lie in"):
            small_config(delta=value)

    @pytest.mark.parametrize("value", ["0.5", None, True, False, [0.5], np.float32(0.5)], ids=repr)
    def test_delta_takes_an_int_or_a_float(self, value):
        # "0.5" and None raised a bare TypeError; True was held as True
        with pytest.raises(ConfigError, match="delta takes an int or a float"):
            small_config(delta=value)

    @pytest.mark.parametrize(
        "value, held", [(1, 1.0), (0, 0.0), (np.int64(1), 1.0), (0.5, 0.5), (np.float64(0.25), 0.25)], ids=repr
    )
    def test_delta_is_held_as_a_float(self, value, held):
        delta = small_config(delta=value).delta
        assert type(delta) is float and delta == held

    def test_replicate_cap_bounds_the_memory_of_a_grid_point(self):
        assert small_config(replicates=1 << 24).replicates == 1 << 24
        with pytest.raises(ConfigError, match="2\\^24"):
            small_config(replicates=(1 << 24) + 1)

    def test_grid_cap_is_the_samplers_domain(self):
        assert small_config(n_grid=(1 << 62,)).n_grid == (1 << 62,)
        with pytest.raises(ConfigError, match="2\\^62"):
            small_config(n_grid=((1 << 62) + 1,))

    def test_no_mdp_replicate_cap_below_the_stream_cap(self):
        assert small_config(replicates=200_001).replicates == 200_001

    def test_categorical_draw_budget(self):
        # n * replicates alias draws per grid point, up to 2^40; an mdp cell
        # counts as the 200 000 replicates it may raise itself to
        assert small_config(sampler="categorical", n_grid=(1 << 32,), replicates=256).sampler == "categorical"
        with pytest.raises(ConfigError, match="above its budget of 2\\^40; --sampler multinomial"):
            small_config(sampler="categorical", n_grid=(100, (1 << 32) + 1), replicates=256)
        assert small_config(n_grid=((1 << 32) + 1,), replicates=256).sampler == "multinomial"
        mdp = MdpSchedule(rho=0.1, epsilon=1.0, r=1.0)
        assert small_config(sampler="categorical", n_grid=(5_000_000,), mdp=mdp).mdp == mdp
        with pytest.raises(ConfigError, match="200000 replicates"):
            small_config(sampler="categorical", n_grid=(6_000_000,), mdp=mdp)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_grid", (1000.7,)),
            ("n_grid", ("1000",)),
            ("n_grid", (True, 5)),
            ("n_grid", (np.float64(1000.0),)),
            ("replicates", 150.5),
            ("replicates", 200.0),
            ("master_seed", 3.0),
            ("master_seed", True),
            ("workers", 1.5),
            ("workers", "2"),
        ],
        ids=lambda v: repr(v),
    )
    def test_integer_settings_take_integers_only(self, field, value):
        # 1000.7 became 1000 and (True, 5) ran; 150.5 and workers=1.5 failed in run_clt
        with pytest.raises(ConfigError, match="integers"):
            small_config(**{field: value})

    def test_numpy_integers_are_held_as_ints(self):
        config = small_config(
            n_grid=(np.int64(500), 600), replicates=np.int32(200), master_seed=np.uint64(11), workers=np.int8(1)
        )
        values = (*config.n_grid, config.replicates, config.master_seed, config.workers)
        assert all(type(v) is int for v in values)
        want = run_clt(small_config(n_grid=(500, 600)))
        assert [s.z_samples.tolist() for s in run_clt(config)] == [s.z_samples.tolist() for s in want]

    def test_k_of_every_grid_point_is_checked_before_sampling(self, monkeypatch):
        # a K beyond the cap at the last grid point used to surface only after
        # every earlier point had been sampled
        def refuse(*args):
            raise AssertionError("a replicate was sampled")

        monkeypatch.setattr(montecarlo, "_replicate_chunk", refuse)
        with pytest.raises(ConfigError, match="K=316227766 at n=100000000000000000; the cap"):
            run_clt(small_config(k_rule=KRule("pow", 0.5), n_grid=(10**6, 10**17)))


class TestKsDistance:
    def test_single_sample_at_zero(self):
        assert ks_distance([0.0]) == pytest.approx(0.5, abs=1e-15)

    def test_exact_gaussian_quantiles(self):
        m = 500
        grid = norm.ppf((np.arange(1, m + 1) - 0.5) / m)
        assert ks_distance(grid) == pytest.approx(1.0 / (2.0 * m), abs=1e-12)

    def test_far_right_mass(self):
        assert ks_distance([10.0, 10.0, 10.0]) > 0.999

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ks_distance([])
        with pytest.raises(ValueError):
            ks_distance([1.0, 0.0])

    @pytest.mark.parametrize("samples", [[0.0, math.nan], [math.nan], [math.nan, 0.0]], ids=repr)
    def test_nan_is_rejected(self, samples):
        # every comparison with NaN is false, so [0.0, nan] passed the order check
        with pytest.raises(ValueError, match="NaN"):
            ks_distance(samples)

    def test_null_level_on_true_gaussians(self):
        # Box-Muller normals from the package generator: the KS machinery
        # itself should sit under the 95% null quantile at a fixed seed
        m = 2000
        rng = CounterRng(515)
        u1 = rng.uniforms(m)
        u2 = rng.uniforms(m)
        z = np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * math.pi * u2)
        assert ks_distance(np.sort(z)) <= 1.36 / math.sqrt(m)


class TestRunClt:
    def test_deterministic_across_runs_and_workers(self, monkeypatch):
        # 200 replicates are one chunk (no pool); 600 are three chunks, and with
        # two CPUs reported a two-process pool starts even on a one-CPU host
        pools = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(montecarlo.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        # one run starts one pool, however many of its grid points use it
        grid = dict(n_grid=(300, 500), replicates=600)
        assert [s.z_samples.tolist() for s in run_clt(small_config(**grid, workers=2))] == [
            s.z_samples.tolist() for s in run_clt(small_config(**grid))
        ]
        assert run_be_sweep(small_config(**grid, workers=2)) == run_be_sweep(small_config(**grid))
        assert pools == [2, 2]
        pools.clear()
        for replicates in (200, 600):
            cfg1 = small_config(replicates=replicates)
            cfg2 = small_config(replicates=replicates, workers=2)
            [a] = run_clt(cfg1)
            [b] = run_clt(cfg1)
            [c] = run_clt(cfg2)
            assert np.array_equal(a.z_samples, b.z_samples)
            assert np.array_equal(a.z_samples, c.z_samples)
            assert a.ks_distance == b.ks_distance == c.ks_distance
            assert a.mean_kl_term == c.mean_kl_term and a.mean_chi2_term == c.mean_chi2_term
        assert pools == [2]

    def test_grid_point_one_reads_its_stream_range_at_any_worker_count(self, monkeypatch):
        # 600 replicates are three chunks; grid point 1 owns stream indices 2^32 ..
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        serial = run_clt(small_config(n_grid=(300, 500), replicates=600))
        pooled = run_clt(small_config(n_grid=(300, 500), replicates=600, workers=2))
        for a, b in zip(serial, pooled):
            assert np.array_equal(a.z_samples, b.z_samples)
            assert a.mean_kl_term == b.mean_kl_term and a.mean_chi2_term == b.mean_chi2_term
        pmf = build_family(FamilySpec("harmonic", 8))
        seeds = derive_stream_seeds(11, 2**32, 600).tolist()
        z = [decompose(sample_counts_multinomial(pmf, 500, seed), pmf).standardized for seed in seeds]
        assert np.array_equal(serial[1].z_samples, np.sort(z))

    def test_samplers_both_run(self):
        for sampler in ("categorical", "multinomial"):
            [s] = run_clt(small_config(sampler=sampler))
            assert s.replicates == 200
            assert s.z_samples.shape == (200,)

    def test_degenerate_family_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            run_clt(small_config(family="uniform"))

    def test_tiny_alphabet_rule_rejected(self):
        with pytest.raises(ConfigError, match="K >= 2"):
            run_clt(small_config(k_rule=KRule("fixed", 1)))

    def test_chi2_mean_tracks_identity(self):
        [s] = run_clt(small_config(replicates=2000, n_grid=(2000,)))
        expected = (s.K - 1) / s.n
        assert s.expected_chi2_mean == expected
        assert s.mean_chi2_term == pytest.approx(expected, rel=0.15)

    def test_summary_fields_consistent(self):
        [s] = run_clt(small_config())
        assert s.z_samples[0] <= s.z_samples[-1]
        assert s.z_mean == pytest.approx(float(np.mean(s.z_samples)), abs=1e-12)
        assert 0.0 <= s.ks_distance <= 1.0

    def test_no_grid_point_outlives_its_run(self, monkeypatch):
        refs = []
        real = montecarlo.build_family

        def build_family(spec):
            pmf = real(spec)
            refs.append(weakref.ref(pmf))
            return pmf

        monkeypatch.setattr(montecarlo, "build_family", build_family)
        run_clt(small_config(k_rule=KRule("pow", 0.5), n_grid=(400, 900)))
        gc.collect()
        assert len(refs) == 2
        assert [ref() for ref in refs] == [None, None]


class TestProcessPool:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the counters live in forked workers")
    def test_each_process_builds_a_grid_point_once(self, monkeypatch, tmp_path):
        log = tmp_path / "builds.txt"

        def logged(name, build, size):
            def wrapper(arg):
                with open(log, "a") as handle:
                    handle.write(f"{os.getpid()} {name} {size(arg)}\n")
                return build(arg)

            return wrapper

        monkeypatch.setattr(montecarlo, "build_family", logged("family", montecarlo.build_family, lambda s: s.size))
        monkeypatch.setattr(sampling, "AliasTable", logged("alias", sampling.AliasTable, len))
        # 200 replicates are 13 chunks and 7 tasks, so a worker runs several
        # tasks of a grid point, then switches to the next one in the same pool
        monkeypatch.setattr(montecarlo, "_WORKER_CHUNK", 16)
        run_clt(small_config(k_rule=KRule("pow", 0.5), n_grid=(400, 900), sampler="categorical", workers=2))
        builds = Counter(tuple(line.split()) for line in log.read_text().splitlines())
        assert set(builds.values()) == {1}
        parent = str(os.getpid())
        assert {(name, k) for pid, name, k in builds if pid == parent} == {("family", "20"), ("family", "30")}
        in_workers = {(name, k) for pid, name, k in builds if pid != parent}
        # the workers were forked at K=20, so they inherit its Pmf
        assert {("alias", "20"), ("alias", "30"), ("family", "30")} >= in_workers >= {("alias", "20")}

    def test_no_worker_outlives_a_run(self):
        run_clt(small_config(n_grid=(300, 500), replicates=600, workers=2))
        assert multiprocessing.active_children() == []
        mdp = MdpSchedule(rho=0.1, epsilon=1.0, r=0.5)
        run_mdp(small_config(n_grid=(300, 500), replicates=600, workers=2, mdp=mdp))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("run", [run_clt, run_be_sweep, run_mdp])
    def test_no_worker_outlives_a_run_that_raises_at_a_later_grid_point(self, monkeypatch, run):
        pools = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        calls = []
        real = montecarlo.population_summary

        def fail_at_second_point(pmf):
            calls.append(pmf.size)
            if len(calls) == 2:
                raise RuntimeError("second grid point")
            return real(pmf)

        monkeypatch.setattr(montecarlo.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(montecarlo, "population_summary", fail_at_second_point)
        config = small_config(
            n_grid=(300, 500), replicates=600, workers=2, mdp=MdpSchedule(rho=0.1, epsilon=1.0, r=0.5)
        )
        with pytest.raises(RuntimeError, match="second grid point"):
            run(config)
        assert pools == [2]
        assert multiprocessing.active_children() == []


class TestInvariantChecks:
    """A chunk raises InvariantViolation for its first failing replicate in
    stream order, naming that replicate's seed; within one replicate the
    identity is checked before the sandwich."""

    @staticmethod
    def break_replicates(monkeypatch, broken):
        # broken maps a replicate's call order to what its report breaks
        real = montecarlo.decompose
        calls = []

        def decompose_breaking(counts, pmf):
            rep = real(counts, pmf)
            kind = broken.get(len(calls))
            calls.append(kind)
            if kind == "identity":
                return replace(rep, linear_term=rep.linear_term + 1.0)
            if kind == "sandwich":  # kl above chi2, the identity kept
                kl = rep.chi2_term + 1.0
                return replace(rep, kl_term=kl, linear_term=rep.linear_term + (kl - rep.kl_term))
            if kind == "both":
                return replace(rep, kl_term=rep.chi2_term + 1.0)
            return rep

        monkeypatch.setattr(montecarlo, "decompose", decompose_breaking)

    @pytest.mark.parametrize(
        "broken, first, message",
        [
            ({5: "identity", 9: "sandwich"}, 5, "decomposition identity failed"),
            ({3: "sandwich", 7: "identity"}, 3, "KL/chi-square sandwich failed"),
            ({4: "both"}, 4, "decomposition identity failed"),
            ({300: "sandwich", 400: "identity"}, 300, "KL/chi-square sandwich failed"),
        ],
    )
    def test_first_failing_replicate_raises(self, monkeypatch, broken, first, message):
        self.break_replicates(monkeypatch, broken)
        seed = derive_stream_seeds(11, 0, 600).tolist()[first]
        with pytest.raises(InvariantViolation, match=f"{message} at n=500, seed={seed}:"):
            run_clt(small_config(replicates=600))


class TestPoolSize:
    @pytest.mark.parametrize(
        "workers, chunks, cpus, expected",
        [
            (1, 10, 8, 1),
            (2, 177, 8, 2),
            (10**6, 3, 8, 3),
            (10**6, 10**6, 8, 8),
            (4, 10, None, 1),
            (4, 1, 8, 1),
        ],
    )
    def test_clamps_to_chunks_and_cpus(self, monkeypatch, workers, chunks, cpus, expected):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        assert _pool_size(workers, chunks * montecarlo._WORKER_CHUNK) == expected

    def test_a_partial_chunk_counts_as_one(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
        chunk = montecarlo._WORKER_CHUNK
        assert [_pool_size(4, reps) for reps in (1, chunk, chunk + 1, 3 * chunk + 1)] == [1, 1, 2, 4]


class TestRunBeSweep:
    def test_bound_decreases_and_rows_align(self):
        sweep = run_be_sweep(small_config(n_grid=(500, 2000, 8000)))
        bounds = [r.bound_shape for r in sweep.rows]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))
        for row in sweep.rows:
            assert row.ratio == pytest.approx(row.ks_distance / row.bound_shape, rel=1e-12)

    def test_monotonicity_report_fields(self):
        sweep = run_be_sweep(small_config(n_grid=(500, 2000)))
        assert sweep.noise_band == pytest.approx(2.0 * 1.36 / math.sqrt(200), rel=1e-12)
        assert sweep.noise_inversions + sweep.hard_violations <= 1

    def test_rise_beyond_the_noise_band_is_a_hard_violation(self):
        # K = n^0.75 grows faster than the KS distance can shrink: its bias
        # shift lifts KS from about 0.63 to 0.82 against a band of about 0.12
        sweep = run_be_sweep(
            small_config(k_rule=KRule("pow", 0.75), n_grid=(1000, 10_000), replicates=500, master_seed=3)
        )
        rise = sweep.rows[1].ks_distance - sweep.rows[0].ks_distance
        assert rise > sweep.noise_band
        assert (sweep.noise_inversions, sweep.hard_violations) == (0, 1)
        assert sweep.ks_nonincreasing is False


class TestRunMdp:
    def test_requires_schedule(self):
        with pytest.raises(ConfigError, match="MdpSchedule"):
            run_mdp(small_config())

    def test_zero_threshold_is_trivial(self):
        cfg = small_config(mdp=MdpSchedule(rho=0.1, epsilon=1.0, r=0.0))
        [cell] = run_mdp(cfg)
        assert cell.flag == "ok"
        assert cell.p_hat == 1.0
        assert cell.scaled_log_prob == 0.0
        assert cell.target == 0.0

    def test_auto_raise_replicates(self):
        # threshold ~2.9 sigma: Gaussian exceedance ~3.7e-3 needs ~5400 reps
        cfg = small_config(
            n_grid=(10_000,),
            mdp=MdpSchedule(rho=0.115, epsilon=1.0, r=1.0),
        )
        [cell] = run_mdp(cfg)
        assert cell.flag == "ok"
        assert cell.replicates_used > cfg.replicates
        assert cell.exceedances >= 1

    def test_infeasible_cell_flagged_not_fabricated(self):
        cfg = small_config(
            n_grid=(10_000,),
            mdp=MdpSchedule(rho=0.3, epsilon=1.0, r=1.0),
        )
        [cell] = run_mdp(cfg)
        assert cell.flag == "infeasible"
        assert cell.p_hat is None
        assert cell.scaled_log_prob is None
        assert cell.replicates_used == 0
        assert math.isfinite(cell.condition_value)

    def test_cell_needing_more_than_the_cap_is_infeasible(self, monkeypatch):
        # test_auto_raise_replicates' cell needs ~5400 replicates
        monkeypatch.setattr(montecarlo, "_MDP_MAX_REPLICATES", 1000)
        cfg = small_config(n_grid=(10_000,), mdp=MdpSchedule(rho=0.115, epsilon=1.0, r=1.0))
        [cell] = run_mdp(cfg)
        assert (cell.flag, cell.replicates_used) == ("infeasible", 0)
        [cell] = run_mdp(small_config(n_grid=(10_000,), replicates=6000, mdp=cfg.mdp))
        assert cell.flag == "ok"
        assert cell.replicates_used == 6000

    @pytest.mark.parametrize("r", [3.8, 4.0])
    def test_far_threshold_is_infeasible_without_overflow(self, r):
        # b_n = 10: at threshold 38 the Gaussian tail is subnormal, so 20/p
        # overflows; at 40 it is exactly zero
        cfg = small_config(n_grid=(10_000,), mdp=MdpSchedule(rho=0.25, epsilon=1.0, r=r))
        [cell] = run_mdp(cfg)
        assert cell.threshold == 10.0 * r
        assert (cell.flag, cell.replicates_used, cell.p_hat) == ("infeasible", 0, None)

    def test_expgeom_trend_smoke(self):
        cfg = ExperimentConfig(
            family="expgeom",
            k_rule=parse_k_rule("logpow:0.4"),
            n_grid=(1000, 10_000),
            replicates=400,
            master_seed=5150,
            mdp=MdpSchedule(rho=0.1, epsilon=1.0, r=0.5),
        )
        cells = run_mdp(cfg)
        assert [c.flag for c in cells] == ["ok", "ok"]
        assert cells[1].condition_value < cells[0].condition_value
