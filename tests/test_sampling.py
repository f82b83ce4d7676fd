import contextlib
import hashlib
import itertools
import math
import random
import signal
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import binom, chi2

from entrokit import sampling
from entrokit.alphabet import MAX_TOTAL, FamilySpec, HARMONIC, build_family, validate_pmf
from entrokit.sampling import (
    _BLOCK,
    _DRAW_BATCH,
    _GOLDEN,
    _INVERSION_MAX,
    _LGAMMA_TOL,
    _SCALAR_DRAWS,
    _SUB_BLOCK,
    _TWO_NEG_53,
    AliasTable,
    CountVector,
    _binomial_inversion,
    _binomial_log_ratio,
    _chain_plan,
    _mantissas,
    _mix64,
    _alias_table,
    _mix64_array,
    _stirlerr,
    _stream_blocks,
    derive_stream_seeds,
    sample_counts_categorical,
    sample_counts_multinomial,
)
from oracles import (
    CounterRng,
    ScalarRng,
    SeedSpec,
    _binomial,
    _binomial_btrs,
    alias_draw,
    chain_counts,
    derive_stream_seed,
    mp_binomial_log_ratio,
    mp_stirlerr,
)

SAMPLERS = (sample_counts_categorical, sample_counts_multinomial)


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed (a hang fails, not stalls)."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestStreamDerivation:
    def test_deterministic(self):
        spec = SeedSpec(123456789, 42)
        assert derive_stream_seed(spec) == derive_stream_seed(spec)

    def test_batch_matches_scalar(self):
        batch = derive_stream_seeds(99, 1000, 50)
        scalar = [derive_stream_seed(SeedSpec(99, 1000 + i)) for i in range(50)]
        assert batch.tolist() == scalar

    def test_collision_free_over_a_million_indices(self):
        seeds = derive_stream_seeds(0xDEADBEEF, 0, 10**6)
        assert np.unique(seeds).size == 10**6

    def test_batch_matches_scalar_at_large_offsets(self):
        # experiment grids start replicate blocks at multiples of 2^32
        start = 3 << 32
        batch = derive_stream_seeds(7, start, 8)
        scalar = [derive_stream_seed(SeedSpec(7, start + i)) for i in range(8)]
        assert batch.tolist() == scalar

    def test_adjacent_streams_differ_for_a_million_masters(self):
        # vectorized over master seeds using the same mixing pipeline
        rng = np.random.default_rng(5)
        masters = rng.integers(0, 2**64, size=10**6, dtype=np.uint64)
        golden = np.uint64(0x9E3779B97F4A7C15)
        h_master = _mix64_array(masters + golden)
        idx0 = np.uint64(_mix64((0 * 0xD1342543DE82EF95 + 0x632BE59BD9B4E019) & (2**64 - 1)))
        idx1 = np.uint64(_mix64((1 * 0xD1342543DE82EF95 + 0x632BE59BD9B4E019) & (2**64 - 1)))
        s0 = _mix64_array(h_master ^ idx0)
        s1 = _mix64_array(h_master ^ idx1)
        assert not np.any(s0 == s1)
        # spot-check the vectorization against the public scalar op
        assert s0[0] == derive_stream_seed(SeedSpec(int(masters[0]), 0))

    def test_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(-1, 0)
        with pytest.raises(ValueError):
            SeedSpec(2**64, 0)
        with pytest.raises(ValueError):
            SeedSpec(0, -1)
        with pytest.raises(ValueError, match="master_seed"):
            derive_stream_seeds(-1, 0, 1)
        with pytest.raises(ValueError, match="master_seed"):
            derive_stream_seeds(2**64, 0, 1)
        with pytest.raises(ValueError, match="stream_index"):
            derive_stream_seeds(0, -1, 1)

    @pytest.mark.parametrize("master", [1.5, 1.0, True, "7"])
    def test_non_integer_master_seed_is_refused(self, master):
        with pytest.raises(ValueError, match="master_seed"):
            derive_stream_seeds(master, 0, 2)

    def test_numpy_master_seed_names_the_same_streams(self):
        assert derive_stream_seeds(np.uint64(2**64 - 1), 0, 4).tolist() == derive_stream_seeds(2**64 - 1, 0, 4).tolist()

    @pytest.mark.parametrize(
        "start, count",
        [(0.5, 2), (True, 2), ("0", 1), (0, 2.5), (0, True), (0, -3), (0, None), (2**64, 0), (2**64 - 2, 3)],
        ids=("float-start", "bool-start", "str-start", "float-count", "bool-count", "negative-count",
             "none-count", "start-2^64", "past-2^64"),
    )
    def test_stream_range_takes_integers_below_2_64(self, start, count):
        # 0.5 read streams 0 and 1, 2.5 gave three seeds, -3 none, and 2^64 a bare OverflowError
        with pytest.raises(ValueError, match="stream_index|count|past"):
            derive_stream_seeds(1, start, count)

    def test_stream_range_reaches_the_last_index(self):
        last = [derive_stream_seed(SeedSpec(9, 2**64 - 2 + i)) for i in range(2)]
        assert derive_stream_seeds(9, 2**64 - 2, 2).tolist() == last
        assert derive_stream_seeds(9, np.uint64(2**64 - 2), np.int64(2)).tolist() == last
        assert derive_stream_seeds(9, 2**64 - 1, 0).size == 0


class TestCounterRng:
    def test_scalar_and_batch_agree(self):
        a = ScalarRng(777)
        b = CounterRng(777)
        batch = b.uniforms(64)
        scalars = [a.uniform() for _ in range(64)]
        assert batch.tolist() == scalars

    def test_mixed_call_pattern_is_one_stream(self):
        a = ScalarRng(31337)
        b = CounterRng(31337)
        mixed = [a.uniform(), *a.uniforms(3).tolist(), a.uniform()]
        assert mixed == b.uniforms(5).tolist()

    @staticmethod
    def _reference(seed, first, count):
        return [(_mix64(seed + i * _GOLDEN) >> 11) * 2.0**-53 for i in range(first, first + count)]

    def test_scalar_draws_cross_every_block_boundary(self):
        draws = _SCALAR_DRAWS + 3 * _BLOCK + 100
        rng = ScalarRng(0xFEEDFACE)
        assert [rng.uniform() for _ in range(draws)] == self._reference(0xFEEDFACE, 1, draws)

    def test_random_interleavings_match_the_counter_formula(self):
        # runs of uniform() that cross the scalar start and block ends, broken
        # by uniforms(k) calls that drop the block at arbitrary points
        picker = random.Random(17)
        for trial in range(40):
            seed = picker.getrandbits(64)
            rng = ScalarRng(seed)
            got: list[float] = []
            while len(got) < 4000:
                if picker.random() < 0.8:
                    got.extend(rng.uniform() for _ in range(picker.randint(1, _BLOCK + 100)))
                else:
                    got.extend(rng.uniforms(picker.randint(0, 40)).tolist())
            assert got == self._reference(seed, 1, len(got)), trial

    def test_stream_blocks_are_the_counter_stream(self):
        # the chain's iterator: the scalar pairs, then at least three block ends
        draws = _SCALAR_DRAWS + 3 * _BLOCK + 100
        picker = random.Random(29)
        for seed in [0, 2**64 - 1] + [picker.getrandbits(64) for _ in range(40)]:
            stream = itertools.chain.from_iterable(_stream_blocks(seed))
            assert list(itertools.islice(stream, draws)) == self._reference(seed, 1, draws), seed

    def test_stream_blocks_pair_the_scalar_draws(self):
        blocks = _stream_blocks(5)
        sizes = [len(next(blocks)) for _ in range(_SCALAR_DRAWS // 2 + 2)]
        assert sizes == [2] * (_SCALAR_DRAWS // 2) + [_BLOCK, _BLOCK]

    def test_mantissas_match_the_scalar_formula_where_words_wrap(self):
        # keys near 2^64, so key + i * golden wraps modulo 2^64 within a block,
        # over two sub-blocks made by two calls that meet at a _SUB_BLOCK boundary
        words = np.empty(_SUB_BLOCK, dtype=np.uint64)
        tmp = np.empty_like(words)
        for key in (2**64 - 1, 2**64 - 12345, 0):
            for first in (1, (7 << 32) + 3, 2**64 - 2 * _SUB_BLOCK):
                got = [_mantissas(key, first + j * _SUB_BLOCK, words, tmp).tolist() for j in range(2)]
                want = [_mix64(key + i * _GOLDEN) >> 11 for i in range(first, first + 2 * _SUB_BLOCK)]
                assert got[0] + got[1] == want, (key, first)

    @pytest.mark.parametrize("seed", [2.9, 2.0, True, "2", None])
    def test_non_integer_seed_is_refused(self, seed):
        with pytest.raises(ValueError, match="stream_seed"):
            sample_counts_categorical(validate_pmf((0.5, 0.5)), 10, seed)

    def test_numpy_seed_is_the_same_stream(self):
        pmf = build_family(FamilySpec(HARMONIC, 1000))
        assert np.array_equal(
            sample_counts_categorical(pmf, 5000, np.uint64(2**63 + 5)).counts,
            sample_counts_categorical(pmf, 5000, 2**63 + 5).counts,
        )

    def test_range_and_coarse_uniformity(self):
        u = np.array(list(itertools.islice(itertools.chain.from_iterable(_stream_blocks(2024)), 200_000)))
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.004
        assert abs(np.mean(u < 0.25) - 0.25) < 0.004


class TestCountVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            CountVector(np.array([1, 2]), 4)
        with pytest.raises(ValueError):
            CountVector(np.array([-1, 5]), 4)
        with pytest.raises(ValueError):
            CountVector(np.array([], dtype=np.int64), 0)
        with pytest.raises(ValueError, match="1-d"):
            CountVector(np.array([[1, 2], [3, 4]]), 10)

    @pytest.mark.parametrize(
        "counts, total",
        [([1.5, 2.5], 3), (np.array([1.0, 3.0]), 4), (["1", "3"], 4), (np.array([True, True, False]), 2), ([1, None], 1)],
    )
    def test_counts_must_be_integer_typed(self, counts, total):
        # a float is never truncated, a string or bool never read as a count
        with pytest.raises(ValueError, match="integer vector"):
            CountVector(counts, total)

    @pytest.mark.parametrize("total", [3.0, np.float64(3.0), "3"])
    def test_total_must_be_an_integer(self, total):
        with pytest.raises(ValueError, match="total"):
            CountVector([1, 2], total)

    @pytest.mark.parametrize(
        "counts, total",
        [(np.full(5, 2**62), 2**62), ([2**62, 2**62, 2**62, 2**62 + 5], 5)],
        ids=["five-times-the-total", "counts-above-the-total"],
    )
    def test_total_is_checked_without_wrapping(self, counts, total):
        # both int64 sums wrap to the stated total
        with pytest.raises(ValueError, match="sum to the stated total"):
            CountVector(counts, total)

    def test_integer_entries_of_any_width(self):
        cv = CountVector(np.array([1, 2], dtype=np.uint8), np.int64(3))
        assert cv.counts.dtype == np.int64 and cv.counts.tolist() == [1, 2]
        assert type(cv.total) is int and cv.total == 3

    @pytest.mark.parametrize("sample", SAMPLERS)
    def test_samplers_skip_the_public_checks(self, sample, monkeypatch):
        # the samplers' own counts are valid by construction
        def refuse(self):
            raise AssertionError("sampler re-validated its counts")

        monkeypatch.setattr(CountVector, "__post_init__", refuse)
        counts = sample(build_family(FamilySpec(HARMONIC, 5)), 1000, 7)
        assert counts.total == 1000 and int(counts.counts.sum()) == 1000
        assert counts.counts.dtype == np.int64
        with pytest.raises(ValueError):
            counts.counts[0] = 1

    def test_immutable(self):
        cv = CountVector(np.array([3, 1]), 4)
        with pytest.raises(ValueError):
            cv.counts[0] = 5


class TestSamplers:
    @pytest.mark.parametrize("sample", SAMPLERS)
    def test_single_atom(self, sample):
        pmf = validate_pmf((1.0,))
        counts = sample(pmf, 7, derive_stream_seed(SeedSpec(1, 0)))
        assert counts.counts.tolist() == [7]

    @pytest.mark.parametrize("sample", SAMPLERS)
    def test_n_equals_one(self, sample):
        pmf = build_family(FamilySpec(HARMONIC, 6))
        counts = sample(pmf, 1, derive_stream_seed(SeedSpec(2, 3)))
        assert counts.counts.sum() == 1
        assert np.max(counts.counts) == 1

    @pytest.mark.parametrize("sample", SAMPLERS)
    def test_deterministic_given_seed(self, sample):
        pmf = build_family(FamilySpec(HARMONIC, 12))
        seed = derive_stream_seed(SeedSpec(99, 7))
        first = sample(pmf, 5000, seed)
        second = sample(pmf, 5000, seed)
        assert np.array_equal(first.counts, second.counts)
        # a numpy seed, as derive_stream_seeds returns it, names the same stream
        assert np.array_equal(sample(pmf, 5000, np.uint64(seed)).counts, first.counts)

    @pytest.mark.parametrize("sample", SAMPLERS)
    def test_total_preserved_on_random_cases(self, sample):
        rng = np.random.default_rng(8)
        for trial in range(20):
            k = int(rng.integers(1, 40))
            weights = rng.gamma(1.0, size=k) + 1e-3
            pmf = validate_pmf(weights / weights.sum())
            n = int(rng.integers(1, 5000))
            counts = sample(pmf, n, int(rng.integers(0, 2**64, dtype=np.uint64)))
            assert int(counts.counts.sum()) == n
            assert counts.size == k

    def test_categorical_binomial_concentration(self):
        # fair coin, one million draws: within 4 binomial standard deviations
        pmf = validate_pmf((0.5, 0.5))
        counts = sample_counts_categorical(pmf, 10**6, derive_stream_seed(SeedSpec(1234, 0)))
        sd = math.sqrt(10**6 * 0.25)
        assert abs(counts.counts[0] - 500_000) <= 4.0 * sd

    def test_multinomial_cell_means(self):
        # replicate means match n p_i within 5 standard errors, every cell
        pmf = build_family(FamilySpec(HARMONIC, 100))
        n, reps = 10**5, 10**4
        totals = np.zeros(100, dtype=np.int64)
        sq = np.zeros(100, dtype=np.float64)
        seeds = derive_stream_seeds(2718, 0, reps)
        for seed in seeds:
            c = sample_counts_multinomial(pmf, n, int(seed)).counts
            totals += c
            sq += c.astype(np.float64) ** 2
        mean = totals / reps
        var = sq / reps - mean**2
        se = np.sqrt(np.maximum(var, 1e-9) / reps)
        dev = np.abs(mean - n * pmf.probs) / se
        assert float(np.max(dev)) <= 5.0

    @pytest.mark.parametrize("sample", SAMPLERS)
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seeds_outside_64_bits(self, sample, seed):
        with pytest.raises(ValueError, match="stream_seed"):
            sample(validate_pmf((0.5, 0.5)), 10, seed)

    @pytest.mark.parametrize("sample", SAMPLERS)
    @pytest.mark.parametrize("seed", [1.7, 1.0, True, "1"])
    def test_rejects_non_integer_seeds(self, sample, seed):
        # 1.7 and True used to read stream 1
        with pytest.raises(ValueError, match="stream_seed"):
            sample(validate_pmf((0.5, 0.5)), 1000, seed)

    @pytest.mark.parametrize("sample", SAMPLERS)
    @pytest.mark.parametrize("n", [1000.0, np.float64(1000.0), True, "1000"])
    def test_rejects_non_integer_sample_sizes(self, sample, n):
        with pytest.raises(ValueError, match="sample size must be an integer"):
            sample(validate_pmf((0.5, 0.5)), n, 1)

    @pytest.mark.parametrize("sample", SAMPLERS)
    def test_numpy_sample_size_gives_an_int_total(self, sample):
        counts = sample(validate_pmf((0.5, 0.5)), np.int64(1000), 1)
        assert type(counts.total) is int and counts.total == 1000
        assert counts.counts.tolist() == sample(validate_pmf((0.5, 0.5)), 1000, 1).counts.tolist()

    def test_rejects_zero_draws(self):
        pmf = validate_pmf((0.5, 0.5))
        for sample in SAMPLERS:
            with pytest.raises(ValueError):
                sample(pmf, 0, 1)

    def test_cross_sampler_pooled_chisquare(self):
        # small-scale version of the full cross-validation gate
        pmf = build_family(FamilySpec(HARMONIC, 20))
        n, reps = 200, 2000
        pools = []
        for offset, sample in ((0, sample_counts_categorical), (1 << 40, sample_counts_multinomial)):
            total = np.zeros(20, dtype=np.int64)
            for j in range(reps):
                total += sample(pmf, n, derive_stream_seed(SeedSpec(4242, offset + j))).counts
            pools.append(total.astype(np.float64))
        a, b = pools
        col = a + b
        ea = col * a.sum() / col.sum()
        eb = col * b.sum() / col.sum()
        stat = float(np.sum((a - ea) ** 2 / ea) + np.sum((b - eb) ** 2 / eb))
        assert stat < chi2.ppf(0.999, 19)


# sha256 of the chain's counts (int64 little-endian, replicate after
# replicate) for seeds derive_stream_seeds(2024, case << 20, reps); recorded
# before the buffered stream, the per-Pmf cell plan and the lazy BTRS
# constant, so they pin the chain's output stream bit for bit.
GOLDEN_CHAIN = (
    # harmonic K=1000 at n=1e6: BTRS throughout, flipped near the end
    ("harmonic:1000", 10**6, 8, "ac65800d82e577a8bcae8c8fa3c5641feaa959900b35ce02f999f6bfbfb25568"),
    # mostly inversion
    ("harmonic:50", 200, 16, "2d964adb00882bbe094d1d31c0b6a5c7fb88939dab92685313f2519257c520a3"),
    # K=2 with p_cond ~ 0.73: flipped BTRS
    ("expgeom:2", 1000, 16, "7082331e3735e88840c1734da06b1cca8c9b12a8191710ad86afa30c7b87322e"),
    ("expgeom:2", 100_000, 16, "5759d8b32a7909c2cca7175f5339848a0533e1c777e27e7452221665dd2fc0e9"),
    # flipped cells on both branches
    ("expgeom:30", 10_000, 16, "66f598cdf63debfd7a22f853009d135b515b0e802ee97e5fd142f76016ca8840"),
    # flipped inversion
    ((0.999, 0.001), 10_000, 16, "cff7bd5b03c019b6fa5105e8ba480e09b883873eb17c4e9786d2e94d6e804299"),
    # the last chain cell has p_cond = 1 (its tail rounds to p_i): the flipped
    # inversion takes every remaining draw
    ((0.5, 0.5, 1e-300), 1000, 16, "033daed853bd2259b6e3e594541a6babf73e7acf720bedd2fccf9d732b7d36a6"),
    # n < K: the chain runs out of draws early
    ("harmonic:1000", 5, 16, "c875a2921bbd717b89d390a71551b13bea90e4105f34680369e5aafbfdf5815f"),
    ("harmonic:6", 1, 16, "22d99fb5546f055feb233228fe0e3e23d44d76c5af03447b262e955a9b541fda"),
    ("uniform:2", 10**6, 16, "7e43fd7d3c6bc2ffa426a9338330435f52bf48920f9c53d8a60a1e45edda31d3"),
    # BTRS at n = 1e12: recorded with the lgamma acceptance test, kept by the Stirling form
    ("harmonic:100", 10**12, 8, "0f17f01b8f8463eb3154f1331e5272e157c181b6ca4e30469810feed8231a7eb"),
    # BTRS at n*p near 1.2e18, re-recorded for the Stirling form (the lgamma form
    # erred by about 3e4 in log space there)
    ("expgeom:2", MAX_TOTAL, 8, "28202e22bb1143bada0e0ba5f37e912c3c23a76024d1370d83f9c4270cff0ba4"),
)


def _golden_pmf(spec):
    if isinstance(spec, tuple):
        return validate_pmf(spec)
    family, size = spec.split(":")
    return build_family(FamilySpec(family, int(size)))


class TestChainGolden:
    @pytest.mark.parametrize("case", range(len(GOLDEN_CHAIN)))
    def test_counts_match_recorded_hash(self, case):
        spec, n, reps, expected = GOLDEN_CHAIN[case]
        pmf = _golden_pmf(spec)
        digest = hashlib.sha256()
        for seed in derive_stream_seeds(2024, case << 20, reps):
            counts = sample_counts_multinomial(pmf, n, int(seed)).counts
            digest.update(counts.astype("<i8").tobytes())
        assert digest.hexdigest() == expected

    @pytest.mark.parametrize(
        "spec, n",
        [
            ("harmonic:1000", 10**6),
            ("harmonic:50", 200),
            ("expgeom:2", 1000),
            ("expgeom:2", 100_000),
            ("expgeom:30", 10_000),
            ((0.999, 0.001), 10_000),
            ((0.5, 0.5, 1e-300), 1000),
            ("harmonic:1000", 5),
            ("harmonic:6", 1),
            ("expgeom:2", MAX_TOTAL),
        ],
        ids=lambda v: str(v) if not isinstance(v, tuple) else "-".join(map(str, v)),
    )
    def test_chain_is_the_reference_chain(self, spec, n):
        # the one-loop chain against one binomial call per cell, seed by seed
        pmf = _golden_pmf(spec)
        for seed in derive_stream_seeds(77, 0, 200).tolist():
            assert sample_counts_multinomial(pmf, n, seed).counts.tolist() == chain_counts(pmf, n, seed), seed

    def test_plan_is_built_once_per_pmf(self):
        pmf = build_family(FamilySpec(HARMONIC, 7))
        plan = _chain_plan(pmf)
        assert _chain_plan(pmf) is plan
        assert len(plan) == 6

    @pytest.mark.parametrize(
        "spec",
        [
            "expgeom:700",
            "harmonic:1000000",
            "logharmonic:1000000",
            "uniform:1",
            "harmonic:2",
            # subnormal entries at both ends and in the middle of the tails
            (5e-324, 0.5, 1e-310, 0.5, 2e-320, 5e-324),
        ],
        ids=lambda spec: spec if isinstance(spec, str) else "subnormal",
    )
    def test_every_ratio_lies_in_the_unit_interval(self, spec):
        # p_i / tail_i with tail_i >= p_i > 0, so no cell's mass can underflow
        pmf = _golden_pmf(spec)
        ratios = np.asarray(_chain_plan(pmf))
        assert ratios.size == pmf.size - 1
        assert np.all(np.isfinite(ratios))
        assert np.all(ratios > 0.0) and np.all(ratios <= 1.0)


def _assert_binomial_sample(samples, n, p, top):
    """Mean, variance and a binned chi-square of draws in [0, top] against Binomial(n, p)."""
    draws = samples.size
    mean, var, _, kurtosis = (float(v) for v in binom.stats(n, p, moments="mvsk"))
    assert abs(samples.mean() - mean) <= 5.0 * math.sqrt(var / draws)
    # the sample variance's standard error is var * sqrt((excess kurtosis + 2) / draws)
    assert abs(samples.var(ddof=1) - var) <= 5.0 * var * math.sqrt((kurtosis + 2.0) / draws)
    qs = np.unique([binom.ppf(q, n, p) for q in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95)])
    edges = [-0.5, *(qs + 0.5), top + 0.5]
    observed = np.histogram(samples, bins=edges)[0]
    probs = np.diff([binom.cdf(e, n, p) for e in edges])
    stat = float(np.sum((observed - draws * probs) ** 2 / (draws * probs)))
    assert stat < chi2.ppf(0.999, len(observed) - 1)


class TestBinomialSampler:
    def test_degenerate_probabilities(self):
        rng = ScalarRng(5)
        assert _binomial(10, 0.0, rng) == 0
        assert _binomial(10, 1.0, rng) == 10

    def test_inversion_matches_exact_distribution(self):
        # n p = 10 <= 30: inversion path against the exact pmf
        n, p, draws = 50, 0.2, 20_000
        rng = ScalarRng(97)
        samples = np.array([_binomial_inversion(n, p, rng.uniform()) for _ in range(draws)])
        edges = [-0.5, 4.5, 6.5, 8.5, 10.5, 12.5, 14.5, n + 0.5]
        observed = np.histogram(samples, bins=edges)[0]
        probs = np.diff([binom.cdf(e, n, p) for e in edges])
        stat = float(np.sum((observed - draws * probs) ** 2 / (draws * probs)))
        assert stat < chi2.ppf(0.999, len(observed) - 1)

    @pytest.mark.parametrize(
        "n, p",
        [(10**14, 3e-13), (10**17, 1e-16), (10**18, 1e-17), (MAX_TOTAL, 25.0 / MAX_TOTAL)],
        ids=["1e14", "1e17", "1e18", "2^62"],
    )
    def test_inversion_at_huge_n_matches_exact_distribution(self, n, p):
        # 1 - p keeps few or none of p's bits here, so (1 - p)**n is far off
        # P(X = 0) (at n = 1e18 it is 1.0)
        rng = ScalarRng(n % 1009)
        with _time_limit(60):
            samples = np.array([_binomial_inversion(n, p, rng.uniform()) for _ in range(20_000)])
        _assert_binomial_sample(samples, n, p, _INVERSION_MAX)

    @pytest.mark.parametrize("n", [10**14, 10**17, MAX_TOTAL], ids=["1e14", "1e17", "2^62"])
    def test_btrs_at_huge_n_matches_exact_distribution(self, n):
        # n p = 1000, so the chain's first cell runs BTRS; its lgamma log test
        # alone erred by about 3e4 at n = 2^62, where the variance read 15 600
        pmf = validate_pmf([1000.0 / n, 1.0 - 1000.0 / n])
        seeds = derive_stream_seeds(n % 1009, 0, 20_000).tolist()
        with _time_limit(60):
            samples = np.array([sample_counts_multinomial(pmf, n, seed).counts[0] for seed in seeds])
        _assert_binomial_sample(samples, n, _chain_plan(pmf)[0], n)

    @pytest.mark.parametrize("n, p", [(10**14, 1e-13), (2**40 - 1, 1e-11)], ids=["1e14", "2^40-1"])
    @pytest.mark.parametrize("u", [0.5, 0.999, 0.9999, 1.0 - 2.0**-53])
    def test_inversion_never_walks_toward_n(self, n, p, u):
        # a summed CDF that rounds below u used to send the walk toward n;
        # at n = 1e14, (1 - p)**n summed to 0.9969, so u > 0.9969 hung
        with _time_limit(10):
            x = _binomial_inversion(n, p, u)
        assert 0 <= x <= _INVERSION_MAX
        if u <= 0.9999:
            assert x == binom.ppf(u, n, p)

    def test_stirlerr_matches_mpmath(self):
        for k in [*range(1, 40), 80, 81, 500, 501, 10**6, 2**31, 10**12, MAX_TOTAL]:
            assert _stirlerr(k) == pytest.approx(mp_stirlerr(k), rel=1e-15, abs=0.0), k

    @staticmethod
    def _log_test_cases(count=300):
        """(n, p, x, m) as BTRS's log test sees them: n*p > 30, p <= 1/2, x within 8 sd of the mode m."""
        rng = random.Random(41)
        for _ in range(count):
            n = int(2.0 ** rng.uniform(6.0, 62.0))
            p = min(0.5, 10.0 ** rng.uniform(math.log10(30.5), math.log10(n / 2)) / n)
            m = math.floor((n + 1) * p)
            x = min(n, max(0, m + int(rng.uniform(-8.0, 8.0) * math.sqrt(n * p * (1 - p)))))
            yield n, p, x, m

    def test_log_ratio_error_does_not_grow_with_n(self):
        for n, p, x, m in self._log_test_cases():
            exact = mp_binomial_log_ratio(n, p, x, m)
            assert abs(_binomial_log_ratio(n, p, x, m) - exact) <= 1e-14 * max(1, abs(x - m)), (n, p, x)

    def test_lgamma_form_decides_only_far_inside_its_error(self):
        # the chain takes the lgamma form's decision when it clears the bound by
        # h * _LGAMMA_TOL; its error (a few ulps of h) must stay far below that
        for n, p, x, m in self._log_test_cases():
            h = math.lgamma(m + 1) + math.lgamma(n - m + 1)
            fast = h - math.lgamma(x + 1) - math.lgamma(n - x + 1) + (x - m) * math.log(p / (1 - p))
            assert abs(fast - mp_binomial_log_ratio(n, p, x, m)) <= h * _LGAMMA_TOL / 256, (n, p, x)

    def test_btrs_matches_exact_distribution(self):
        # n p = 60 > 30: rejection path against the exact pmf
        n, p, draws = 200, 0.3, 20_000
        rng = ScalarRng(131)
        samples = np.array([_binomial_btrs(n, p, rng) for _ in range(draws)])
        assert np.all(samples >= 0) and np.all(samples <= n)
        qs = [binom.ppf(q, n, p) for q in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95)]
        edges = [-0.5] + [q + 0.5 for q in qs] + [n + 0.5]
        observed = np.histogram(samples, bins=edges)[0]
        probs = np.diff([binom.cdf(e, n, p) for e in edges])
        stat = float(np.sum((observed - draws * probs) ** 2 / (draws * probs)))
        assert stat < chi2.ppf(0.999, len(observed) - 1)

    def test_flip_path_mean(self):
        # p > 1/2 goes through the complement; check the mean survives it
        rng = ScalarRng(17)
        draws = np.array([_binomial(400, 0.9, rng) for _ in range(5000)])
        se = math.sqrt(400 * 0.9 * 0.1 / 5000)
        assert abs(draws.mean() - 360.0) <= 5.0 * se


class TestAliasTable:
    def test_build_holds_few_vectors(self):
        # the Vose loop runs on 8-byte-a-cell buffers, not Python objects
        probs = build_family(FamilySpec(HARMONIC, 1 << 17)).probs
        tracemalloc.start()
        try:
            AliasTable(probs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.0 * 8 * probs.size

    def test_single_symbol(self):
        table = AliasTable(np.array([1.0]))
        idx = alias_draw(table, CounterRng(3), 100)
        assert np.all(idx == 0)

    def test_draw_frequencies(self):
        probs = np.array([0.5, 0.3, 0.15, 0.05])
        table = AliasTable(probs)
        idx = alias_draw(table, CounterRng(11), 200_000)
        freq = np.bincount(idx, minlength=4) / 200_000
        assert np.max(np.abs(freq - probs)) < 0.005

    def test_build_and_draw_timing_smoke(self):
        # generous bounds; guards against accidentally quadratic construction
        probs = build_family(FamilySpec(HARMONIC, 10**5)).probs
        t0 = time.perf_counter()
        table = AliasTable(probs)
        build_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        alias_draw(table, CounterRng(1), 10**5)
        draw_time = time.perf_counter() - t0
        assert build_time < 5.0
        assert draw_time < 2.0


# Alphabet sizes at and beside every power of two below 2^52, the alias
# kernel's decimal sizes and the cap, and the largest K the cell bound covers.
_K_EDGES = sorted({k for e in range(52) for k in (2**e - 1, 2**e, 2**e + 1)} - {0} | {10**4, 10**7, 2**52 - 1})


class TestAliasCellBound:
    """The kernel's cell ``m * (K * 2^-53)``, truncated, is at most K - 1 for
    every 53-bit m and K < 2^52, so it needs no clamp; at the two largest m it
    is exactly K - 1."""

    @pytest.mark.parametrize("m", [2**53 - 1, 2**53 - 2])
    def test_largest_mantissas_give_the_last_cell(self, m):
        # the kernel's float path: the mantissa's int64 view times AliasTable._scale, cast unsafely
        mantissas = np.full(len(_K_EDGES), m, dtype=np.uint64).view(np.int64)
        scales = np.array([k * _TWO_NEG_53 for k in _K_EDGES])
        cells = np.empty(len(_K_EDGES), dtype=np.int64)
        np.copyto(cells, np.multiply(mantissas, scales), casting="unsafe")
        assert cells.tolist() == [k - 1 for k in _K_EDGES]

    @pytest.mark.parametrize("m", [2**53 - 1, 2**53 - 2])
    def test_kernel_draws_the_last_cells_alias(self, m, monkeypatch):
        # every uniform at m: the cell is K - 1, whose threshold 1/H_K lies below
        # m * 2^-53, so each draw is that cell's alias; the clipped gathers would
        # turn a cell of K into K - 1 itself
        def fill(key, first, z, tmp):
            z[:] = m
            return z

        monkeypatch.setattr(sampling, "_mantissas", fill)
        for k in (k for k in _K_EDGES if 2 <= k <= 10**4):
            table = AliasTable(build_family(FamilySpec(HARMONIC, k)).probs)
            assert table._scale == k * _TWO_NEG_53
            [(_, drawn)] = table._blocks(0, 0, 3)
            alias = int(table._pick[2 * (k - 1)])
            assert alias != k - 1 and drawn.tolist() == [alias] * 3, k


# sha256 of categorical counts (int64 little-endian), recorded before the
# blocked alias kernel; each case is (family, K, n, seed, sha256).
GOLDEN_CATEGORICAL = (
    ("harmonic", 2, 1000, 5, "db3cb19241ea34bb1aa93320d3ac089bbb035ae6afafd478089e93c23c4b4028"),
    ("harmonic", 10_000, 100_000, 42, "6720bbc50fa701a0f7345354f6746851038262db2c3a9d4fd230ba195bb1fc16"),
    # n crosses _DRAW_BATCH once and three times
    ("harmonic", 1000, (1 << 20) + 3, 7, "491476dfb2e610fe051d196030eaee4ace7d6670e2bce137e0beea3baccaec8d"),
    ("harmonic", 100, 3 * (1 << 20) + 5, 8, "a9c588b523e71dd787feb8c26425bba7d66e376dbf02db6e015e7689ccfd4d37"),
    # n below one sub-block
    ("harmonic", 50, 1, 9, "44d514bc2b3ae4eeebb98c1a03689d9411351f75cf9f86acc6ba39e50e20feb0"),
    ("logharmonic", 50, 5000, 10, "8fd78aee4a5e760a112a79c51f69db05f49613055f427a6f378dcab413b70e6c"),
    # n not a multiple of the sub-block
    ("uniform", 7, 3 * 16384 + 17, 11, "73f598431753f713883478d62bffc849ac8ce49065bc7deee1eb7af9a26420d8"),
    # thresholds down to ~1e-301
    ("expgeom", 700, 200_000, 12, "c931d52275986ff4f7cfc56909cb7e9e887745c52a8f80d747d5291bdeba5593"),
    # K larger than a sub-block
    ("harmonic", 100_000, 30_000, 13, "4e5208c5b729df5a656f4d9390751cd17d7e6423286ba021e96bc6d01d1a5d1a"),
    ("uniform", 1, 12345, 14, "e1543551249113046932741cc28f36b4bbcc542233eb5094874072d3167f160a"),
)
# alias draws over harmonic K=1000 from CounterRng(0xA11A5): 50 000 draws,
# 0 draws, three outputs skipped, 40 001 draws, 1 draw (concatenated).
GOLDEN_DRAW = "f23a7dbeeddfdf8f372142afa56ce74c1dd9c5e90f2d1d034572af8633e7fbab"


def _sha256_i8(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<i8").tobytes()).hexdigest()


def _reference_vose(probs):
    """Vose's build on numpy arrays: (threshold, alias) per cell."""
    k = probs.size
    scaled = probs * k
    threshold = np.ones(k)
    alias = np.arange(k)
    small = [i for i in range(k) if scaled[i] < 1.0]
    large = [i for i in range(k) if scaled[i] >= 1.0]
    while small and large:
        s, g = small.pop(), large.pop()
        threshold[s], alias[s] = scaled[s], g
        scaled[g] -= 1.0 - scaled[s]
        (small if scaled[g] < 1.0 else large).append(g)
    return threshold, alias


def _reference_draw(probs, rng, count):
    """The scalar-table alias draw: Vose build, float uniforms, np.where."""
    k = probs.size
    threshold, alias = _reference_vose(probs)
    u_cell = rng.uniforms(count)
    u_flip = rng.uniforms(count)
    idx = np.minimum((u_cell * k).astype(np.int64), k - 1)
    return np.where(u_flip < threshold[idx], idx, alias[idx])


class TestCategoricalKernel:
    @pytest.mark.parametrize("case", GOLDEN_CATEGORICAL, ids=lambda c: f"{c[0]}{c[1]}-n{c[2]}")
    def test_counts_match_recorded_hash(self, case):
        kind, k, n, seed, expected = case
        counts = sample_counts_categorical(build_family(FamilySpec(kind, k)), n, seed)
        assert _sha256_i8(counts.counts) == expected

    def test_draw_matches_recorded_hash(self):
        table = AliasTable(build_family(FamilySpec(HARMONIC, 1000)).probs)
        rng = CounterRng(0xA11A5)
        parts = [alias_draw(table, rng, 50_000), alias_draw(table, rng, 0)]
        rng._advance(3)
        parts += [alias_draw(table, rng, 40_001), alias_draw(table, rng, 1)]
        assert _sha256_i8(np.concatenate(parts)) == GOLDEN_DRAW

    @pytest.mark.parametrize(
        "spec",
        ["harmonic:1000", "expgeom:700", "uniform:1000", "uniform:1", (5e-324, 0.5, 1e-310, 0.5, 2e-320, 5e-324)],
        ids=lambda spec: spec if isinstance(spec, str) else "subnormal",
    )
    def test_table_is_the_reference_vose_build(self, spec):
        probs = _golden_pmf(spec).probs
        threshold, alias = _reference_vose(probs.copy())
        table = AliasTable(probs)
        assert np.array_equal(table._cutoff, np.ceil(threshold * 2.0**53).astype(np.uint64))
        assert table._pick.tolist() == np.stack((alias, np.arange(probs.size)), axis=1).ravel().tolist()

    def test_draw_shares_the_samplers_batch_layout(self):
        # n crosses _DRAW_BATCH, where each batch claims its own cell and flip uniforms
        pmf = build_family(FamilySpec(HARMONIC, 1000))
        n = _DRAW_BATCH + 3
        drawn = alias_draw(AliasTable(pmf.probs), CounterRng(7), n)
        counts = sample_counts_categorical(pmf, n, 7).counts
        assert np.array_equal(np.bincount(drawn, minlength=pmf.size), counts)

    def test_draw_matches_the_float_reference(self):
        # random Pmfs with tiny and near-1 thresholds, counts across sub-blocks,
        # seeds near 2^64 so the stream's counter words wrap
        picker = np.random.default_rng(23)
        for trial in range(30):
            k = int(picker.integers(1, 3000))
            weights = picker.gamma(0.3, size=k) * np.exp(-picker.integers(0, 600, size=k))
            pmf = validate_pmf(weights / weights.sum())
            count = int(picker.integers(0, 3 * _SUB_BLOCK + 2))
            seed = int(picker.integers(0, 2**64, dtype=np.uint64)) | (0xFFFF << 48) * (trial % 2)
            got = alias_draw(AliasTable(pmf.probs), CounterRng(seed), count)
            want = _reference_draw(pmf.probs.copy(), CounterRng(seed), count)
            assert np.array_equal(got, want), trial

    def test_table_is_built_once_per_pmf(self, monkeypatch):
        # the table is looked up by name at build time, so a wrapper sees every build
        built = []

        def counting(probs):
            built.append(probs.size)
            return AliasTable(probs)

        monkeypatch.setattr(sampling, "AliasTable", counting)
        pmf = build_family(FamilySpec(HARMONIC, 30))
        draws = [sample_counts_categorical(pmf, 500, seed).counts.tolist() for seed in (1, 2, 1)]
        assert built == [30]
        assert draws[0] == draws[2] != draws[1]

    def test_temporaries_stay_bounded(self):
        # n = 3*2^20 + 5 crosses _DRAW_BATCH three times; the kernel works in
        # sub-blocks, so no temporary grows with n
        pmf = build_family(FamilySpec(HARMONIC, 100))
        _alias_table(pmf)
        tracemalloc.start()
        try:
            sample_counts_categorical(pmf, 3 * _DRAW_BATCH + 5, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("sample", SAMPLERS)
    def test_samplers_emit_no_warnings(self, sample):
        # counter words wrap modulo 2^64 at extreme seeds and long streams
        pmf = build_family(FamilySpec(HARMONIC, 30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in (0, 1, 2**63, 2**64 - 1):
                for n in (1, 5000, _DRAW_BATCH + 1):
                    sample(pmf, n, seed)
