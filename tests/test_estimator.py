import gc
import math
import weakref
from dataclasses import fields

import numpy as np
import pytest

from entrokit import estimator
from entrokit.alphabet import FamilySpec, HARMONIC, UNIFORM, build_family, validate_pmf
from entrokit.estimator import DecompositionReport, _MEMO_MAX_K, decompose, empirical_pmf, plugin_entropy
from entrokit.exact import population_summary
from entrokit.sampling import CountVector, derive_stream_seeds, sample_counts_categorical, sample_counts_multinomial

from oracles import mp_entropy, mp_sigma2, random_pmf

LN2 = math.log(2.0)


def cv(counts):
    arr = np.asarray(counts, dtype=np.int64)
    return CountVector(arr, int(arr.sum()))


class TestEmpiricalPmf:
    def test_examples(self):
        assert empirical_pmf(cv([3, 1])).tolist() == [0.75, 0.25]
        assert empirical_pmf(cv([0, 5])).tolist() == [0.0, 1.0]
        assert empirical_pmf(cv([2, 2, 2])) == pytest.approx([1 / 3] * 3, abs=1e-16)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            counts = rng.integers(0, 100, size=12)
            counts[0] += 1
            assert math.fsum(empirical_pmf(cv(counts)).tolist()) == pytest.approx(1.0, abs=1e-15)


class TestPluginEntropy:
    def test_point_mass(self):
        assert plugin_entropy(cv([0, 9, 0])) == 0.0

    def test_zero_sums_are_positive_zero(self):
        # each is an exact sum of +0.0, or its negation, which must not read -0.0
        values = [plugin_entropy(cv([0, 9, 0]))]
        for counts, probs in (([5], (1.0,)), ([3, 3], (0.5, 0.5))):
            rep = estimator._decompose(cv(counts), validate_pmf(probs))
            values += [rep.linear_term, rep.kl_term, rep.chi2_term]
        values.append(decompose(cv([5]), validate_pmf((1.0,))).plugin_entropy)
        assert values == [0.0] * 8
        assert [math.copysign(1.0, v) for v in values] == [1.0] * 8

    def test_uniform_counts(self):
        assert plugin_entropy(cv([2, 2, 2, 2])) == pytest.approx(math.log(4.0), abs=1e-15)

    def test_three_one_split(self):
        expected = math.log(4.0) - 0.75 * math.log(3.0)
        assert plugin_entropy(cv([3, 1])) == pytest.approx(expected, abs=1e-15)

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            counts = rng.integers(0, 50, size=8)
            counts[rng.integers(0, 8)] += 1
            value = plugin_entropy(cv(counts))
            assert 0.0 <= value <= math.log(8.0) + 1e-12


class TestDecompose:
    def test_exact_counts_vanish(self):
        pmf = validate_pmf((0.5, 0.25, 0.25))
        rep = decompose(cv([2, 1, 1]), pmf)
        assert rep.linear_term == 0.0
        assert rep.kl_term == 0.0
        assert rep.chi2_term == 0.0
        assert rep.plugin_entropy == pytest.approx(population_summary(pmf).entropy, abs=1e-15)

    def test_uniform_reference_reduction(self):
        # against a uniform reference the KL term collapses to ln K - plugin
        pmf = build_family(FamilySpec(UNIFORM, 8))
        rep = decompose(cv([5, 0, 1, 1, 3, 2, 0, 4]), pmf)
        assert rep.kl_term == pytest.approx(math.log(8.0) - rep.plugin_entropy, abs=1e-13)
        assert rep.linear_term == pytest.approx(0.0, abs=1e-13)

    def test_two_cell_uniform_reference(self):
        pmf = validate_pmf((0.5, 0.5))
        rep = decompose(cv([3, 1]), pmf)
        assert rep.linear_term == pytest.approx(0.0, abs=1e-15)
        assert rep.kl_term == pytest.approx(LN2 - rep.plugin_entropy, abs=1e-14)

    def test_identity_and_sandwich_random_pairs(self):
        # counts come from numpy's own multinomial: the identity must hold
        # for arbitrary counts, not only those from the package samplers
        rng = np.random.default_rng(20240812)
        for _ in range(10_000):
            k = int(rng.integers(2, 101))
            pmf = validate_pmf(random_pmf(rng, k))
            n = int(rng.integers(1, 10_000))
            counts = CountVector(rng.multinomial(n, pmf.probs), n)
            rep = decompose(counts, pmf)
            pop = population_summary(pmf)
            gap = rep.plugin_entropy - pop.entropy
            assert abs(gap - (rep.linear_term - rep.kl_term)) <= 1e-12
            assert 0.0 <= rep.kl_term <= rep.chi2_term + 1e-12

    def test_standardized_matches_direct(self):
        pmf = validate_pmf((0.25, 0.75))
        pop = population_summary(pmf)
        counts = cv([3, 1])
        rep = decompose(counts, pmf)
        direct = math.sqrt(4.0) * (plugin_entropy(counts) - pop.entropy) / pop.sigma
        assert rep.standardized == pytest.approx(direct, abs=1e-15)

    def test_standardized_against_high_precision(self):
        pmf = validate_pmf((0.25, 0.75))
        h = mp_entropy(pmf.probs)
        sigma = math.sqrt(mp_sigma2(pmf.probs))
        expected = 2.0 * (plugin_entropy(cv([3, 1])) - h) / sigma
        assert decompose(cv([3, 1]), pmf).standardized == pytest.approx(expected, rel=1e-12)

    def test_degenerate_sigma_flags_absence(self):
        pmf = build_family(FamilySpec(UNIFORM, 4))
        rep = decompose(cv([1, 2, 0, 1]), pmf)
        assert rep.standardized is None

    def test_length_mismatch(self):
        pmf = validate_pmf((0.5, 0.5))
        with pytest.raises(ValueError, match="match"):
            decompose(cv([1, 2, 3]), pmf)

    @pytest.mark.parametrize(
        "kind, k, counts",
        [
            ("expgeom", 2, [731058578631, 268941421369]),
            ("harmonic", 3, [545454547, 272727272, 181818181]),
        ],
    )
    def test_kl_clamp(self, kind, k, counts):
        # counts in the Pmf's proportions: the raw KL sum rounds just below zero
        pmf = build_family(FamilySpec(kind, k))
        phat = np.array(counts) / sum(counts)
        raw = math.fsum((phat * (np.log(phat) - np.log(pmf.probs))).tolist())
        assert -1e-12 < raw < 0.0
        assert decompose(cv(counts), pmf).kl_term == 0.0


def assert_same_report(a, b):
    for field in fields(DecompositionReport):
        assert repr(getattr(a, field.name)) == repr(getattr(b, field.name)), field.name


class TestReportMemo:
    """Up to _MEMO_MAX_K symbols decompose keeps each distinct count vector's
    report per Pmf; a memo hit must carry a fresh computation's bits.  Above
    it no report is kept."""

    @pytest.mark.parametrize("sample", [sample_counts_multinomial, sample_counts_categorical])
    @pytest.mark.parametrize("k", [2, 3, 8, 16])
    def test_warm_equals_cold(self, k, sample):
        kept = k <= _MEMO_MAX_K
        pmf = build_family(FamilySpec(HARMONIC, k))
        seen = set()
        for n in (3, 20, 1000):  # n=3 repeats count vectors at every k
            for seed in derive_stream_seeds(k * n, 0, 200).tolist():
                counts = sample(pmf, n, seed)
                seen.add(counts.counts.tobytes())
                cold = estimator._decompose(counts, pmf)
                warm = decompose(counts, pmf)
                assert (decompose(counts, pmf) is warm) == kept
                assert_same_report(warm, cold)
        assert len(estimator._small_reports(pmf)) == (len(seen) if kept else 0)

    def test_equal_counts_share_one_report(self):
        pmf = build_family(FamilySpec(HARMONIC, 2))
        first = decompose(cv([4, 1]), pmf)
        assert decompose(cv([4, 1]), pmf) is first
        assert decompose(cv([1, 4]), pmf) is not first

    @pytest.mark.parametrize("cap", [5, estimator._MEMO_CAP])
    def test_table_stops_at_its_cap(self, monkeypatch, cap):
        monkeypatch.setattr(estimator, "_MEMO_CAP", cap)
        pmf = build_family(FamilySpec(HARMONIC, 2))
        memo = estimator._small_reports(pmf)
        total = cap + 50
        for heads in range(total + 1):
            counts = cv([heads, total - heads])
            assert_same_report(decompose(counts, pmf), estimator._decompose(counts, pmf))
            assert len(memo) == min(heads + 1, cap)
        # past the cap a report is computed afresh on every call
        assert decompose(cv([total, 0]), pmf) is not decompose(cv([total, 0]), pmf)
        assert decompose(cv([0, total]), pmf) is decompose(cv([0, total]), pmf)

    def test_length_mismatch_raises_on_a_warm_table(self):
        pmf = validate_pmf((0.5, 0.5))
        decompose(cv([1, 2]), pmf)
        assert len(estimator._small_reports(pmf)) == 1
        for counts in ([1, 2, 0], [3]):
            with pytest.raises(ValueError, match="match"):
                decompose(cv(counts), pmf)
        assert len(estimator._small_reports(pmf)) == 1

    def test_no_memo_above_small_k(self):
        pmf = build_family(FamilySpec(HARMONIC, _MEMO_MAX_K + 1))
        counts = cv(np.arange(1, _MEMO_MAX_K + 2))
        assert decompose(counts, pmf) is not decompose(counts, pmf)
        assert len(estimator._small_reports(pmf)) == 0

    def test_filled_table_dies_with_its_pmf(self):
        pmf = build_family(FamilySpec(HARMONIC, 2))
        report = decompose(cv([7, 3]), pmf)
        # the table is a plain dict: the report only it holds shows it freed
        assert list(estimator._small_reports(pmf).values()) == [report]
        ref = weakref.ref(report)
        del pmf, report
        gc.collect()
        assert ref() is None


class TestStandardizedScaling:
    def test_quadrupling_n_doubles_z(self):
        pmf = validate_pmf((0.25, 0.75))
        z_small = decompose(cv([3, 1]), pmf).standardized
        z_large = decompose(cv([12, 4]), pmf).standardized
        assert z_large == pytest.approx(2.0 * z_small, rel=1e-14)


@pytest.fixture(scope="module")
def replicated():
    pmf = build_family(FamilySpec(HARMONIC, 10))
    pop = population_summary(pmf)
    n, reps = 100, 10_000
    plugins = np.empty(reps)
    chi2s = np.empty(reps)
    for j, seed in enumerate(derive_stream_seeds(606, 0, reps).tolist()):
        counts = sample_counts_multinomial(pmf, n, seed)
        rep = decompose(counts, pmf)
        plugins[j] = rep.plugin_entropy
        chi2s[j] = rep.chi2_term
    return pmf, pop, n, plugins, chi2s


class TestSamplingMoments:
    def test_negative_bias(self, replicated):
        # E[linear] = 0 and kl >= 0 force a downward bias of the plug-in value
        _, pop, _, plugins, _ = replicated
        reps = len(plugins)
        assert plugins.mean() <= pop.entropy + 3.0 * plugins.std(ddof=1) / math.sqrt(reps)

    def test_chi2_mean_identity(self, replicated):
        pmf, _, n, _, chi2s = replicated
        reps = len(chi2s)
        expected = (pmf.size - 1) / n
        se = chi2s.std(ddof=1) / math.sqrt(reps)
        assert abs(chi2s.mean() - expected) <= 4.0 * se
