import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from entrokit.alphabet import (
    EXP_GEOMETRIC,
    HARMONIC,
    LOG_HARMONIC,
    UNIFORM,
    FamilySpec,
    build_family,
    validate_pmf,
)
from entrokit.estimator import DecompositionReport, _small_reports, decompose
from entrokit.exact import (
    DegenerateVarianceError,
    MdpSchedule,
    abs_central_moment,
    berry_esseen_shape,
    entropy,
    exp_moment,
    exp_moment_envelope,
    log_law,
    mdp_condition,
    normal_cdf,
    population_summary,
    split_moment_bound,
)

from entrokit.sampling import _alias_table, _chain_plan, derive_stream_seeds, sample_counts_multinomial

from oracles import (
    mp_abs_central_moment,
    mp_exp_envelope,
    mp_exp_moment,
    mp_sigma2,
    mp_split_moment_bound,
    normal_cdf_quadrature,
    random_pmf,
)

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def dyadic():
    return validate_pmf((0.5, 0.25, 0.25))


@pytest.fixture(scope="module")
def random_pmfs():
    rng = np.random.default_rng(20240811)
    return [validate_pmf(random_pmf(rng, int(rng.integers(2, 51)))) for _ in range(100)]


class TestLogLaw:
    def test_one_log_pass_serves_every_functional_and_decompose(self, monkeypatch):
        pmf = build_family(FamilySpec(HARMONIC, 1000))
        real_log = np.log
        passes = []

        def counting_log(x, *args, **kwargs):
            if x is pmf.probs:
                passes.append(x.size)
            return real_log(x, *args, **kwargs)

        monkeypatch.setattr(np, "log", counting_log)
        pop = population_summary(pmf)
        assert entropy(pmf) == pop.entropy
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for fn in (abs_central_moment, split_moment_bound, exp_moment, exp_moment_envelope):
                fn(pmf, 1.0)
        berry_esseen_shape(pmf, 10**6, 1.0)
        mdp_condition(pmf, 10**6, MdpSchedule(rho=0.2, epsilon=1.0, r=0.5))
        for seed in derive_stream_seeds(11, 0, 20):
            decompose(sample_counts_multinomial(pmf, 5000, int(seed)), pmf)
        assert passes == [1000]
        assert log_law(pmf).summary is pop

    @pytest.mark.parametrize("fn", [abs_central_moment, split_moment_bound, exp_moment])
    def test_moments_take_one_temporary(self, fn):
        # at most one K-float temporary (plus the exact sum's block buffers)
        pmf = build_family(FamilySpec(HARMONIC, 200_000))
        log_law(pmf)
        tracemalloc.start()
        try:
            fn(pmf, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * pmf.size

    def test_functionals_hold_only_the_log_vector(self):
        # ln p is the one K-vector kept; every sum pulls its terms a block at a time
        pmf = build_family(FamilySpec(HARMONIC, 1 << 20))
        tracemalloc.start()
        try:
            log_law(pmf)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for fn in (abs_central_moment, split_moment_bound, exp_moment, exp_moment_envelope):
                    fn(pmf, 1.0)
            mdp_condition(pmf, 10**6, MdpSchedule(rho=0.2, epsilon=1.0, r=0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * pmf.size

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec(HARMONIC, 7),
            FamilySpec(HARMONIC, 100_000),
            FamilySpec(EXP_GEOMETRIC, 700),
            FamilySpec(LOG_HARMONIC, 3000),
        ],
    )
    def test_streamed_sums_are_the_whole_array_sums(self, spec):
        # reference: each functional's elementwise terms built as one K-vector, then math.fsum
        pmf = build_family(spec)
        p, delta = pmf.probs, 0.5
        logp = np.log(p)
        h = -math.fsum((p * logp).tolist())
        centered = logp + h
        pop = population_summary(pmf)
        assert (pop.entropy, pop.sigma2) == (h, math.fsum((p * centered * centered).tolist()))
        assert abs_central_moment(pmf, delta) == math.fsum((np.abs(centered) ** (2.0 + delta) * p).tolist())
        split = math.fsum((np.abs(logp) ** (2.0 + delta) * p).tolist()) + h ** (2.0 + delta)
        assert split_moment_bound(pmf, delta) == split
        assert exp_moment(pmf, delta) == math.fsum((np.exp(np.abs(centered) * delta / pop.sigma) * p).tolist())
        ratio = delta / pop.sigma
        envelope = math.fsum((p ** (1.0 - ratio)).tolist()) * math.exp(ratio * h)
        assert exp_moment_envelope(pmf, delta) == envelope
        schedule, n = MdpSchedule(rho=0.2, epsilon=1.0, r=0.5), 10**6
        b = schedule.scale(n)
        exponents = -2.0 * schedule.epsilon * math.sqrt(n) * b * pop.sigma * p**2
        peak = float(exponents.max())
        log_sum = peak + math.log(math.fsum(np.exp(exponents - peak).tolist()))
        assert mdp_condition(pmf, n, schedule) == log_sum / b**2

    def test_arrays_are_read_only_and_consistent(self):
        pmf = validate_pmf((0.5, 0.25, 0.25))
        law = log_law(pmf)
        assert law is log_law(pmf)
        assert not law.logp.flags.writeable
        with pytest.raises(ValueError):
            law.logp[0] = 0.0
        assert law.logp.tolist() == np.log(pmf.probs).tolist()

    @pytest.mark.parametrize("table", [log_law, _chain_plan, _alias_table, _small_reports], ids=lambda f: f.__name__)
    def test_cache_entry_dies_with_its_pmf(self, table):
        # every per-Pmf table is built once and freed with its Pmf
        pmf = build_family(FamilySpec(HARMONIC, 50))
        value = table(pmf)
        assert table(pmf) is value
        if table is _small_reports:  # a plain dict: watch a report that only it holds
            value = value.setdefault(b"counts", DecompositionReport(0.0, 0.0, 0.0, 0.0, None))
        ref = weakref.ref(value)
        del pmf, value
        gc.collect()
        assert ref() is None


class TestEntropy:
    def test_uniform_maximizer(self):
        assert entropy(build_family(FamilySpec(UNIFORM, 8))) == pytest.approx(math.log(8.0), abs=1e-14)

    def test_single_atom(self):
        h = entropy(validate_pmf((1.0,)))
        assert h == 0.0 and math.copysign(1.0, h) == 1.0  # +0.0, not a negated +0.0

    def test_dyadic_exact(self, dyadic):
        assert entropy(dyadic) == pytest.approx(1.5 * LN2, abs=1e-15)

    def test_jensen_upper_bound(self, random_pmfs):
        for pmf in random_pmfs:
            assert entropy(pmf) <= math.log(pmf.size) + 1e-12

    def test_jensen_equality_only_at_uniform(self):
        uniform = build_family(FamilySpec(UNIFORM, 16))
        assert abs(entropy(uniform) - math.log(16.0)) <= 1e-12
        tilted = validate_pmf(np.array([1.5] + [1.0] * 15) / 16.5)
        assert entropy(tilted) < math.log(16.0) - 1e-4


class TestPopulationSummary:
    def test_uniform_degenerate(self):
        pop = population_summary(build_family(FamilySpec(UNIFORM, 64)))
        assert pop.sigma2 == 0.0 and pop.sigma == 0.0 and pop.degenerate

    def test_uniform_degenerate_large_alphabet(self):
        # cancellation residue at K = 10^6 must still clamp to exactly zero
        pop = population_summary(build_family(FamilySpec(UNIFORM, 10**6)))
        assert pop.sigma2 == 0.0

    def test_dyadic_exact(self, dyadic):
        pop = population_summary(dyadic)
        assert pop.sigma2 == pytest.approx(0.25 * LN2**2, rel=1e-13)

    def test_matches_uncentered_oracle(self, random_pmfs):
        for pmf in random_pmfs[:40]:
            assert population_summary(pmf).sigma2 == pytest.approx(
                mp_sigma2(pmf.probs), rel=1e-12, abs=1e-15
            )

    def test_harmonic_large_alphabet_scaling(self):
        pmf = build_family(FamilySpec(HARMONIC, 10**6))
        pop = population_summary(pmf)
        assert 0.7 < 12.0 * pop.sigma2 / math.log(10**6) ** 2 < 1.3


class TestAbsCentralMoment:
    def test_delta_zero_is_variance(self, random_pmfs):
        for pmf in random_pmfs:
            pop = population_summary(pmf)
            moment = abs_central_moment(pmf, 0.0)
            assert moment == pytest.approx(pop.sigma2, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("delta", [0.0, 0.25, 0.5, 1.0])
    def test_uniform_vanishes(self, delta):
        pmf = build_family(FamilySpec(UNIFORM, 7))
        assert abs_central_moment(pmf, delta) <= 1e-28

    def test_harmonic_against_oracle(self):
        pmf = build_family(FamilySpec(HARMONIC, 10**4))
        value = abs_central_moment(pmf, 1.0)
        assert value == pytest.approx(mp_abs_central_moment(pmf.probs, 1.0), rel=1e-12)
        # envelope shape: bounded by a multiple of ln^3 K at this size
        assert value <= 4.0 * math.log(10**4) ** 3

    def test_delta_out_of_range(self, dyadic):
        with pytest.raises(ValueError):
            abs_central_moment(dyadic, 1.5)
        with pytest.raises(ValueError):
            abs_central_moment(dyadic, -0.1)


class TestSplitMomentBound:
    def test_single_atom_zero(self):
        assert split_moment_bound(validate_pmf((1.0,)), 0.5) == 0.0

    def test_two_point_delta_zero(self):
        assert split_moment_bound(validate_pmf((0.5, 0.5)), 0.0) == pytest.approx(
            2.0 * LN2**2, rel=1e-14
        )

    def test_harmonic_against_oracle(self):
        pmf = build_family(FamilySpec(HARMONIC, 10**3))
        assert split_moment_bound(pmf, 0.5) == pytest.approx(
            mp_split_moment_bound(pmf.probs, 0.5), rel=1e-12
        )

    @pytest.mark.parametrize("delta", [0.0, 0.3, 0.7, 1.0])
    def test_sandwich_inequality(self, random_pmfs, delta):
        # |a+b|^{2+d} <= 2^{1+d} (|a|^{2+d} + |b|^{2+d}) with a = -ln p(X), b = -H
        factor = 2.0 ** (1.0 + delta)
        for pmf in random_pmfs:
            moment = abs_central_moment(pmf, delta)
            bound = split_moment_bound(pmf, delta)
            assert moment <= factor * bound * (1.0 + 1e-12)
            assert bound >= moment / factor * (1.0 - 1e-12)


class TestExpMoment:
    def test_small_delta_near_one(self, dyadic):
        assert exp_moment(dyadic, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_two_point_uniform_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            exp_moment(validate_pmf((0.5, 0.5)), 0.1)

    def test_expgeom_against_oracle_and_envelope(self):
        pmf = build_family(FamilySpec(EXP_GEOMETRIC, 50))
        value = exp_moment(pmf, 0.1)
        assert value == pytest.approx(mp_exp_moment(pmf.probs, 0.1), rel=1e-11)
        assert value <= exp_moment_envelope(pmf, 0.1)

    def test_requires_positive_delta(self, dyadic):
        with pytest.raises(ValueError):
            exp_moment(dyadic, 0.0)


class TestExpMomentEnvelope:
    def test_dominates_exp_moment(self):
        pmf = build_family(FamilySpec(HARMONIC, 100))
        assert exp_moment_envelope(pmf, 0.05) >= exp_moment(pmf, 0.05)

    def test_dominates_exp_moment_on_random_pmfs(self, random_pmfs):
        import warnings

        for pmf in random_pmfs:
            for delta in (0.01, 0.1):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    envelope = exp_moment_envelope(pmf, delta)
                assert envelope >= exp_moment(pmf, delta) * (1.0 - 1e-12)

    def test_expgeom_envelope_stable_in_size(self):
        # the geometric tail makes the power sum insensitive to K
        values = [
            exp_moment_envelope(build_family(FamilySpec(EXP_GEOMETRIC, k)), 0.1)
            for k in (10, 20, 50)
        ]
        assert max(values) / min(values) < 1.001
        assert max(values) < 10.0

    def test_small_delta_limit(self, dyadic):
        pmf = validate_pmf((0.7, 0.2, 0.1))
        assert exp_moment_envelope(pmf, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_oracle_agreement(self):
        pmf = build_family(FamilySpec(HARMONIC, 200))
        assert exp_moment_envelope(pmf, 0.2) == pytest.approx(
            mp_exp_envelope(pmf.probs, 0.2), rel=1e-11
        )

    def test_overflow_beyond_float_range_is_inf(self):
        # sigma ~ 2e-6, so exp(delta * H / sigma) overflows a double
        pmf = validate_pmf((0.500001, 0.499999))
        with pytest.warns(RuntimeWarning, match="delta/sigma"):
            assert exp_moment_envelope(pmf, 1.0) == math.inf

    def test_warns_when_exponent_not_controlled(self):
        pmf = validate_pmf((0.9, 0.1))
        with pytest.warns(RuntimeWarning, match="delta/sigma"):
            exp_moment_envelope(pmf, 0.7)


class TestBerryEsseenShape:
    def test_delta_zero_first_term_is_one(self):
        pmf = build_family(FamilySpec(HARMONIC, 20))
        pop = population_summary(pmf)
        n = 10**4
        expected = 1.0 + math.sqrt(pmf.size / (math.sqrt(n) * pop.sigma))
        assert berry_esseen_shape(pmf, n, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_strictly_decreasing_in_n(self):
        pmf = build_family(FamilySpec(HARMONIC, 20))
        for delta in (0.0, 0.5, 1.0):
            shapes = [berry_esseen_shape(pmf, n, delta) for n in (10**2, 4 * 10**2, 10**4, 4 * 10**4)]
            assert all(b > a for a, b in zip(shapes[1:], shapes[:-1]))

    def test_alphabet_term_dominates_at_root_fourth_growth(self):
        n = 10**6
        size = int(n**0.25)
        pmf = build_family(FamilySpec(HARMONIC, size))
        pop = population_summary(pmf)
        term_clt = abs_central_moment(pmf, 1.0) / (math.sqrt(n) * pop.sigma**3)
        term_alphabet = math.sqrt(size / (math.sqrt(n) * pop.sigma))
        assert term_alphabet > term_clt
        assert berry_esseen_shape(pmf, n, 1.0) == pytest.approx(
            term_clt + term_alphabet, rel=1e-12
        )

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            berry_esseen_shape(build_family(FamilySpec(UNIFORM, 4)), 100, 1.0)


class TestMdpCondition:
    def test_log_space_matches_direct_sum(self):
        pmf = build_family(FamilySpec(HARMONIC, 5))
        schedule = MdpSchedule(rho=0.25, epsilon=0.5, r=1.0)
        n = 100
        b = schedule.scale(n)
        direct = math.log(
            math.fsum(
                math.exp(-2.0 * schedule.epsilon * math.sqrt(n) * b * population_summary(pmf).sigma * p * p)
                for p in pmf.probs.tolist()
            )
        ) / b**2
        assert mdp_condition(pmf, n, schedule) == pytest.approx(direct, rel=1e-12)

    def test_no_underflow_at_extreme_exponents(self):
        # exponents reach about -2 * sqrt(n) * b * sigma; the naive sum would be 0.0
        pmf = validate_pmf((1.0 - 1e-6, 1e-6))
        schedule = MdpSchedule(rho=0.4, epsilon=1.0, r=1.0)
        value = mdp_condition(pmf, 10**10, schedule)
        assert math.isfinite(value)
        assert value < 0.0

    def test_divergence_trend_fixed_alphabet(self):
        # with the alphabet held fixed the summability value diverges cleanly
        schedule = MdpSchedule(rho=0.1, epsilon=1.0, r=1.0)
        pmf = build_family(FamilySpec(HARMONIC, 20))
        values = [mdp_condition(pmf, n, schedule) for n in (10**3, 10**4, 10**5, 10**6)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_divergence_trend_expgeom_loggrowth(self):
        # bounded-variance family with K = floor((ln n)^0.4): the strongest
        # desk-scale divergence among the example families
        schedule = MdpSchedule(rho=0.1, epsilon=1.0, r=0.5)
        values = []
        for n in (10**3, 10**4, 10**5):
            pmf = build_family(FamilySpec(EXP_GEOMETRIC, int(math.log(n) ** 0.4)))
            values.append(mdp_condition(pmf, n, schedule))
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < -5.0

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            mdp_condition(validate_pmf((1.0,)), 100, MdpSchedule(0.25, 1.0, 1.0))

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            MdpSchedule(rho=0.5, epsilon=1.0, r=1.0)
        with pytest.raises(ValueError):
            MdpSchedule(rho=0.0, epsilon=1.0, r=1.0)
        with pytest.raises(ValueError):
            MdpSchedule(rho=0.1, epsilon=0.0, r=1.0)
        with pytest.raises(ValueError):
            MdpSchedule(rho=0.1, epsilon=1.0, r=-0.5)

    @pytest.mark.parametrize(
        "field, value",
        [("rho", "0.1"), ("r", None), ("r", True), ("epsilon", True), ("epsilon", [1.0]), ("r", np.float32(1.0))],
        ids=repr,
    )
    def test_schedule_takes_an_int_or_a_float(self, field, value):
        # "0.1" and None raised a bare TypeError; True was held as True
        settings = {"rho": 0.1, "epsilon": 1.0, "r": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} takes an int or a float"):
            MdpSchedule(**settings)

    def test_schedule_holds_floats(self):
        schedule = MdpSchedule(rho=0.25, epsilon=np.int64(2), r=1)
        assert [type(v) for v in (schedule.rho, schedule.epsilon, schedule.r)] == [float] * 3
        assert (schedule.epsilon, schedule.r) == (2.0, 1.0)
        with pytest.raises(ValueError, match="r lies beyond float range"):
            MdpSchedule(rho=0.25, epsilon=1.0, r=10**400)
        with pytest.raises(ValueError, match=r"r\*r finite"):
            MdpSchedule(rho=0.25, epsilon=1.0, r=10**200)

    def test_schedule_holds_no_negative_zero(self):
        # through alphabet._as_float, which every real setting and echo passes
        assert math.copysign(1.0, MdpSchedule(rho=0.25, epsilon=1.0, r=-0.0).r) == 1.0


_SCHEDULE = MdpSchedule(rho=0.2, epsilon=1.0, r=0.5)
# every exact function that takes a sample size n, or a moment offset delta
_N_TAKERS = {
    "berry_esseen_shape": lambda pmf, n: berry_esseen_shape(pmf, n, 1.0),
    "mdp_condition": lambda pmf, n: mdp_condition(pmf, n, _SCHEDULE),
}
_DELTA_TAKERS = {
    "abs_central_moment": abs_central_moment,
    "split_moment_bound": split_moment_bound,
    "berry_esseen_shape": lambda pmf, delta: berry_esseen_shape(pmf, 100, delta),
    "exp_moment": exp_moment,
    "exp_moment_envelope": exp_moment_envelope,
}


class TestArgumentContracts:
    """n takes the samplers' sample-size contract and delta the real-number
    contract of the config; a bad value raises a ValueError naming it."""

    @pytest.mark.parametrize(
        "value",
        [2.5, True, 0, -3, (1 << 62) + 1, 10**400, "100", None, np.float64(100.0)],
        ids=["2.5", "True", "0", "-3", "2^62+1", "10^400", "'100'", "None", "np.float64"],
    )
    @pytest.mark.parametrize("name", sorted(_N_TAKERS))
    def test_bad_sample_size(self, name, value):
        pmf = build_family(FamilySpec(HARMONIC, 20))
        with pytest.raises(ValueError, match="sample size must be an integer in"):
            _N_TAKERS[name](pmf, value)

    @pytest.mark.parametrize(
        "value, message",
        [
            ("0.5", "takes an int or a float"),
            (True, "takes an int or a float"),
            (None, "takes an int or a float"),
            ([0.5], "takes an int or a float"),
            (np.float32(0.5), "takes an int or a float"),
            (10**400, "lies beyond float range"),
        ],
        ids=["'0.5'", "True", "None", "[0.5]", "np.float32", "10^400"],
    )
    @pytest.mark.parametrize("name", sorted(_DELTA_TAKERS))
    def test_bad_delta(self, name, value, message):
        pmf = build_family(FamilySpec(HARMONIC, 20))
        with pytest.raises(ValueError, match=f"delta {message}"):
            _DELTA_TAKERS[name](pmf, value)

    @pytest.mark.parametrize("name", sorted(_DELTA_TAKERS))
    def test_integer_delta_is_its_float(self, name):
        pmf = build_family(FamilySpec(HARMONIC, 1000))  # sigma > 1, so the envelope does not warn
        assert _DELTA_TAKERS[name](pmf, np.int64(1)) == _DELTA_TAKERS[name](pmf, 1.0)

    @pytest.mark.parametrize("name", sorted(_N_TAKERS))
    def test_numpy_sample_size_is_its_int(self, name):
        pmf = build_family(FamilySpec(HARMONIC, 20))
        assert _N_TAKERS[name](pmf, np.int64(1000)) == _N_TAKERS[name](pmf, 1000)


class TestNormalCdf:
    def test_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_symmetry(self):
        for x in np.linspace(-8.0, 8.0, 41):
            assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)

    def test_975_quantile(self):
        assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_against_quadrature(self):
        for x in (-3.7, -1.2, -0.3, 0.4, 1.1, 2.5, 4.0):
            assert normal_cdf(x) == pytest.approx(normal_cdf_quadrature(x), abs=1e-10)


class TestFamilyTrendInvariants:
    def test_harmonic_variance_ratio_trend(self):
        deviations = []
        for size in (10**3, 10**4, 10**5, 10**6):
            pop = population_summary(build_family(FamilySpec(HARMONIC, size)))
            deviations.append(abs(12.0 * pop.sigma2 / math.log(size) ** 2 - 1.0))
        assert all(b < a for a, b in zip(deviations, deviations[1:]))

    def test_harmonic_entropy_ratio_trend(self):
        ratios = []
        for size in (10**3, 10**4, 10**5, 10**6):
            pop = population_summary(build_family(FamilySpec(HARMONIC, size)))
            ratios.append(pop.entropy / (0.5 * math.log(size)))
        # slow approach to 1 from above: the ln(normalizer) correction decays
        # like lnln K / ln K, so only the direction is checkable at desk scale
        assert all(r > 1.0 for r in ratios)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_expgeom_variance_bounded(self):
        values = [
            population_summary(build_family(FamilySpec(EXP_GEOMETRIC, size))).sigma2
            for size in range(5, 501)
        ]
        assert min(values) >= 0.1
        assert max(values) <= 10.0

    def test_logharmonic_variance_ratio_trend(self):
        ratios = []
        for size in (10**3, 10**4, 10**5, 10**6):
            pop = population_summary(build_family(FamilySpec(LOG_HARMONIC, size)))
            log_k = math.log(size)
            ratios.append(2.0 * pop.sigma2 * math.log(log_k) / log_k**2)
        assert all(0.0 < r < 1.0 for r in ratios)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
