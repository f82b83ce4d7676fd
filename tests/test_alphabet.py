import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from entrokit import alphabet
from entrokit.alphabet import (
    _FSUM_BLOCK,
    _FSUM_MIN_SIZE,
    CUSTOM,
    EXP_GEOMETRIC,
    HARMONIC,
    EXPGEOM_MAX_SIZE,
    LOG_HARMONIC,
    MAX_ALPHABET_SIZE,
    UNIFORM,
    FamilySpec,
    Pmf,
    PmfError,
    _fsum,
    _fsum_terms,
    build_family,
    family_weights,
    load_custom_pmf,
    parse_family,
    validate_pmf,
)


def fsum_probs(pmf):
    return math.fsum(pmf.probs.tolist())


class TestBuildFamily:
    def test_harmonic_k2(self):
        pmf = build_family(FamilySpec(HARMONIC, 2))
        # direct normalization of (1, 1/2)
        assert pmf.probs == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-15)
        assert pmf.normalizer == pytest.approx(1.5, abs=0.0)

    def test_uniform_k4(self):
        pmf = build_family(FamilySpec(UNIFORM, 4))
        assert pmf.probs == pytest.approx([0.25] * 4, abs=0.0)

    def test_expgeom_single_atom(self):
        pmf = build_family(FamilySpec(EXP_GEOMETRIC, 1))
        assert pmf.probs == pytest.approx([1.0], abs=0.0)
        assert pmf.normalizer == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_expgeom_normalizer_closed_form(self):
        # geometric series: sum_{i<=K} e^-i = e^-1 (1 - e^-K) / (1 - e^-1)
        for k in (5, 50, 200):
            pmf = build_family(FamilySpec(EXP_GEOMETRIC, k))
            expected = math.exp(-1.0) * (1.0 - math.exp(-k)) / (1.0 - math.exp(-1.0))
            assert pmf.normalizer == pytest.approx(expected, rel=1e-13)

    def test_logharmonic_first_weights(self):
        # positions 1..K carry internal indices 2..K+1
        pmf = build_family(FamilySpec(LOG_HARMONIC, 3))
        ratio = pmf.probs[0] / pmf.probs[1]
        assert ratio == pytest.approx((3.0 * math.log(3.0)) / (2.0 * math.log(2.0)), rel=1e-14)

    @pytest.mark.parametrize("kind", [HARMONIC, LOG_HARMONIC, UNIFORM])
    @pytest.mark.parametrize("size", [2, 10, 10**3, 10**6])
    def test_invariants_across_sizes(self, kind, size):
        pmf = build_family(FamilySpec(kind, size))
        assert pmf.size == size
        assert np.all(pmf.probs > 0.0)
        assert abs(fsum_probs(pmf) - 1.0) <= 1e-12

    @pytest.mark.parametrize("size", [2, 10, 700])
    def test_expgeom_invariants_below_underflow_cap(self, size):
        pmf = build_family(FamilySpec(EXP_GEOMETRIC, size))
        assert np.all(pmf.probs > 0.0)
        assert abs(fsum_probs(pmf) - 1.0) <= 1e-12

    def test_expgeom_underflow_rejected(self):
        # e^-i is exactly zero past i ~ 745; full support forbids silent zeros
        with pytest.raises(PmfError, match="underflow"):
            build_family(FamilySpec(EXP_GEOMETRIC, 10**3))

    def test_expgeom_size_limit_is_its_last_nonzero_weight(self, monkeypatch):
        assert family_weights(EXP_GEOMETRIC, EXPGEOM_MAX_SIZE)[-1] > 0.0
        assert family_weights(EXP_GEOMETRIC, EXPGEOM_MAX_SIZE + 1)[-1] == 0.0
        # refused when the spec is made, before any weight is computed
        monkeypatch.setattr(alphabet, "family_weights", None)
        with pytest.raises(PmfError, match="expgeom weights underflow to zero beyond size 745"):
            FamilySpec(EXP_GEOMETRIC, EXPGEOM_MAX_SIZE + 1)

    def test_logharmonic_weights_built_in_place_are_the_textbook_expression(self):
        idx = np.arange(2, 100_002, dtype=np.float64)
        assert family_weights(LOG_HARMONIC, 100_000).tolist() == (1.0 / (idx * np.log(idx))).tolist()

    @pytest.mark.parametrize(
        "kind, size", [(HARMONIC, 1 << 20), (EXP_GEOMETRIC, 745), (LOG_HARMONIC, 1 << 20), (UNIFORM, 1 << 20)]
    )
    def test_build_holds_at_most_two_vectors(self, kind, size):
        # the weights, divided in place, and the Pmf's own read-only copy
        tracemalloc.start()
        try:
            build_family(FamilySpec(kind, size))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * 8 * size

    def test_harmonic_strictly_decreasing(self):
        pmf = build_family(FamilySpec(HARMONIC, 100))
        assert np.all(np.diff(pmf.probs) < 0.0)

    def test_expgeom_successive_ratio(self):
        pmf = build_family(FamilySpec(EXP_GEOMETRIC, 50))
        ratios = pmf.probs[1:] / pmf.probs[:-1]
        assert np.max(np.abs(ratios - math.exp(-1.0))) <= 1e-12

    def test_harmonic_normalizer_tracks_log_size(self):
        for size in (10**3, 10**4, 10**5, 10**6):
            pmf = build_family(FamilySpec(HARMONIC, size))
            assert 0.9 < pmf.normalizer / math.log(size) < 1.6

    def test_invalid_sizes(self):
        with pytest.raises(PmfError):
            FamilySpec(HARMONIC, 0)
        with pytest.raises(PmfError):
            FamilySpec(LOG_HARMONIC, 1)
        with pytest.raises(PmfError):
            FamilySpec("zipf", 10)
        assert FamilySpec(UNIFORM, MAX_ALPHABET_SIZE).size == MAX_ALPHABET_SIZE
        with pytest.raises(PmfError, match="cap"):
            FamilySpec(UNIFORM, MAX_ALPHABET_SIZE + 1)

    @pytest.mark.parametrize("kind", [HARMONIC, CUSTOM])
    @pytest.mark.parametrize("size", [2.5, 3.0, True, "10", None], ids=repr)
    def test_size_takes_an_integer(self, kind, size):
        # harmonic 2.5 built K=3 and True K=1; "10" and None raised a bare TypeError
        pmf = validate_pmf((0.5, 0.5)) if kind == CUSTOM else None
        with pytest.raises(PmfError, match="alphabet size must be an integer"):
            FamilySpec(kind, size, pmf)

    def test_numpy_size_is_held_as_an_int(self):
        spec = FamilySpec(HARMONIC, np.int64(5))
        assert type(spec.size) is int and build_family(spec).size == 5


class TestValidatePmf:
    def test_accepts_simple_vector(self):
        pmf = validate_pmf((0.5, 0.5))
        assert pmf.size == 2
        assert pmf.normalizer is None

    def test_renormalizes_small_drift(self):
        pmf = validate_pmf([0.5 + 2e-10, 0.5])
        assert abs(fsum_probs(pmf) - 1.0) <= 1e-12

    def test_rejects_bad_sum(self):
        with pytest.raises(PmfError, match="sum"):
            validate_pmf((0.5, 0.6))

    def test_rejects_zero_entry(self):
        with pytest.raises(PmfError, match="support"):
            validate_pmf((1.0, 0.0))

    def test_rejects_negative_and_empty(self):
        with pytest.raises(PmfError):
            validate_pmf((1.5, -0.5))
        with pytest.raises(PmfError):
            validate_pmf(())

    def test_rejects_two_dimensional(self):
        with pytest.raises(PmfError, match="1-d"):
            validate_pmf(np.full((2, 2), 0.25))

    @pytest.mark.parametrize(
        "probs",
        [
            ["0.5", "0.5"], [True, False], [0.5, True], np.array(["0.5", "0.5"]), np.array([True, True]),
            [0.5, np.bool_(True)], [np.bool_(True)], [0.5, None], [0.25, 0.25, "0.5"],
        ],
    )
    def test_rejects_non_numbers(self, probs):
        with pytest.raises(PmfError, match="numbers only"):
            validate_pmf(probs)

    def test_mixed_number_types_are_accepted(self):
        class Half(float):
            pass

        mixed = [0.25, np.float32(0.25), np.float64(0.25), Half(0.25)]
        assert validate_pmf(mixed).probs.tolist() == [0.25] * 4
        for one in (1, np.int64(1), np.uint8(1)):
            assert validate_pmf([one]).probs.tolist() == [1.0]

    def test_accepts_numeric_arrays_and_numpy_scalars(self):
        assert validate_pmf(np.array([1, 3]) / 4).probs.tolist() == [0.25, 0.75]
        assert validate_pmf(np.array([0.25, 0.75], dtype=np.float32)).size == 2
        assert validate_pmf([np.float64(0.5), np.float32(0.5)]).size == 2
        assert validate_pmf([1]).probs.tolist() == [1.0]

    def test_pmf_is_immutable(self):
        pmf = validate_pmf((0.5, 0.5))
        with pytest.raises(ValueError):
            pmf.probs[0] = 0.9

    def test_pmf_stays_immutable_through_pickle(self):
        # worker processes receive the Pmf pickled
        pmf = pickle.loads(pickle.dumps(validate_pmf((0.25, 0.75))))
        assert pmf.probs.tolist() == [0.25, 0.75]
        with pytest.raises(ValueError):
            pmf.probs[0] = 0.9


def _outcome(fn, values):
    try:
        value = fn(values)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return float(value).hex() if value == value else "nan"


def _fsum_corpus():
    rng = np.random.default_rng(2015)
    # 2047 and 2048: arrays past the threshold but short of one block, summed as one partial block
    sizes = (1, 100, _FSUM_MIN_SIZE - 1, _FSUM_MIN_SIZE, _FSUM_BLOCK, _FSUM_BLOCK + 1, 3 * _FSUM_BLOCK + 7, 2047, 2048)
    for size in sizes:
        normal = rng.standard_normal(size)
        spread = normal * np.exp2(rng.integers(-1074, 960, size))
        half = spread[: size // 2]
        cancel = np.concatenate([half, -half, rng.standard_normal(size - 2 * half.size) * 1e-200])
        rng.shuffle(cancel)
        yield f"normal-{size}", normal
        yield f"spread-{size}", spread
        yield f"cancel-{size}", cancel
        yield f"zeros-{size}", np.where(rng.random(size) < 0.5, 0.0, -0.0)
        yield f"negzeros-{size}", np.full(size, -0.0)
        yield f"subnormal-{size}", rng.integers(-9, 10, size) * 5e-324
        yield f"tiny-mixed-{size}", np.where(rng.random(size) < 0.5, 5e-324, -2.5e-308)
        big = np.full(size, 1.7e308)
        big[1::2] = -1.6e308
        yield f"near-max-{size}", big
        yield f"overflow-{size}", np.full(size, 1e308)
        yield f"just-below-cap-{size}", np.full(size, 2.0**959) * rng.choice([-1.0, 1.0], size)
        for special in (np.inf, -np.inf, np.nan):
            with_special = normal.copy()
            with_special[rng.integers(size)] = special
            yield f"{special}-{size}", with_special
        both = normal.copy()
        both[0], both[-1] = np.inf, -np.inf
        yield f"inf-minus-inf-{size}", both


def _fsum_block_corpus():
    """Arrays built block by block, to reach each branch of the per-block extraction."""
    rng = np.random.default_rng(2008)
    b = _FSUM_BLOCK

    def block(values, size=b):
        return rng.permutation(np.resize(np.asarray(values, dtype=np.float64), size))

    normal = rng.standard_normal(3 * b)
    # Bits from 2^0 down to about 2^-172: several passes of 53 - _FSUM_LIFT bits.
    yield "three-or-more-passes", block(rng.choice([1.0, 2.0**-60, 2.0**-120], b) * (1.0 + rng.random(b)))
    short = rng.choice([-1.0, 2.0**-60, -(2.0**-120)], 3000) * rng.random(3000)
    yield "three-or-more-passes-short", block(short, 3000)
    # Full blocks of one sign near their maximum (the largest partial sums),
    # cancelled by the next block so a lost bit would decide the result.
    for label, scale in (("1", 1.0), ("-2^900", -(2.0**900))):
        near_max = rng.uniform(0.75, 1.0, b) * scale
        yield f"one-signed-near-max-{label}", np.concatenate([near_max, -near_max[::-1], [1e-300]])
    specials = {"inf": np.inf, "-inf": -np.inf, "nan": np.nan, "2^960": 2.0**960, "-1.5*2^960": -1.5 * 2.0**960}
    for label, special in specials.items():
        last = normal.copy()
        last[-1] = special
        yield f"last-block-{label}", last
    both = normal.copy()
    both[-2:] = np.inf, -np.inf
    yield "last-block-inf-minus-inf", both
    zeros = np.where(rng.random(b) < 0.5, 0.0, -0.0)
    yield "zero-blocks-between", np.concatenate([normal[:b], zeros, zeros, normal[b : b + 7]])
    half = rng.standard_normal(b // 2) * np.exp2(rng.integers(-40, 40, b // 2))
    yield "block-sums-to-zero", np.concatenate([block(np.concatenate([half, -half])), normal[: b + 5]])
    yield "array-sums-to-zero", np.concatenate([normal[: 2 * b], -normal[: 2 * b][::-1]])
    negative_zeros = np.full(b, -0.0)
    yield "array-sums-to-zero-with-negative-zeros", np.concatenate([negative_zeros, -normal[:b], normal[:b], [-0.0]])
    subnormal = rng.integers(-(2**40), 2**40, b) * 5e-324
    yield "subnormal-blocks", np.concatenate([subnormal, subnormal[::-1] * 3.0, subnormal[:99]])
    mixed = block(np.concatenate([subnormal[:100], normal[:100]]))
    yield "subnormal-normal-blocks", np.concatenate([subnormal, mixed])
    yield "subnormal-cancel", np.concatenate([subnormal, -subnormal[::-1], [5e-324]])
    for size in (_FSUM_MIN_SIZE, 2048, b + 1):
        yield f"poszeros-{size}", np.zeros(size)


def _fsum_streamed(values):
    # a fresh array per block, so each fallback to math.fsum streams the terms again
    return _fsum_terms(lambda a, b: values[a:b].copy(), values.size)


@pytest.mark.parametrize(
    "values, summer",
    [
        pytest.param(values, summer, id=f"{name}-{label}")
        for name, values in (*_fsum_corpus(), *_fsum_block_corpus())
        for summer, label in ((_fsum, ""), (_fsum_streamed, "streamed"))
    ],
)
def test_fsum_matches_math_fsum(values, summer):
    # the same float bit for bit (sign of zero included), or the same error type
    assert _outcome(summer, values) == _outcome(lambda v: math.fsum(v.tolist()), values)


def test_fsum_blocks_sum_pmf_functionals_exactly():
    p = build_family(FamilySpec(HARMONIC, 100_000)).probs
    for values in (p, p * np.log(p), (p - 1e-5) ** 2 / p):
        assert _fsum(values) == math.fsum(values.tolist())


def test_fsum_matches_math_fsum_on_random_spreads():
    # Sizes straddle the math.fsum cut-over and the block edges; exponents
    # spread over 0 to 2000 binades, from the subnormals up to 2^959.
    rng = np.random.default_rng(20080101)
    sizes = (
        _FSUM_MIN_SIZE - 1,
        _FSUM_MIN_SIZE,
        _FSUM_MIN_SIZE + 1,
        _FSUM_BLOCK - 1,
        _FSUM_BLOCK,
        _FSUM_BLOCK + 1,
        2 * _FSUM_BLOCK + 3,
    )
    for case in range(200):
        size = int(rng.choice(sizes)) if case % 2 else int(rng.integers(_FSUM_MIN_SIZE // 2, 2 * _FSUM_BLOCK))
        spread = int(rng.integers(0, 2001))
        low = int(rng.integers(-1074, 959 - spread + 1))
        values = np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(low, low + spread + 1, size))
        if case % 3 == 0:  # near-total cancellation
            values[size // 2 :] = -values[: size - size // 2][::-1]
        if case % 5 == 0:
            values[rng.random(size) < 0.3] = 0.0
        expected = _outcome(lambda v: math.fsum(v.tolist()), values)
        assert _outcome(_fsum, values) == expected, (case, size, spread, low)


class TestLoadersAndParsing:
    def test_text_loader(self, tmp_path):
        path = tmp_path / "probs.txt"
        path.write_text("# comment\n0.5\n\n0.25\n0.25\n")
        pmf = load_custom_pmf(path)
        assert pmf.probs == pytest.approx([0.5, 0.25, 0.25])

    def test_text_loader_bad_line(self, tmp_path):
        path = tmp_path / "probs.txt"
        path.write_text("0.5\nnot-a-number\n")
        with pytest.raises(PmfError, match="not a number"):
            load_custom_pmf(path)

    def test_json_loader(self, tmp_path):
        path = tmp_path / "probs.json"
        path.write_text(json.dumps([0.2, 0.3, 0.5]))
        pmf = load_custom_pmf(path)
        assert pmf.probs == pytest.approx([0.2, 0.3, 0.5])

    def test_json_loader_requires_array(self, tmp_path):
        path = tmp_path / "probs.json"
        path.write_text(json.dumps({"p": [1.0]}))
        with pytest.raises(PmfError, match="array"):
            load_custom_pmf(path)

    def test_suffix_dispatch(self, tmp_path):
        as_json = tmp_path / "p.json"
        as_json.write_text("[0.5, 0.5]")
        as_text = tmp_path / "p.dat"
        as_text.write_text("0.5\n0.5\n")
        assert load_custom_pmf(as_json).size == 2
        assert load_custom_pmf(as_text).size == 2

    def test_parse_family_strings(self):
        spec = parse_family("harmonic:1000")
        assert spec.kind == HARMONIC and spec.size == 1000
        assert parse_family("uniform:8").size == 8

    def test_parse_family_custom(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("[0.25, 0.75]")
        spec = parse_family(f"custom:{path}")
        assert spec.size == 2
        assert build_family(spec).probs == pytest.approx([0.25, 0.75])

    def test_custom_family_is_validated_once_and_held(self, tmp_path, monkeypatch):
        path = tmp_path / "p.txt"
        path.write_text("0.25\n0.75\n")
        calls = []
        real = alphabet.validate_pmf

        def counting(probs):
            calls.append(probs)
            return real(probs)

        monkeypatch.setattr(alphabet, "validate_pmf", counting)
        spec = parse_family(f"custom:{path}")
        pmf = build_family(spec)
        assert len(calls) == 1
        assert pmf is spec.pmf and spec.size == 2

    def test_custom_spec_takes_a_pmf_and_its_size(self):
        pmf = validate_pmf((0.5, 0.25, 0.25))
        assert FamilySpec(CUSTOM, pmf=pmf).size == 3
        assert FamilySpec(CUSTOM, 3, pmf).size == 3
        with pytest.raises(PmfError, match="requires a pmf"):
            FamilySpec(CUSTOM, 3)
        with pytest.raises(PmfError, match="disagrees"):
            FamilySpec(CUSTOM, 2, pmf)
        with pytest.raises(PmfError, match="does not take a pmf"):
            FamilySpec(HARMONIC, 3, pmf)

    def test_parse_family_errors(self):
        with pytest.raises(PmfError):
            parse_family("harmonic")
        with pytest.raises(PmfError):
            parse_family("zipf:10")
        with pytest.raises(PmfError):
            parse_family("harmonic:ten")


def test_direct_pmf_construction_enforces_tight_sum():
    with pytest.raises(PmfError):
        Pmf(np.array([0.5, 0.5 + 1e-9]))


@pytest.mark.parametrize(
    "probs, message",
    [([[0.5, 0.5]], "1-d"), ([], "1-d"), ([np.nan, 1.0], "non-finite"), ([1.5, -0.5], "full support"), ([1.0, 0.0], "full support")],
)
def test_direct_pmf_construction_enforces_support(probs, message):
    with pytest.raises(PmfError, match=message):
        Pmf(np.array(probs))
