"""Independent brute-force oracles for the test suite.

These deliberately take different routes from the library: population
functionals are summed term by term in 40-digit arithmetic with the
uncentered variance formula, and the normal CDF comes from composite
Simpson quadrature of the density.  The sampling references are the
scalar forms the library's batched code must reproduce bit for bit: the
stateful stream (batched and one uniform at a time), the
conditional-binomial chain built from separate binomial draws, the scalar
stream-seed formula and the alias draw into one array.  Production code
never imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from entrokit.alphabet import Pmf
from entrokit.sampling import (
    _BLOCK,
    _GOLDEN,
    _INVERSION_CUTOFF,
    _MASK64,
    _SCALAR_DRAWS,
    _STREAM_MULT,
    _STREAM_SALT,
    _SUB_BLOCK,
    _TWO_NEG_53,
    AliasTable,
    _binomial_inversion,
    _chain_plan,
    _check_seed,
    _mantissas,
    _mix64,
    _stirlerr,
)

_DPS = 40


def mp_entropy(probs) -> float:
    with mp.workdps(_DPS):
        return float(-mp.fsum(mp.mpf(p) * mp.ln(mp.mpf(p)) for p in probs))


def mp_sigma2(probs) -> float:
    """Uncentered formula: sum p ln^2 p - (sum p ln p)^2."""
    with mp.workdps(_DPS):
        ps = [mp.mpf(p) for p in probs]
        m1 = mp.fsum(p * mp.ln(p) for p in ps)
        m2 = mp.fsum(p * mp.ln(p) ** 2 for p in ps)
        return float(m2 - m1 * m1)


def mp_abs_central_moment(probs, delta: float) -> float:
    with mp.workdps(_DPS):
        ps = [mp.mpf(p) for p in probs]
        h = -mp.fsum(p * mp.ln(p) for p in ps)
        d = mp.mpf(repr(float(delta)))
        return float(mp.fsum(p * abs(mp.ln(p) + h) ** (2 + d) for p in ps))


def mp_split_moment_bound(probs, delta: float) -> float:
    with mp.workdps(_DPS):
        ps = [mp.mpf(p) for p in probs]
        h = -mp.fsum(p * mp.ln(p) for p in ps)
        d = mp.mpf(repr(float(delta)))
        return float(mp.fsum(p * abs(mp.ln(p)) ** (2 + d) for p in ps) + h ** (2 + d))


def mp_exp_moment(probs, delta: float) -> float:
    with mp.workdps(_DPS):
        ps = [mp.mpf(p) for p in probs]
        h = -mp.fsum(p * mp.ln(p) for p in ps)
        sigma = mp.sqrt(mp.fsum(p * mp.ln(p) ** 2 for p in ps) - h * h)
        d = mp.mpf(repr(float(delta)))
        return float(mp.fsum(p * mp.exp(d * abs(mp.ln(p) + h) / sigma) for p in ps))


def mp_exp_envelope(probs, delta: float) -> float:
    with mp.workdps(_DPS):
        ps = [mp.mpf(p) for p in probs]
        h = -mp.fsum(p * mp.ln(p) for p in ps)
        sigma = mp.sqrt(mp.fsum(p * mp.ln(p) ** 2 for p in ps) - h * h)
        d = mp.mpf(repr(float(delta)))
        return float(mp.fsum(p ** (1 - d / sigma) for p in ps) * mp.exp(d * h / sigma))


def mp_stirlerr(k: int) -> float:
    """ln k! - ln(sqrt(2 pi k) (k/e)^k); the digits cover the cancellation up to k = 2^62."""
    with mp.workdps(80):
        return float(mp.loggamma(k + 1) - (k + mp.mpf(0.5)) * mp.log(k) + k - mp.log(2 * mp.pi) / 2)


def mp_binomial_log_ratio(n: int, p: float, x: int, m: int) -> float:
    """ln f(x) - ln f(m) for the Binomial(n, p) pmf f, from log-gammas in 80-digit arithmetic."""
    with mp.workdps(80):
        p = mp.mpf(p)
        q = 1 - p
        return float(
            mp.loggamma(m + 1) + mp.loggamma(n - m + 1) - mp.loggamma(x + 1) - mp.loggamma(n - x + 1)
            + (x - m) * (mp.log(p) - mp.log(q))
        )


def normal_cdf_quadrature(x: float, steps: int = 20001) -> float:
    """Phi(x) by composite Simpson over the density from 0 to x, plus 1/2."""
    if x == 0.0:
        return 0.5
    lo, hi = (x, 0.0) if x < 0.0 else (0.0, x)
    grid = np.linspace(lo, hi, steps)
    density = np.exp(-grid * grid / 2.0) / math.sqrt(2.0 * math.pi)
    h = (hi - lo) / (steps - 1)
    weights = np.ones(steps)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    integral = h / 3.0 * float(np.sum(weights * density))
    return 0.5 - integral if x < 0.0 else 0.5 + integral


def random_pmf(rng: np.random.Generator, size: int):
    """A strictly positive random distribution (never degenerate in practice)."""
    weights = rng.gamma(shape=1.0, scale=1.0, size=size) + 1e-6
    return weights / weights.sum()


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a stream index; the derived stream seed is a pure function of both."""

    master_seed: int
    stream_index: int

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.stream_index < 0:
            raise ValueError("stream_index must be nonnegative")


def derive_stream_seed(spec: SeedSpec) -> int:
    """Scalar form of ``derive_stream_seeds``: one seed, on Python ints."""
    h_master = _mix64((spec.master_seed + _GOLDEN) & _MASK64)
    h_index = _mix64((spec.stream_index * _STREAM_MULT + _STREAM_SALT) & _MASK64)
    return _mix64(h_master ^ h_index)


class CounterRng:
    """The counter stream with state, drawn in batches.

    Output ``i`` (1-based) is ``_mantissas(key, i) * 2^-53``.  ``_counter``
    counts claimed outputs, so successive :meth:`uniforms` calls continue
    one stream.
    """

    __slots__ = ("_key", "_counter")

    def __init__(self, stream_seed: int):
        self._key = _check_seed(stream_seed)
        self._counter = 0

    def uniforms(self, count: int) -> np.ndarray:
        """A batch of doubles in [0, 1)."""
        first = self._advance(count)
        words = np.empty(count, dtype=np.uint64)
        for start in range(0, count, _SUB_BLOCK):
            block = words[start : start + _SUB_BLOCK]
            _mantissas(self._key, first + start, block, np.empty_like(block))
        return words * _TWO_NEG_53

    def _advance(self, count: int) -> int:
        """Claim the next ``count`` outputs; returns the first one's counter."""
        first = self._counter + 1
        self._counter += count
        return first


class ScalarRng(CounterRng):
    """A :class:`CounterRng` that also hands out its outputs one at a time.

    The first ``_SCALAR_DRAWS`` scalar draws are mixed one at a time.
    Later scalar draws pop from a block of the next ``_BLOCK`` outputs
    made by the batched path.  ``uniforms`` drops the block, so any
    interleaving of the two calls yields one stream.
    """

    __slots__ = ("_buffer",)

    def __init__(self, stream_seed: int):
        super().__init__(stream_seed)
        self._buffer: list[float] = []  # upcoming outputs, next one last

    def uniform(self) -> float:
        """One double in [0, 1) with 53 random bits."""
        self._counter += 1
        if self._buffer:
            return self._buffer.pop()
        if self._counter <= _SCALAR_DRAWS:
            z = _mix64(self._key + self._counter * _GOLDEN)
            return (z >> 11) * _TWO_NEG_53
        words = np.empty(_BLOCK, dtype=np.uint64)
        _mantissas(self._key, self._counter, words, np.empty_like(words))
        block = (words * _TWO_NEG_53)[::-1].tolist()
        value = block.pop()
        self._buffer = block
        return value

    def _advance(self, count: int) -> int:
        self._buffer = []
        return super()._advance(count)


def _binomial(n: int, p: float, rng: ScalarRng) -> int:
    """Exact Binomial(n, p) draw: inversion for n*p <= 30, BTRS above."""
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    flipped = p > 0.5
    p_eff = 1.0 - p if flipped else p
    if n * p_eff <= _INVERSION_CUTOFF:
        x = _binomial_inversion(n, p_eff, rng.uniform())
    else:
        x = _binomial_btrs(n, p_eff, rng)
    return n - x if flipped else x


def _binomial_btrs(n: int, p: float, rng: ScalarRng) -> int:
    """Hormann's BTRS transformed-rejection binomial sampler.

    Valid for p <= 1/2 and n*p >= 10 (callers switch to inversion well
    before that).  The squeeze step accepts ~86% of proposals without
    evaluating logs; the log test's constants are computed only when a
    proposal first reaches it.
    """
    q = 1.0 - p
    spq = math.sqrt(n * p * q)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    v_r = 0.92 - 4.2 / b
    h = None  # the log test's constants, computed once a proposal needs them
    uniform = rng.uniform
    while True:
        u = uniform() - 0.5
        v = uniform()
        us = 0.5 - abs(u)
        if us <= 0.0:
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        if us >= 0.07 and v <= v_r:
            return k
        if v <= 0.0:
            return k
        if h is None:
            alpha = (2.83 + 5.1 / b) * spq
            m = math.floor((n + 1) * p)
            h = _stirlerr(m + 1) + _stirlerr(n - m + 1)
        # ln f(k)/f(m) from Stirling's formula with its error terms: no term grows with n
        d = k - m
        log_accept = (
            h - _stirlerr(k + 1) - _stirlerr(n - k + 1)
            + (n - m + 0.5) * math.log1p(d / (n - k + 1))
            - (m + 0.5) * math.log1p(d / (m + 1))
            + d * math.log(p * (n - k + 1) / (q * (k + 1)))
        )
        if math.log(v * alpha / (a / (us * us) + b)) <= log_accept:
            return k


def chain_counts(pmf: Pmf, n: int, seed: int) -> list[int]:
    """The conditional-binomial chain as one :func:`_binomial` call per cell."""
    rng = ScalarRng(seed)
    counts = [0] * pmf.size
    remaining = n
    for i, p_cond in enumerate(_chain_plan(pmf)):
        if remaining == 0:
            break
        c = _binomial(remaining, p_cond, rng)
        counts[i] = c
        remaining -= c
    counts[-1] = remaining
    return counts


def alias_draw(table: AliasTable, rng: CounterRng, count: int) -> np.ndarray:
    """Sample ``count`` symbol indices into one array from ``rng``'s next
    ``2 * count`` outputs (two uniforms per draw)."""
    out = np.empty(count, dtype=np.int64)
    for start, block in table._blocks(rng._key, rng._counter, count):
        out[start : start + block.size] = block
    rng._advance(2 * count)
    return out
