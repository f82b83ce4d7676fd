"""Reproducible multinomial count sampling with two independent samplers.

The randomness core is a counter-mode splitmix64 stream: output ``i`` of a
stream is a pure avalanche function of ``(stream_seed, i)``, so batched
(numpy) and scalar (Python int) draws produce bit-identical values, any
replicate can be regenerated in isolation, and per-replicate streams are
derived from ``(master_seed, stream_index)`` without shared state.  The
generator is specified by its algorithm here rather than taken from a
library so results are stable across platforms and numpy versions.

Two samplers produce multinomial count vectors and cross-validate each
other:

* categorical — n i.i.d. symbol draws through a Vose alias table
  (O(K) build, O(1) per draw);
* multinomial — the conditional-binomial chain, cell i given the earlier
  cells is Binomial(remaining_n, p_i / remaining_mass), O(K) per
  replicate independent of n.

The binomial sampler inside the chain uses CDF inversion for
``n*p <= 30`` and Hormann's BTRS transformed rejection above; both are
exact samplers, not approximations.

The stream has no state: :func:`_mantissas` makes outputs of stream
``key`` from their counters.  The chain is one loop over cells, and each
cell's draw runs in the loop itself; only CDF inversion is a helper.  Its
uniforms come through one stream iterator (:func:`_stream_blocks`), one C
call per draw: the first outputs mixed in Python in pairs, then lists made
by :func:`_mantissas`.
The per-cell conditional probabilities are computed once per Pmf and
cached; BTRS sets up its log acceptance test only when a proposal misses
the squeeze.  The chain's logs, lgammas and powers stay on libm
(``math.log``, ``math.lgamma``, ``**``) and are never moved to numpy:
numpy's SIMD ``power`` and ``log`` are not correctly rounded and differ
from libm in the last bit on some inputs (on an AVX-512 Xeon, each
disagreed with libm on 3 to 21 of 20 000 random inputs, depending on the
input range), and one such bit can flip an accept decision or an
inversion step and so change the counts.

Seeds and stream indices pass the library's check ``alphabet._check_seed``
(an integer in [0, 2^64)), sample sizes and count totals its
``alphabet._check_total``; both take integers as ``alphabet._is_integer``
has them, and a numpy seed names the stream its int does.

Neither sampler has a failure branch: every suffix mass of a Pmf is
positive (see :func:`_chain_plan`), so the chain never runs out of mass.

An alias draw of n symbols (:meth:`AliasTable._blocks`) runs in batches
of at most ``_DRAW_BATCH`` symbols; in a batch of b draws starting after
counter c, the cell uniforms are outputs c+1..c+b and the flip uniforms
c+b+1..c+2b.  Inside a batch the kernel works in sub-blocks of
``_SUB_BLOCK`` draws on preallocated buffers (splitmix64 in place, from
the shared ``_STEP`` plus a base word reduced in Python), so its memory
does not grow with n.  It computes on the 53-bit integers ``m``
behind the uniforms ``m * 2^-53``, and both of its rewrites give the
same bits as the float formulation:

* the cell ``floor(m * (K * 2^-53))`` equals ``floor((m * 2^-53) * K)``:
  ``m * 2^-53`` and ``K * 2^-53`` are exact (scaling by a power of two),
  so both products round the same real number ``m * K * 2^-53`` once;
* the flip test ``m < ceil(threshold * 2^53)`` equals
  ``m * 2^-53 < threshold``: ``threshold * 2^53`` is exact for a
  threshold in [0, 1], and for an integer m, ``m < t`` holds exactly when
  ``m < ceil(t)``.

One gather from a table holding each cell's alias and the cell itself
replaces ``np.where``.  The counts are accumulated with ``np.add.at``,
whose cost does not depend on K (a ``bincount`` per sub-block would cost
O(K) each time).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, count
from math import exp, floor, lgamma, log, log1p, sqrt
from typing import Iterator

import numpy as np

from .alphabet import Pmf, _check_seed, _check_total, per_pmf

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
# Odd multiplier keeps stream-index mixing injective, so derived stream
# seeds are collision-free across all indices for a fixed master seed.
_STREAM_MULT = 0xD1342543DE82EF95
_STREAM_SALT = 0x632BE59BD9B4E019

_INVERSION_CUTOFF = 30.0
# The inversion walk stops here.  For a mean n*p <= 30, the Chernoff bound
# of the Poisson(30) tail, which bounds every such binomial, gives
# P(X > 100) < 2^-70; the walk goes further only when the summed CDF
# rounds below the uniform, and would then walk toward n.
_INVERSION_MAX = 100

# The lgamma form of BTRS's log test decides only when it clears the bound by
# h * _LGAMMA_TOL (see sample_counts_multinomial): thousands of times its error.
_LGAMMA_TOL = 2.0**-40
# _stirlerr(k) for k = 1..15, correctly rounded; the series serves k > 15.
_STIRLERR = (
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)

_U64_11 = np.uint64(11)
_U64_27 = np.uint64(27)
_U64_30 = np.uint64(30)
_U64_31 = np.uint64(31)
_U64_MIX_A = np.uint64(_MIX_A)
_U64_MIX_B = np.uint64(_MIX_B)
_TWO_NEG_53 = 2.0**-53

# The chain's stream: scalar mixing for the first draws (a K=2 chain needs
# a handful; an even count, so the pairs fill it), then numpy blocks of a
# fixed size.
_SCALAR_DRAWS = 8
_BLOCK = 512

# The categorical kernel draws in sub-blocks of this many draws, so its
# buffers stay in cache (about 0.5 MB in all) whatever n is.
_SUB_BLOCK = 1 << 14
# Alias draws claim their cell and flip uniforms a batch of this many
# draws at a time (a multiple of _SUB_BLOCK).
_DRAW_BATCH = 1 << 20
# Counter-word offsets j * golden (mod 2^64), which every block of words slices.
_STEP = np.arange(_SUB_BLOCK, dtype=np.uint64) * np.uint64(_GOLDEN)


def _mix64(z: int) -> int:
    """Scalar splitmix64 finalizer (avalanche bijection on 64-bit words)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """Vectorized twin of :func:`_mix64`, in place on a uint64 array; returns ``z``.

    Arithmetic wraps modulo 2^64.  ``tmp`` is an optional scratch array
    of the same shape, so a caller that mixes many blocks allocates nothing.
    """
    if tmp is None:
        tmp = np.empty_like(z)
    for shift, mult in ((_U64_30, _U64_MIX_A), (_U64_27, _U64_MIX_B)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= mult
    np.right_shift(z, _U64_31, out=tmp)
    z ^= tmp
    return z


def derive_stream_seeds(master_seed: int, start: int, count: int) -> np.ndarray:
    """The 64-bit seeds of streams ``start .. start+count-1`` under ``master_seed``.

    Seed i avalanche-mixes ``(master_seed, i)``; distinct stream indices
    give distinct seeds for a fixed master seed, because every step
    (odd-multiplier index scramble, xor, splitmix finalizer) is a
    bijection on 64-bit words.  Stream indices are integers in [0, 2^64).
    """
    master_seed = _check_seed(master_seed, "master_seed")
    start, count = _check_seed(start, "stream_index"), _check_seed(count, "count")
    if start + count > 1 << 64:
        raise ValueError(f"streams {start} .. {start + count - 1} run past stream index 2^64 - 1")
    idx = np.arange(start, start + count, dtype=np.uint64)
    h_master = np.uint64(_mix64((master_seed + _GOLDEN) & _MASK64))
    h_index = _mix64_array(idx * np.uint64(_STREAM_MULT) + np.uint64(_STREAM_SALT))
    return _mix64_array(h_master ^ h_index)


def _mantissas(key: int, first: int, z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Fill ``z`` (at most ``_SUB_BLOCK`` words) with ``m = mix64(key + i * golden) >> 11``
    for counters ``i = first, first+1, ...`` of stream ``key`` (an int in [0, 2^64)),
    so output i is ``m * 2^-53``; returns ``z``.  The base word is reduced modulo
    2^64 in Python, so no numpy scalar overflows; ``tmp`` is same-shape scratch."""
    np.add(_STEP[: z.size], np.uint64((key + first * _GOLDEN) & _MASK64), out=z)
    _mix64_array(z, tmp)
    return np.right_shift(z, _U64_11, out=z)


def _stream_blocks(seed: int) -> Iterator[list[float]]:
    """Outputs 1, 2, ... of stream ``seed`` (a Python int in [0, 2^64)), as lists of floats.

    The first ``_SCALAR_DRAWS`` outputs are mixed in Python two at a time
    (BTRS reads its uniforms in pairs), so a short stream makes no numpy
    call; the rest come in lists of ``_BLOCK`` made by :func:`_mantissas`.
    Chained with ``itertools.chain.from_iterable``, each output costs one
    C call.
    """
    for i in range(1, _SCALAR_DRAWS + 1, 2):
        z0, z1 = _mix64(seed + i * _GOLDEN), _mix64(seed + (i + 1) * _GOLDEN)
        yield [(z0 >> 11) * _TWO_NEG_53, (z1 >> 11) * _TWO_NEG_53]
    words = np.empty(_BLOCK, dtype=np.uint64)
    tmp = np.empty(_BLOCK, dtype=np.uint64)
    for first in count(_SCALAR_DRAWS + 1, _BLOCK):
        yield (_mantissas(seed, first, words, tmp) * _TWO_NEG_53).tolist()


@dataclass(frozen=True, eq=False)
class CountVector:
    """Multinomial counts from n samples: the sufficient statistic for the estimator."""

    counts: np.ndarray
    total: int

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.dtype.kind not in "iu" or counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a non-empty 1-d integer vector")
        counts = counts.astype(np.int64)
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        total = _check_total(self.total, "total")
        # summed in Python ints: an int64 sum wraps, and so can match a total that no count sums to
        if counts.sum(dtype=object) != total:
            raise ValueError("counts must sum to the stated total")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total)

    @property
    def size(self) -> int:
        return int(self.counts.size)


def _frozen_counts(counts: np.ndarray, total: int) -> CountVector:
    """Wrap a sampler's own int64 counts (nonnegative, summing to ``total``)
    as a read-only CountVector without the public constructor's checks."""
    counts.flags.writeable = False
    vector = object.__new__(CountVector)
    object.__setattr__(vector, "counts", counts)
    object.__setattr__(vector, "total", total)
    return vector


class AliasTable:
    """Vose alias structure over a Pmf: O(K) construction, O(1) per draw.

    A draw reads a cell uniform and a flip uniform, picks the cell
    ``floor(u_cell * K)`` (clamped to K-1) and keeps it when
    ``u_flip < threshold[cell]``, else takes its alias.  The table stores
    that rule in the integer form the block kernel uses (see the module
    docstring): ``_cutoff = ceil(threshold * 2^53)``, and ``_pick``, which
    holds cell i's alias at ``2i`` and i itself at ``2i + 1``.
    """

    def __init__(self, probs: np.ndarray):
        k = int(probs.size)
        self.size = k
        threshold, alias = _vose(np.asarray(probs, dtype=np.float64) * k)
        self._cutoff = np.ceil(threshold * 2.0**53).astype(np.uint64)
        self._pick = np.stack((alias, np.arange(k, dtype=np.int64)), axis=1).ravel()
        self._scale = k * _TWO_NEG_53

    def _blocks(self, key: int, first: int, count: int) -> Iterator[tuple[int, np.ndarray]]:
        """Draw ``count`` symbols from stream ``key`` after counter ``first``,
        sub-block by sub-block, as ``(offset, indices)``; the draws read outputs
        ``first+1 .. first+2*count``.

        Draw j of a batch of b draws after counter c reads output c+1+j for
        the cell and c+1+b+j for the flip.  Each ``indices`` array is a
        buffer view that the next sub-block overwrites.
        """
        size = min(count, _SUB_BLOCK)
        words = np.empty(size, dtype=np.uint64)
        scratch = np.empty(size, dtype=np.uint64)
        scaled = np.empty(size, dtype=np.float64)
        cell = np.empty(size, dtype=np.int64)
        keep = np.empty(size, dtype=np.bool_)
        for start in range(0, count, _SUB_BLOCK):
            offset = start % _DRAW_BATCH
            if offset == 0:
                batch = min(count - start, _DRAW_BATCH)
                cell_first = first + 2 * start + 1
                flip_first = cell_first + batch
            length = min(count - start, _SUB_BLOCK)
            m, tmp, x, c, kept = (a[:length] for a in (words, scratch, scaled, cell, keep))
            _mantissas(key, cell_first + offset, m, tmp)
            # m < 2^53, so its int64 view is the same value (and converts faster)
            np.multiply(m.view(np.int64), self._scale, out=x)
            np.copyto(c, x, casting="unsafe")
            np.minimum(c, self.size - 1, out=c)
            _mantissas(key, flip_first + offset, m, tmp)
            # indices are in range by construction; "clip" skips the bounds pass
            np.take(self._cutoff, c, out=tmp, mode="clip")
            np.less(m, tmp, out=kept)
            np.left_shift(c, 1, out=c)
            np.add(c, kept, out=c)
            yield start, np.take(self._pick, c, out=m.view(np.int64), mode="clip")


def _vose(scaled_probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose's alias construction over ``K * p``: each cell's threshold and alias.

    The loop runs on array.array buffers (8 bytes a cell each): their items
    read and write as Python floats and ints, the same IEEE operations as
    on numpy scalars at a fraction of the cost per item.  Cells left on
    either stack keep threshold 1 (always themselves).
    """
    k = scaled_probs.size
    small = array("q", np.flatnonzero(scaled_probs < 1.0).astype(np.int64, copy=False).tobytes())
    large = array("q", np.flatnonzero(scaled_probs >= 1.0).astype(np.int64, copy=False).tobytes())
    threshold = array("d", np.ones(k).tobytes())
    alias = array("q", np.arange(k, dtype=np.int64).tobytes())
    scaled = array("d", scaled_probs.tobytes())
    while small and large:
        s = small.pop()
        g = large.pop()
        threshold[s] = scaled[s]
        alias[s] = g
        scaled[g] -= 1.0 - scaled[s]
        if scaled[g] < 1.0:
            small.append(g)
        else:
            large.append(g)
    return np.frombuffer(threshold), np.frombuffer(alias, dtype=np.int64)


@per_pmf
def _alias_table(pmf: Pmf) -> AliasTable:
    return AliasTable(pmf.probs)


@per_pmf
def _chain_plan(pmf: Pmf) -> memoryview:
    """The chain's ``p_i / tail_i`` for cells ``0 .. K-2`` (``tail_i`` is the
    suffix mass of cells ``i..K-1``), as a memoryview of a read-only float64
    array, which iterates as Python floats.  A float sum of positive terms
    rounds to at least its largest term, so each ratio lies in (0, 1]."""
    tails = np.cumsum(pmf.probs[::-1])[::-1][:-1]
    cond = pmf.probs[:-1] / tails
    cond.flags.writeable = False
    return memoryview(cond)


def sample_counts_categorical(pmf: Pmf, n: int, seed: int) -> CountVector:
    """Count vector from n i.i.d. symbol draws through an alias table.

    The alias table is built once per Pmf and cached; sampling is O(1)
    per draw.  Deterministic given ``seed``.
    """
    n = _check_total(n)
    key = _check_seed(seed)
    counts = np.zeros(pmf.size, dtype=np.int64)
    for _, block in _alias_table(pmf)._blocks(key, 0, n):
        np.add.at(counts, block, 1)
    return _frozen_counts(counts, n)


def sample_counts_multinomial(pmf: Pmf, n: int, seed: int) -> CountVector:
    """Count vector via the conditional-binomial chain, O(K) per replicate.

    Cell i given the earlier cells is Binomial(remaining, p_i / tail_i)
    where tail_i is the precomputed suffix mass; the last cell takes the
    draws that remain.  Deterministic given ``seed``.

    Each cell's draw is exact and runs in the loop itself: above 1/2 the
    complement is drawn (so a ratio of 1 is drawn as 0 by inversion, and
    the cell takes every remaining draw); CDF inversion serves
    ``remaining * p <= 30`` and Hormann's BTRS above (valid for p <= 1/2
    and n*p >= 10).  The BTRS squeeze accepts ~86% of proposals without
    evaluating logs; the log test's constants are computed only when a
    proposal first reaches it.

    The log test compares with ln f(x)/f(m), f the binomial pmf and m its
    mode.  Its lgamma form ``h - lgamma(x+1) - lgamma(n-x+1) + (x-m) ln(p/q)``
    with ``h = lgamma(m+1) + lgamma(n-m+1)`` is fast but cancels: it errs by
    a few ulps of h, about 3e4 at n = 2^62.  So it decides only when it
    clears the bound by ``tol = h * 2^-40``; otherwise
    :func:`_binomial_log_ratio`, whose error does not grow with n, decides.
    Every decision is then the one that form makes, at any n.
    """
    n = _check_total(n)
    draw = chain.from_iterable(_stream_blocks(_check_seed(seed))).__next__
    counts = [0] * pmf.size
    remaining = n
    for i, p in enumerate(_chain_plan(pmf)):
        if remaining == 0:
            break
        flipped = p > 0.5
        if flipped:
            p = 1.0 - p
        mean = remaining * p
        if mean <= _INVERSION_CUTOFF:
            x = _binomial_inversion(remaining, p, draw())
        else:
            q = 1.0 - p
            spq = sqrt(mean * q)
            b = 1.15 + 2.53 * spq
            a = -0.0873 + 0.0248 * b + 0.01 * p
            c = mean + 0.5
            v_r = 0.92 - 4.2 / b
            h = None  # the log test's constants, computed once a proposal needs them
            while True:
                u = draw() - 0.5
                v = draw()
                us = 0.5 - abs(u)
                if us <= 0.0:
                    continue
                x = floor((2.0 * a / us + b) * u + c)
                if x < 0 or x > remaining:
                    continue
                if us >= 0.07 and v <= v_r or v <= 0.0:
                    break
                if h is None:
                    alpha = (2.83 + 5.1 / b) * spq
                    lpq = log(p / q)
                    m = floor((remaining + 1) * p)
                    h = lgamma(m + 1) + lgamma(remaining - m + 1)
                    tol = h * _LGAMMA_TOL
                lhs = log(v * alpha / (a / (us * us) + b))
                gap = h - lgamma(x + 1) - lgamma(remaining - x + 1) + (x - m) * lpq - lhs
                if gap >= tol or gap > -tol and lhs <= _binomial_log_ratio(remaining, p, x, m):
                    break
        if flipped:
            x = remaining - x
        counts[i] = x
        remaining -= x
    counts[-1] = remaining
    return _frozen_counts(np.array(counts, dtype=np.int64), n)


def _binomial_log_ratio(n: int, p: float, x: int, m: int) -> float:
    """``ln f(x) - ln f(m)`` for the Binomial(n, p) pmf f, with no term that grows with n.

    Stirling's formula with its error term, ``ln j! = (j + 1/2) ln(j + 1) -
    (j + 1) + ln(2 pi)/2 + _stirlerr(j + 1)``, at j = x, m, n - x and n - m;
    the logs of ratios near 1 come from ``log1p`` of exact integer
    differences (Hormann 1993, J. Stat. Comput. Simul. 46:101).  The error
    is a few ulps of ``|x - m|``, as from a change in p of a few ulps.
    """
    d = x - m
    return (
        _stirlerr(m + 1) + _stirlerr(n - m + 1) - _stirlerr(x + 1) - _stirlerr(n - x + 1)
        + (n - m + 0.5) * log1p(d / (n - x + 1))
        - (m + 0.5) * log1p(d / (m + 1))
        + d * log(p * (n - x + 1) / ((1.0 - p) * (x + 1)))
    )


def _stirlerr(k: int) -> float:
    """The error of Stirling's formula, ``ln k! - ln(sqrt(2 pi k) (k/e)^k)``, for an integer k >= 1.

    A table up to k = 15; above, six terms of the asymptotic series
    ``1/(12k) - 1/(360k^3) + ...``, within 2 ulps there.
    """
    if k <= 15:
        return _STIRLERR[k - 1]
    r = 1.0 / k
    rr = r * r
    return r * (1 / 12 - rr * (1 / 360 - rr * (1 / 1260 - rr * (1 / 1680 - rr * (1 / 1188 - rr * 691 / 360360)))))


def _binomial_inversion(n: int, p: float, u: float) -> int:
    """CDF inversion by the stable two-term recurrence; needs ``n*p <= 30``.

    The walk stops at ``_INVERSION_MAX``.  P(X = 0) is ``exp(n*log1p(-p))``:
    in ``(1 - p)**n`` the rounding of ``1 - p`` is raised to the n-th power
    (at n = 1e18 and p = 1e-17, ``1 - p`` rounds to 1).
    """
    q = 1.0 - p
    s = p / q
    a = (n + 1) * s
    prob = exp(n * log1p(-p))
    cdf = prob
    x = 0
    limit = min(n, _INVERSION_MAX)
    while u > cdf and x < limit:
        x += 1
        prob *= a / x - s
        cdf += prob
    return x
