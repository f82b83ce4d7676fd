"""Finite-alphabet probability vectors and the parametric families used throughout.

A :class:`Pmf` is a strictly positive probability vector over symbols
``1..K`` (full support; zero-probability symbols are rejected).  Three
heavy-to-light parametric families are provided, each defined by raw
weights that are normalized by their recorded sum:

* harmonic        ``w_i = 1/i``            for ``i = 1..K``
* expgeom         ``w_i = e^{-i}``         for ``i = 1..K``
* logharmonic     ``w_i = 1/(i ln i)``     for ``i = 2..K+1``

plus ``uniform`` and ``custom`` (externally supplied vectors).  The
logharmonic family is indexed internally from ``i = 2`` (the weight is
undefined at ``i = 1``) but exposed as positions ``1..K`` so that count
vectors keep a uniform contract across families.

Every :class:`Pmf` passes one support check, :func:`_check_support`.  A
custom vector is loaded, type-checked and renormalized once, by
:func:`load_custom_pmf`; its :class:`FamilySpec` holds the resulting Pmf.
Each table derived from a Pmf is built once, by a :func:`per_pmf` builder.

Every module imports this one, so the input contracts live here: what an
integer is (:func:`_is_integer`), what a real is (:func:`_is_real`, taken
as a float by :func:`_as_float`), and the checks of every sample size and
count total (:func:`_check_total`) and of every seed (:func:`_check_seed`).
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from functools import wraps
from pathlib import Path
from itertools import chain
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

HARMONIC = "harmonic"
EXP_GEOMETRIC = "expgeom"
LOG_HARMONIC = "logharmonic"
UNIFORM = "uniform"
CUSTOM = "custom"

FAMILY_KINDS = (HARMONIC, EXP_GEOMETRIC, LOG_HARMONIC, UNIFORM, CUSTOM)

# Construction keeps the vector this close to a true simplex point; external
# inputs may drift up to _INPUT_SUM_TOL before renormalization.
_CONSTRUCTED_SUM_TOL = 1e-12
_INPUT_SUM_TOL = 1e-9
# Entry types validate_pmf accepts in a sequence (bool is refused apart).
_NUMBER_TYPES = (int, float, np.integer, np.floating)
# Largest alphabet a FamilySpec, and so any experiment grid point, may ask
# for: each float64 vector over it takes 80 MB, and a describe call at this
# size peaks near 192 MB resident (about 16 bytes per cell, p and ln p,
# over an interpreter of about 30 MB).
MAX_ALPHABET_SIZE = 10_000_000
# Largest expgeom alphabet: e^-i is subnormal from i = 709 and rounds to zero
# from i = 746 on, which full support forbids.
EXPGEOM_MAX_SIZE = 745
# Counts are held in int64; capping n below 2^62 keeps n^2 terms downstream
# of the estimator inside float64/int64 range.
MAX_TOTAL = 1 << 62


class PmfError(ValueError):
    """A probability vector violates the full-support/normalization contract."""


def _is_integer(x: object) -> bool:
    """The integer contract of sizes, counts and seeds: an ``int`` (so never a bool) or a numpy integer."""
    return type(x) is int or isinstance(x, np.integer)


def _is_real(x: object) -> bool:
    """The contract of every real-valued setting: an integer as :func:`_is_integer` has it, or a float."""
    return _is_integer(x) or isinstance(x, float)


def _as_float(name: str, value: float) -> float:
    """``value`` as a float: an int or a float (so never a bool or a string) within float range."""
    if not _is_real(value):
        raise ValueError(f"{name} takes an int or a float, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} lies beyond float range") from None


def _check_total(n: int, name: str = "sample size") -> int:
    """``n`` as a Python int: the one check of every sample size and count total."""
    if _is_integer(n) and 1 <= n <= MAX_TOTAL:
        return int(n)
    raise ValueError(f"{name} must be an integer in [1, 2^62], got {n!r}")


def _check_seed(seed: int, name: str = "stream_seed") -> int:
    """``seed`` as a Python int: the one check of every 64-bit seed or stream index."""
    if _is_integer(seed) and 0 <= seed <= (1 << 64) - 1:
        return int(seed)
    raise ValueError(f"{name} must be a 64-bit unsigned integer, got {seed!r}")


# _fsum: arrays shorter than _FSUM_MIN_SIZE go to math.fsum, which is faster
# there.  Per decompose call (its four sums; harmonic and logharmonic Pmfs,
# n=1e6) the two cross near 576 values, and on the once-per-Pmf sums (log_law,
# the functionals, the Pmf sum check) near 1000-1400; mdp_condition's
# underflowing terms cross above 2048.  768 lies between, and above expgeom's
# largest K (745), whose build so holds no work buffers.
# Longer arrays, and every _fsum_terms stream, are summed in blocks of
# _FSUM_BLOCK values with two 128 KB work buffers, extracting 53 - _FSUM_LIFT
# bits per pass.  Below _FSUM_MAX_ABS, fewer than 2^60 terms cannot bring any
# partial sum near overflow.
_FSUM_MIN_SIZE = 768
_FSUM_BLOCK = 1 << 14
_FSUM_LIFT = _FSUM_BLOCK.bit_length()  # every block holds fewer than 2^_FSUM_LIFT values
_FSUM_MAX_ABS = 2.0**960
# Every extracted block sum is a multiple of 2^-_FSUM_UNIT (see _fsum_terms).
_FSUM_UNIT = 1126


def _fsum(values: np.ndarray) -> float:
    """Exactly rounded sum of a float64 array: the float ``math.fsum`` returns.

    Arrays shorter than ``_FSUM_MIN_SIZE`` go to ``math.fsum`` over the
    array's buffer; longer ones to :func:`_fsum_terms`, a slice at a time.
    """
    if values.size < _FSUM_MIN_SIZE:
        return math.fsum(values.data)
    # a default, not a closure: a cell for values would slow the short path
    return _fsum_terms(lambda a, b, values=values: values[a:b], values.size)


def _fsum_terms(term: Callable[[int, int], np.ndarray], size: int) -> float:
    """Exactly rounded sum of ``size`` float64 terms, pulled a block at a time.

    ``term(a, b)`` returns terms ``a..b-1`` as a float64 array; it is called
    for consecutive blocks of at most ``_FSUM_BLOCK`` terms, so no caller
    needs all ``size`` terms in memory at once.  The result is the float
    ``math.fsum`` returns on the concatenated terms.  Fewer than
    ``_FSUM_MIN_SIZE`` terms go to ``math.fsum`` as one block.

    Blocks of finite values below 2^960 in magnitude are summed exactly by
    error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I", 2008), a block of ``b`` values at a time.  With
    ``max|x| <= 2^e`` and ``sigma = 2^(e + _FSUM_LIFT)``,
    ``q = (x + sigma) - sigma`` is ``x`` rounded to a multiple of
    ``2^(e + _FSUM_LIFT - 53)``, exactly, and the remainder ``x - q`` is
    exact and at most that unit in magnitude.  As ``|q| <= 2^e`` and
    ``b < 2^_FSUM_LIFT``, every partial sum of the ``q`` is a multiple of
    the unit smaller than ``sigma``, so ``np.sum(q)`` is exact in any order.
    The sum joins a Python-int total in units of 2^-1126, which no unit
    undercuts: the remainders are all zero once the unit falls below
    2^-1074, the spacing of the subnormals.  Until then the remainders go
    through the next pass, with ``e`` lowered to the unit.  One correctly
    rounded int/int division gives the result.  Terms holding an infinity,
    a NaN or a value near the overflow range, and sums that are exactly
    zero (whose sign math.fsum decides) go to ``math.fsum`` over the terms,
    streamed again from ``term``, which also raises its ``OverflowError``
    and ``ValueError``.
    """
    if size < _FSUM_MIN_SIZE:
        return math.fsum(term(0, size).data)
    blocks = [(start, min(start + _FSUM_BLOCK, size)) for start in range(0, size, _FSUM_BLOCK)]
    q_buf = np.empty(min(size, _FSUM_BLOCK))
    r_buf = np.empty_like(q_buf)
    total = 0
    for start, stop in blocks:
        x = term(start, stop)
        lo, hi = x.min(), x.max()
        if not (-_FSUM_MAX_ABS < lo and hi < _FSUM_MAX_ABS):
            break
        q, r = q_buf[: x.size], r_buf[: x.size]
        k = math.frexp(max(-lo, hi))[1] + _FSUM_LIFT  # sigma = 2^k, the unit 2^(k-53)
        while True:
            sigma = math.ldexp(1.0, k)
            np.add(x, sigma, out=q)
            q -= sigma
            np.subtract(x, q, out=r)
            total += int(math.ldexp(float(q.sum()), 53 - k)) << (k - 53 + _FSUM_UNIT)
            if not r.any():
                break
            x = r
            k -= 53 - _FSUM_LIFT
    else:  # every block was extracted
        if total:
            return total / (1 << _FSUM_UNIT)
    return math.fsum(chain.from_iterable(term(start, stop).data for start, stop in blocks))


@dataclass(frozen=True, eq=False)
class Pmf:
    """Strictly positive probability vector over symbols ``1..K``.

    Attributes
    ----------
    probs : np.ndarray
        Read-only float64 vector; every entry > 0, summing to 1 within
        1e-12 absolute.
    normalizer : float or None
        Sum of the raw family weights when built from a parametric
        family, absent (None) for externally supplied vectors.
    """

    probs: np.ndarray
    normalizer: float | None = None

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        _check_support(probs)
        total = _fsum(probs)
        if abs(total - 1.0) > _CONSTRUCTED_SUM_TOL:
            raise PmfError(
                f"probabilities sum to {total!r}, outside 1 +/- {_CONSTRUCTED_SUM_TOL}"
            )
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writeable (e.g. a Pmf a caller sends to a
        # process; the experiments send a FamilySpec instead); restore the
        # read-only contract without re-validating.
        self.__dict__.update(state)
        self.probs.flags.writeable = False

    @property
    def size(self) -> int:
        return int(self.probs.size)


_T = TypeVar("_T")


def per_pmf(build: Callable[[Pmf], _T]) -> Callable[[Pmf], _T]:
    """Memoize ``build``: it runs once per Pmf, and its value lives as long as the Pmf.

    The value must hold no reference to its Pmf, or neither is ever freed."""
    memo = weakref.WeakKeyDictionary()

    @wraps(build)
    def cached(pmf: Pmf) -> _T:
        value = memo.get(pmf)
        if value is None:
            value = memo[pmf] = build(pmf)
        return value

    return cached


def _check_support(probs: np.ndarray) -> None:
    """The support contract: a non-empty 1-d array of finite entries, each > 0."""
    if probs.ndim != 1 or probs.size == 0:
        raise PmfError("probability vector must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(probs)):
        raise PmfError("probability vector contains non-finite entries")
    if np.any(probs <= 0.0):
        raise PmfError("full support required: every probability must be > 0")


@dataclass(frozen=True)
class FamilySpec:
    """A family kind plus its alphabet size; a custom family holds its loaded Pmf."""

    kind: str
    size: int = 0
    pmf: Pmf | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise PmfError(f"unknown family kind {self.kind!r}; expected one of {FAMILY_KINDS}")
        if not _is_integer(self.size):
            raise PmfError(f"alphabet size must be an integer, got {self.size!r}")
        object.__setattr__(self, "size", int(self.size))
        if self.kind == CUSTOM:
            if self.pmf is None:
                raise PmfError("custom family requires a pmf")
            if self.size not in (0, self.pmf.size):
                raise PmfError("custom family size disagrees with its pmf")
            object.__setattr__(self, "size", self.pmf.size)
        else:
            if self.pmf is not None:
                raise PmfError(f"{self.kind} family does not take a pmf")
            if self.size < 1:
                raise PmfError(f"alphabet size must be >= 1, got {self.size}")
            if self.kind == LOG_HARMONIC and self.size < 2:
                raise PmfError("logharmonic family requires size >= 2")
            if self.kind == EXP_GEOMETRIC and self.size > EXPGEOM_MAX_SIZE:
                raise PmfError(f"expgeom weights underflow to zero beyond size {EXPGEOM_MAX_SIZE}")
        if self.size > MAX_ALPHABET_SIZE:
            raise PmfError(f"the cap on alphabet size is {MAX_ALPHABET_SIZE}, got {self.size}")


def family_weights(kind: str, size: int) -> np.ndarray:
    """Raw (unnormalized) weights of a parametric family."""
    if kind == HARMONIC:
        return 1.0 / np.arange(1, size + 1, dtype=np.float64)
    if kind == EXP_GEOMETRIC:
        return np.exp(-np.arange(1, size + 1, dtype=np.float64))
    if kind == LOG_HARMONIC:
        # Exposed positions 1..K map to internal indices 2..K+1.  Built in
        # place, so no more than two K-vectors are alive at once.
        idx = np.arange(2, size + 2, dtype=np.float64)
        weights = np.log(idx)
        weights *= idx
        return np.divide(1.0, weights, out=weights)
    if kind == UNIFORM:
        return np.ones(size, dtype=np.float64)
    raise PmfError(f"family {kind!r} has no closed-form weights")


def build_family(spec: FamilySpec) -> Pmf:
    """Construct the Pmf of a family, recording its weight normalizer.

    A custom spec returns the Pmf it holds, validated when loaded.  Every
    size a :class:`FamilySpec` accepts has nonzero weights; on a host whose
    ``exp`` flushes subnormals to zero, the Pmf's support check raises
    :class:`PmfError` for expgeom's last weights.
    """
    if spec.kind == CUSTOM:
        return spec.pmf
    weights = family_weights(spec.kind, spec.size)
    normalizer = _fsum(weights)
    weights /= normalizer
    return Pmf(weights, normalizer=normalizer)


def validate_pmf(probs: Sequence[float] | Iterable[float]) -> Pmf:
    """Validate an externally supplied vector and renormalize it exactly.

    Entries must be numbers (Python or numpy ints and floats, or a numeric
    numpy array; strings and bools are refused), all > 0, and sum to 1
    within 1e-9; the vector is then divided by its exact sum so the stored
    Pmf meets the 1e-12 contract.
    """
    if isinstance(probs, np.ndarray):
        numeric = probs.dtype.kind in "iuf"
    else:
        probs = list(probs)
        # one check per entry type, not per entry: bools, np.bool_, strings and None are refused
        numeric = all(issubclass(t, _NUMBER_TYPES) and not issubclass(t, bool) for t in set(map(type, probs)))
    if not numeric:
        raise PmfError("probability vector must hold numbers only")
    try:
        arr = np.asarray(probs, dtype=np.float64)
    except OverflowError as exc:  # a JSON integer beyond float range
        raise PmfError(f"probability vector entry out of range: {exc}") from exc
    _check_support(arr)
    total = _fsum(arr)
    if abs(total - 1.0) > _INPUT_SUM_TOL:
        raise PmfError(f"probabilities sum to {total!r}, outside 1 +/- {_INPUT_SUM_TOL}")
    return Pmf(arr / total)


def load_custom_pmf(path: str | Path) -> Pmf:
    """Load and validate a custom distribution: a ``.json`` file holds a JSON
    array of probabilities, any other file one per line (blank lines and
    ``#`` comments skipped)."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        values = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(values, list):
            raise PmfError(f"{path}: expected a JSON array of probabilities")
    else:
        values = []
        for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values.append(float(line))
            except ValueError as exc:
                raise PmfError(f"{path}:{lineno}: not a number: {line!r}") from exc
    return validate_pmf(values)


def parse_family(text: str) -> FamilySpec:
    """Parse a CLI family string such as ``harmonic:1000`` or ``custom:probs.json``."""
    kind, sep, arg = text.partition(":")
    kind = kind.strip().lower()
    if kind not in FAMILY_KINDS:
        raise PmfError(f"unknown family kind {kind!r}; expected one of {FAMILY_KINDS}")
    if not sep or not arg:
        raise PmfError(f"family spec {text!r} must look like 'kind:K' (or 'custom:path')")
    if kind == CUSTOM:
        return FamilySpec(CUSTOM, pmf=load_custom_pmf(arg.strip()))
    try:
        size = int(arg)
    except ValueError as exc:
        raise PmfError(f"family spec {text!r}: alphabet size must be an integer") from exc
    return FamilySpec(kind, size=size)
