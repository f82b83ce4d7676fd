"""Population functionals of a Pmf, computed by direct summation over the support.

Everything here is a pure function of an explicit finite distribution:
Shannon entropy, the variance of the log-probability, absolute central
moments of the linearization variable ``T = -ln p(X) - H``, exponential
moments of ``|T|/sigma``, the Berry-Esseen bound shape and the
moderate-deviation summability value.
Sums are correctly rounded (``alphabet._fsum_terms``: the float
``math.fsum`` returns, by error-free extraction); each sum pulls its terms
a block at a time, so no functional builds a K-length array of terms.  The
moderate-deviation value is evaluated in log space.

Every functional reads one :class:`LogLaw` per Pmf: ``ln p`` and the
population summary, computed in a single log pass on first use and cached
for as long as the Pmf lives.  ``ln p + H`` is formed block by block where
a sum needs it; the absolute and exponential moments are the one streamed
sum ``sum p f(|ln p + s|)``, with s = H or s = 0.  A sample size n takes
the library's contract (``alphabet._check_total``) and delta the
real-number one (``alphabet._as_float``); a bad value raises a ValueError
that names it.

Unknown absolute constants in the bound shapes are fixed to 1: the
Monte Carlo layer only ever checks shapes (ratio boundedness and
monotone trends), never constants.  All entropies are in nats.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .alphabet import Pmf, _as_float, _check_total, _fsum_terms, per_pmf

# Variance this close to zero is rounding noise from a constant log-probability;
# clamp to exactly 0 and treat the distribution as degenerate.
_DEGENERATE_SIGMA2_TOL = 1e-14


class DegenerateVarianceError(ValueError):
    """An operation that divides by sigma was given a zero-variance Pmf."""


@dataclass(frozen=True)
class PopulationSummary:
    """Exact entropy and log-probability variance of a Pmf (nats / nats^2)."""

    entropy: float
    sigma2: float
    sigma: float

    @property
    def degenerate(self) -> bool:
        return self.sigma2 == 0.0


@dataclass(frozen=True)
class MdpSchedule:
    """Moderate-deviation scale ``b_n = n^rho`` plus the event parameters.

    ``0 < rho < 1/2`` keeps ``b_n -> infinity`` while ``b_n/sqrt(n) -> 0``.
    ``epsilon > 0``, ``r >= 0`` and ``r*r`` must be finite (so ``r*b_n`` is, for
    n <= 2^62); ``r = 0`` is the trivial boundary (exceedance probability 1).
    """

    rho: float
    epsilon: float
    r: float

    def __post_init__(self) -> None:
        for name in ("rho", "epsilon", "r"):
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
        if not 0.0 < self.rho < 0.5:
            raise ValueError(f"rho must lie in (0, 1/2), got {self.rho}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not (self.r >= 0.0 and self.r * self.r < math.inf):
            raise ValueError(f"threshold r must be finite and >= 0 with r*r finite, got {self.r}")

    def scale(self, n: int) -> float:
        """The deviation scale b_n evaluated at sample size n."""
        return float(n) ** self.rho


def _check_delta(delta: float) -> float:
    delta = _as_float("delta", delta)
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    return delta


def _check_positive_delta(delta: float) -> float:
    delta = _as_float("delta", delta)
    if not delta > 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    return delta


@dataclass(frozen=True, eq=False)
class LogLaw:
    """The law of ``T = -ln p(X) - H`` for one Pmf.

    ``logp`` is a read-only float64 vector; ``T`` is ``-(logp + H)``
    symbol by symbol, with ``H = summary.entropy``.
    """

    logp: np.ndarray
    summary: PopulationSummary


@per_pmf
def log_law(pmf: Pmf) -> LogLaw:
    """The cached :class:`LogLaw` of ``pmf``, built by one log pass on first use.

    The variance is evaluated in centered form ``sum p (ln p + H)^2``,
    algebraically equal to ``sum p ln^2 p - (sum p ln p)^2`` but free of
    the cancellation that makes the raw form noisy near zero; values
    below 1e-14 are rounding residue of a constant log-probability and
    clamp to exactly 0 (degenerate).
    """
    p = pmf.probs
    logp = np.log(p)
    logp.flags.writeable = False
    h = 0.0 - _fsum_terms(lambda a, b: p[a:b] * logp[a:b], p.size)  # not -sum: K = 1 has H = +0.0

    def spread(a: int, b: int) -> np.ndarray:
        centered = logp[a:b] + h
        t = p[a:b] * centered
        t *= centered
        return t

    sigma2 = _fsum_terms(spread, p.size)
    if sigma2 < _DEGENERATE_SIGMA2_TOL:
        sigma2 = 0.0
    return LogLaw(logp, PopulationSummary(entropy=h, sigma2=sigma2, sigma=math.sqrt(sigma2)))


def entropy(pmf: Pmf) -> float:
    """Shannon entropy ``-sum p ln p`` in nats."""
    return log_law(pmf).summary.entropy


def population_summary(pmf: Pmf) -> PopulationSummary:
    """Entropy plus the variance of ``ln p(X)`` (see :func:`log_law`)."""
    return log_law(pmf).summary


def _require_sigma(pmf: Pmf) -> PopulationSummary:
    pop = population_summary(pmf)
    if pop.degenerate:
        raise DegenerateVarianceError(
            "degenerate variance: ln p(X) is constant (uniform distribution)"
        )
    return pop


def _abs_log_sum(pmf: Pmf, shift: float, step: Callable[[np.ndarray], object]) -> float:
    """``sum p f(|ln p + shift|)``, streamed a block at a time; ``step`` applies f to a block in place."""
    p, logp = pmf.probs, log_law(pmf).logp

    def term(a: int, b: int) -> np.ndarray:
        t = logp[a:b] + shift
        np.abs(t, out=t)
        step(t)
        t *= p[a:b]
        return t

    return _fsum_terms(term, p.size)


def _abs_log_moment(pmf: Pmf, shift: float, power: float) -> float:
    """``sum p |ln p + shift|^power``, streamed a block at a time."""
    return _abs_log_sum(pmf, shift, lambda t: operator.ipow(t, power))


def abs_central_moment(pmf: Pmf, delta: float) -> float:
    """``E|T|^{2+delta}`` where ``T = -ln p(X) - H`` (exact law of T).

    ``T`` takes the value ``-ln p_i - H`` with probability ``p_i``, so the
    moment is a direct sum over the support.  ``delta = 0`` recovers the
    variance ``sigma^2`` exactly.
    """
    power = 2.0 + _check_delta(delta)
    return _abs_log_moment(pmf, entropy(pmf), power)


def split_moment_bound(pmf: Pmf, delta: float) -> float:
    """Two-term moment bound ``sum p |ln p|^{2+delta} + H^{2+delta}``.

    Obtained from the split ``|T| <= |ln p(X)| + H`` with both pieces'
    constants set to 1.  The power-mean inequality gives the explicit
    sandwich ``abs_central_moment <= 2^{1+delta} * split_moment_bound``.
    """
    power = 2.0 + _check_delta(delta)
    # ln p + 0.0 is ln p bit for bit: np.log never returns -0.0 on (0, 1]
    return _abs_log_moment(pmf, 0.0, power) + entropy(pmf) ** power


def exp_moment(pmf: Pmf, delta: float) -> float:
    """Exact exponential moment ``E exp(delta |T| / sigma)``.

    Requires ``sigma > 0``; may overflow to ``inf`` for large ``delta``.
    """
    delta = _check_positive_delta(delta)
    pop = _require_sigma(pmf)

    def step(t: np.ndarray) -> None:
        t *= delta
        t /= pop.sigma
        np.exp(t, out=t)

    with np.errstate(over="ignore"):
        return _abs_log_sum(pmf, pop.entropy, step)


def exp_moment_envelope(pmf: Pmf, delta: float) -> float:
    """Closed-form envelope ``[sum p^{1 - delta/sigma}] * exp(delta H / sigma)``.

    Always >= :func:`exp_moment` (triangle inequality on ``|T|``).  When
    ``delta/sigma >= 1`` the power sum has a nonpositive exponent and can
    blow up with the alphabet; a warning is issued but the finite-K value
    is still returned.  A value beyond float range returns ``inf``.
    """
    delta = _check_positive_delta(delta)
    pop = _require_sigma(pmf)
    ratio = delta / pop.sigma
    if ratio >= 1.0:
        warnings.warn(
            f"delta/sigma = {ratio:.6g} >= 1: the power sum is not controlled "
            "uniformly in the alphabet size",
            RuntimeWarning,
            stacklevel=2,
        )
    p = pmf.probs
    with np.errstate(over="ignore"):
        power_sum = _fsum_terms(lambda a, b: p[a:b] ** (1.0 - ratio), p.size)
    try:
        return power_sum * math.exp(ratio * pop.entropy)
    except OverflowError:
        return math.inf


def berry_esseen_shape(pmf: Pmf, n: int, delta: float) -> float:
    """Constant-free normal-approximation bound shape.

    ``E|T|^{2+delta} / (n^{delta/2} sigma^{2+delta}) + sqrt(K / (sqrt(n) sigma))``
    with the unknown absolute constant set to 1.  Strictly decreasing in n
    for a fixed Pmf (for ``delta = 0`` the first term is identically 1).
    """
    delta = _check_delta(delta)
    n = _check_total(n)
    pop = _require_sigma(pmf)
    moment = abs_central_moment(pmf, delta)
    term_clt = moment / (float(n) ** (delta / 2.0) * pop.sigma ** (2.0 + delta))
    term_alphabet = math.sqrt(pmf.size / (math.sqrt(n) * pop.sigma))
    return term_clt + term_alphabet


def mdp_condition(pmf: Pmf, n: int, schedule: MdpSchedule) -> float:
    """Summability value ``b_n^-2 ln sum_i exp(-2 eps sqrt(n) b_n sigma p_i^2)``.

    Evaluated by log-sum-exp so alphabet-size 10^6 and exponents down to
    -10^6 neither overflow nor underflow.  Callers check divergence to
    -infinity along an n-grid; a single value carries no information.
    """
    n = _check_total(n)
    pop = _require_sigma(pmf)
    b = schedule.scale(n)
    p = pmf.probs
    scale = -2.0 * schedule.epsilon * math.sqrt(n) * b * pop.sigma
    # scale < 0 and rounding is monotone, so the smallest p gives the largest exponent.
    pmin = float(p.min())
    peak = scale * (pmin * pmin)
    if not math.isfinite(peak):
        raise ValueError(f"mdp condition exponents overflow at epsilon={schedule.epsilon!r}, n={n}")
    log_sum = peak + math.log(_fsum_terms(lambda i, j: np.exp(scale * p[i:j] ** 2 - peak), p.size))
    return log_sum / b**2


def normal_cdf(x: float) -> float:
    """Standard normal distribution function via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))
