"""Plug-in entropy and its exact decomposition against the true distribution.

For counts drawn from a known Pmf, the estimation error splits exactly as

    plugin_entropy - H  =  linear_term - kl_term

where the linear term ``-sum (phat_i - p_i) ln p_i`` is the replicate
mean of the zero-mean linearization variable, and the KL term
``sum phat_i ln(phat_i / p_i)`` is the nonnegative remainder.  The KL
term is further sandwiched by ``0 <= kl_term <= chi2_term`` with
``chi2_term = sum (phat_i - p_i)^2 / p_i`` (two-sided logarithm
inequality); the chi-square term has exact replicate mean ``(K-1)/n``.

Zero counts use the continuous extension ``0 ln 0 = 0`` (the true
probabilities can never vanish, but empirical ones can).

Every sum is exactly rounded.  On alphabets of at most ``_MEMO_MAX_K``
symbols, where a replicate's count vector often repeats, :func:`decompose`
keeps the report of each distinct count vector per Pmf; a kept report
carries the bits of a fresh computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alphabet import Pmf, _fsum, per_pmf
from .exact import log_law
from .sampling import CountVector

# An analytically nonnegative KL sum that rounds slightly below zero is noise.
_KL_CLAMP_TOL = 1e-12
# decompose keeps reports up to this K.  Of 4000 chain replicates (harmonic,
# expgeom, seed 42) 82-98% repeated an earlier count vector at K=2 (n=1e3..1e5);
# at K=3 50-58% at n=1e3 but 0-1% from 1e5 on, where logpow:0.4 reaches K=3
# (n~6e6); at K=4 3-7% at n=1e3; none at K=8 or 16.  A miss costs ~1 us more.
_MEMO_MAX_K = 2
# decompose keeps at most this many reports per Pmf.
_MEMO_CAP = 4096


@dataclass(frozen=True)
class DecompositionReport:
    """Plug-in entropy, linear term, KL term, chi-square term, standardized statistic.

    ``standardized`` is None (a flagged absence, not NaN) when the true
    distribution has degenerate log-probability variance.
    """

    plugin_entropy: float
    linear_term: float
    kl_term: float
    chi2_term: float
    standardized: float | None


def empirical_pmf(counts: CountVector) -> np.ndarray:
    """Empirical distribution ``counts / n`` (entries may be zero)."""
    return counts.counts.astype(np.float64) / counts.total


def plugin_entropy(counts: CountVector) -> float:
    """Entropy of the empirical distribution, ``-sum phat ln phat``, in nats.

    The estimator itself, for counts without a known true Pmf; given one,
    :func:`decompose` returns the same value with its error terms.
    """
    phat = empirical_pmf(counts)
    phat = phat[phat > 0.0]
    return 0.0 - _fsum(phat * np.log(phat))  # not -sum: a point mass has entropy +0.0


def decompose(counts: CountVector, pmf: Pmf) -> DecompositionReport:
    """Exact error decomposition of one replicate against the true Pmf.

    ``ln p``, H and sigma come from the Pmf's cached
    :func:`~entrokit.exact.log_law`, so replicate loops take no log of
    the true probabilities.

    The KL term is accumulated as ``phat (ln phat - ln p)`` over nonzero
    cells (never through the ratio), which avoids 0/0 and cancellation
    when the empirical and true probabilities nearly agree; a result
    within -1e-12 of zero is rounding residue and clamps to exactly 0.

    Up to ``_MEMO_MAX_K`` symbols, the reports of the first ``_MEMO_CAP``
    distinct count vectors are kept per Pmf, so equal counts on one Pmf
    may return the same frozen report.
    """
    if counts.size != pmf.size:
        raise ValueError(
            f"counts length {counts.size} does not match alphabet size {pmf.size}"
        )
    if pmf.size > _MEMO_MAX_K:
        return _decompose(counts, pmf)
    memo = _small_reports(pmf)
    key = counts.counts.tobytes()  # the int64 counts, which fix the total too
    report = memo.get(key)
    if report is None:
        report = _decompose(counts, pmf)
        if len(memo) < _MEMO_CAP:
            memo[key] = report
    return report


@per_pmf
def _small_reports(pmf: Pmf) -> dict[bytes, DecompositionReport]:
    """One Pmf's kept reports, keyed by the counts' bytes."""
    return {}


def _decompose(counts: CountVector, pmf: Pmf) -> DecompositionReport:
    law = log_law(pmf)
    pop = law.summary
    phat = empirical_pmf(counts)
    nonzero = phat > 0.0
    ph_nz = phat[nonzero]
    log_ph = np.log(ph_nz)
    diff = phat - pmf.probs
    # 0.0 - sum, not -sum: an exact sum of +0.0 gives +0.0, not -0.0
    plugin = 0.0 - _fsum(ph_nz * log_ph)
    linear = 0.0 - _fsum(diff * law.logp)
    kl = _fsum(ph_nz * (log_ph - law.logp[nonzero]))
    chi2 = _fsum(diff**2 / pmf.probs)
    if -_KL_CLAMP_TOL < kl < 0.0:
        kl = 0.0

    if pop.degenerate:
        standardized = None
    else:
        standardized = math.sqrt(counts.total) * (plugin - pop.entropy) / pop.sigma
    return DecompositionReport(
        plugin_entropy=plugin,
        linear_term=linear,
        kl_term=kl,
        chi2_term=chi2,
        standardized=standardized,
    )
