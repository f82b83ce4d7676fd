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

Every sum is exactly rounded, so :func:`decompose` returns the same bits
whichever of its two paths runs: numpy arrays, or Python floats for
alphabets of at most ``_SMALL_K`` symbols, where numpy's per-call cost
outweighs the O(K) work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul, sub, truediv

import numpy as np

from .alphabet import Pmf, _fsum, per_pmf
from .exact import log_law
from .sampling import CountVector

# An analytically nonnegative KL sum that rounds slightly below zero is noise.
_KL_CLAMP_TOL = 1e-12
# decompose sums Python floats up to this K and numpy arrays above it: per
# replicate the float path took 0.53x the array path's time at K=2, 0.92-0.98x
# at K=16 and 1.07-1.16x at K=24 (n=1e5, CPython 3.11, numpy 2.4, 2 vCPUs).
_SMALL_K = 16
# decompose keeps at most this many small-alphabet reports per Pmf.
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
    return -_fsum(phat * np.log(phat))


def decompose(counts: CountVector, pmf: Pmf) -> DecompositionReport:
    """Exact error decomposition of one replicate against the true Pmf.

    ``ln p``, H and sigma come from the Pmf's cached
    :func:`~entrokit.exact.log_law`, so replicate loops take no log of
    the true probabilities.

    The KL term is accumulated as ``phat (ln phat - ln p)`` over nonzero
    cells (never through the ratio), which avoids 0/0 and cancellation
    when the empirical and true probabilities nearly agree; a result
    within -1e-12 of zero is rounding residue and clamps to exactly 0.

    Up to ``_SMALL_K`` symbols, the reports of the first ``_MEMO_CAP``
    distinct count vectors are kept per Pmf, so equal counts on one Pmf
    may return the same frozen report.
    """
    if counts.size != pmf.size:
        raise ValueError(
            f"counts length {counts.size} does not match alphabet size {pmf.size}"
        )
    if pmf.size > _SMALL_K:
        return _decompose(counts, pmf)
    memo = _small_reports(pmf)
    key = counts.counts.tobytes()  # the int64 counts, which fix the total too
    report = memo.get(key)
    if report is None:
        report = _decompose(counts, pmf)
        if len(memo) < _MEMO_CAP:
            memo[key] = report
    return report


class _Reports(dict):
    """One Pmf's small-alphabet reports, keyed by the counts' bytes (a dict
    subclass, so it can be weakly referenced)."""


@per_pmf
def _small_reports(pmf: Pmf) -> _Reports:
    return _Reports()


def _decompose(counts: CountVector, pmf: Pmf) -> DecompositionReport:
    law = log_law(pmf)
    pop = law.summary
    if pmf.size <= _SMALL_K:
        # The array path's operations on floats: int->float, +, -, * and /
        # round correctly in both, diff**2 is diff*diff, and _fsum is
        # math.fsum below _FSUM_MIN_SIZE (> _SMALL_K) values.  The logs still
        # come from np.log over the same compacted array, as numpy's log is
        # not libm's.
        total = float(counts.total)
        phat = [c / total for c in counts.counts.tolist()]
        p = pmf.probs.tolist()
        logp = law.logp.tolist()
        ph_nz = [x for x in phat if x > 0.0]
        logp_nz = logp if len(ph_nz) == len(phat) else [lp for x, lp in zip(phat, logp) if x > 0.0]
        log_ph = np.log(np.array(ph_nz)).tolist()
        diff = list(map(sub, phat, p))
        plugin = -math.fsum(map(mul, ph_nz, log_ph))
        linear = -math.fsum(map(mul, diff, logp))
        kl = math.fsum(map(mul, ph_nz, map(sub, log_ph, logp_nz)))
        chi2 = math.fsum(map(truediv, map(mul, diff, diff), p))
    else:
        p = pmf.probs
        logp = law.logp
        phat = empirical_pmf(counts)
        nonzero = phat > 0.0
        ph_nz = phat[nonzero]
        log_ph = np.log(ph_nz)
        diff = phat - p
        plugin = -_fsum(ph_nz * log_ph)
        linear = -_fsum(diff * logp)
        kl = _fsum(ph_nz * (log_ph - logp[nonzero]))
        chi2 = _fsum(diff**2 / p)
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
