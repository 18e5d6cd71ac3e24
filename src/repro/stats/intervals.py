"""Confidence intervals and the two-standard-deviation acceptance band.

The contrast between :func:`mean_ci` (shrinks with 1/sqrt(n)) and
:func:`two_sigma_band` (does not) is the statistical core of the paper:
with thousands of concurrent GPU threads, the confidence interval of the
mean collapses below the device timer granularity, so almost no individual
iteration can land inside it — FTaLaT's detection criterion degenerates.
The 2-sigma band instead reflects where individual execution times live
(~95 % of them for near-normal noise), which is the right question when
deciding "does this iteration already run at the target frequency?".

Critical values are served from an LRU cache keyed on (confidence, Welch
dof rounded to :data:`DOF_DECIMALS` decimals).  A full campaign issues
thousands of ``difference_ci`` calls whose degrees of freedom cluster
around a handful of values — uncached t-quantile calls used to account
for roughly a quarter of campaign wall time.  Rounding the dof perturbs
the critical value by less than 1e-6 relative (the t quantile varies
slowly in dof), far below measurement noise; the cache is *exact* for the
rounded dof, which the test suite asserts against scipy.

The quantiles come from ``scipy.special.stdtrit`` (Student t) and
``scipy.special.ndtri`` (normal): the functions that scipy's
``t.ppf`` and ``norm.ppf`` distribution methods wrap, so the values are
bit-identical to those methods, without importing the whole statistics
package (most of a process's start-up time).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as sc

from repro.errors import ConfigError
from repro.stats.descriptive import SampleStats

__all__ = [
    "critical_value",
    "mean_ci",
    "difference_ci",
    "difference_ci_batch",
    "two_sigma_band",
    "welch_dof",
    "welch_dof_batch",
]

#: decimals the Welch dof is rounded to before the cache lookup
DOF_DECIMALS = 3
#: above this dof the t distribution is indistinguishable from the normal
NORMAL_DOF_CUTOFF = 200.0


@lru_cache(maxsize=65536)
def _cached_critical_value(confidence: float, dof_rounded: float | None) -> float:
    tail = 0.5 + confidence / 2.0
    if dof_rounded is None:
        return float(sc.ndtri(tail))
    return float(sc.stdtrit(dof_rounded, tail))


def critical_value(confidence: float, dof: float | None) -> float:
    """Two-sided critical value for ``confidence`` at ``dof`` (LRU-cached).

    ``dof`` is rounded to :data:`DOF_DECIMALS` decimals for the cache key;
    ``None`` or dof above :data:`NORMAL_DOF_CUTOFF` uses the normal
    distribution (the paper's large-sample regime).
    """
    if not 0.0 < confidence < 1.0:
        raise ConfigError(f"confidence must be in (0, 1), got {confidence}")
    if dof is None or dof > NORMAL_DOF_CUTOFF:
        return _cached_critical_value(confidence, None)
    # np.round (not builtins.round) so scalar and batch callers agree on
    # the cache key in the rare cases where the two roundings differ.
    return _cached_critical_value(confidence, float(np.round(dof, DOF_DECIMALS)))


def mean_ci(
    stats: SampleStats, confidence: float = 0.95, use_t: bool = True
) -> tuple[float, float]:
    """Confidence interval of the sample mean."""
    if stats.n < 2:
        raise ConfigError("confidence interval needs n >= 2")
    crit = critical_value(confidence, stats.n - 1 if use_t else None)
    half = crit * stats.stderr
    return stats.mean - half, stats.mean + half


def welch_dof(a: SampleStats, b: SampleStats) -> float:
    """Welch-Satterthwaite degrees of freedom for ``a`` vs ``b``."""
    va, vb = a.variance / a.n, b.variance / b.n
    denom = 0.0
    if a.n > 1:
        denom += va * va / (a.n - 1)
    if b.n > 1:
        denom += vb * vb / (b.n - 1)
    if denom == 0.0:
        return float("inf")
    return (va + vb) ** 2 / denom


def difference_ci(
    a: SampleStats, b: SampleStats, confidence: float = 0.95
) -> tuple[float, float]:
    """Welch confidence interval for ``mean(a) - mean(b)``.

    Algorithm 1 validates a frequency pair by requiring this interval to
    exclude zero; Algorithm 2 (line 19-20) accepts the post-transition tail
    when the interval against the phase-1 target statistics *includes*
    zero.
    """
    if a.n < 2 or b.n < 2:
        raise ConfigError("difference CI needs n >= 2 on both sides")
    se = math.sqrt(a.variance / a.n + b.variance / b.n)
    crit = critical_value(confidence, welch_dof(a, b))
    diff = a.mean - b.mean
    return diff - crit * se, diff + crit * se


def welch_dof_batch(
    var_a: np.ndarray, n_a: np.ndarray, b: SampleStats
) -> np.ndarray:
    """Vectorized :func:`welch_dof` of many samples against one reference.

    ``var_a``/``n_a`` are per-row variance and count arrays; rows with
    ``n_a <= 1`` on the array side contribute no denominator term, exactly
    like the scalar path.
    """
    var_a = np.asarray(var_a, dtype=np.float64)
    n_a = np.asarray(n_a, dtype=np.float64)
    va = var_a / n_a
    vb = b.variance / b.n
    denom = np.where(n_a > 1, va * va / np.maximum(n_a - 1, 1), 0.0)
    if b.n > 1:
        denom = denom + vb * vb / (b.n - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        dof = (va + vb) ** 2 / denom
    return np.where(denom == 0.0, np.inf, dof)


def difference_ci_batch(
    mean_a: np.ndarray,
    var_a: np.ndarray,
    n_a: np.ndarray,
    b: SampleStats,
    confidence: float = 0.95,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Welch CI of many samples against one reference sample.

    Row ``i`` reproduces ``difference_ci(SampleStats(n=n_a[i],
    mean=mean_a[i], std=sqrt(var_a[i]), ...), b, confidence)`` bit for bit:
    the per-row arithmetic uses the same expressions, and critical values
    come from the same rounded-dof cache (resolved once per distinct
    rounded dof).
    """
    if b.n < 2:
        raise ConfigError("difference CI needs n >= 2 on the reference side")
    mean_a = np.asarray(mean_a, dtype=np.float64)
    var_a = np.asarray(var_a, dtype=np.float64)
    n_a = np.asarray(n_a, dtype=np.float64)
    if np.any(n_a < 2):
        raise ConfigError("difference CI needs n >= 2 on both sides")

    se = np.sqrt(var_a / n_a + b.variance / b.n)
    dof = welch_dof_batch(var_a, n_a, b)

    keys = np.where(
        np.isfinite(dof) & (dof <= NORMAL_DOF_CUTOFF),
        np.round(dof, DOF_DECIMALS),
        np.inf,
    )
    crit = np.empty_like(keys)
    for key in np.unique(keys):
        value = (
            _cached_critical_value(confidence, None)
            if np.isinf(key)
            else _cached_critical_value(confidence, float(key))
        )
        crit[keys == key] = value

    diff = mean_a - b.mean
    return diff - crit * se, diff + crit * se


def two_sigma_band(
    stats: SampleStats, width_sigmas: float = 2.0
) -> tuple[float, float]:
    """The paper's acceptance band: mean +/- ``width_sigmas`` * std.

    Unlike a confidence interval this band covers individual observations
    (~95 % of them at 2 sigma under near-normality) regardless of how many
    samples contributed to the estimate — Sec. V-A.
    """
    if width_sigmas <= 0:
        raise ConfigError("band width must be positive")
    half = width_sigmas * stats.std
    return stats.mean - half, stats.mean + half
