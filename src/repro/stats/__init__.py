"""Statistics toolkit for the measurement methodology.

Implements the exact statistical machinery the paper builds on:

* descriptive statistics with both batch and online (Welford) forms,
* confidence intervals for means and for mean *differences* (the pair
  validation of Algorithm 1),
* the two-standard-deviation acceptance band of Sec. V-A — the paper's key
  departure from FTaLaT's confidence-interval criterion,
* the relative-standard-error stopping rule of the LATEST campaign loop.
"""

from repro.stats.descriptive import OnlineStats, SampleStats, quantile_range, summarize
from repro.stats.intervals import difference_ci, mean_ci, two_sigma_band
from repro.stats.rse import RseStoppingRule, relative_standard_error

__all__ = [
    "SampleStats",
    "OnlineStats",
    "summarize",
    "quantile_range",
    "mean_ci",
    "difference_ci",
    "two_sigma_band",
    "relative_standard_error",
    "RseStoppingRule",
]
