"""Null-hypothesis tests on summary statistics.

The methodology runs tests on *summaries* (mean/std/n), not raw arrays —
phase one condenses millions of iteration times into per-frequency
statistics before any pairwise comparison happens, which keeps the
host-side analysis cheap (paper: "separating the data processing from the
measurement itself").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special as sc

from repro.errors import ConfigError
from repro.stats.descriptive import SampleStats
from repro.stats.intervals import welch_dof

__all__ = ["TestResult", "welch_t_test", "z_test", "means_differ"]


@dataclass(frozen=True)
class TestResult:
    """Outcome of a two-sided test of ``mean(a) == mean(b)``."""

    __test__ = False  # not a pytest test class

    statistic: float
    pvalue: float
    dof: float
    kind: str

    def reject_null(self, alpha: float = 0.05) -> bool:
        """True when the equal-means hypothesis is rejected at ``alpha``."""
        if not 0.0 < alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
        return self.pvalue < alpha


def _standard_error(a: SampleStats, b: SampleStats) -> float:
    return math.sqrt(a.variance / a.n + b.variance / b.n)


def welch_t_test(a: SampleStats, b: SampleStats) -> TestResult:
    """Welch's unequal-variance t-test from summary statistics."""
    if a.n < 2 or b.n < 2:
        raise ConfigError("welch test needs n >= 2 on both sides")
    se = _standard_error(a, b)
    dof = welch_dof(a, b)
    if se == 0.0:
        # Degenerate: identical constants on both sides.
        stat = 0.0 if a.mean == b.mean else math.inf
        p = 1.0 if a.mean == b.mean else 0.0
        return TestResult(statistic=stat, pvalue=p, dof=dof, kind="welch-t")
    stat = (a.mean - b.mean) / se
    if math.isinf(dof):
        p = 2.0 * float(sc.ndtr(-abs(stat)))
    else:
        p = 2.0 * float(sc.stdtr(dof, -abs(stat)))
    return TestResult(statistic=stat, pvalue=p, dof=dof, kind="welch-t")


def z_test(a: SampleStats, b: SampleStats) -> TestResult:
    """Large-sample z-test (the paper permits t, z, or CI interchangeably)."""
    if a.n < 1 or b.n < 1:
        raise ConfigError("z test needs at least one sample per side")
    se = _standard_error(a, b)
    if se == 0.0:
        stat = 0.0 if a.mean == b.mean else math.inf
        p = 1.0 if a.mean == b.mean else 0.0
        return TestResult(statistic=stat, pvalue=p, dof=math.inf, kind="z")
    stat = (a.mean - b.mean) / se
    return TestResult(
        statistic=stat,
        pvalue=2.0 * float(sc.ndtr(-abs(stat))),
        dof=math.inf,
        kind="z",
    )


def means_differ(
    a: SampleStats, b: SampleStats, alpha: float = 0.05, method: str = "welch"
) -> bool:
    """Convenience wrapper: do the two summaries have different means?"""
    test = welch_t_test(a, b) if method == "welch" else z_test(a, b)
    return test.reject_null(alpha)
