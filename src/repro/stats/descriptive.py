"""Descriptive statistics: batch summaries and Welford online accumulation.

The accelerator methodology aggregates millions of iteration execution
times (every iteration on every SM); :class:`OnlineStats` lets the
evaluation stream over them without materializing intermediates, and its
``merge`` supports combining per-SM accumulators — the same pattern used to
combine thread-local partials in parallel reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

__all__ = ["SampleStats", "OnlineStats", "summarize", "quantile_range"]


@dataclass(frozen=True)
class SampleStats:
    """Immutable summary of a sample."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @property
    def stderr(self) -> float:
        """Standard error of the mean (sigma-zero in the paper, Eq. 2)."""
        if self.n <= 0:
            return math.nan
        return self.std / math.sqrt(self.n)

    @property
    def variance(self) -> float:
        return self.std * self.std

    def scaled(self, factor: float) -> "SampleStats":
        """Stats of the sample multiplied by a positive constant."""
        if factor <= 0:
            raise ConfigError("scale factor must be positive")
        return SampleStats(
            n=self.n,
            mean=self.mean * factor,
            std=self.std * factor,
            minimum=self.minimum * factor,
            maximum=self.maximum * factor,
        )


def summarize(values) -> SampleStats:
    """Batch :class:`SampleStats` of a 1-D array-like (ddof=1)."""
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size == 0:
        raise ConfigError("cannot summarize an empty sample")
    std = float(x.std(ddof=1)) if x.size > 1 else 0.0
    return SampleStats(
        n=int(x.size),
        mean=float(x.mean()),
        std=std,
        minimum=float(x.min()),
        maximum=float(x.max()),
    )


def quantile_range(values, lo: float = 0.05, hi: float = 0.95) -> float:
    """Width of the [lo, hi] quantile interval (paper Alg. 3 eps basis)."""
    if not 0.0 <= lo < hi <= 1.0:
        raise ConfigError(f"invalid quantile bounds ({lo}, {hi})")
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size == 0:
        raise ConfigError("cannot take quantiles of an empty sample")
    q = np.quantile(x, [lo, hi])
    return float(q[1] - q[0])


class OnlineStats:
    """Welford accumulator with pairwise merge.

    Numerically stable for long streams; ``merge`` uses the Chan et al.
    parallel-variance update so per-SM accumulators can be combined without
    revisiting data.
    """

    __slots__ = ("n", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def push(self, x: float) -> None:
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        self._min = min(self._min, x)
        self._max = max(self._max, x)

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """In-place parallel merge; returns self."""
        if other.n == 0:
            return self
        if self.n == 0:
            self.n = other.n
            self._mean = other._mean
            self._m2 = other._m2
            self._min = other._min
            self._max = other._max
            return self
        n = self.n + other.n
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.n * other.n / n
        self._mean += delta * other.n / n
        self.n = n
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self

    @property
    def mean(self) -> float:
        return self._mean if self.n else math.nan

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def snapshot(self) -> SampleStats:
        if self.n == 0:
            raise ConfigError("no data accumulated")
        return SampleStats(
            n=self.n,
            mean=self.mean,
            std=self.std,
            minimum=self._min,
            maximum=self._max,
        )
