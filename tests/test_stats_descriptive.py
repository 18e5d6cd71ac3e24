"""Tests for descriptive statistics (batch + Welford online)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.stats.descriptive import (
    OnlineStats,
    quantile_range,
    summarize,
)

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestSummarize:
    def test_basic_values(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4
        assert s.mean == pytest.approx(2.5)
        assert s.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
        assert s.minimum == 1.0
        assert s.maximum == 4.0

    def test_single_value_zero_std(self):
        s = summarize([5.0])
        assert s.std == 0.0
        assert s.n == 1

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            summarize([])

    def test_stderr(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.stderr == pytest.approx(s.std / 2.0)

    def test_2d_input_flattened(self):
        s = summarize(np.arange(12.0).reshape(3, 4))
        assert s.n == 12

    def test_scaled(self):
        s = summarize([1.0, 3.0]).scaled(1000.0)
        assert s.mean == pytest.approx(2000.0)
        assert s.minimum == pytest.approx(1000.0)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            summarize([1.0, 2.0]).scaled(0.0)


class TestQuantileRange:
    def test_known_range(self):
        x = np.linspace(0.0, 1.0, 1001)
        assert quantile_range(x, 0.05, 0.95) == pytest.approx(0.9, abs=1e-3)

    def test_invalid_bounds(self):
        with pytest.raises(ConfigError):
            quantile_range([1.0, 2.0], 0.9, 0.1)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            quantile_range([])


class TestOnlineStats:
    def test_empty_snapshot_rejected(self):
        with pytest.raises(ConfigError):
            OnlineStats().snapshot()

    def test_push_sequence(self):
        acc = OnlineStats()
        for x in [1.0, 2.0, 3.0]:
            acc.push(x)
        snap = acc.snapshot()
        assert snap.mean == pytest.approx(2.0)
        assert snap.n == 3

    def test_mean_nan_when_empty(self):
        assert math.isnan(OnlineStats().mean)

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_welford_matches_batch(self, values):
        acc = OnlineStats()
        for v in values:
            acc.push(v)
        batch = summarize(values)
        assert acc.mean == pytest.approx(batch.mean, rel=1e-9, abs=1e-9)
        assert acc.std == pytest.approx(batch.std, rel=1e-6, abs=1e-6)
        assert acc.snapshot().minimum == batch.minimum
        assert acc.snapshot().maximum == batch.maximum

    @given(
        a=st.lists(finite_floats, min_size=1, max_size=60),
        b=st.lists(finite_floats, min_size=1, max_size=60),
    )
    @settings(max_examples=80, deadline=None)
    def test_merge_equals_concatenation(self, a, b):
        left, right = OnlineStats(), OnlineStats()
        for v in a:
            left.push(v)
        for v in b:
            right.push(v)
        left.merge(right)
        batch = summarize(a + b)
        assert left.mean == pytest.approx(batch.mean, rel=1e-9, abs=1e-9)
        assert left.std == pytest.approx(batch.std, rel=1e-6, abs=1e-6)

    def test_merge_empty_is_noop(self):
        acc = OnlineStats()
        acc.push(1.0)
        acc.merge(OnlineStats())
        assert acc.n == 1

    def test_merge_into_empty(self):
        acc = OnlineStats()
        other = OnlineStats()
        other.push(2.0)
        acc.merge(other)
        assert acc.mean == 2.0
