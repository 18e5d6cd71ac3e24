"""Tests for the null-hypothesis tests on summary statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.errors import ConfigError
from repro.stats.descriptive import SampleStats, summarize
from repro.stats.hypothesis_tests import TestResult, means_differ, welch_t_test, z_test


def stats(n, mean, std):
    return SampleStats(n=n, mean=mean, std=std, minimum=0.0, maximum=0.0)


class TestWelch:
    def test_equal_means_not_rejected(self):
        rng = np.random.default_rng(0)
        a = summarize(rng.normal(3.0, 1.0, 100))
        b = summarize(rng.normal(3.0, 1.0, 100))
        assert not welch_t_test(a, b).reject_null(0.01)

    def test_distinct_means_rejected(self):
        a = stats(200, 10.0, 1.0)
        b = stats(200, 11.0, 1.0)
        assert welch_t_test(a, b).reject_null(0.001)

    def test_statistic_sign(self):
        t = welch_t_test(stats(50, 12.0, 1.0), stats(50, 10.0, 1.0))
        assert t.statistic > 0

    def test_matches_scipy_on_raw_data(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0.0, 1.0, 60)
        y = rng.normal(0.4, 2.0, 45)
        ours = welch_t_test(summarize(x), summarize(y))
        ref = sps.ttest_ind(x, y, equal_var=False)
        assert ours.statistic == pytest.approx(ref.statistic, rel=1e-9)
        assert ours.pvalue == pytest.approx(ref.pvalue, rel=1e-6)

    def test_degenerate_identical_constants(self):
        t = welch_t_test(stats(10, 5.0, 0.0), stats(10, 5.0, 0.0))
        assert t.pvalue == 1.0

    def test_degenerate_distinct_constants(self):
        t = welch_t_test(stats(10, 5.0, 0.0), stats(10, 6.0, 0.0))
        assert t.pvalue == 0.0

    def test_needs_two_samples(self):
        with pytest.raises(ConfigError):
            welch_t_test(stats(1, 1.0, 0.1), stats(10, 1.0, 0.1))


class TestZTest:
    def test_matches_welch_for_large_n(self):
        a = stats(100_000, 5.0, 1.0)
        b = stats(100_000, 5.002, 1.0)
        assert z_test(a, b).pvalue == pytest.approx(
            welch_t_test(a, b).pvalue, rel=1e-3
        )

    def test_rejects_clear_difference(self):
        assert z_test(stats(1000, 1.0, 0.1), stats(1000, 2.0, 0.1)).reject_null()


#: (n, mean, std) pairs spanning small and large dof, tiny and huge
#: statistics, and unequal variances
SUMMARY_PAIRS = [
    ((2, 0.0, 1.0), (2, 0.5, 1.0)),
    ((3, 1.0, 0.2), (40, 1.1, 2.0)),
    ((12, 7.5e-4, 3.1e-5), (12, 7.6e-4, 2.9e-5)),
    ((60, 0.0, 1.0), (45, 0.4, 2.0)),
    ((250, 1.0e-3, 5.0e-5), (400, 1.001e-3, 6.0e-5)),
    ((5000, 3.0, 1.0), (8000, 3.0001, 1.0)),
    ((30, 10.0, 1.0), (30, 11.0, 1.0)),
    ((200, 10.0, 1.0), (200, 10.8, 1.0)),
]

summary = st.tuples(
    st.integers(2, 10_000),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(1e-6, 1e3, allow_nan=False),
)


class TestPvalueExactness:
    """P-values equal scipy's distribution methods bit for bit.

    The library calls the ``scipy.special`` functions that ``t.sf`` and
    ``norm.sf`` wrap; these tests keep ``scipy.stats`` as the reference.
    """

    @staticmethod
    def _check(sa, sb):
        a, b = stats(*sa), stats(*sb)
        t = welch_t_test(a, b)
        assert t.pvalue == 2 * float(sps.t.sf(abs(t.statistic), t.dof))
        z = z_test(a, b)
        assert z.pvalue == 2 * float(sps.norm.sf(abs(z.statistic)))

    @pytest.mark.parametrize("sa,sb", SUMMARY_PAIRS)
    def test_listed_summaries(self, sa, sb):
        self._check(sa, sb)

    @settings(max_examples=60, deadline=None)
    @given(summary, summary)
    def test_drawn_summaries(self, sa, sb):
        self._check(sa, sb)

    def test_infinite_dof_uses_normal_tail(self):
        # Variances so small their squares underflow: the Welch dof is
        # infinite while the standard error stays positive.
        a, b = stats(10, 0.0, 1e-160), stats(10, 2e-161, 1e-160)
        t = welch_t_test(a, b)
        assert t.dof == float("inf")
        assert t.pvalue == 2 * float(sps.norm.sf(abs(t.statistic)))


class TestHelpers:
    def test_means_differ_welch(self):
        assert means_differ(stats(100, 1.0, 0.1), stats(100, 2.0, 0.1))

    def test_means_differ_z(self):
        assert means_differ(
            stats(100, 1.0, 0.1), stats(100, 2.0, 0.1), method="z"
        )

    def test_alpha_validated(self):
        result = TestResult(statistic=1.0, pvalue=0.5, dof=10, kind="welch-t")
        with pytest.raises(ConfigError):
            result.reject_null(alpha=2.0)
