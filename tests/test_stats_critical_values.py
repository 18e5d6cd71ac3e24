"""Exactness of the critical values against scipy.

Lookups are keyed on (confidence, dof rounded to DOF_DECIMALS); for any
key the value must be *exactly* what scipy computes for that rounded dof
— the rounding trades a sub-1e-6 dof perturbation for the lookup, never
approximation of the quantile itself.  At CONFIDENCE the values come from
the committed table, elsewhere from scipy, and both must agree.
"""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special as sc
from scipy import stats as sps

from repro.errors import ConfigError
from repro.stats import intervals
from repro.stats.descriptive import SampleStats
from repro.stats.intervals import (
    CONFIDENCE,
    DOF_DECIMALS,
    NORMAL_CRITICAL_VALUE,
    NORMAL_DOF_CUTOFF,
    T_CRITICAL_VALUES,
    critical_value,
    difference_ci,
    difference_ci_batch,
    welch_dof,
    welch_dof_batch,
)


def _stats(n, mean, std):
    return SampleStats(n=n, mean=mean, std=std, minimum=mean - std, maximum=mean + std)


class TestCriticalValueCache:
    @pytest.mark.parametrize("confidence", [0.90, 0.95, 0.99])
    @pytest.mark.parametrize(
        "dof",
        [1.0, 2.0, 2.5, 3.7, 9.999, 10.0, 31.416, 57.123456, 120.0, 199.999],
    )
    def test_t_values_match_scipy_exactly(self, confidence, dof):
        tail = 0.5 + confidence / 2.0
        expected = float(sps.t.ppf(tail, float(np.round(dof, DOF_DECIMALS))))
        assert critical_value(confidence, dof) == expected

    @pytest.mark.parametrize("confidence", [0.90, 0.95, 0.99])
    @pytest.mark.parametrize("dof", [200.001, 500.0, 1e6, float("inf"), None])
    def test_normal_fallback_above_cutoff(self, confidence, dof):
        tail = 0.5 + confidence / 2.0
        assert critical_value(confidence, dof) == float(sps.norm.ppf(tail))

    def test_cutoff_boundary_uses_t(self):
        # dof exactly at the cutoff stays on the t distribution.
        expected = float(sps.t.ppf(0.975, NORMAL_DOF_CUTOFF))
        assert critical_value(0.95, NORMAL_DOF_CUTOFF) == expected

    def test_repeated_calls_are_stable(self):
        first = critical_value(0.95, 12.3456)
        assert all(critical_value(0.95, 12.3456) == first for _ in range(5))

    def test_rounding_collapses_nearby_dofs(self):
        step = 10 ** (-DOF_DECIMALS)
        assert critical_value(0.95, 10.0) == critical_value(0.95, 10.0 + step / 4)

    def test_invalid_confidence_rejected(self):
        with pytest.raises(ConfigError):
            critical_value(1.5, 10.0)


class TestBatchMatchesScalar:
    def test_difference_ci_batch_equals_scalar(self):
        rng = np.random.default_rng(7)
        b = _stats(40, 1.0e-3, 5.0e-5)
        means = 1.0e-3 + rng.normal(0, 5e-5, size=25)
        stds = np.abs(rng.normal(5e-5, 1e-5, size=25)) + 1e-9
        ns = rng.integers(2, 400, size=25)

        lb, hb = difference_ci_batch(means, stds * stds, ns, b, 0.95)
        for i in range(means.size):
            a = _stats(int(ns[i]), float(means[i]), float(stds[i]))
            slb, shb = difference_ci(a, b, 0.95)
            assert lb[i] == slb and hb[i] == shb

    def test_welch_dof_batch_equals_scalar(self):
        b = _stats(30, 2.0, 0.3)
        std_a = np.array([0.1, 0.45, 1.22])
        var_a = std_a * std_a  # the batch contract: variance is std*std
        n_a = np.array([5, 50, 300])
        batch = welch_dof_batch(var_a, n_a, b)
        for i in range(3):
            a = _stats(int(n_a[i]), 0.0, float(std_a[i]))
            assert batch[i] == welch_dof(a, b)

    def test_zero_variance_both_sides_gives_normal(self):
        # denom == 0 -> infinite dof -> normal critical value.
        b = _stats(10, 1.0, 0.0)
        lb, hb = difference_ci_batch(
            np.array([1.0]), np.array([0.0]), np.array([10]), b, 0.95
        )
        assert lb[0] == hb[0] == 0.0

    def test_small_n_rejected(self):
        b = _stats(10, 1.0, 0.1)
        with pytest.raises(ConfigError):
            difference_ci_batch(
                np.array([1.0]), np.array([0.01]), np.array([1]), b
            )


class TestCommittedTable:
    TAIL = 0.5 + CONFIDENCE / 2.0
    SCALE = 10**DOF_DECIMALS

    def test_every_entry_equals_scipy(self):
        keys = np.arange(self.SCALE, round(NORMAL_DOF_CUTOFF * self.SCALE) + 1) / self.SCALE
        expected = sc.stdtrit(keys, self.TAIL)
        assert T_CRITICAL_VALUES.dtype == np.float64
        differing = np.count_nonzero(T_CRITICAL_VALUES != expected)
        assert differing == 0, (
            f"{differing} of {expected.size} table entries differ from scipy "
            f"{scipy.__version__}; tools/gen_critical_values.py made the table"
        )

    def test_domain_follows_the_rounding_and_the_cutoff(self):
        # one entry per rounded dof from 1 to the cutoff, both included
        assert T_CRITICAL_VALUES.shape == (
            round((NORMAL_DOF_CUTOFF - 1.0) * self.SCALE) + 1,
        )
        assert T_CRITICAL_VALUES[0] == sc.stdtrit(1.0, self.TAIL)
        assert T_CRITICAL_VALUES[-1] == sc.stdtrit(NORMAL_DOF_CUTOFF, self.TAIL)
        meta = json.loads(
            Path(intervals.__file__).with_name("critical_values.json").read_text()
        )
        assert (meta["first_dof"], meta["last_dof"], meta["entries"], meta["tail"]) == (
            1.0,
            NORMAL_DOF_CUTOFF,
            T_CRITICAL_VALUES.size,
            self.TAIL,
        )

    def test_normal_literal_equals_scipy(self):
        assert NORMAL_CRITICAL_VALUE == float(sc.ndtri(self.TAIL))

    @settings(max_examples=60, deadline=None)
    @given(
        n_a=st.integers(2, 120),
        n_b=st.integers(2, 120),
        std_a=st.floats(1e-6, 1e-3),
        std_b=st.floats(1e-6, 1e-3),
    )
    def test_table_and_scipy_paths_agree(self, n_a, n_b, std_a, std_b):
        a = _stats(n_a, 1.0e-3, std_a)
        b = _stats(n_b, 1.1e-3, std_b)
        assume(welch_dof(a, b) <= NORMAL_DOF_CUTOFF)
        args = (np.array([a.mean]), np.array([a.std * a.std]), np.array([a.n]), b)

        with_table = (difference_ci(a, b, CONFIDENCE), difference_ci_batch(*args, CONFIDENCE))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intervals, "_critical_value", intervals._scipy_critical_value)
            with_scipy = (
                difference_ci(a, b, CONFIDENCE),
                difference_ci_batch(*args, CONFIDENCE),
            )
        assert with_table[0] == with_scipy[0]
        assert np.array_equal(with_table[1], with_scipy[1])
