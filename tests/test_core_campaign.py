"""Tests for the campaign loop: RSE stopping, window growth, throttling,
skip paths, CSV emission."""

import numpy as np
import pytest

from repro import make_machine, run_campaign
from repro.core import phase1
from repro.gpusim.thermal import ThrottleReasons
from tests.conftest import fast_config


class TestCampaignBasics:
    def test_all_pairs_present(self, small_a100_campaign):
        result = small_a100_campaign
        assert len(result.pairs) == 6
        assert result.n_measured_pairs == 6

    def test_min_measurements_honoured(self, small_a100_campaign):
        for pair in small_a100_campaign.iter_measured():
            assert pair.n_measurements >= 14

    def test_max_measurements_honoured(self, small_a100_campaign):
        for pair in small_a100_campaign.iter_measured():
            assert pair.n_measurements <= 20

    def test_latencies_positive_and_sane(self, small_a100_campaign):
        lats = small_a100_campaign.all_latencies_s(without_outliers=False)
        assert (lats > 1e-4).all()
        assert (lats < 1.0).all()

    def test_phase1_attached(self, small_a100_campaign):
        assert small_a100_campaign.phase1 is not None
        assert len(small_a100_campaign.phase1.valid_pairs) == 6

    def test_metadata(self, small_a100_campaign):
        assert small_a100_campaign.gpu_name == "A100 SXM-4"
        assert small_a100_campaign.hostname == "simnode01"
        assert small_a100_campaign.wall_virtual_s > 0

    def test_latency_matrix_shape_and_nan_diagonal(self, small_a100_campaign):
        grid = small_a100_campaign.latency_matrix("max")
        assert grid.shape == (3, 3)
        assert np.isnan(np.diag(grid)).all()
        off_diag = grid[~np.isnan(grid)]
        assert off_diag.size == 6

    def test_matrix_statistics_ordering(self, small_a100_campaign):
        gmin = small_a100_campaign.latency_matrix("min")
        gmean = small_a100_campaign.latency_matrix("mean")
        gmax = small_a100_campaign.latency_matrix("max")
        mask = ~np.isnan(gmin)
        assert (gmin[mask] <= gmean[mask] + 1e-12).all()
        assert (gmean[mask] <= gmax[mask] + 1e-12).all()

    def test_unknown_statistic_rejected(self, small_a100_campaign):
        from repro.errors import MeasurementError

        with pytest.raises(MeasurementError):
            small_a100_campaign.latency_matrix("median")

    def test_ground_truth_tracked(self, small_a100_campaign):
        for pair in small_a100_campaign.iter_measured():
            gt = pair.ground_truths_s(without_outliers=False)
            lat = pair.latencies_s(without_outliers=False)
            valid = ~np.isnan(gt)
            assert valid.any()
            # Measured latency within ~1.5 ms of injected ground truth
            # (detection granularity is ~1 iteration).
            assert np.nanmax(np.abs(lat[valid] - gt[valid])) < 2.5e-3


class TestWindowGrowth:
    def test_pathological_pair_grows_window(self, small_gh200_campaign):
        """GH200's 1875 MHz target band has modes up to 480 ms; the probe
        median sizes the initial window far smaller, so growth must kick
        in for at least one special pair when those modes are drawn."""
        special = [
            p
            for p in small_gh200_campaign.iter_measured()
            if p.target_mhz == 1875.0
        ]
        assert special
        worst = max(p.worst_case_s(False) for p in special)
        # Either a slow mode was captured (needing growth) or the pair
        # drew only fast modes; both are legitimate, but captured slow
        # modes require a grown window.
        for p in special:
            if p.worst_case_s(False) > 0.15:
                assert p.n_window_growths >= 1 or p.measurements[0].window_iterations > 2000
        assert worst > 0.02  # at least some slow-mode evidence


class TestThrottlePaths:
    def _tiny_config(self, **kw):
        return fast_config(
            (705.0, 1410.0), min_measurements=4, max_measurements=6, **kw
        )

    def test_power_throttle_skips_pair(self):
        # 250 W cap: a 1410 MHz lock exceeds the budget (caps near
        # 1100 MHz) while 705 MHz fits, so the pairs stay distinguishable
        # and the power-throttle skip path is reachable.
        machine = make_machine(
            "A100", seed=77, thermal_enabled=True, power_limit_w=250.0
        )
        result = run_campaign(machine, self._tiny_config())
        skipped = {p.key: p.skip_reason for p in result.skipped_pairs}
        assert any(
            reason == "power-throttled" for reason in skipped.values()
        ), skipped

    def test_extreme_power_cap_rejects_all_pairs(self):
        """A 120 W limit caps both requested clocks below their locks:
        every frequency is unreachable and all pairs are skipped."""
        machine = make_machine(
            "A100", seed=77, thermal_enabled=True, power_limit_w=120.0
        )
        result = run_campaign(machine, self._tiny_config())
        assert result.n_measured_pairs == 0
        assert result.skipped_pairs
        assert all(
            p.skip_reason in ("power-throttled", "never-settled")
            for p in result.skipped_pairs
        )

    def test_thermal_throttle_discards_and_backs_off(self, monkeypatch):
        """Unit-stage the thermal path: reasons report SW_THERMAL on a
        later pass; the campaign must drop the newest measurements and
        back off ten (virtual) seconds."""
        from repro.gpusim.device import GpuDevice

        machine = make_machine("A100", seed=78)
        calls = {"n": 0}
        original = GpuDevice.throttle_reasons

        def flaky(self):
            calls["n"] += 1
            reasons = original(self)
            # Trip thermal throttling on a burst of calls mid-campaign
            # (wide window so the every-5-passes check lands inside it).
            if 10 <= calls["n"] < 60:
                reasons |= ThrottleReasons.SW_THERMAL
            return reasons

        monkeypatch.setattr(GpuDevice, "throttle_reasons", flaky)
        t0 = machine.clock.now
        result = run_campaign(
            machine,
            fast_config(
                (705.0, 1410.0), min_measurements=8, max_measurements=10
            ),
        )
        discards = sum(p.n_throttle_discards for p in result.pairs.values())
        assert discards > 0
        # The 10 s backoff is visible in virtual time.
        assert machine.clock.now - t0 > 10.0


class TestOutlierFiltering:
    def test_outliers_removed_from_default_view(self, small_a100_campaign):
        for pair in small_a100_campaign.iter_measured():
            if pair.outliers is None:
                continue
            kept = pair.latencies_s(without_outliers=True)
            raw = pair.latencies_s(without_outliers=False)
            assert kept.size + pair.outliers.outlier_mask.sum() == raw.size

    def test_ground_truth_outliers_mostly_caught(self):
        """Injected driver-noise outliers should be labelled by DBSCAN."""
        machine = make_machine("A100", seed=901)
        config = fast_config(
            (705.0, 1410.0),
            min_measurements=60,
            max_measurements=60,
            rse_check_every=60,
        )
        result = run_campaign(machine, config)
        caught = missed = 0
        for pair in result.iter_measured():
            if pair.outliers is None:
                continue
            labels = pair.outliers.labels
            for i, m in enumerate(pair.measurements):
                if m.ground_truth_outlier:
                    if labels[i] == -1 or m.latency_s < 0.02:
                        caught += 1
                    else:
                        missed += 1
        # Most true outliers are flagged (small ones may hide in-band).
        assert caught >= missed


class TestSkipPaths:
    def test_indistinguishable_pair_skipped(self, monkeypatch):
        machine = make_machine("A100", seed=55)
        # Adjacent clocks with a coarse workload and no growth budget.
        monkeypatch.setattr(phase1, "MAX_WORKLOAD_GROWTH", 0)
        config = fast_config(
            (1395.0, 1410.0),
            iteration_duration_s=10e-6,
            min_measurements=4,
            max_measurements=6,
        )
        result = run_campaign(machine, config)
        reasons = {p.skip_reason for p in result.skipped_pairs}
        # Either phase 1 rejected them, or (if distinguishable after all)
        # they were measured; both end states are valid — but when skipped
        # the reason must be the statistical one.
        if result.skipped_pairs:
            assert reasons == {"statistically-indistinguishable"}
