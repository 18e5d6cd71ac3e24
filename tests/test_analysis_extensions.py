"""Tests for the analysis extensions: advisor, validation and report."""

import pytest

from repro.analysis.advisor import RuntimeAdvisor
from repro.analysis.report import campaign_report, write_campaign_report
from repro.analysis.validation import score_recovery
from repro.errors import MeasurementError


class TestRuntimeAdvisor:
    @pytest.fixture
    def advisor(self, small_gh200_campaign):
        return RuntimeAdvisor(small_gh200_campaign, avoid_factor=4.0)

    def test_median_positive(self, advisor):
        assert advisor.median_worst_case_s > 0

    def test_pair_advice_fields(self, advisor, small_gh200_campaign):
        pair = next(small_gh200_campaign.iter_measured())
        advice = advisor.pair_advice(*pair.key)
        assert advice.worst_case_s >= advice.typical_s
        assert advice.min_residency_s == pytest.approx(
            3.0 * advice.worst_case_s
        )

    def test_unknown_pair_rejected(self, advisor):
        with pytest.raises(MeasurementError):
            advisor.pair_advice(345.0, 360.0)

    def test_pathological_target_flagged(self, advisor):
        """The GH200 campaign includes the 1875 MHz special band; when its
        column is slow enough it must be flagged."""
        targets = {t.target_mhz: t for t in advisor.target_advice()}
        assert 1875.0 in targets
        # Either flagged pathological or among the slowest columns (the
        # 705 column can compete via the unstable 1410 MHz initial row).
        special = targets[1875.0]
        ranked = sorted(
            targets.values(), key=lambda t: -t.median_worst_case_s
        )
        assert special.pathological or special in ranked[:2]

    def test_min_residency_table_complete(self, advisor, small_gh200_campaign):
        table = advisor.min_residency_table()
        assert len(table) == small_gh200_campaign.n_measured_pairs

    def test_classify_region_short_stays(self, advisor, small_gh200_campaign):
        pair = next(small_gh200_campaign.iter_measured())
        assert advisor.classify_region(*pair.key, region_s=1e-6) == "stay"

    def test_classify_region_long_switches(self, advisor):
        # A long region on a non-avoided pair must switch.
        for advice in advisor.all_advice():
            if not advice.avoid:
                decision = advisor.classify_region(*advice.key, region_s=1e3)
                assert decision == "switch"
                break

    def test_empty_campaign_rejected(self, small_a100_campaign):
        import copy

        empty = copy.copy(small_a100_campaign)
        empty = type(small_a100_campaign)(
            gpu_name="x",
            architecture="y",
            hostname="h",
            device_index=0,
            frequencies=(705.0, 1410.0),
            pairs={},
        )
        with pytest.raises(MeasurementError):
            RuntimeAdvisor(empty)


class TestRecoveryScoring:
    def test_scores_small_campaign(self, small_a100_campaign):
        report = score_recovery(small_a100_campaign)
        assert len(report.pairs) == small_a100_campaign.n_measured_pairs
        # Detection granularity: small positive-ish bias, bounded error.
        assert abs(report.overall_bias_s) < 2e-3
        assert report.overall_median_rel_error < 0.20
        assert report.worst_abs_error_s < 5e-3

    def test_outlier_scores_in_range(self, small_a100_campaign):
        report = score_recovery(small_a100_campaign)
        assert 0.0 <= report.outlier_precision <= 1.0
        assert 0.0 <= report.outlier_recall <= 1.0

    def test_summary_lines(self, small_a100_campaign):
        lines = score_recovery(small_a100_campaign).summary_lines()
        assert any("bias" in line for line in lines)
        assert any("outlier filter" in line for line in lines)


class TestCampaignReport:
    def test_report_sections_present(self, small_gh200_campaign):
        text = campaign_report(small_gh200_campaign)
        for heading in (
            "# Switching-latency campaign report",
            "## Summary (Table II format)",
            "## Heatmaps (Fig. 3 format)",
            "## Direction split",
            "## Runtime-design advice",
            "## Ground-truth recovery",
        ):
            assert heading in text, heading

    def test_report_contains_frequencies(self, small_gh200_campaign):
        text = campaign_report(small_gh200_campaign)
        for f in small_gh200_campaign.frequencies:
            assert f"{f:g}" in text

    def test_write_report(self, small_a100_campaign, tmp_path):
        path = write_campaign_report(
            small_a100_campaign, tmp_path / "report.md"
        )
        assert path.exists()
        assert path.read_text().startswith("# Switching-latency")
