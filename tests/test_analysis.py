"""Tests for the analysis package (heatmaps, Table II, violins, clusters,
variability, rendering)."""

import numpy as np
import pytest

from repro.analysis.clusters import cluster_report, scatter_data
from repro.analysis.distributions import split_by_direction
from repro.analysis.heatmap import heatmap_from_campaign
from repro.analysis.render import render_heatmap, render_matrix, render_table2
from repro.analysis.summary import summarize_campaign
from repro.analysis.variability import variability_report
from repro.errors import MeasurementError


class TestHeatmap:
    def test_grid_orientation(self, small_a100_campaign):
        grid = heatmap_from_campaign(small_a100_campaign, "max")
        pair = small_a100_campaign.pair(705.0, 1410.0)
        assert grid.value(705.0, 1410.0) == pytest.approx(
            pair.worst_case_s() * 1e3
        )

    def test_min_grid(self, small_a100_campaign):
        grid = heatmap_from_campaign(small_a100_campaign, "min")
        pair = small_a100_campaign.pair(1410.0, 705.0)
        assert grid.value(1410.0, 705.0) == pytest.approx(
            pair.best_case_s() * 1e3
        )

    def test_gh200_pathological_target_column(self, small_gh200_campaign):
        """GH200's pathological 1875 MHz *target* column must dominate the
        column means — the essence of the paper's 'row pattern'.  (The
        full variance-based dominance ratio needs wider grids; the Fig. 3
        benchmark exercises it.)"""
        grid = heatmap_from_campaign(small_gh200_campaign, "max")
        col_means = grid.column_means_ms()
        special = grid.frequencies_mhz.index(1875.0)
        normal = grid.frequencies_mhz.index(1410.0)
        # The pathological target column dwarfs a normal one.  (The 705
        # column can also be inflated here because 1410 is an unstable
        # *initial* frequency band — faithful to Fig. 3b's 1410 row.)
        assert col_means[special] > 3 * col_means[normal]


class TestSummary:
    def test_table2_row(self, small_a100_campaign):
        row = summarize_campaign(small_a100_campaign)
        assert row.gpu_name == "A100 SXM-4"
        assert row.n_pairs == 6
        assert row.best.min_ms <= row.best.mean_ms <= row.best.max_ms
        assert row.worst.min_ms <= row.worst.mean_ms <= row.worst.max_ms
        assert row.best.mean_ms < row.worst.mean_ms

    def test_extreme_pairs_resolve(self, small_a100_campaign):
        row = summarize_campaign(small_a100_campaign)
        pair = small_a100_campaign.pair(*row.worst.max_pair)
        assert pair.worst_case_s() * 1e3 == pytest.approx(row.worst.max_ms)


class TestDistributions:
    def test_split_covers_all_pairs(self, small_a100_campaign):
        split = split_by_direction(small_a100_campaign, "max")
        assert split.increasing.values_ms.size == 3
        assert split.decreasing.values_ms.size == 3

    def test_asymmetry_defined(self, small_a100_campaign):
        split = split_by_direction(small_a100_campaign, "max")
        assert split.asymmetry > 0

    def test_all_statistic_concatenates(self, small_a100_campaign):
        split = split_by_direction(small_a100_campaign, "all")
        total = sum(
            p.latencies_s().size for p in small_a100_campaign.iter_measured()
        )
        assert (
            split.increasing.values_ms.size + split.decreasing.values_ms.size
            == total
        )

    def test_modality_counter(self):
        from repro.analysis.distributions import ViolinData

        rng = np.random.default_rng(0)
        bimodal = np.concatenate(
            [rng.normal(10, 0.5, 300), rng.normal(50, 0.5, 300)]
        )
        v = ViolinData.from_values(bimodal)
        assert v.modality_count() >= 2
        unimodal = ViolinData.from_values(rng.normal(10, 1.0, 600))
        assert unimodal.modality_count() <= 2


class TestClusters:
    def test_report_counts(self, small_gh200_campaign):
        report = cluster_report(small_gh200_campaign)
        assert report.n_pairs > 0
        assert 0.0 <= report.single_cluster_share <= 1.0
        assert report.max_clusters >= 1

    def test_silhouettes_above_zero(self, small_gh200_campaign):
        report = cluster_report(small_gh200_campaign)
        if report.multi_cluster_silhouettes.size:
            assert report.min_silhouette > 0.0

    def test_outlier_share_small(self, small_a100_campaign):
        report = cluster_report(small_a100_campaign)
        assert report.outlier_share() < 0.25

    def test_scatter_data_shapes(self, small_a100_campaign):
        pair = next(small_a100_campaign.iter_measured())
        data = scatter_data(pair)
        n = pair.n_measurements
        assert data["index"].shape == (n,)
        assert data["latency_ms"].shape == (n,)
        assert data["label"].shape == (n,)


class TestVariability:
    @pytest.fixture(scope="class")
    def unit_campaigns(self):
        from repro import make_machine, run_campaign
        from tests.conftest import fast_config

        machine = make_machine("A100", n_gpus=3, seed=808)
        results = []
        for i in range(3):
            cfg = fast_config(
                (705.0, 1410.0),
                device_index=i,
                min_measurements=8,
                max_measurements=12,
                rse_check_every=4,
            )
            results.append(run_campaign(machine, cfg))
        return results

    def test_report_structure(self, unit_campaigns):
        report = variability_report(unit_campaigns)
        assert report.n_units == 3
        assert len(report.best_spreads) == 2
        assert len(report.worst_spreads) == 2

    def test_ranges_nonnegative(self, unit_campaigns):
        report = variability_report(unit_campaigns)
        grid = report.range_matrix_ms("max")
        finite = grid[np.isfinite(grid)]
        assert (finite >= 0).all()

    def test_top_spread_sorted(self, unit_campaigns):
        report = variability_report(unit_campaigns)
        top = report.top_spread_pairs(2, case="max")
        assert top[0].range_ms >= top[-1].range_ms

    def test_slowest_unit_histogram_sums(self, unit_campaigns):
        report = variability_report(unit_campaigns)
        hist = report.slowest_unit_histogram("max")
        assert hist.sum() == len(report.worst_spreads)

    def test_needs_two_units(self, small_a100_campaign):
        with pytest.raises(MeasurementError):
            variability_report([small_a100_campaign])

    def test_mismatched_frequencies_rejected(
        self, unit_campaigns, small_a100_campaign
    ):
        with pytest.raises(MeasurementError):
            variability_report([unit_campaigns[0], small_a100_campaign])


class TestRender:
    def test_matrix_renders_all_rows(self):
        values = np.array([[1.0, np.nan], [3.0, 4.0]])
        text = render_matrix(values, [705, 1410], [705, 1410])
        lines = text.splitlines()
        assert len(lines) == 3
        assert "-" in lines[1]  # the NaN cell

    def test_heatmap_render_includes_title(self, small_a100_campaign):
        grid = heatmap_from_campaign(small_a100_campaign)
        text = render_heatmap(grid)
        assert "A100 SXM-4" in text
        assert "max" in text

    def test_table2_render_structure(self, small_a100_campaign):
        text = render_table2([summarize_campaign(small_a100_campaign)])
        assert "worst-case" in text
        assert "best-case" in text
        assert "Min [ms]" in text
