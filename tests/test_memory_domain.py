"""Tests for the core×memory frequency domain (2-D campaigns).

Covers the memory-clock ladder on :class:`GpuSpec`, the always-powered
memory :class:`DvfsClockDomain`, the roofline stall coupling between
memory clock and kernel iteration time, energy/thermal awareness, and the
campaign/engine grid semantics — including the legacy-equivalence
guarantee (``memory_frequencies`` unset touches nothing) and engine
bit-identity across worker counts.
"""

import numpy as np
import pytest

from repro import make_machine, run_campaign
from repro.analysis.heatmap import heatmaps_by_memory
from repro.analysis.summary import summarize_by_memory
from repro.core.sweep import sweep_models
from repro.errors import ConfigError, MeasurementError
from repro.gpusim.sm import memory_stall_factor, merge_memory_segments
from repro.gpusim.spec import A100_SXM4, GH200, RTX_QUADRO_6000
from tests.conftest import fast_config


def mem_config(frequencies=(705.0, 1410.0), memory=(1215.0, 810.0), **over):
    return fast_config(frequencies, memory_frequencies=memory, **over)


class TestSpecLadder:
    def test_every_model_has_memory_ladder(self):
        for spec in (A100_SXM4, GH200, RTX_QUADRO_6000):
            ladder = spec.supported_memory_clocks_mhz
            assert spec.memory_frequency_mhz in ladder
            assert list(ladder) == sorted(ladder, reverse=True)
            assert len(ladder) >= 2  # a 2-D campaign is possible everywhere

    def test_nearest_and_validate(self):
        assert A100_SXM4.nearest_supported_memory_clock(800.0) == 810.0
        assert A100_SXM4.validate_memory_clock(1215.0) == 1215.0
        with pytest.raises(ConfigError):
            A100_SXM4.validate_memory_clock(999.0)


class TestStallModel:
    def test_reference_clock_exactly_one(self):
        stall = memory_stall_factor(1215.0, 1215.0, 0.3)
        assert float(stall) == 1.0  # pinned, not just approximately 1

    def test_downclock_slows_by_roofline(self):
        stall = float(memory_stall_factor(810.0, 1215.0, 0.3))
        assert stall == pytest.approx(0.7 + 0.3 * 1215.0 / 810.0)
        assert stall > 1.0

    def test_zero_intensity_inert(self):
        assert float(memory_stall_factor(810.0, 1215.0, 0.0)) == 1.0

    def test_merge_constant_memory_scales_frequencies(self):
        tb = np.array([0.0, 1.0, np.inf])
        f = np.array([1000.0, 500.0])
        mem_tb = np.array([0.0, np.inf])
        mem_f = np.array([810.0])
        out_tb, out_f = merge_memory_segments(tb, f, mem_tb, mem_f, 0.3, 1215.0)
        stall = 0.7 + 0.3 * 1215.0 / 810.0
        np.testing.assert_allclose(out_f, f / stall)
        np.testing.assert_array_equal(out_tb, tb)

    def test_merge_mid_kernel_memory_transition(self):
        tb = np.array([0.0, np.inf])
        f = np.array([1000.0])
        mem_tb = np.array([0.0, 2.0, np.inf])
        mem_f = np.array([1215.0, 810.0])
        out_tb, out_f = merge_memory_segments(tb, f, mem_tb, mem_f, 0.5, 1215.0)
        assert out_tb.tolist() == [0.0, 2.0, np.inf]
        assert out_f[0] == 1000.0  # reference clock: exactly untouched
        assert out_f[1] == pytest.approx(1000.0 / (0.5 + 0.5 * 1215.0 / 810.0))


class TestDeviceMemoryDomain:
    def test_boots_at_reference(self, a100_machine):
        device = a100_machine.device(0)
        assert device.current_memory_clock_mhz() == 1215.0
        assert device._memory_static

    def test_locked_memory_clock_transitions(self, a100_machine):
        device = a100_machine.device(0)
        record = device.set_memory_locked_clocks(810.0)
        assert record is not None  # always powered: transitions immediately
        assert record.ground_truth_latency_s > 0.0
        assert not device._memory_static
        a100_machine.clock.advance(record.ground_truth_latency_s + 0.1)
        assert device.current_memory_clock_mhz() == 810.0

    def test_unsupported_memory_clock_rejected(self, a100_machine):
        with pytest.raises(ConfigError):
            a100_machine.device(0).set_memory_locked_clocks(999.0)

    def test_reset_returns_to_reference(self, a100_machine):
        device = a100_machine.device(0)
        device.set_memory_locked_clocks(810.0)
        a100_machine.clock.advance(1.0)
        record = device.reset_memory_locked_clocks()
        a100_machine.clock.advance(record.ground_truth_latency_s + 0.1)
        assert device.current_memory_clock_mhz() == 1215.0

    def test_memory_transition_slower_than_sm(self, a100_machine):
        device = a100_machine.device(0)
        # Wake the device so the SM domain transitions under load too.
        from repro.cuda.kernel import MicrobenchmarkKernel
        ctx = a100_machine.cuda_context()
        kernel = MicrobenchmarkKernel(
            n_iterations=2000, cycles_per_iteration=50000.0,
            sm_count=1, aggregate=True,
        )
        ctx.launch(kernel)
        sm_rec = device.set_locked_clocks(705.0)
        mem_rec = device.set_memory_locked_clocks(810.0)
        ctx.synchronize()
        assert mem_rec.sample.total_s > sm_rec.sample.total_s

    def test_nvml_surface(self, a100_machine):
        handle = a100_machine.nvml().device_get_handle_by_index(0)
        assert handle.clock_info_mem_mhz() == 1215.0
        rec = handle.set_memory_locked_clocks(810.0, 810.0)
        assert rec is not None
        handle.reset_memory_locked_clocks()

    def test_power_responds_to_memory_downclock(self, a100_machine):
        device = a100_machine.device(0)
        device.thermal.enabled = True
        p_ref = device.thermal.power_watts(1095.0, 1.0)
        p_low = device.thermal.power_watts(1095.0, 1.0, mem_freq_mhz=810.0)
        p_same = device.thermal.power_watts(1095.0, 1.0, mem_freq_mhz=1215.0)
        assert p_low < p_ref
        assert p_same == p_ref  # reference memory clock: bit-identical

    def test_checkpoint_restores_memory_domain(self, a100_machine):
        device = a100_machine.device(0)
        cp = a100_machine.checkpoint()
        device.set_memory_locked_clocks(810.0)
        a100_machine.clock.advance(1.0)
        assert device.current_memory_clock_mhz() == 810.0
        a100_machine.restore(cp)
        assert device.current_memory_clock_mhz() == 1215.0
        assert device._memory_static


class TestGridCampaign:
    @pytest.fixture(scope="class")
    def grid_result(self):
        machine = make_machine("A100", seed=11)
        return run_campaign(machine, mem_config())

    def test_one_pair_grid_per_memory_clock(self, grid_result):
        assert grid_result.memory_frequencies == (1215.0, 810.0)
        keys = set(grid_result.pairs.keys())
        assert keys == {
            (705.0, 1410.0, 1215.0),
            (1410.0, 705.0, 1215.0),
            (705.0, 1410.0, 810.0),
            (1410.0, 705.0, 810.0),
        }
        for pair in grid_result.pairs.values():
            assert pair.memory_mhz in (1215.0, 810.0)

    def test_pair_accessor_needs_memory(self, grid_result):
        with pytest.raises(MeasurementError):
            grid_result.pair(705.0, 1410.0)  # ambiguous facet
        pair = grid_result.pair(705.0, 1410.0, memory_mhz=810.0)
        assert pair.memory_mhz == 810.0

    def test_latency_matrix_facets(self, grid_result):
        with pytest.raises(MeasurementError):
            grid_result.latency_matrix()  # ambiguous facet
        for mem in (1215.0, 810.0):
            grid = grid_result.latency_matrix(memory_mhz=mem)
            assert np.isfinite(grid).sum() == 2

    def test_faceted_heatmaps(self, grid_result):
        grids = heatmaps_by_memory(grid_result, "max")
        assert list(grids.keys()) == [1215.0, 810.0]
        for mem, grid in grids.items():
            assert grid.memory_mhz == mem
            assert np.isfinite(grid.values_ms).sum() == 2

    def test_report_renders_every_facet(self, grid_result):
        from repro.analysis.report import campaign_report

        report = campaign_report(grid_result)
        assert "@ mem 1215 MHz" in report
        assert "@ mem 810 MHz" in report

    def test_compare_matches_facet_to_facet(self, grid_result):
        from repro.analysis.compare import compare_campaigns

        other = run_campaign(make_machine("A100", seed=12), mem_config())
        comparison = compare_campaigns(grid_result, other)
        # every (init, target, memory) grid point compares against its own
        # facet — not collapsed onto one memory clock
        assert len(comparison.pairs) == 4

    def test_per_memory_summaries(self, grid_result):
        rows = summarize_by_memory(grid_result)
        assert set(rows.keys()) == {1215.0, 810.0}
        for row in rows.values():
            assert row.n_pairs == 2

    def test_phase1_characterized_per_memory_clock(self, grid_result):
        by_mem = grid_result.phase1_by_memory
        assert set(by_mem.keys()) == {1215.0, 810.0}
        # Memory-bandwidth coupling: iteration time grows at the lower
        # memory clock by the roofline stall factor.
        for freq in (705.0, 1410.0):
            t_ref = by_mem[1215.0].characterizations[freq].stats.mean
            t_low = by_mem[810.0].characterizations[freq].stats.mean
            stall = 0.7 + 0.3 * 1215.0 / 810.0
            assert t_low / t_ref == pytest.approx(stall, rel=0.01)

    def test_csv_names_carry_memory(self, tmp_path):
        machine = make_machine("A100", seed=12)
        run_campaign(machine, mem_config(), output_dir=str(tmp_path / "out"))
        names = {p.name for p in (tmp_path / "out").glob("swlatm_*.csv")}
        assert any("_1215_" in n for n in names)
        assert any("_810_" in n for n in names)

    def test_legacy_result_shape_unchanged(self):
        machine = make_machine("A100", seed=11)
        result = run_campaign(machine, fast_config((705.0, 1410.0)))
        assert result.memory_frequencies is None
        assert set(result.pairs.keys()) == {(705.0, 1410.0), (1410.0, 705.0)}
        assert result.phase1_by_memory is None
        # legacy accessors work without a memory coordinate
        result.pair(705.0, 1410.0)
        result.latency_matrix()


class TestGridEngine:
    def test_bit_identical_across_worker_counts(self):
        cfg = mem_config()
        r1 = run_campaign(make_machine("A100", seed=21), cfg, workers=1)
        r2 = run_campaign(make_machine("A100", seed=21), cfg, workers=2)
        assert r1.pairs.keys() == r2.pairs.keys()
        for key in r1.pairs:
            a, b = r1.pairs[key], r2.pairs[key]
            assert [m.latency_s for m in a.measurements] == [
                m.latency_s for m in b.measurements
            ]
        assert r1.wall_virtual_s == r2.wall_virtual_s

    def test_engine_grid_matches_facet_structure(self):
        cfg = mem_config()
        result = run_campaign(make_machine("A100", seed=22), cfg, workers=1)
        assert result.memory_frequencies == (1215.0, 810.0)
        assert len(result.pairs) == 4
        assert set(summarize_by_memory(result)) == {1215.0, 810.0}


class TestSweepMemorySubsets:
    def test_per_model_memory_subsets(self):
        configs = {
            "A100": fast_config((705.0, 1410.0)),
            "RTX6000": fast_config((750.0, 1650.0)),
        }
        results = sweep_models(
            configs,
            seed=5,
            memory_subsets={"A100": (1215.0, 810.0)},
        )
        assert results["A100"].memory_frequencies == (1215.0, 810.0)
        assert results["RTX6000"].memory_frequencies is None

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            sweep_models(
                {"A100": fast_config((705.0, 1410.0))},
                memory_subsets={"GH200": (2619.0,)},
            )
