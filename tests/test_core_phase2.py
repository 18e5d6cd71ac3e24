"""Tests for phase 2: the switch benchmark execution."""

import pytest

from repro.core.context import BenchContext
from repro.core.phase1 import run_phase1
from repro.core.phase2 import (
    build_benchmark_kernel,
    run_switch_benchmark,
)
from tests.conftest import fast_config


@pytest.fixture
def bench(a100_machine):
    return BenchContext(a100_machine, fast_config((705.0, 1410.0)))


class TestSettle:
    def test_settles_on_requested_clock(self, bench):
        assert bench.settle_on(1410.0)
        assert bench.handle.clock_info_sm_mhz() == 1410.0


class TestBenchmarkKernel:
    def test_iteration_budget(self, bench):
        base = bench.base_kernel()
        kernel = build_benchmark_kernel(bench, base, 705.0, 1410.0, 1000)
        cfg = bench.config
        assert kernel.n_iterations == (
            cfg.delay_iterations + 1000 + cfg.confirm_iterations
        )

    def test_label_carries_pair(self, bench):
        kernel = build_benchmark_kernel(
            bench, bench.base_kernel(), 705.0, 1410.0, 10
        )
        assert "705" in kernel.label and "1410" in kernel.label


class TestRunSwitchBenchmark:
    def test_raw_data_complete(self, bench):
        phase1 = run_phase1(bench)
        raw = run_switch_benchmark(
            bench, 1410.0, 705.0, phase1.kernel, window_iterations=600
        )
        assert raw.init_mhz == 1410.0
        assert raw.target_mhz == 705.0
        assert raw.timestamps.n_sm == bench.record_sm_count()
        assert raw.ground_truth is not None
        assert raw.ground_truth_latency_s > 0

    def test_ts_acc_in_gpu_timebase(self, bench):
        phase1 = run_phase1(bench)
        raw = run_switch_benchmark(
            bench, 705.0, 1410.0, phase1.kernel, window_iterations=600
        )
        # ts_acc must land inside the kernel's GPU-clock timestamp range.
        assert raw.timestamps.starts.min() < raw.ts_acc < raw.timestamps.ends.max()

    def test_delay_iterations_precede_switch(self, bench):
        phase1 = run_phase1(bench)
        raw = run_switch_benchmark(
            bench, 705.0, 1410.0, phase1.kernel, window_iterations=600
        )
        before = (raw.timestamps.starts[0] < raw.ts_acc).sum()
        # The delay period holds ~delay_iterations iterations (sleep
        # overshoot can add a few).
        assert before >= bench.config.delay_iterations * 0.8

    def test_ground_truth_outlier_flag_propagates(self, bench):
        phase1 = run_phase1(bench)
        raw = run_switch_benchmark(
            bench, 705.0, 1410.0, phase1.kernel, window_iterations=600
        )
        assert raw.ground_truth_outlier == raw.ground_truth.sample.is_outlier
