"""Tests for phase 1: per-frequency characterization and pair validation."""

import pytest

from repro.core.context import BenchContext
from repro.core.phase1 import (
    characterize_frequency,
    run_phase1,
    validate_pairs,
)
from repro.errors import MeasurementError
from tests.conftest import fast_config


@pytest.fixture
def bench(a100_machine):
    return BenchContext(a100_machine, fast_config((705.0, 1095.0, 1410.0)))


class TestCharacterization:
    def test_mean_matches_frequency(self, bench):
        kernel = bench.base_kernel()
        char = characterize_frequency(bench, 1095.0, kernel)
        expected = kernel.iteration_duration_s(1095.0)
        assert char.stats.mean == pytest.approx(expected, rel=0.02)

    def test_lower_frequency_longer_iterations(self, bench):
        kernel = bench.base_kernel()
        slow = characterize_frequency(bench, 705.0, kernel)
        fast = characterize_frequency(bench, 1410.0, kernel)
        assert slow.stats.mean > 1.5 * fast.stats.mean

    def test_band_accessor(self, bench):
        char = characterize_frequency(bench, 1095.0, bench.base_kernel())
        lo, hi = char.band(2.0)
        assert lo < char.stats.mean < hi


class TestPairValidation:
    def test_distant_pairs_valid(self, bench):
        kernel = bench.base_kernel()
        chars = {
            f: characterize_frequency(bench, f, kernel)
            for f in (705.0, 1410.0)
        }
        valid, rejected = validate_pairs(
            chars, [(705.0, 1410.0), (1410.0, 705.0)], 0.95
        )
        assert len(valid) == 2
        assert not rejected

    def test_identical_stats_rejected(self):
        from repro.core.phase1 import FrequencyCharacterization
        from repro.stats.descriptive import SampleStats

        s = SampleStats(n=1000, mean=1e-4, std=1e-6, minimum=0, maximum=1)
        chars = {
            705.0: FrequencyCharacterization(705.0, s, 1),
            720.0: FrequencyCharacterization(720.0, s, 1),
        }
        valid, rejected = validate_pairs(chars, [(705.0, 720.0)], 0.95)
        assert not valid
        assert rejected == [(705.0, 720.0)]


class TestRunPhase1:
    def test_full_run(self, bench):
        result = run_phase1(bench)
        assert len(result.characterizations) == 3
        assert len(result.valid_pairs) == 6
        assert not result.rejected_pairs
        assert result.growth_steps == 0

    def test_stats_for_lookup(self, bench):
        result = run_phase1(bench)
        assert result.stats_for(705.0).mean > result.stats_for(1410.0).mean

    def test_stats_for_unknown_raises(self, bench):
        result = run_phase1(bench)
        with pytest.raises(MeasurementError):
            result.stats_for(840.0)

    def test_is_valid_pair(self, bench):
        result = run_phase1(bench)
        assert result.is_valid_pair(705.0, 1410.0)
        assert not result.is_valid_pair(705.0, 705.0)

    def test_workload_growth_on_adjacent_clocks(self, a100_machine):
        """15 MHz-apart clocks with a big noisy workload: phase 1 must
        either validate via growth or reject the pair, never crash."""
        cfg = fast_config(
            (1395.0, 1410.0),
            iteration_duration_s=20e-6,
        )
        bench = BenchContext(a100_machine, cfg)
        result = run_phase1(bench)
        all_pairs = set(result.valid_pairs) | set(result.rejected_pairs)
        assert all_pairs == {(1395.0, 1410.0), (1410.0, 1395.0)}
