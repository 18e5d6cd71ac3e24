"""Tests for campaign configuration validation."""

import pytest

from repro.core.config import LatestConfig
from repro.errors import ConfigError


def config(**kw):
    base = dict(frequencies=(705.0, 1410.0))
    base.update(kw)
    return LatestConfig(**base)


class TestValidation:
    def test_defaults_match_tool(self):
        cfg = config()
        assert cfg.rse_threshold == 0.05
        assert cfg.throttle_check_every == 5
        assert cfg.rse_check_every == 25
        assert cfg.detection_sigmas == 2.0
        assert cfg.detection_criterion == "two-sigma"

    def test_needs_two_frequencies(self):
        with pytest.raises(ConfigError):
            LatestConfig(frequencies=(705.0,))

    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(ConfigError):
            LatestConfig(frequencies=(705.0, 705.0))

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ConfigError):
            config(detection_criterion="magic")

    def test_unknown_window_policy_rejected(self):
        with pytest.raises(ConfigError):
            config(window_policy="huge")

    def test_max_below_min_measurements(self):
        with pytest.raises(ConfigError):
            config(min_measurements=50, max_measurements=10)

    def test_negative_rse_rejected(self):
        with pytest.raises(ConfigError):
            config(rse_threshold=-0.1)

    def test_zero_delay_rejected(self):
        with pytest.raises(ConfigError):
            config(delay_iterations=0)

    def test_non_positive_frequencies_rejected(self):
        with pytest.raises(ConfigError):
            LatestConfig(frequencies=(705.0, -1410.0))
        with pytest.raises(ConfigError):
            LatestConfig(frequencies=(0.0, 1410.0))

    @pytest.mark.parametrize("seconds", [0.0, -1.0, float("nan")])
    def test_non_positive_job_timeout_rejected(self, seconds):
        with pytest.raises(ConfigError, match="job_timeout_s"):
            config(job_timeout_s=seconds)

    def test_job_timeout_defaults_to_none(self):
        assert config().job_timeout_s is None
        assert config(job_timeout_s=2.5).job_timeout_s == 2.5

    def test_memory_frequency_invariants(self):
        with pytest.raises(ConfigError):
            config(memory_frequencies=())
        with pytest.raises(ConfigError):
            config(memory_frequencies=(1215.0, 1215.0))
        with pytest.raises(ConfigError):
            config(memory_frequencies=(1215.0, -810.0))
        assert config(memory_frequencies=(1215.0,)).memory_frequencies == (1215.0,)


class TestHelpers:
    def test_pairs_ordered_and_complete(self):
        cfg = LatestConfig(frequencies=(705.0, 1095.0, 1410.0))
        pairs = cfg.pairs()
        assert len(pairs) == 6
        assert (705.0, 1410.0) in pairs
        assert (1410.0, 705.0) in pairs
        assert all(a != b for a, b in pairs)

    def test_stopping_rule_mirrors_fields(self):
        cfg = config(
            rse_threshold=0.1,
            min_measurements=10,
            max_measurements=50,
            rse_check_every=5,
        )
        rule = cfg.stopping_rule()
        assert rule.threshold == 0.1
        assert rule.min_measurements == 10
        assert rule.max_measurements == 50
        assert rule.check_every == 5

    def test_memory_plan_legacy_sentinel(self):
        assert config().memory_plan() == (None,)
        assert config(
            memory_frequencies=(1215.0, 810.0)
        ).memory_plan() == (1215.0, 810.0)

