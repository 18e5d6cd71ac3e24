"""Tests for the static frequency tuning sweep (paper Sec. III context)."""

import pytest

from repro.errors import ConfigError
from repro.governor import make_phased_application, static_frequency_sweep
from repro.gpusim.spec import A100_SXM4


@pytest.fixture(scope="module")
def sweep():
    app = make_phased_application(A100_SXM4, n_phases=60, seed=3)
    return static_frequency_sweep(app)


class TestStaticSweep:
    def test_max_clock_is_baseline(self, sweep):
        p_max = sweep.point_at_ratio(1.0)
        assert p_max.runtime_penalty == 0.0
        assert p_max.energy_savings == 0.0

    def test_lower_clocks_slower(self, sweep):
        p_low = sweep.point_at_ratio(0.5)
        p_max = sweep.point_at_ratio(1.0)
        assert p_low.time_s > p_max.time_s

    def test_sweet_spot_saves_energy(self, sweep):
        """The Sec. III claim: ~75 % of max clock balances savings against
        penalty — it must save energy vs the max clock."""
        p = sweep.point_at_ratio(0.75)
        assert p.energy_savings > 0.05
        assert p.runtime_penalty < 0.40

    def test_empty_ratio_list_rejected(self):
        app = make_phased_application(A100_SXM4, n_phases=5, seed=1)
        with pytest.raises(ConfigError):
            static_frequency_sweep(app, ratios=())

    def test_points_cover_requested_ratios(self, sweep):
        assert len(sweep.points) == 7
