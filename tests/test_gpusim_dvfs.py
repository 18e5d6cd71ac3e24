"""Tests for the DVFS clock-domain state machine."""

import numpy as np
import pytest

from repro.gpusim.dvfs import DvfsClockDomain
from repro.gpusim.latency_model import SwitchingLatencyModel
from repro.gpusim.arch_profiles import A100Profile
from repro.gpusim.spec import A100_SXM4
from tests.oracles import domain_trajectory


@pytest.fixture
def domain():
    rng = np.random.default_rng(5)
    model = SwitchingLatencyModel(A100Profile(), unit_seed=0, rng=rng)
    return DvfsClockDomain(A100_SXM4, model, rng, idle_timeout_s=0.05)


class TestIdleWake:
    def test_starts_idle(self, domain):
        assert domain.planned_freq_at(0.0) == A100_SXM4.idle_sm_frequency_mhz

    def test_request_while_idle_stores_setting(self, domain):
        rec = domain.request_locked_clocks(1095.0, 1.0)
        assert rec is None
        assert domain.locked_mhz == 1095.0
        # Frequency unchanged: still idle.
        assert domain.planned_freq_at(2.0) == A100_SXM4.idle_sm_frequency_mhz

    def test_kernel_start_wakes_to_locked(self, domain):
        domain.request_locked_clocks(1095.0, 1.0)
        rec = domain.notify_kernel_start(2.0)
        assert rec is not None and rec.kind == "wakeup"
        assert domain.planned_freq_at(rec.t_stable + 1e-9) == 1095.0

    def test_wake_without_lock_goes_nominal(self, domain):
        rec = domain.notify_kernel_start(2.0)
        assert rec.target_mhz == A100_SXM4.nominal_sm_frequency_mhz

    def test_idle_drop_after_timeout(self, domain):
        domain.request_locked_clocks(1095.0, 1.0)
        rec = domain.notify_kernel_start(2.0)
        domain.notify_kernel_end(3.0)
        # Second kernel long after the idle timeout: clocks dropped.
        rec2 = domain.notify_kernel_start(4.0)
        assert rec2 is not None
        assert domain.planned_freq_at(3.5) == A100_SXM4.idle_sm_frequency_mhz

    def test_no_drop_within_timeout(self, domain):
        domain.request_locked_clocks(1095.0, 1.0)
        domain.notify_kernel_start(2.0)
        domain.notify_kernel_end(3.0)
        rec = domain.notify_kernel_start(3.01)
        assert rec is None  # device stayed warm: no wake-up transition


class TestTransitions:
    def _powered_domain(self, domain):
        domain.request_locked_clocks(1095.0, 0.5)
        rec = domain.notify_kernel_start(1.0)
        return rec.t_stable + 0.1  # time at which clocks settled

    def test_transition_record_fields(self, domain):
        t = self._powered_domain(domain)
        rec = domain.request_locked_clocks(705.0, t)
        assert rec is not None
        assert rec.init_mhz == 1095.0
        assert rec.target_mhz == 705.0
        assert rec.t_stable > t
        assert rec.ground_truth_latency_s > 0

    def test_frequency_reaches_target(self, domain):
        t = self._powered_domain(domain)
        rec = domain.request_locked_clocks(705.0, t)
        assert domain.planned_freq_at(rec.t_stable + 1e-9) == 705.0

    def test_frequency_holds_init_before_adaptation(self, domain):
        t = self._powered_domain(domain)
        rec = domain.request_locked_clocks(705.0, t)
        before_ramp = rec.t_stable - rec.adaptation_s - 1e-9
        if before_ramp > t:
            assert domain.planned_freq_at(before_ramp) == 1095.0

    def test_adaptation_steps_on_ladder(self, domain):
        t = self._powered_domain(domain)
        rec = domain.request_locked_clocks(705.0, t)
        ladder = set(A100_SXM4.supported_clocks_mhz)
        traj = domain_trajectory(domain, t)
        for seg in traj.segments:
            assert seg.freq_mhz in ladder or seg.freq_mhz == A100_SXM4.idle_sm_frequency_mhz

    def test_same_frequency_request_no_transition(self, domain):
        t = self._powered_domain(domain)
        rec = domain.request_locked_clocks(1095.0, t)
        assert rec is not None
        assert rec.sample.total_s == 0.0

    def test_superseding_request_cancels_pending(self, domain):
        t = self._powered_domain(domain)
        rec1 = domain.request_locked_clocks(705.0, t)
        # Second request long before the first completes.
        mid = t + rec1.ground_truth_latency_s / 10.0
        rec2 = domain.request_locked_clocks(1410.0, mid)
        assert rec1.superseded
        assert not rec2.superseded
        assert domain.planned_freq_at(rec2.t_stable + 1e-9) == 1410.0

    def test_last_transition_skips_wakeups(self, domain):
        t = self._powered_domain(domain)
        domain.request_locked_clocks(705.0, t)
        assert domain.last_transition().target_mhz == 705.0


class TestCaps:
    def test_cap_clips_frequency(self, domain):
        t = self._settle(domain)
        domain.apply_cap(t + 1.0, 800.0)
        assert domain.effective_freq_at(t + 2.0) == 800.0

    def test_release_restores(self, domain):
        t = self._settle(domain)
        domain.apply_cap(t + 1.0, 800.0)
        domain.release_cap(t + 2.0)
        assert domain.effective_freq_at(t + 3.0) == 1095.0

    def test_trajectory_merges_caps(self, domain):
        t = self._settle(domain)
        domain.apply_cap(t + 1.0, 800.0)
        traj = domain_trajectory(domain, t)
        assert any(seg.freq_mhz == 800.0 for seg in traj.segments)

    def _settle(self, domain):
        domain.request_locked_clocks(1095.0, 0.5)
        rec = domain.notify_kernel_start(1.0)
        return rec.t_stable + 0.1
