"""Tests for the IEEE-1588-style timer synchronization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.machine import make_machine
from repro.timesync.ptp import PtpLink, synchronize_timers


class TestSyncAccuracy:
    def test_offset_recovered_within_microseconds(self, a100_machine):
        device = a100_machine.device()
        sync = synchronize_timers(a100_machine.host, device)
        true_offset = device.gpu_clock.convert(
            a100_machine.clock.now
        ) - a100_machine.host.os_clock.convert(a100_machine.clock.now)
        assert sync.offset == pytest.approx(true_offset, abs=5e-6)

    def test_cpu_to_acc_conversion(self, a100_machine):
        device = a100_machine.device()
        host = a100_machine.host
        sync = synchronize_timers(host, device)
        t_cpu = host.clock_gettime()
        t_acc = sync.cpu_to_acc(t_cpu)
        expected = device.gpu_clock.convert(host.os_clock.invert(t_cpu))
        assert t_acc == pytest.approx(expected, abs=5e-6)

    def test_more_rounds_never_worse_delay(self, a100_machine):
        host, device = a100_machine.host, a100_machine.device()
        few = synchronize_timers(host, device, rounds=2)
        many = synchronize_timers(host, device, rounds=32)
        # Min-filtering over more rounds can only find smaller delays
        # (statistically; allow generous slack for the stochastic draw).
        assert many.path_delay <= few.path_delay * 3

    def test_rounds_validated(self, a100_machine):
        with pytest.raises(SimulationError):
            synchronize_timers(a100_machine.host, a100_machine.device(), rounds=0)

    def test_asymmetry_biases_offset(self):
        # Known PTP limitation: path asymmetry shifts the offset by
        # (d_up - d_down) / 2 and is undetectable from the exchange.
        machine = make_machine("A100", seed=55)
        device = machine.device()
        # Base delay larger than the asymmetry so neither direction clamps.
        link = PtpLink(
            base_delay_s=30e-6,
            asymmetry_s=20e-6,
            jitter_scale_s=1e-8,
            spike_prob=0.0,
        )
        sync = synchronize_timers(machine.host, device, rounds=8, link=link)
        true_offset = device.gpu_clock.convert(
            machine.clock.now
        ) - machine.host.os_clock.convert(machine.clock.now)
        assert sync.offset - true_offset == pytest.approx(20e-6, abs=5e-6)

    def test_spikes_filtered_by_min_delay(self):
        machine = make_machine("A100", seed=56)
        link = PtpLink(spike_prob=0.5, spike_scale_s=1e-3)
        sync = synchronize_timers(machine.host, machine.device(), rounds=24, link=link)
        # The kept round should not include a millisecond spike.
        assert sync.path_delay < 100e-6


class TestSyncResult:
    def test_delay_spread_reported(self, a100_machine):
        sync = synchronize_timers(a100_machine.host, a100_machine.device())
        assert sync.delay_spread >= 0.0
        assert sync.rounds == 16


@given(seed=st.integers(0, 1000))
@settings(max_examples=15, deadline=None)
def test_offset_error_bounded_by_asymmetry_plus_jitter(seed):
    """Property: |estimated - true offset| <= asymmetry + jitter envelope."""
    machine = make_machine("A100", seed=seed)
    device = machine.device()
    link = PtpLink(
        base_delay_s=2e-6, jitter_scale_s=0.5e-6, asymmetry_s=3e-6, spike_prob=0.0
    )
    sync = synchronize_timers(machine.host, device, rounds=12, link=link)
    true_offset = device.gpu_clock.convert(
        machine.clock.now
    ) - machine.host.os_clock.convert(machine.clock.now)
    # asymmetry bias (3 us) + quantization (1 us) + jitter allowance.
    assert abs(sync.offset - true_offset) < 3e-6 + 1e-6 + 4e-6
