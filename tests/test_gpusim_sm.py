"""Tests for the SM iteration engine, including matrix-vs-reference
equivalence property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.gpusim.sm import integrate_iterations, sample_iteration_cycles
from repro.gpusim.trajectory import FrequencyTrajectory
from repro.simtime.clock import HardwareClock, VirtualClock
from tests.oracles import integrate_iterations_reference


def constant_trajectory(freq_mhz: float = 1000.0) -> FrequencyTrajectory:
    return FrequencyTrajectory.from_events(0.0, freq_mhz, [])


def switching_trajectory() -> FrequencyTrajectory:
    # 1000 MHz for 1 ms, ramp step, then 500 MHz.
    return FrequencyTrajectory.from_events(
        0.0, 1000.0, [(1e-3, 750.0), (1.2e-3, 500.0)]
    )


class TestSampling:
    def test_shape(self):
        rng = np.random.default_rng(0)
        c = sample_iteration_cycles(rng, 4, 100, 1e5, 0.002)
        assert c.shape == (4, 100)

    def test_positive(self):
        rng = np.random.default_rng(0)
        c = sample_iteration_cycles(rng, 2, 1000, 1e5, 0.5)
        assert (c > 0).all()

    def test_mean_near_nominal(self):
        rng = np.random.default_rng(0)
        c = sample_iteration_cycles(rng, 8, 5000, 1e5, 0.002)
        assert c.mean() == pytest.approx(1e5, rel=1e-3)

    def test_invalid_shape_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(SimulationError):
            sample_iteration_cycles(rng, 0, 10, 1e5, 0.002)


class TestIntegration:
    def test_constant_frequency_durations(self):
        cycles = np.full((2, 50), 1e5)
        ts = integrate_iterations(
            constant_trajectory(1000.0), np.zeros(2), cycles
        )
        # 1e5 cycles at 1000 MHz = 100 us per iteration.
        np.testing.assert_allclose(ts.durations_true(), 1e-4, rtol=1e-12)

    def test_back_to_back(self):
        cycles = np.full((1, 20), 1e5)
        ts = integrate_iterations(constant_trajectory(), np.zeros(1), cycles)
        np.testing.assert_allclose(
            ts.starts_true[0, 1:], ts.ends_true[0, :-1], rtol=0, atol=0
        )

    def test_stagger_respected(self):
        cycles = np.full((3, 5), 1e5)
        starts = np.array([0.0, 1e-6, 2e-6])
        ts = integrate_iterations(constant_trajectory(), starts, cycles)
        np.testing.assert_allclose(ts.starts_true[:, 0], starts)

    def test_durations_scale_with_frequency(self):
        cycles = np.full((1, 2000), 1e5)
        ts = integrate_iterations(switching_trajectory(), np.zeros(1), cycles)
        d = ts.durations_true()[0]
        assert d[0] == pytest.approx(1e-4, rel=1e-9)       # 1000 MHz
        assert d[-1] == pytest.approx(2e-4, rel=1e-9)      # 500 MHz

    def test_straddling_iteration_exact(self):
        # One iteration spans the boundary at t=1e-3 between 1000 and 500 MHz.
        traj = FrequencyTrajectory.from_events(0.0, 1000.0, [(1e-3, 500.0)])
        # 9 iterations of 1e5 cycles consume 0.9 ms; the 10th starts at
        # 0.9 ms, runs 0.1 ms at 1000 MHz (1e5... only 1e5*0.1e-3*1e9?).
        cycles = np.full((1, 10), 1e5)
        ts = integrate_iterations(traj, np.zeros(1), cycles)
        # Iteration 10 executes 1e-4 s * 1e9 Hz = 1e5 cycles... at 1000 MHz
        # the first 0.1 ms covers 1e5 cycles exactly, so iteration 10 ends
        # exactly at the boundary.
        assert ts.ends_true[0, -1] == pytest.approx(1e-3, rel=1e-12)

    def test_straddling_iteration_partial(self):
        traj = FrequencyTrajectory.from_events(0.0, 1000.0, [(0.95e-3, 500.0)])
        cycles = np.full((1, 10), 1e5)
        ts = integrate_iterations(traj, np.zeros(1), cycles)
        # Iteration 10 starts at 0.9 ms; 0.05 ms at 1000 MHz covers 5e4
        # cycles, the remaining 5e4 at 500 MHz takes 0.1 ms.
        assert ts.ends_true[0, -1] == pytest.approx(0.9e-3 + 0.05e-3 + 0.1e-3)

    def test_completion_is_max_end(self):
        cycles = np.full((3, 4), 1e5)
        starts = np.array([0.0, 5e-6, 1e-6])
        ts = integrate_iterations(constant_trajectory(), starts, cycles)
        assert ts.completion_true == ts.ends_true[:, -1].max()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            integrate_iterations(
                constant_trajectory(), np.zeros(3), np.full((2, 4), 1e5)
            )


class TestDeviceView:
    def test_quantization_applied(self):
        clock = VirtualClock()
        gpu_clock = HardwareClock(clock, offset=10.0, granularity=1e-6)
        cycles = np.full((1, 10), 1e5)
        ts = integrate_iterations(constant_trajectory(), np.zeros(1), cycles)
        view = ts.as_device_view(gpu_clock)
        # All timestamps are (up to float representation) whole microseconds.
        assert np.allclose(np.round(view.starts * 1e6), view.starts * 1e6)
        assert np.allclose(np.round(view.ends * 1e6), view.ends * 1e6)

    def test_diffs_close_to_true_durations(self):
        clock = VirtualClock()
        gpu_clock = HardwareClock(clock, offset=10.0, granularity=1e-6)
        cycles = np.full((2, 100), 1e5)
        ts = integrate_iterations(constant_trajectory(), np.zeros(2), cycles)
        view = ts.as_device_view(gpu_clock)
        np.testing.assert_allclose(
            view.diffs, ts.durations_true(), atol=1.1e-6
        )


@given(
    n_sm=st.integers(1, 4),
    n_iter=st.integers(1, 30),
    seed=st.integers(0, 2**16),
    n_events=st.integers(0, 4),
)
@settings(max_examples=40, deadline=None)
def test_matrix_equals_reference(n_sm, n_iter, seed, n_events):
    """The closed-form vectorized integration must match the scalar
    cycle-accounting reference exactly (same cycles input)."""
    rng = np.random.default_rng(seed)
    events = sorted(
        (float(rng.uniform(1e-5, 3e-3)), float(rng.choice([400.0, 800.0, 1600.0])))
        for _ in range(n_events)
    )
    traj = FrequencyTrajectory.from_events(0.0, 1000.0, events)
    starts = rng.uniform(0.0, 1e-5, size=n_sm)
    cycles = 1e4 * (1.0 + 0.01 * rng.standard_normal((n_sm, n_iter)))
    fast = integrate_iterations(traj, starts, cycles)
    slow = integrate_iterations_reference(traj, starts, cycles)
    np.testing.assert_allclose(fast.ends_true, slow.ends_true, rtol=1e-9)
    np.testing.assert_allclose(fast.starts_true, slow.starts_true, rtol=1e-9)


@given(seed=st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_total_cycles_conserved(seed):
    """Sum of iteration durations x frequency equals total cycles."""
    rng = np.random.default_rng(seed)
    traj = FrequencyTrajectory.from_events(
        0.0, 1000.0, [(1e-3, 500.0), (2e-3, 1500.0)]
    )
    cycles = 1e4 * (1.0 + 0.01 * rng.standard_normal((2, 200)))
    ts = integrate_iterations(traj, np.zeros(2), cycles)
    for i in range(2):
        executed = 0.0
        for s, e in zip(ts.starts_true[i], ts.ends_true[i]):
            # Integrate frequency over [s, e] piecewise.
            for seg in traj.iter_from(0.0):
                lo, hi = max(s, seg.t_start), min(e, seg.t_end)
                if hi > lo:
                    executed += (hi - lo) * seg.freq_hz
        assert executed == pytest.approx(cycles[i].sum(), rel=1e-9)
