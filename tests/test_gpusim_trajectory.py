"""Tests for frequency trajectories."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.gpusim.trajectory import FrequencyTrajectory, Segment


def simple_trajectory() -> FrequencyTrajectory:
    return FrequencyTrajectory(
        [
            Segment(0.0, 1.0, 1000.0),
            Segment(1.0, 2.0, 1500.0),
            Segment(2.0, float("inf"), 500.0),
        ]
    )


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            FrequencyTrajectory([])

    def test_gap_rejected(self):
        with pytest.raises(SimulationError):
            FrequencyTrajectory(
                [Segment(0.0, 1.0, 1000.0), Segment(1.5, 2.0, 500.0)]
            )

    def test_from_events_collapses_duplicates(self):
        traj = FrequencyTrajectory.from_events(
            0.0, 1000.0, [(1.0, 1000.0), (2.0, 500.0)]
        )
        # The same-frequency event at t=1 produces no new segment.
        assert len(traj) == 2

    def test_from_events_pre_start_overrides_initial(self):
        traj = FrequencyTrajectory.from_events(
            5.0, 1000.0, [(4.0, 750.0), (6.0, 500.0)]
        )
        assert traj.freq_at(5.5) == 750.0
        assert traj.freq_at(6.5) == 500.0

    def test_last_segment_unbounded(self):
        traj = FrequencyTrajectory.from_events(0.0, 1000.0, [(1.0, 500.0)])
        assert traj.segments[-1].t_end == float("inf")
        assert traj.final_freq_mhz == 500.0


class TestQueries:
    def test_freq_at_segment_boundaries(self):
        traj = simple_trajectory()
        assert traj.freq_at(0.0) == 1000.0
        assert traj.freq_at(0.999) == 1000.0
        assert traj.freq_at(1.0) == 1500.0
        assert traj.freq_at(5.0) == 500.0

    def test_freq_before_start_raises(self):
        with pytest.raises(SimulationError):
            simple_trajectory().freq_at(-0.1)

    def test_iter_from_clips_first_segment(self):
        traj = simple_trajectory()
        segs = list(traj.iter_from(0.5))
        assert segs[0].t_start == 0.5
        assert segs[0].freq_mhz == 1000.0
        assert len(segs) == 3

    def test_iter_from_mid_trajectory(self):
        traj = simple_trajectory()
        segs = list(traj.iter_from(1.5))
        assert segs[0].t_start == 1.5
        assert segs[0].freq_mhz == 1500.0
        assert len(segs) == 2

    def test_segment_duration_and_hz(self):
        seg = Segment(0.0, 2.0, 1000.0)
        assert seg.duration == 2.0
        assert seg.freq_hz == 1e9


@given(
    events=st.lists(
        st.tuples(
            st.floats(0.01, 100.0),
            st.sampled_from([500.0, 750.0, 1000.0, 1250.0]),
        ),
        max_size=12,
    )
)
@settings(max_examples=80, deadline=None)
def test_from_events_contiguous_and_total(events):
    """Segments always tile [t0, inf) without gaps or overlaps."""
    traj = FrequencyTrajectory.from_events(0.0, 1000.0, events)
    assert traj.segments[0].t_start == 0.0
    assert traj.segments[-1].t_end == float("inf")
    for a, b in zip(traj.segments, traj.segments[1:]):
        assert a.t_end == b.t_start
        assert a.freq_mhz != b.freq_mhz  # collapsed duplicates
