"""Per-pass scalar steps equal their array forms bit for bit.

The simulator and phase 3 run their per-pass bookkeeping (ladder snaps,
the integration prelude, the PTP round arithmetic, the tail statistics)
on Python floats.  Each property here compares one of them with ``==``
against the numpy formulation it replaced, kept below as a reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.phase3 import _suffix_stats
from repro.gpusim.sm import (
    completion_from_boundaries,
    prepare_integration,
    prepare_integration_from_boundaries,
)
from repro.gpusim.spec import A100_SXM4, GH200, RTX_QUADRO_6000
from repro.gpusim.trajectory import FrequencyTrajectory, Segment
from repro.machine import make_machine
from repro.timesync.ptp import PtpLink, SyncResult, synchronize_timers

SPECS = (RTX_QUADRO_6000, A100_SXM4, GH200)

#: (scalar snap, array snap, ladder) on the SM, memory and power ladders
LADDERS = [
    (spec.nearest_supported_clock, spec.nearest_supported_clocks,
     spec.supported_clocks_mhz)
    for spec in SPECS
] + [
    (spec.nearest_supported_memory_clock, spec.nearest_supported_memory_clocks,
     spec.supported_memory_clocks_mhz)
    for spec in SPECS
] + [
    (spec.nearest_supported_power_limit, spec.nearest_supported_power_limits,
     spec.supported_power_limits_w)
    for spec in SPECS
]

EXTREMES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e20, -1e20, 1e300, -1e300,
    float("inf"), float("-inf"), float("nan"),
]


class TestLadderSnap:
    @pytest.mark.parametrize("index", range(len(LADDERS)))
    def test_midpoints_entries_and_extremes(self, index):
        scalar, array, ladder = LADDERS[index]
        asc = sorted(ladder)
        xs = list(asc) + [(a + b) / 2.0 for a, b in zip(asc, asc[1:])] + EXTREMES
        xs += [np.nextafter(x, np.inf) for x in asc] + [np.nextafter(x, -np.inf) for x in asc]
        expected = array(np.asarray(xs, dtype=np.float64)).tolist()
        assert [scalar(float(x)) for x in xs] == expected

    @given(index=st.integers(0, len(LADDERS) - 1), x=st.floats(allow_nan=True))
    @settings(max_examples=400, deadline=None)
    def test_any_float(self, index, x):
        scalar, array, _ = LADDERS[index]
        assert scalar(x) == array(np.asarray([x]))[0]


# ----------------------------------------------------------------------
# integration prelude
# ----------------------------------------------------------------------


def reference_prelude(tb, f_mhz, starts, cycles):
    """The array prelude the scalar one replaced: ``(g, g_start, last)``."""
    tb = np.asarray(tb, dtype=np.float64)
    f_hz = np.asarray(f_mhz, dtype=np.float64) * 1e6
    spans = np.diff(tb)
    seg_cycles = np.where(np.isinf(spans), np.inf, spans * f_hz)
    g = np.concatenate([[0.0], np.cumsum(seg_cycles)])
    starts = np.asarray(starts, dtype=np.float64)
    n_seg = len(f_hz)
    idx0 = np.minimum(np.searchsorted(tb, starts, side="right") - 1, n_seg - 1)
    g_start = g[idx0] + (starts - tb[idx0]) * f_hz[idx0]
    inv_f = 1.0 / f_hz
    shift = tb[:n_seg] - g[:n_seg] * inv_f
    c = np.cumsum(cycles, axis=1)[:, -1] + g_start
    j = np.minimum(np.searchsorted(g, c, side="right") - 1, n_seg - 1)
    return g, g_start, c * inv_f[j] + shift[j]


@st.composite
def segment_sets(draw):
    """Compiled segments from t0: zero-length spans allowed after the
    first, the last one infinite."""
    t0 = draw(st.floats(0.0, 10.0))
    freqs = draw(st.lists(st.sampled_from(A100_SXM4.supported_clocks_mhz), min_size=1, max_size=8))
    spans = [draw(st.floats(1e-7, 2e-3))] + [
        draw(st.one_of(st.just(0.0), st.floats(1e-7, 2e-3))) for _ in freqs[1:-1]
    ]
    tb = [t0]
    for span in spans[: len(freqs) - 1]:
        tb.append(tb[-1] + span)
    tb.append(float("inf"))
    n_sm = draw(st.integers(1, 6))
    starts = [t0] + [t0 + draw(st.floats(0.0, 4e-6)) for _ in range(n_sm - 1)]
    seed = draw(st.integers(0, 2**16))
    n_iter = draw(st.integers(1, 60))
    cycles = 1e5 * (1.0 + 0.01 * np.random.default_rng(seed).standard_normal((n_sm, n_iter)))
    return tb, freqs, starts, cycles


class TestIntegrationPrelude:
    @given(segment_sets())
    @settings(max_examples=150, deadline=None)
    def test_boundaries_equal_trajectory_and_reference(self, case):
        tb, freqs, starts, cycles = case
        segments = [
            Segment(tb[k], tb[k + 1], f) for k, f in enumerate(freqs)
        ]
        from_traj = prepare_integration(
            FrequencyTrajectory(segments), np.asarray(starts), cycles.copy()
        )
        from_tb = prepare_integration_from_boundaries(tb, freqs, starts, cycles.copy())
        g, g_start, last = reference_prelude(tb, freqs, starts, cycles)
        for pending in (from_traj, from_tb):
            assert pending.g == g.tolist()
            assert pending.g_start == g_start.tolist()
            assert pending.last_ends_true == last.tolist()
        ends_traj = from_traj.ends_true()
        ends_tb = from_tb.ends_true()
        assert np.array_equal(ends_traj, ends_tb)
        # The eager last boundary is the materialized last column.
        assert ends_tb[:, -1].tolist() == from_tb.last_ends_true

    @given(segment_sets())
    @settings(max_examples=100, deadline=None)
    def test_aggregate_completion_equals_prelude(self, case):
        tb, freqs, starts, cycles = case
        totals = cycles[:, :1]
        pending = prepare_integration_from_boundaries(tb, freqs, starts, totals.copy())
        got = completion_from_boundaries(tb, freqs, starts, totals[:, 0].tolist())
        assert got == pending.completion_true


# ----------------------------------------------------------------------
# PTP handshake
# ----------------------------------------------------------------------


def reference_sample_delays(link, rng, rounds):
    """The array body :meth:`PtpLink.sample_delays` had before its float form."""
    jitter = rng.exponential(link.jitter_scale_s, size=(rounds, 2))
    spike_u = rng.random((rounds, 2))
    spikes = rng.exponential(link.spike_scale_s, size=(rounds, 2))
    delays = jitter
    delays += link.base_delay_s
    delays[:, 0] += link.asymmetry_s
    delays[:, 1] -= link.asymmetry_s
    delays += np.where(spike_u < link.spike_prob, spikes, 0.0)
    np.maximum(delays, 1e-9, out=delays)
    return delays[:, 0], delays[:, 1]


def reference_handshake(host, device, rounds, link):
    """The array handshake body the per-round float arithmetic replaced."""
    rng = host.rng
    up, down = reference_sample_delays(link, rng, rounds)
    turnaround = rng.uniform(0.2e-6, 0.6e-6, size=rounds)
    t0 = host.clock.now
    grid = np.empty(3 * rounds + 1)
    grid[0] = 0.0
    legs = grid[1:].reshape(rounds, 3)
    legs[:, 0] = up
    legs[:, 1] = turnaround
    legs[:, 2] = down
    np.cumsum(grid, out=grid)
    grid += t0
    t_host = host.os_clock.convert_array(grid)
    t_gpu = device.gpu_clock.convert_array(grid)
    t1 = t_host[0::3][:-1]
    t2 = t_gpu[1::3]
    t3 = t_gpu[2::3]
    t4 = t_host[3::3]
    offsets = ((t2 - t1) + (t3 - t4)) / 2.0
    delays = ((t4 - t1) - (t3 - t2)) / 2.0
    best = int(np.argmin(delays))
    host.clock.advance_to(float(grid[-1]))
    host.os_clock.read()
    device.gpu_clock.read()
    return SyncResult(
        cpu_sync=float(t1[best]),
        acc_sync=float(t1[best] + offsets[best]),
        offset=float(offsets[best]),
        path_delay=float(delays[best]),
        rounds=rounds,
        delay_spread=float(np.ptp(delays)),
    )


def plain(state):
    """A bit-generator state with its arrays as lists (comparable by ==)."""
    if isinstance(state, dict):
        return {key: plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


class TestPtpHandshake:
    @given(
        seed=st.integers(0, 2**20),
        rounds=st.integers(1, 40),
        asymmetry=st.floats(-1e-6, 1e-6),
        spike_prob=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_sample_delays_equal_array_reference(self, seed, rounds, asymmetry, spike_prob):
        link = PtpLink(asymmetry_s=asymmetry, spike_prob=spike_prob)
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        up, down = link.sample_delays(rng_a, rounds)
        ref_up, ref_down = reference_sample_delays(link, rng_b, rounds)
        assert up.tolist() == ref_up.tolist()
        assert down.tolist() == ref_down.tolist()
        assert plain(rng_a.bit_generator.state) == plain(rng_b.bit_generator.state)

    @given(
        seed=st.integers(0, 2**20),
        model=st.sampled_from(["A100", "GH200"]),
        rounds=st.integers(1, 40),
        skip=st.floats(0.0, 50.0),
        asymmetry=st.floats(-1e-6, 1e-6),
        spike_prob=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_array_reference(self, seed, model, rounds, skip, asymmetry, spike_prob):
        link = PtpLink(asymmetry_s=asymmetry, spike_prob=spike_prob)
        results = []
        for handshake in (reference_handshake, synchronize_timers):
            machine = make_machine(model, seed=seed)
            machine.clock.advance(skip)
            device = machine.device(0)
            sync = handshake(machine.host, device, rounds, link)
            # A second handshake continues from the state the first left.
            again = handshake(machine.host, device, rounds, link)
            results.append((
                sync,
                again,
                machine.clock.now,
                plain(machine.host.rng.bit_generator.state),
                machine.host.os_clock._last_read,
                device.gpu_clock._last_read,
            ))
        assert results[0] == results[1]


# ----------------------------------------------------------------------
# phase-3 tail statistics
# ----------------------------------------------------------------------


def reference_suffix_stats(diffs, cut, rows):
    """The array tail statistics the per-row float epilogue replaced."""
    n_iter = diffs.shape[1]
    cut = np.clip(np.asarray(cut), 0, n_iter)
    n_tail = (n_iter - cut).astype(np.int64)
    safe_n = np.maximum(n_tail, 1)
    c0 = int(cut.min())
    if c0 >= n_iter:
        return np.zeros(len(rows)), np.zeros(len(rows)), n_tail
    sub = diffs[rows, c0:]
    sq = sub * sub
    totals = sub.sum(axis=1)
    sq_totals = sq.sum(axis=1)
    local_cut = cut - c0
    n_prefix = int(local_cut.max())
    gather = np.maximum(local_cut - 1, 0)[:, None]
    if n_prefix:
        csum = np.cumsum(sub[:, :n_prefix], axis=1)
        csq = np.cumsum(sq[:, :n_prefix], axis=1)
        before = np.where(local_cut > 0, np.take_along_axis(csum, gather, axis=1).ravel(), 0.0)
        before_sq = np.where(local_cut > 0, np.take_along_axis(csq, gather, axis=1).ravel(), 0.0)
    else:
        before = np.zeros(len(rows))
        before_sq = np.zeros(len(rows))
    mean = (totals - before) / safe_n
    var = np.maximum((sq_totals - before_sq) - safe_n * mean * mean, 0.0) / np.maximum(
        safe_n - 1, 1
    )
    return mean, np.sqrt(var), n_tail


class TestSuffixStats:
    @given(
        seed=st.integers(0, 2**16),
        n_sm=st.integers(1, 8),
        n_iter=st.integers(1, 300),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_array_reference(self, seed, n_sm, n_iter, data):
        rng = np.random.default_rng(seed)
        diffs = 6e-5 + 1e-6 * np.round(rng.standard_normal((n_sm, n_iter)) * 3)
        rows = sorted(data.draw(st.sets(st.integers(0, n_sm - 1), min_size=1)))
        cut = [data.draw(st.integers(-2, n_iter + 2)) for _ in rows]
        mean, std, n = _suffix_stats(diffs, cut, rows)
        ref_mean, ref_std, ref_n = reference_suffix_stats(diffs, cut, rows)
        assert mean == ref_mean.tolist()
        assert std == ref_std.tolist()
        assert n == ref_n.tolist()
