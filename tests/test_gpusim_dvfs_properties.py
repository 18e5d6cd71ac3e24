"""Property-based tests of DVFS clock-domain invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.arch_profiles import A100Profile
from repro.gpusim.dvfs import DvfsClockDomain
from repro.gpusim.latency_model import SwitchingLatencyModel
from repro.gpusim.spec import A100_SXM4
from tests.oracles import domain_trajectory

LADDER = A100_SXM4.supported_clocks_mhz


def make_domain(seed):
    rng = np.random.default_rng(seed)
    model = SwitchingLatencyModel(A100Profile(), unit_seed=0, rng=rng)
    return DvfsClockDomain(A100_SXM4, model, rng, idle_timeout_s=0.05)


@given(
    seed=st.integers(0, 10_000),
    requests=st.lists(
        st.tuples(
            st.floats(0.01, 2.0),     # gap before the request
            st.sampled_from(LADDER),  # target frequency
        ),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=60, deadline=None)
def test_last_request_always_wins(seed, requests):
    """After all transitions settle, the clock equals the last target."""
    domain = make_domain(seed)
    domain.notify_kernel_start(0.5)
    t = 1.0
    last_target = None
    for gap, target in requests:
        t += gap
        domain.request_locked_clocks(target, t)
        last_target = target
    # Far in the future every pending transition has completed.
    assert domain.planned_freq_at(t + 100.0) == last_target


@given(
    seed=st.integers(0, 10_000),
    target=st.sampled_from(LADDER),
)
@settings(max_examples=60, deadline=None)
def test_trajectory_frequencies_on_ladder_or_idle(seed, target):
    """Every trajectory segment sits on the clock ladder (incl. ramps)."""
    domain = make_domain(seed)
    domain.request_locked_clocks(1095.0, 0.5)
    rec = domain.notify_kernel_start(1.0)
    t = rec.t_stable + 0.05
    domain.request_locked_clocks(target, t)
    valid = set(LADDER) | {A100_SXM4.idle_sm_frequency_mhz}
    for seg in domain_trajectory(domain, 0.5).segments:
        assert seg.freq_mhz in valid


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_ground_truth_latency_positive_and_bounded(seed):
    domain = make_domain(seed)
    domain.request_locked_clocks(1410.0, 0.5)
    rec0 = domain.notify_kernel_start(1.0)
    t = rec0.t_stable + 0.05
    rec = domain.request_locked_clocks(705.0, t)
    assert rec is not None
    assert 0.0 < rec.ground_truth_latency_s < 1.0
    assert rec.adaptation_s < rec.ground_truth_latency_s


@given(
    seed=st.integers(0, 10_000),
    caps=st.lists(st.sampled_from(LADDER), min_size=1, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_effective_frequency_never_exceeds_cap(seed, caps):
    domain = make_domain(seed)
    domain.request_locked_clocks(1410.0, 0.5)
    domain.notify_kernel_start(1.0)
    t = 5.0
    lowest = min(caps)
    for cap in caps:
        domain.apply_cap(t, cap)
        t += 1.0
    # After the last cap applies, the effective clock respects it.
    assert domain.effective_freq_at(t + 10.0) <= caps[-1]


@given(seed=st.integers(0, 10_000), gap=st.floats(0.06, 5.0))
@settings(max_examples=40, deadline=None)
def test_idle_drop_and_wake_roundtrip(seed, gap):
    """Clocks drop to idle after the timeout and wake back to the lock."""
    domain = make_domain(seed)
    domain.request_locked_clocks(1095.0, 0.5)
    rec = domain.notify_kernel_start(1.0)
    end = rec.t_stable + 0.2
    domain.notify_kernel_end(end)
    wake = domain.notify_kernel_start(end + gap)
    assert wake is not None  # gap > idle timeout: a wake-up must occur
    # Between the idle drop and the wake the clock sat at idle.
    assert (
        domain.planned_freq_at(end + 0.051)
        == A100_SXM4.idle_sm_frequency_mhz
    )
    assert domain.planned_freq_at(wake.t_stable + 1e-9) == 1095.0
