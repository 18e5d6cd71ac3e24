"""DVFS clock-domain state machine.

The domain turns locked-clock requests into a planned frequency timeline by
sampling ground-truth switching latencies from the architecture's
:class:`~repro.gpusim.latency_model.SwitchingLatencyModel`.  Each request
produces a :class:`TransitionRecord` carrying the injected latency so that
experiments can compare what the methodology *measured* against what the
simulator *did* — the validation axis the paper's physical setup lacks.

Timeline semantics:

* A request issued at ``t`` takes effect at ``t + bus_delay + device_latency``;
  the last ~10-20 % of that span is realized as a staircase of intermediate
  frequencies (the *adaptation period* of paper Sec. IV, during which
  iteration times may correspond to any frequency).
* A request arriving while a previous transition is still pending supersedes
  it (the "undefined frequency" hazard the COUNTDOWN paper warns about).
* Without load the clocks fall to the idle frequency after ``idle_timeout``;
  the first kernel afterwards pays a *wake-up latency* before the locked
  clock is restored (paper Sec. V, "Wake-up latency").
* Thermal/power caps clip the planned frequency from above.

The same state machine drives both clock domains of a device: the SM
domain (constructed on the :class:`~repro.gpusim.spec.GpuSpec` itself) and
the memory domain (constructed on a :class:`MemoryDomainSpec` ladder
adapter with ``always_powered=True`` — memory clocks hold their P-state
regardless of load, so locked-memory-clock requests always transition
immediately and the domain neither idles nor wakes).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.gpusim.latency_model import LatencySample, SwitchingLatencyModel
from repro.gpusim.spec import GpuSpec

__all__ = [
    "TransitionRecord",
    "DvfsClockDomain",
    "MemoryDomainSpec",
    "PowerDomainSpec",
]


class MemoryDomainSpec:
    """Ladder adapter exposing a spec's *memory* clocks to the state machine.

    :class:`DvfsClockDomain` consults its ``spec`` only for ladder lookups
    and the idle/nominal resume frequencies; this adapter maps those onto
    the memory-clock ladder.  Memory clocks have no idle drop, so both the
    idle and nominal attributes are the reference memory clock (the
    attribute names keep the GpuSpec spelling the domain expects).
    """

    def __init__(self, spec: GpuSpec) -> None:
        self.gpu_spec = spec
        self.name = f"{spec.name} memory"
        self.idle_sm_frequency_mhz = spec.memory_frequency_mhz
        self.nominal_sm_frequency_mhz = spec.memory_frequency_mhz

    def validate_clock(self, freq_mhz: float, tolerance_mhz: float = 0.5) -> float:
        return self.gpu_spec.validate_memory_clock(freq_mhz, tolerance_mhz)

    def nearest_supported_clock(self, freq_mhz: float) -> float:
        return self.gpu_spec.nearest_supported_memory_clock(freq_mhz)


class PowerDomainSpec:
    """Ladder adapter exposing a spec's *power limits* to the state machine.

    The power-limit "clock domain" runs the same request/supersede/record
    machinery over the board's settable power-limit ladder (watts stand in
    for MHz); the device maps the resulting limit timeline onto SM clock
    caps through the thermal model's sustainable-clock inversion.  Power
    limits persist regardless of load, so the idle and nominal attributes
    are both the TDP default (the attribute names keep the GpuSpec
    spelling the domain expects).
    """

    def __init__(self, spec: GpuSpec) -> None:
        self.gpu_spec = spec
        self.name = f"{spec.name} power-limit"
        self.idle_sm_frequency_mhz = spec.tdp_watts
        self.nominal_sm_frequency_mhz = spec.tdp_watts

    def validate_clock(self, limit_w: float, tolerance_mhz: float = 0.5) -> float:
        return self.gpu_spec.validate_power_limit(limit_w, tolerance_mhz)

    def nearest_supported_clock(self, limit_w: float) -> float:
        return self.gpu_spec.nearest_supported_power_limit(limit_w)


#: interior points of linspace(0, 1, n+2) for the handful of ramp step
#: counts the staircase can draw — rebuilt arrays dominated ramp cost
_RAMP_FRACTIONS: dict[int, list[float]] = {}


def _ramp_fractions(n_steps: int) -> list[float]:
    fracs = _RAMP_FRACTIONS.get(n_steps)
    if fracs is None:
        fracs = np.linspace(0, 1, n_steps + 2)[1:-1].tolist()
        _RAMP_FRACTIONS[n_steps] = fracs
    return fracs


@dataclass
class TransitionRecord:
    """Ground truth for one frequency-change request."""

    t_request: float
    init_mhz: float
    target_mhz: float
    bus_delay_s: float
    sample: LatencySample
    adaptation_s: float
    t_stable: float
    kind: str = "locked-clock"
    superseded: bool = False

    @property
    def ground_truth_latency_s(self) -> float:
        """Injected switching latency: request issue to stable target clock."""
        return self.t_stable - self.t_request


class DvfsClockDomain:
    """Frequency state machine for one GPU's SM clock domain."""

    def __init__(
        self,
        spec: "GpuSpec | MemoryDomainSpec",
        latency_model: SwitchingLatencyModel,
        rng: np.random.Generator,
        idle_timeout_s: float = 0.050,
        start_time: float = 0.0,
        always_powered: bool = False,
    ) -> None:
        self.spec = spec
        self.latency_model = latency_model
        self.rng = rng
        self.idle_timeout_s = idle_timeout_s
        self.always_powered = always_powered

        self.locked_mhz: float | None = None
        self.records: list[TransitionRecord] = []
        #: suffix of ``records`` that may still be pending (t_stable in the
        #: future).  Time only moves forward, so completed records can be
        #: dropped from this working set — scanning the full history on
        #: every request made supersede handling quadratic per campaign.
        self._maybe_pending: list[TransitionRecord] = []
        self._active_kernels = 0
        self._last_kernel_end: float | None = None
        self._ever_active = False
        if always_powered:
            # The domain behaves as permanently loaded: requests always
            # transition immediately and the clocks never drop to idle.
            # Kernel start/end notifications are never routed here.
            self._active_kernels = 1
            self._ever_active = True

        # Planned frequency events: sorted (time, freq_mhz).  The device
        # starts idle.
        self._event_times: list[float] = [start_time]
        self._event_freqs: list[float] = [spec.idle_sm_frequency_mhz]

        # Cap events: sorted (time, cap_mhz or +inf when released).
        self._cap_times: list[float] = [start_time]
        self._cap_values: list[float] = [float("inf")]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def planned_freq_at(self, t: float) -> float:
        """Planned SM frequency (before caps) at true time ``t``."""
        i = bisect.bisect_right(self._event_times, t) - 1
        if i < 0:
            raise SimulationError(f"time {t} precedes clock-domain start")
        return self._event_freqs[i]

    def cap_at(self, t: float) -> float:
        i = bisect.bisect_right(self._cap_times, t) - 1
        if i < 0:
            return float("inf")
        return self._cap_values[i]

    def effective_freq_at(self, t: float) -> float:
        return min(self.planned_freq_at(t), self.cap_at(t))

    def idle_since(self, t: float) -> bool:
        """True if the device has been unloaded long enough to drop clocks."""
        if self._active_kernels > 0:
            return False
        if not self._ever_active:
            return True
        assert self._last_kernel_end is not None
        return (t - self._last_kernel_end) > self.idle_timeout_s

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------
    def _insert_event(self, t: float, freq_mhz: float) -> None:
        i = bisect.bisect_right(self._event_times, t)
        self._event_times.insert(i, t)
        self._event_freqs.insert(i, freq_mhz)

    def _drop_events_after(self, t: float) -> None:
        i = bisect.bisect_right(self._event_times, t)
        del self._event_times[i:]
        del self._event_freqs[i:]

    # ------------------------------------------------------------------
    # host-visible operations
    # ------------------------------------------------------------------
    def request_locked_clocks(self, target_mhz: float, t: float) -> TransitionRecord | None:
        """Handle an NVML locked-clocks request issued at true time ``t``.

        Returns the ground-truth :class:`TransitionRecord`, or ``None`` when
        the device is idle (the setting is stored but no physical transition
        happens until wake-up).
        """
        target_mhz = self.spec.validate_clock(target_mhz)
        self.locked_mhz = target_mhz

        if self.idle_since(t):
            return None

        init_mhz = self.effective_freq_at(t)
        # Supersede any still-pending transition: its future events vanish.
        for rec in self._maybe_pending:
            if not rec.superseded and rec.t_stable > t:
                rec.superseded = True
        self._maybe_pending.clear()
        self._drop_events_after(t)

        if abs(init_mhz - target_mhz) < 1e-9:
            # Same-frequency request: driver round trip, no transition.
            bus = self.latency_model.sample_bus_delay()
            rec = TransitionRecord(
                t_request=t,
                init_mhz=init_mhz,
                target_mhz=target_mhz,
                bus_delay_s=bus,
                sample=LatencySample(total_s=0.0, mode_index=0, is_outlier=False),
                adaptation_s=0.0,
                t_stable=t + bus,
            )
            self.records.append(rec)
            self._maybe_pending.append(rec)
            return rec

        init_supported = self.spec.nearest_supported_clock(init_mhz)
        bus = self.latency_model.sample_bus_delay()
        sample = self.latency_model.sample_transition(init_supported, target_mhz)
        adaptation = sample.adaptation_s(self.rng)
        t_stable = t + bus + sample.total_s
        self._schedule_ramp(init_mhz, target_mhz, t_stable, adaptation)

        rec = TransitionRecord(
            t_request=t,
            init_mhz=init_supported,
            target_mhz=target_mhz,
            bus_delay_s=bus,
            sample=sample,
            adaptation_s=adaptation,
            t_stable=t_stable,
        )
        self.records.append(rec)
        self._maybe_pending.append(rec)
        return rec

    def reset_locked_clocks(self, t: float) -> None:
        """Clear the locked-clock setting (autoboost to nominal under load)."""
        self.locked_mhz = None
        if not self.idle_since(t):
            self.request_locked_clocks(self.spec.nominal_sm_frequency_mhz, t)
            self.locked_mhz = None

    def _schedule_ramp(
        self,
        init_mhz: float,
        target_mhz: float,
        t_stable: float,
        adaptation_s: float,
    ) -> None:
        """Insert the adaptation staircase ending exactly at ``t_stable``."""
        n_steps = int(self.rng.integers(2, 6))
        if adaptation_s > 0.0 and n_steps > 0:
            # One batched draw, then float arithmetic per step: the
            # staircase has 2-5 steps, too few to pay for array calls.
            fracs = sorted(self.rng.uniform(0.15, 0.9, size=n_steps).tolist())
            span = target_mhz - init_mhz
            snap = self.spec.nearest_supported_clock
            for frac, ramp in zip(fracs, _ramp_fractions(n_steps)):
                self._insert_event(
                    t_stable - adaptation_s * (1.0 - ramp),
                    snap(init_mhz + span * frac),
                )
        self._insert_event(t_stable, target_mhz)

    # ------------------------------------------------------------------
    # load notifications (from the device)
    # ------------------------------------------------------------------
    def notify_kernel_start(self, t: float) -> TransitionRecord | None:
        """A kernel starts executing at ``t``; wake the clocks if idle."""
        was_idle = self.idle_since(t)
        self._active_kernels += 1
        self._ever_active = True
        if not was_idle:
            return None

        if self._last_kernel_end is not None:
            drop_t = self._last_kernel_end + self.idle_timeout_s
            self._drop_events_after(drop_t)
            self._insert_event(drop_t, self.spec.idle_sm_frequency_mhz)

        resume_mhz = (
            self.locked_mhz
            if self.locked_mhz is not None
            else self.spec.nominal_sm_frequency_mhz
        )
        wake = self.latency_model.sample_wakeup()
        t_stable = t + wake
        adaptation = min(0.25 * wake, 0.03)
        self._schedule_ramp(
            self.spec.idle_sm_frequency_mhz, resume_mhz, t_stable, adaptation
        )
        rec = TransitionRecord(
            t_request=t,
            init_mhz=self.spec.idle_sm_frequency_mhz,
            target_mhz=resume_mhz,
            bus_delay_s=0.0,
            sample=LatencySample(total_s=wake, mode_index=0, is_outlier=False),
            adaptation_s=adaptation,
            t_stable=t_stable,
            kind="wakeup",
        )
        self.records.append(rec)
        self._maybe_pending.append(rec)
        return rec

    def notify_kernel_end(self, t: float) -> None:
        if self._active_kernels <= 0:
            raise SimulationError("kernel end without matching start")
        self._active_kernels -= 1
        if self._active_kernels == 0:
            self._last_kernel_end = t

    # ------------------------------------------------------------------
    # caps (thermal / power)
    # ------------------------------------------------------------------
    def apply_cap(self, t: float, cap_mhz: float) -> None:
        self._cap_times.append(t)
        self._cap_values.append(cap_mhz)

    def release_cap(self, t: float) -> None:
        self._cap_times.append(t)
        self._cap_values.append(float("inf"))

    # ------------------------------------------------------------------
    # machine-checkpoint support
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        """Capture the domain for :meth:`repro.machine.Machine.restore`.

        Event/cap timelines are copied outright (later requests may both
        append and drop suffix events).  ``records`` is append-only, but
        records still in ``_maybe_pending`` can have their ``superseded``
        flag flipped by a later request, so those flags are saved
        individually and restored on rollback.
        """
        return (
            list(self._event_times),
            list(self._event_freqs),
            list(self._cap_times),
            list(self._cap_values),
            len(self.records),
            list(self._maybe_pending),
            [rec.superseded for rec in self._maybe_pending],
            self.locked_mhz,
            self._active_kernels,
            self._last_kernel_end,
            self._ever_active,
        )

    def restore_state(self, state: tuple) -> None:
        (
            event_times,
            event_freqs,
            cap_times,
            cap_values,
            n_records,
            maybe_pending,
            pending_flags,
            locked_mhz,
            active_kernels,
            last_kernel_end,
            ever_active,
        ) = state
        self._event_times = list(event_times)
        self._event_freqs = list(event_freqs)
        self._cap_times = list(cap_times)
        self._cap_values = list(cap_values)
        del self.records[n_records:]
        self._maybe_pending = list(maybe_pending)
        for rec, flag in zip(self._maybe_pending, pending_flags):
            rec.superseded = flag
        self.locked_mhz = locked_mhz
        self._active_kernels = active_kernels
        self._last_kernel_end = last_kernel_end
        self._ever_active = ever_active

    # ------------------------------------------------------------------
    # trajectory compilation
    # ------------------------------------------------------------------
    def compiled_segments(self, t0: float) -> tuple[list[float], list[float]]:
        """Effective-frequency segments from ``t0`` as boundary lists.

        Returns ``(tb, f_mhz)``: ``tb`` has one boundary per segment plus a
        trailing ``+inf``, ``f_mhz`` the per-segment frequency in MHz.  The
        segment set is canonical (adjacent equal frequencies merged), so it
        is exactly what the :class:`~repro.gpusim.trajectory.FrequencyTrajectory`
        of the same timelines yields from ``t0`` (the oracle in
        ``tests/oracles.py``) — but built straight from the sorted
        event/cap timelines, without materializing trajectory objects.
        This is the hot-path form the SM integrator consumes for every
        kernel finalization; the lists go to it as they are.
        """
        events_after = self._event_times[
            bisect.bisect_right(self._event_times, t0):
        ]
        caps_after = self._cap_times[bisect.bisect_right(self._cap_times, t0):]
        cur_f = min(self.planned_freq_at(t0), self.cap_at(t0))
        tb = [t0]
        fs = []
        for t in sorted({*events_after, *caps_after}):
            f = min(self.planned_freq_at(t), self.cap_at(t))
            if f == cur_f:
                continue
            tb.append(t)
            fs.append(cur_f)
            cur_f = f
        fs.append(cur_f)
        tb.append(math.inf)
        return tb, fs

    def last_transition(self) -> TransitionRecord | None:
        """Most recent locked-clock transition (ignoring wake-ups)."""
        for rec in reversed(self.records):
            if rec.kind == "locked-clock":
                return rec
        return None
