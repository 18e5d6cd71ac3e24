"""The simulated GPU device.

Ties together the hardware clock (quantized ``%globaltimer`` domain), the
DVFS clock domain with its ground-truth latency model, the thermal/power
model, and the vectorized SM execution engine.

Execution model
---------------
Kernels launch asynchronously (the host keeps running) and are *finalized*
lazily: the per-iteration timestamps of a kernel can only be materialized
once every host action that might affect the SM frequency during its run is
known.  ``synchronize()`` — which the methodology always calls before
reading timestamps — finalizes all pending kernels and blocks the host
until the device drains.  This mirrors CUDA semantics: reading a device
buffer without synchronizing is an error here too.

Mid-kernel NVML traffic (frequency changes, throttle-reason polls) is
explicitly supported; it is the heart of the paper's phase two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CudaError, SimulationError
from repro.gpusim.arch_profiles import (
    MemoryLatencyProfile,
    PowerCapLatencyProfile,
    profile_for,
)
from repro.gpusim.dvfs import (
    DvfsClockDomain,
    MemoryDomainSpec,
    PowerDomainSpec,
    TransitionRecord,
)
from repro.gpusim.energy import EnergyMeter
from repro.gpusim.latency_model import SwitchingLatencyModel
from repro.gpusim.sm import (
    DeviceTimestamps,
    KernelTimestamps,
    PendingIntegration,
    merge_cap_segments,
    merge_memory_segments,
    prepare_integration_from_boundaries,
    sample_iteration_cycles,
)
from repro.gpusim.spec import GpuSpec
from repro.gpusim.thermal import ThermalModel, ThermalState, ThrottleReasons
from repro.simtime.clock import HardwareClock, VirtualClock

__all__ = ["KernelLaunchSpec", "KernelHandle", "GpuDevice"]

#: device-side delay between command submission and kernel start
_LAUNCH_QUEUE_DELAY_S = 3e-6
#: device-side epilogue after the last iteration retires
_KERNEL_EPILOGUE_S = 2e-6


@dataclass(frozen=True)
class KernelLaunchSpec:
    """Launch configuration of a microbenchmark kernel.

    ``sm_count`` limits how many SMs are simulated/recorded; ``None`` uses
    every SM of the device (the paper's tool records all cores; campaigns
    may subsample for speed without changing the methodology).
    """

    n_iterations: int
    cycles_per_iteration: float
    sm_count: int | None = None
    label: str = ""
    #: aggregate kernels model their total cycle cost with one draw per SM
    #: (CLT-matched to the per-iteration sum) and record no per-iteration
    #: timestamps — for filler/warm-load workloads nothing ever reads back
    aggregate: bool = False
    #: fraction of each iteration's cycle budget that is memory-bound; the
    #: kernel's iteration time responds to the memory clock through the
    #: roofline stall model (:func:`repro.gpusim.sm.memory_stall_factor`).
    #: Irrelevant while the memory clock sits at the spec reference.
    memory_intensity: float = 0.0

    def __post_init__(self) -> None:
        if self.n_iterations <= 0:
            raise CudaError(f"invalid iteration count {self.n_iterations}")
        if self.cycles_per_iteration <= 0:
            raise CudaError("cycles_per_iteration must be positive")
        if not 0.0 <= self.memory_intensity < 1.0:
            raise CudaError("memory_intensity must be in [0, 1)")


@dataclass
class KernelHandle:
    """Tracks one launched kernel through its lifecycle."""

    spec: KernelLaunchSpec
    t_submit: float
    seq: int
    t_start: float | None = None
    t_complete: float | None = None
    start_notified: bool = False
    #: deferred integration; the per-iteration boundaries materialize only
    #: when timestamps are actually read (filler kernels never are)
    deferred: PendingIntegration | None = field(default=None, repr=False)

    @property
    def finalized(self) -> bool:
        return self.t_complete is not None

    @property
    def timestamps(self) -> KernelTimestamps | None:
        """Per-iteration boundaries; materializes the deferred integration."""
        if self.deferred is None:
            return None
        return self.deferred.materialize()


class GpuDevice:
    """One simulated GPU bound to a machine's true timeline."""

    def __init__(
        self,
        spec: GpuSpec,
        clock: VirtualClock,
        rng: np.random.Generator,
        index: int = 0,
        unit_seed: int = 0,
        thermal: ThermalModel | None = None,
        profile=None,
        sm_start_stagger_s: float = 4e-6,
        idle_timeout_s: float = 0.050,
    ) -> None:
        self.spec = spec
        self.clock = clock
        self.rng = rng
        self.index = index
        self.unit_seed = unit_seed
        self.sm_start_stagger_s = sm_start_stagger_s

        # The GPU timer domain: arbitrary power-on offset, ppm-scale drift,
        # ~1 us register refresh (paper footnote 1).
        self.gpu_clock = HardwareClock(
            clock,
            offset=float(rng.uniform(0.0, 1000.0)),
            drift=float(rng.normal(0.0, 2e-6)),
            granularity=spec.timer_granularity_s,
            name=f"gpu{index}-globaltimer",
        )

        self.profile = profile if profile is not None else profile_for(spec.architecture)
        self.latency_model = SwitchingLatencyModel(
            self.profile, unit_seed=unit_seed, rng=rng
        )
        self.dvfs = DvfsClockDomain(
            spec,
            self.latency_model,
            rng,
            idle_timeout_s=idle_timeout_s,
            start_time=clock.now,
        )
        # The memory clock domain: same state machine on the memory ladder,
        # always powered (memory holds its P-state without load).  It
        # shares the device RNG but draws from it only when a memory
        # transition is actually requested, so campaigns that never touch
        # the memory clock consume exactly the legacy draw sequence.
        self.mem_latency_model = SwitchingLatencyModel(
            MemoryLatencyProfile(self.profile), unit_seed=unit_seed, rng=rng
        )
        self.mem_dvfs = DvfsClockDomain(
            MemoryDomainSpec(spec),
            self.mem_latency_model,
            rng,
            idle_timeout_s=idle_timeout_s,
            start_time=clock.now,
            always_powered=True,
        )
        #: fast-path flag: no memory-clock request was ever issued, so the
        #: memory clock sits at the reference and cannot shape kernel
        #: timing, power, or thermals
        self._memory_static = True
        # The power-limit domain: the same state machine on the power-limit
        # ladder (watts stand in for MHz), always powered — limits persist
        # without load.  Its limit timeline maps onto SM clock caps through
        # the thermal model's sustainable-clock inversion.  It shares the
        # device RNG but draws only when a limit change is requested, so
        # campaigns that never touch the power limit consume exactly the
        # legacy draw sequence.
        self.power_latency_model = SwitchingLatencyModel(
            PowerCapLatencyProfile(self.profile), unit_seed=unit_seed, rng=rng
        )
        self.power_dvfs = DvfsClockDomain(
            PowerDomainSpec(spec),
            self.power_latency_model,
            rng,
            idle_timeout_s=idle_timeout_s,
            start_time=clock.now,
            always_powered=True,
        )
        #: fast-path flag: no power-limit request was ever issued, so the
        #: limit sits at the TDP default and cannot cap the SM clock
        self._power_static = True
        self.thermal = thermal if thermal is not None else ThermalModel(spec)
        self.thermal_state: ThermalState = self.thermal.initial_state(clock.now)
        # Thermal and power caps are tracked separately: a cool die must
        # not release a cap that exists because the locked clock exceeds
        # the board power budget.
        self._thermal_cap_mhz: float | None = None
        self._power_cap_mhz: float | None = None
        self._cap_applied_mhz: float | None = None

        self.energy = EnergyMeter(
            thermal=self.thermal,
            dvfs=self.dvfs,
            start_time=clock.now,
            mem_dvfs=self.mem_dvfs,
        )

        self._pending: list[KernelHandle] = []
        self._seq = 0
        self._busy_until = clock.now

    # ------------------------------------------------------------------
    # kernel lifecycle
    # ------------------------------------------------------------------
    def launch_kernel(self, spec: KernelLaunchSpec) -> KernelHandle:
        """Submit a kernel at the current host time (asynchronous)."""
        now = self.clock.now
        self._drain_completed(now)
        handle = KernelHandle(spec=spec, t_submit=now, seq=self._seq)
        self._seq += 1
        if not self._pending:
            # The start time is already determined (nothing queued ahead),
            # so the clock domain learns about the load immediately — a
            # mid-kernel DVFS request must see a busy device.
            handle.t_start = max(now + _LAUNCH_QUEUE_DELAY_S, self._busy_until)
            self.dvfs.notify_kernel_start(handle.t_start)
            handle.start_notified = True
        self._pending.append(handle)
        return handle

    def synchronize(self) -> float:
        """Finalize all pending kernels; block the host until the device drains.

        Returns the true time at which the host resumes.
        """
        completion = self._finalize_pending()
        self.clock.advance_to(completion)
        return self.clock.now

    def _finalize_pending(self) -> float:
        now = self.clock.now
        for handle in self._pending:
            self._finalize(handle)
        self._pending.clear()
        return max(self._busy_until, now)

    def _finalize(self, handle: KernelHandle) -> None:
        if handle.finalized:
            return
        if handle.start_notified:
            assert handle.t_start is not None
            t_start = handle.t_start
        else:
            t_start = max(handle.t_submit + _LAUNCH_QUEUE_DELAY_S, self._busy_until)
            handle.t_start = t_start
            self.dvfs.notify_kernel_start(t_start)
        self._maybe_power_cap(t_start)

        n_sm = handle.spec.sm_count or self.spec.sm_count
        n_sm = min(n_sm, self.spec.sm_count)
        stagger = self.rng.uniform(0.0, self.sm_start_stagger_s, size=n_sm)
        starts = t_start + stagger
        # RNG draws and clock advance happen here (the scalar-exact part);
        # the full per-iteration inversion is deferred until the kernel's
        # timestamps are actually read.  The segments are compiled now —
        # events inserted later all lie at or after this completion time,
        # so the deferred inversion sees the exact segments the eager one
        # would have.
        tb, f_mhz = self._effective_segments(
            float(starts.min()), handle.spec.memory_intensity
        )
        if handle.spec.aggregate:
            completion = self._finalize_aggregate(handle, n_sm, starts, tb, f_mhz)
        else:
            cycles = sample_iteration_cycles(
                self.rng,
                n_sm,
                handle.spec.n_iterations,
                handle.spec.cycles_per_iteration,
                self.spec.iteration_noise_rel,
            )
            pending = prepare_integration_from_boundaries(
                tb, f_mhz, starts, cycles, consume=True
            )
            handle.deferred = pending
            completion = pending.completion_true + _KERNEL_EPILOGUE_S
        handle.t_complete = completion
        self.dvfs.notify_kernel_end(completion)
        self.energy.record_busy(t_start, completion)
        self._busy_until = completion
        self._advance_thermal(completion, load=1.0)

    def _finalize_aggregate(
        self,
        handle: KernelHandle,
        n_sm: int,
        starts: np.ndarray,
        tb: np.ndarray,
        f_mhz: np.ndarray,
    ) -> float:
        """Completion time of an untimed (aggregate-fidelity) kernel.

        One normal draw per SM models the total cycle cost — the exact CLT
        image of the per-iteration sum the timed path draws — and the
        piecewise cycle integral is inverted only at the per-SM totals.
        """
        spec = handle.spec
        n = spec.n_iterations
        mean_total = n * spec.cycles_per_iteration
        sigma_total = (
            self.spec.iteration_noise_rel
            * spec.cycles_per_iteration
            * float(np.sqrt(n))
        )
        totals = self.rng.standard_normal(n_sm)
        totals *= sigma_total
        totals += mean_total
        np.maximum(totals, 0.01 * mean_total, out=totals)
        if n_sm == 1 and len(f_mhz) <= 2:
            # Scalar fast path for the common filler shape (one SM, at
            # most one frequency change ahead): a handful of float ops
            # instead of the array integration pipeline.
            t0 = float(starts[0])
            total = float(totals[0])
            f0 = float(f_mhz[0]) * 1e6
            if len(f_mhz) == 1 or t0 + total / f0 <= float(tb[1]):
                end = t0 + total / f0
            else:
                spent = (float(tb[1]) - t0) * f0
                end = float(tb[1]) + (total - spent) / (float(f_mhz[1]) * 1e6)
            return end + _KERNEL_EPILOGUE_S
        pending = prepare_integration_from_boundaries(
            tb, f_mhz, starts, totals[:, None]
        )
        return pending.completion_true + _KERNEL_EPILOGUE_S

    def _effective_segments(
        self, t0: float, memory_intensity: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """SM segments with the memory-clock stall model folded in.

        While the memory domain is untouched (``_memory_static``) or the
        kernel is pure compute, this *is* ``dvfs.compiled_segments`` — the
        legacy hot path, bit for bit.  Otherwise the SM and memory
        timelines merge into effective integration frequencies
        (:func:`repro.gpusim.sm.merge_memory_segments`).  An active
        power-limit timeline clips the SM segments from above first
        (:func:`repro.gpusim.sm.merge_cap_segments`): the cap shapes the
        clock itself, the memory stall then divides whatever clock runs.
        """
        tb, f_mhz = self.dvfs.compiled_segments(t0)
        if not self._power_static:
            cap_tb, cap_w = self.power_dvfs.compiled_segments(t0)
            if len(cap_w) > 1 or cap_w[0] != self.spec.tdp_watts:
                caps = np.asarray(
                    self.thermal.sustainable_clock_mhz(cap_w), dtype=np.float64
                )
                tb, f_mhz = merge_cap_segments(tb, f_mhz, cap_tb, caps)
        if self._memory_static or memory_intensity <= 0.0:
            return tb, f_mhz
        mem_tb, mem_f = self.mem_dvfs.compiled_segments(t0)
        if len(mem_f) == 1 and mem_f[0] == self.spec.memory_frequency_mhz:
            return tb, f_mhz
        return merge_memory_segments(
            tb, f_mhz, mem_tb, mem_f, memory_intensity,
            self.spec.memory_frequency_mhz,
        )

    def read_timestamps(self, handle: KernelHandle) -> DeviceTimestamps:
        """Read the kernel's iteration timestamp buffers (GPU-clock view).

        Requires prior synchronization, exactly like a ``cudaMemcpy`` of a
        device buffer.
        """
        if handle.finalized and handle.spec.aggregate:
            raise CudaError(
                "aggregate kernels record no per-iteration timestamps "
                f"(kernel seq={handle.seq} {handle.spec.label!r})"
            )
        if not handle.finalized or handle.timestamps is None:
            raise CudaError(
                "kernel results read before synchronization "
                f"(kernel seq={handle.seq} {handle.spec.label!r})"
            )
        return handle.timestamps.as_device_view(self.gpu_clock)

    # ------------------------------------------------------------------
    # management-plane operations (driven by the NVML layer)
    # ------------------------------------------------------------------
    def set_locked_clocks(self, freq_mhz: float) -> TransitionRecord | None:
        """Lock the SM clock at ``freq_mhz`` (NVML locked-clocks semantics)."""
        t = self.clock.now
        self._drain_completed(t)
        record = self.dvfs.request_locked_clocks(freq_mhz, t)
        self._maybe_power_cap(t)
        return record

    def reset_locked_clocks(self) -> None:
        t = self.clock.now
        self._drain_completed(t)
        self.dvfs.reset_locked_clocks(t)

    def set_memory_locked_clocks(self, freq_mhz: float) -> TransitionRecord | None:
        """Lock the memory clock at ``freq_mhz`` (P-state retraining).

        Kernels whose deterministic completion bound precedes the request
        are finalized first (their timing cannot be affected); kernels
        still running see the retraining through their merged segment
        timeline, exactly like a mid-kernel SM transition.
        """
        t = self.clock.now
        self._drain_completed(t)
        record = self.mem_dvfs.request_locked_clocks(freq_mhz, t)
        self._memory_static = False
        return record

    def reset_memory_locked_clocks(self) -> TransitionRecord | None:
        """Return the memory clock to the spec reference."""
        return self.set_memory_locked_clocks(self.spec.memory_frequency_mhz)

    def set_power_limit(self, limit_w: float) -> TransitionRecord | None:
        """Set the board power limit (``nvmlDeviceSetPowerManagementLimit``).

        The new limit is enforced only after a sampled re-target latency
        (the power microcontroller integrates over its sensing window
        before committing the new sustainable clock); until then the old
        cap keeps shaping the SM clock — the phase-2 scenario of the
        power-cap measurement axis.
        """
        t = self.clock.now
        self._drain_completed(t)
        record = self.power_dvfs.request_locked_clocks(limit_w, t)
        self._power_static = False
        return record

    def reset_power_limit(self) -> TransitionRecord | None:
        """Return the power limit to the TDP default."""
        return self.set_power_limit(self.spec.tdp_watts)

    def current_power_limit_w(self) -> float:
        """The requested (management-register) power limit in watts."""
        locked = self.power_dvfs.locked_mhz
        return float(locked) if locked is not None else float(self.spec.tdp_watts)

    def enforced_power_limit_w(self) -> float:
        """The limit the power controller currently enforces.

        Trails :meth:`current_power_limit_w` by the re-target latency (and
        steps through intermediate ladder points during adaptation).
        """
        if self._power_static:
            return float(self.spec.tdp_watts)
        return float(self.power_dvfs.effective_freq_at(self.clock.now))

    def _power_capped_mhz(self, t: float) -> float:
        """Sustainable SM clock under the limit enforced at ``t``."""
        return float(
            self.thermal.sustainable_clock_mhz(
                self.power_dvfs.effective_freq_at(t)
            )
        )

    def current_sm_clock_mhz(self) -> float:
        planned = self.dvfs.effective_freq_at(self.clock.now)
        if self._power_static:
            return planned
        return min(planned, self._power_capped_mhz(self.clock.now))

    def current_memory_clock_mhz(self) -> float:
        return self.mem_dvfs.effective_freq_at(self.clock.now)

    def throttle_reasons(self) -> ThrottleReasons:
        t = self.clock.now
        busy = self._busy_at(t)
        self._advance_thermal(t, load=1.0 if busy else 0.0)
        reasons = self.thermal_state.reasons
        if not busy:
            reasons |= ThrottleReasons.GPU_IDLE
        if self.dvfs.locked_mhz is not None:
            reasons |= ThrottleReasons.APPLICATIONS_CLOCKS_SETTING
            # The locked clock cannot be honoured within the power budget:
            # report the cap whether or not a kernel is running right now —
            # the setting itself is unservable.
            if (
                self._power_cap_mhz is not None
                and self._power_cap_mhz < self.dvfs.locked_mhz
            ):
                reasons |= ThrottleReasons.SW_POWER_CAP
            # A lowered power limit that cannot sustain the locked clock is
            # the same unservable-setting situation, reported through the
            # same NVML reason — the observable the power-cap measurement
            # axis settles on.
            if (
                not self._power_static
                and self._power_capped_mhz(t) < self.dvfs.locked_mhz
            ):
                reasons |= ThrottleReasons.SW_POWER_CAP
        return reasons

    def temperature_c(self) -> float:
        t = self.clock.now
        self._advance_thermal(t, load=1.0 if self._busy_at(t) else 0.0)
        return self.thermal_state.temperature_c

    def power_usage_w(self) -> float:
        t = self.clock.now
        load = 1.0 if self._busy_at(t) else 0.0
        mem_freq = None if self._memory_static else self.mem_dvfs.effective_freq_at(t)
        return self.thermal.power_watts(
            self.dvfs.effective_freq_at(t), load, mem_freq
        )

    def total_energy_j(self) -> float:
        """Board energy since device creation (NVML total-energy counter).

        With kernels still pending, integration stops at the last
        finalized work (their busy windows are not committed yet);
        otherwise it runs to the present, charging idle power for
        unloaded spans.
        """
        horizon = (
            min(self.clock.now, self._busy_until)
            if self._pending
            else self.clock.now
        )
        return self.energy.total_energy_j(horizon)

    def last_transition(self) -> TransitionRecord | None:
        return self.dvfs.last_transition()

    # ------------------------------------------------------------------
    # machine-checkpoint support
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        """Capture the device for :meth:`repro.machine.Machine.checkpoint`.

        Only legal at a quiescent point: pending (unfinalized) kernels hold
        mutable handles that a snapshot cannot protect, so campaign code
        checkpoints right after ``synchronize()``.
        """
        if self._pending:
            raise SimulationError(
                "cannot checkpoint a device with pending kernels "
                "(synchronize first)"
            )
        from dataclasses import replace

        return (
            self.rng.bit_generator.state,
            self.gpu_clock._last_read,
            self.dvfs.snapshot_state(),
            self.mem_dvfs.snapshot_state(),
            self._memory_static,
            self.power_dvfs.snapshot_state(),
            self._power_static,
            self._busy_until,
            self._seq,
            replace(self.thermal_state),
            self._thermal_cap_mhz,
            self._power_cap_mhz,
            self._cap_applied_mhz,
            self.energy.snapshot_state(),
        )

    def restore_state(self, state: tuple) -> None:
        from dataclasses import replace

        (
            rng_state,
            gpu_last_read,
            dvfs_state,
            mem_dvfs_state,
            memory_static,
            power_dvfs_state,
            power_static,
            busy_until,
            seq,
            thermal_state,
            thermal_cap,
            power_cap,
            cap_applied,
            energy_state,
        ) = state
        self.rng.bit_generator.state = rng_state
        self.gpu_clock._last_read = gpu_last_read
        self.dvfs.restore_state(dvfs_state)
        self.mem_dvfs.restore_state(mem_dvfs_state)
        self._memory_static = memory_static
        self.power_dvfs.restore_state(power_dvfs_state)
        self._power_static = power_static
        self._busy_until = busy_until
        self._seq = seq
        self.thermal_state = replace(thermal_state)
        self._thermal_cap_mhz = thermal_cap
        self._power_cap_mhz = power_cap
        self._cap_applied_mhz = cap_applied
        self.energy.restore_state(energy_state)
        self._pending.clear()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _busy_at(self, t: float) -> bool:
        return bool(self._pending) or t < self._busy_until

    def _drain_completed(self, t: float) -> None:
        """Finalize queued kernels that must already have completed by ``t``.

        A kernel whose deterministic completion bound lies before ``t``
        cannot be affected by events at or after ``t``, so finalizing it now
        is sound.  Kernels still running at ``t`` stay pending (their
        trajectory may still change — that is the phase-two scenario).
        """
        while self._pending:
            handle = self._pending[0]
            t_start = max(handle.t_submit + _LAUNCH_QUEUE_DELAY_S, self._busy_until)
            bound = self._completion_bound(handle, t_start)
            if bound >= t:
                break
            self._finalize(handle)
            self._pending.pop(0)

    def _completion_bound(self, handle: KernelHandle, t_start: float) -> float:
        """Conservative upper bound on the kernel's completion time."""
        n = handle.spec.n_iterations
        total_cycles = (
            handle.spec.cycles_per_iteration
            * n
            * (1.0 + 6.0 * self.spec.iteration_noise_rel / max(np.sqrt(n), 1.0))
        )
        # Pessimistic rate: the lowest frequency the trajectory can reach.
        f_min_mhz = self.spec.idle_sm_frequency_mhz
        if not self._power_static:
            # An active power cap can (in principle) push the clock below
            # idle; bound with the tightest ladder limit so early
            # finalization stays sound.
            f_min_mhz = min(
                f_min_mhz,
                self.thermal.sustainable_clock_mhz(
                    self.spec.supported_power_limits_w[-1]
                ),
            )
        f_min_hz = f_min_mhz * 1e6
        worst = t_start + total_cycles / f_min_hz + self.sm_start_stagger_s
        return worst + _KERNEL_EPILOGUE_S

    def _advance_thermal(self, t: float, load: float) -> None:
        if t < self.thermal_state.last_update:
            return
        t_from = self.thermal_state.last_update
        freq = self.dvfs.effective_freq_at(t_from)
        mem_freq = (
            None if self._memory_static else self.mem_dvfs.effective_freq_at(t_from)
        )
        self.thermal.advance(self.thermal_state, t, freq, load, mem_freq)
        self._update_thermal_cap(t)

    def _update_thermal_cap(self, t: float) -> None:
        if not self.thermal.enabled:
            return
        cap = self.thermal.thermal_cap_mhz(self.thermal_state)
        if cap is not None:
            self._thermal_cap_mhz = cap
        elif self._thermal_cap_mhz is not None:
            # Release with hysteresis: two degrees below slowdown.
            if self.thermal_state.temperature_c < self.spec.slowdown_temp_c - 2.0:
                self._thermal_cap_mhz = None
        self._sync_caps(t)

    def _maybe_power_cap(self, t: float) -> None:
        if not self.thermal.enabled:
            return
        locked = self.dvfs.locked_mhz
        if locked is None:
            self._power_cap_mhz = None
        else:
            cap = self.thermal.power_cap_mhz(locked, 1.0)
            self._power_cap_mhz = cap if (cap is not None and cap < locked) else None
        self._sync_caps(t)

    def _sync_caps(self, t: float) -> None:
        """Apply the tighter of the thermal and power caps to the clocks."""
        caps = [c for c in (self._thermal_cap_mhz, self._power_cap_mhz) if c]
        effective = min(caps) if caps else None
        if effective == self._cap_applied_mhz:
            return
        if effective is None:
            self.dvfs.release_cap(t)
        else:
            self.dvfs.apply_cap(t, effective)
        self._cap_applied_mhz = effective

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GpuDevice({self.spec.name!r}, index={self.index}, "
            f"sm={self.spec.sm_count}, now={self.clock.now:.6f})"
        )
