"""Phase 2: the switching-latency benchmark (Algorithm 2, lines 1-8).

Per measurement:

1. synchronize the CPU and accelerator timers (IEEE 1588),
2. lock the initial frequency and run warm-up workload until the device
   settled on it,
3. launch the benchmark kernel (delay + switch window + confirmation
   iterations),
4. sleep through the delay period, take the CPU timestamp ``t_s``, issue
   the frequency change to the target,
5. synchronize the device and read back the per-iteration timestamps.

Which clock domain steps 2 and 4 act on is the campaign's *swept axis*
(:mod:`repro.core.axis`): the SM clock for the paper's setup, the memory
clock for memory-pair campaigns.  Everything else — timer sync, kernel
shape, timestamp readback — is axis-agnostic.

``t_s`` is converted into the accelerator timebase with the sync result,
exactly as Algorithm 2 line 6 (``clock_gettime() - cpu_sync + acc_sync``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import MAX_SETTLE_S, PTP_ROUNDS
from repro.core.context import BenchContext
from repro.cuda.kernel import MicrobenchmarkKernel
from repro.gpusim.dvfs import TransitionRecord
from repro.gpusim.sm import DeviceTimestamps
from repro.gpusim.thermal import ThrottleReasons
from repro.timesync.ptp import SyncResult, synchronize_timers

__all__ = ["RawSwitchData", "run_switch_benchmark"]


@dataclass
class RawSwitchData:
    """Everything phase 3 needs to evaluate one switch measurement.

    ``timestamps`` may be ``None`` when the benchmark ran with
    ``defer_timestamps=True`` (the pass-block pipeline): the launched
    kernel is kept in ``pending`` and :meth:`materialize` produces the
    device view later, batched with the rest of the block.  The
    ground-truth fields are snapshotted at construction time — the live
    :class:`TransitionRecord` can be superseded by a *later* pass's
    request, and the methodology's record of a measurement must reflect
    the state at evaluation time, exactly as an immediate evaluation
    would observe it.
    """

    init_mhz: float
    target_mhz: float
    sync: SyncResult
    ts_cpu: float
    ts_acc: float
    timestamps: DeviceTimestamps | None
    window_iterations: int
    kernel: MicrobenchmarkKernel
    ground_truth: TransitionRecord | None
    throttle_reasons: ThrottleReasons
    #: deferred-readback handle (pass-block pipeline only)
    pending: "LaunchedKernel | None" = None  # noqa: F821 - forward ref
    ground_truth_latency_s: float | None = None
    ground_truth_outlier: bool = False

    def __post_init__(self) -> None:
        gt = self.ground_truth
        if gt is not None and not gt.superseded and (
            self.ground_truth_latency_s is None
        ):
            # Ground truth measured from the same reference the
            # methodology uses: the CPU timestamp taken just before the
            # driver call.
            self.ground_truth_latency_s = gt.t_stable - gt.t_request
        if gt is not None and gt.sample.is_outlier:
            self.ground_truth_outlier = True

    def materialize(self, cuda) -> DeviceTimestamps:
        """Resolve the deferred timestamp view (idempotent)."""
        if self.timestamps is None:
            self.timestamps = cuda.timestamps(self.pending)
            self.pending = None
        return self.timestamps


def build_benchmark_kernel(
    bench: BenchContext,
    base: MicrobenchmarkKernel,
    init_mhz: float,
    target_mhz: float,
    window_iterations: int,
) -> MicrobenchmarkKernel:
    """Size the phase-2 kernel: delay + switch window + confirmation."""
    cfg = bench.config
    n = cfg.delay_iterations + window_iterations + cfg.confirm_iterations
    return MicrobenchmarkKernel(
        n_iterations=n,
        cycles_per_iteration=base.cycles_per_iteration,
        sm_count=bench.record_sm_count(),
        label=f"switch-{init_mhz:g}-{target_mhz:g}",
        # Inherited so phase-2 iteration times answer to the same clocks
        # as the phase-1 statistics they are tested against (the memory
        # axis runs a deliberately memory-bound workload).
        memory_intensity=base.memory_intensity,
    )


def run_switch_benchmark(
    bench: BenchContext,
    init_mhz: float,
    target_mhz: float,
    base_kernel: MicrobenchmarkKernel,
    window_iterations: int,
    defer_timestamps: bool = False,
) -> RawSwitchData:
    """One phase-2 execution for one frequency pair.

    With ``defer_timestamps=True`` the device view of the kernel's
    iteration boundaries is not read back here; the caller materializes it
    later (see :class:`RawSwitchData`).  Every RNG draw and clock advance
    is identical either way — deferral only postpones pure array math.
    """
    from repro.errors import MeasurementError

    cfg = bench.config

    # (1) timer synchronization
    sync = synchronize_timers(
        bench.host, bench.device, rounds=PTP_ROUNDS, link=cfg.ptp_link
    )

    # (2) settle on the initial frequency under sustained load
    if not bench.settle_swept(init_mhz):
        raise MeasurementError(
            f"{bench.axis.describe()} did not settle on {init_mhz:g} "
            f"{bench.axis.unit} within {MAX_SETTLE_S:g} s of load"
        )

    # (3) benchmark kernel: delay + window + confirmation iterations
    kernel = build_benchmark_kernel(
        bench, base_kernel, init_mhz, target_mhz, window_iterations
    )
    launched = bench.cuda.launch(kernel)

    # (4) delay period on the initial frequency, then the change call
    delay_s = cfg.delay_iterations * bench.axis.iteration_duration_s(
        bench, base_kernel, init_mhz
    )
    bench.host.sleep(delay_s)
    ts_cpu = bench.host.clock_gettime()
    record = bench.set_swept_clock(target_mhz)

    # Throttle reasons are polled while the benchmark kernel is still
    # running (the tool checks them *during* execution; a post-drain poll
    # would only ever see GPU_IDLE).
    reasons = bench.handle.current_clocks_throttle_reasons()

    # (5) drain, then read back (possibly deferred)
    bench.cuda.synchronize()
    view = None if defer_timestamps else bench.cuda.timestamps(launched)

    return RawSwitchData(
        init_mhz=init_mhz,
        target_mhz=target_mhz,
        sync=sync,
        ts_cpu=ts_cpu,
        ts_acc=sync.cpu_to_acc(ts_cpu),
        timestamps=view,
        window_iterations=window_iterations,
        kernel=kernel,
        ground_truth=record,
        throttle_reasons=reasons,
        pending=launched if defer_timestamps else None,
    )
