"""Campaign configuration (mirrors the LATEST tool's arguments, Sec. VI).

The mandatory argument is the comma-separated benchmark frequency list; the
optional arguments reproduced here are the device index, the RSE threshold
(default 5 %), and the minimum/maximum switching-latency measurement
counts.  Everything else parameterizes the methodology internals with the
paper's defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.clustering.adaptive import AdaptiveDbscanConfig
from repro.core.axis import MeasurementAxis, axis_by_name
from repro.errors import ConfigError
from repro.stats.rse import RseStoppingRule

__all__ = ["LatestConfig"]


@dataclass(frozen=True)
class LatestConfig:
    """Full configuration of a switching-latency campaign."""

    # ----- the tool's CLI surface (paper Sec. VI) ---------------------
    #: the *swept axis* ladder: SM clocks for the default ``sm_core``
    #: axis, memory clocks for the ``memory`` axis, power limits in watts
    #: for the ``power`` axis
    frequencies: tuple[float, ...]
    #: which clock domain the campaign sweeps (:mod:`repro.core.axis`);
    #: ``"sm_core"`` is the paper's setup and stays bit-identical to the
    #: pre-axis pipeline
    axis: str = "sm_core"
    #: SM clock(s) a memory- or power-axis campaign locks.  A scalar (or
    #: ``None``, meaning the device's maximum SM frequency) runs the
    #: single-facet campaign; a tuple runs the full swept-axis pair grid
    #: once per locked SM clock — the transpose of the core×memory grid.
    #: Only valid with axes that lock the SM clock as their facet
    #: (``memory``, ``power``).
    locked_sm_mhz: "float | tuple[float, ...] | None" = None
    #: memory-bound fraction of the benchmark kernel; ``None`` uses the
    #: swept axis's default (0.30 for ``sm_core`` — the legacy value —
    #: and 0.70 for ``memory``, which must *see* the memory clock)
    kernel_memory_intensity: float | None = None
    device_index: int = 0
    rse_threshold: float = 0.05
    min_measurements: int = 25
    max_measurements: int = 200
    rse_check_every: int = 25
    #: memory clocks to sweep the SM pair grid over (the core×memory
    #: extension; paper Sec. VII names the memory domain as the next
    #: measurement axis).  ``None`` keeps the legacy fixed-memory campaign
    #: bit-identical: the memory domain is never touched.
    memory_frequencies: tuple[float, ...] | None = None

    # ----- workload sizing (paper Sec. V) -----------------------------
    #: per-iteration duration at the device's max clock; iterations must be
    #: tiny (they set the latency resolution) yet distinguishable between
    #: neighbouring frequencies
    iteration_duration_s: float = 60e-6
    #: SMs recorded by the benchmark kernel (None = every SM)
    record_sm_count: int | None = None
    #: warm-up kernels per frequency in phase 1 (thermal + wake-up settling)
    warmup_kernels: int = 2
    warmup_kernel_duration_s: float = 0.12
    #: duration of the phase-1 measurement kernel per frequency
    measure_kernel_duration_s: float = 0.20
    #: iterations executed on the initial frequency before the change call
    #: ("ideally several hundred", Sec. V)
    delay_iterations: int = 300
    #: identification iterations after the switch window ("several hundred
    #: up to a thousand", Sec. V)
    confirm_iterations: int = 300
    #: switch window = this factor times the longest probe latency
    switch_window_factor: float = 10.0
    #: probe pairs used for window estimation (small/medium/high levels)
    probe_pair_count: int = 3
    #: growth factor and retry budget when a latency is not captured
    window_growth_factor: float = 10.0
    max_window_retries: int = 2
    #: "probe-max" sizes every pair's window from the probe maximum (the
    #: paper's rule); "adaptive" starts from the probe median and relies on
    #: window growth, trading fidelity for speed on pathological pairs
    window_policy: str = "adaptive"
    #: fixed settle time on the initial frequency before the benchmark
    #: kernel; None enables NVML clock polling between filler chunks
    init_settle_s: float | None = None
    #: filler chunk length while polling for the initial clock to settle
    settle_chunk_s: float = 0.12
    #: give up on settling after this much busy time (counts as a failed
    #: attempt; pathological initial frequencies exist, see GH200)
    max_settle_s: float = 3.0
    #: switch-window length used by the probe measurements
    probe_window_s: float = 0.8

    # ----- statistics --------------------------------------------------
    alpha: float = 0.05
    confidence: float = 0.95
    #: width of the acceptance band in standard deviations (Sec. V-A)
    detection_sigmas: float = 2.0
    #: "two-sigma" (the paper's criterion) or "confidence-interval"
    #: (FTaLaT's criterion, kept for the ablation of Sec. V-A)
    detection_criterion: str = "two-sigma"
    #: relative tolerance on the tail-vs-target mean difference (the ``tol``
    #: input of Algorithm 2)
    tolerance_rel: float = 0.02
    #: minimum tail length for a trustworthy confirmation test
    min_confirm_tail: int = 30
    #: phase-1 workload growth retries for indistinguishable pairs
    max_workload_growth: int = 2
    workload_growth_factor: float = 2.0

    # ----- timer synchronization ----------------------------------------
    #: transport model for the IEEE-1588 handshake; None uses the default
    #: near-symmetric PCIe link (override to study sync-error impact)
    ptp_link: "PtpLink | None" = None  # noqa: F821 - forward ref
    ptp_rounds: int = 16

    # ----- resilience ---------------------------------------------------
    throttle_check_every: int = 5
    throttle_backoff_s: float = 10.0
    throttle_discard_count: int = 5
    #: consecutive evaluation failures before the pair is abandoned
    max_consecutive_failures: int = 12

    # ----- worker supervision (execution engine) ------------------------
    #: wall-clock seconds of job timeout per expected *virtual* second of
    #: pair cost (:class:`repro.exec.jobs.ProbeCostModel`); ``None``
    #: disables per-job timeouts (the default — there is no universal
    #: virtual→wall mapping, so opting in means calibrating the factor to
    #: the host)
    job_timeout_factor: float | None = None
    #: additive wall-clock floor under every per-job timeout
    job_timeout_floor_s: float = 5.0
    #: times a crashed/timed-out/transport-failed job is retried before
    #: its pair is quarantined (recorded as a skip reason instead of
    #: aborting the campaign); retries are bit-identical by the engine's
    #: determinism contract, so a transient fault loses nothing
    max_job_retries: int = 2
    #: exponential-backoff base between retries of the same unit
    #: (``base * 2**(attempt-1)``, capped), in real seconds
    retry_backoff_s: float = 0.25
    retry_backoff_max_s: float = 10.0
    #: deterministic fault-injection spec for the recovery test harness
    #: (:mod:`repro.exec.faults`); ``None`` (production) injects nothing
    inject_faults: str | None = None

    # ----- execution ----------------------------------------------------
    #: upper bound on the pass-block size of the batched per-pair loop
    #: (:mod:`repro.core.passblock`); blocks are additionally clipped so a
    #: stopping-rule check can only land on the final pass of a block.
    #: ``None`` forces the scalar reference loop
    #: (:func:`repro.core.campaign.measure_pair_reference`).  Results are
    #: bit-identical for every setting; this knob only trades batching
    #: efficiency against speculation (rolled back on mid-block state
    #: changes).  25 mirrors the paper's RSE check cadence.
    pass_block_size: int | None = 25

    # ----- outlier filtering (Algorithm 3) ------------------------------
    outlier_config: AdaptiveDbscanConfig = field(default_factory=AdaptiveDbscanConfig)

    # ----- output --------------------------------------------------------
    output_dir: str | None = None

    #: directory of the persistent per-facet calibration cache
    #: (:mod:`repro.core.calibcache`): phase-1 characterizations and probe
    #: window estimates are stored content-addressed so repeat campaigns
    #: skip straight to phase 2/3, bit-identically.  ``None`` (the
    #: default) disables caching.
    calibration_cache: str | None = None

    def __post_init__(self) -> None:
        axis_by_name(self.axis)  # validates the axis name
        if self.axis != "sm_core":
            if self.memory_frequencies is not None:
                raise ConfigError(
                    "memory_frequencies (core×memory grid facets) only "
                    "apply to the sm_core axis; the memory axis sweeps "
                    "memory clocks through `frequencies`"
                )
        if self.locked_sm_mhz is not None:
            if not self.swept_axis().locks_sm_facet:
                raise ConfigError(
                    "locked_sm_mhz only applies to axes that lock the SM "
                    "clock as their campaign facet (memory, power); the "
                    "sm_core axis sweeps the SM clock itself"
                )
            if isinstance(self.locked_sm_mhz, (tuple, list)):
                plan = tuple(float(f) for f in self.locked_sm_mhz)
                object.__setattr__(self, "locked_sm_mhz", plan)
                if not plan:
                    raise ConfigError(
                        "locked_sm_mhz facet tuple must be non-empty (or a "
                        "scalar for the single-facet campaign)"
                    )
                if any(f <= 0 for f in plan):
                    raise ConfigError("locked_sm_mhz clocks must be positive")
                if len(set(plan)) != len(plan):
                    raise ConfigError("duplicate locked_sm_mhz clocks")
            elif self.locked_sm_mhz <= 0:
                raise ConfigError("locked_sm_mhz must be positive")
        if self.kernel_memory_intensity is not None and not (
            0.0 <= self.kernel_memory_intensity < 1.0
        ):
            raise ConfigError("kernel_memory_intensity must be in [0, 1)")
        if len(self.frequencies) < 2:
            raise ConfigError("need at least two benchmark frequencies")
        if len(set(self.frequencies)) != len(self.frequencies):
            raise ConfigError("duplicate benchmark frequencies")
        if any(f <= 0 for f in self.frequencies):
            raise ConfigError("benchmark frequencies must be positive")
        if self.memory_frequencies is not None:
            if not self.memory_frequencies:
                raise ConfigError(
                    "memory_frequencies must be a non-empty tuple (or None "
                    "for the legacy fixed-memory campaign)"
                )
            if any(f <= 0 for f in self.memory_frequencies):
                raise ConfigError("memory frequencies must be positive")
            if len(set(self.memory_frequencies)) != len(self.memory_frequencies):
                raise ConfigError("duplicate memory frequencies")
        if self.detection_criterion not in ("two-sigma", "confidence-interval"):
            raise ConfigError(
                f"unknown detection criterion {self.detection_criterion!r}"
            )
        if self.window_policy not in ("adaptive", "probe-max"):
            raise ConfigError(f"unknown window policy {self.window_policy!r}")
        if not 0 < self.rse_threshold:
            raise ConfigError("rse_threshold must be positive")
        if self.min_measurements < 2:
            raise ConfigError("min_measurements must be >= 2")
        if self.max_measurements < self.min_measurements:
            raise ConfigError("max_measurements below min_measurements")
        if self.delay_iterations < 1 or self.confirm_iterations < 1:
            raise ConfigError("delay/confirm iteration counts must be >= 1")
        if self.pass_block_size is not None and self.pass_block_size < 1:
            raise ConfigError("pass_block_size must be >= 1 (or None)")
        if self.job_timeout_factor is not None and self.job_timeout_factor <= 0:
            raise ConfigError("job_timeout_factor must be positive (or None)")
        if self.job_timeout_floor_s < 0:
            raise ConfigError("job_timeout_floor_s must be >= 0")
        if self.max_job_retries < 0:
            raise ConfigError("max_job_retries must be >= 0")
        if self.retry_backoff_s < 0 or self.retry_backoff_max_s < 0:
            raise ConfigError("retry backoff times must be >= 0")
        if self.inject_faults is not None:
            # Parse eagerly so a malformed spec fails at configuration
            # time, not inside a worker process.  Imported lazily: the
            # exec package imports core at module load.
            from repro.exec.faults import FaultPlan

            FaultPlan.parse(self.inject_faults)

    # ------------------------------------------------------------------
    def swept_axis(self) -> MeasurementAxis:
        """The campaign's swept-axis object (:mod:`repro.core.axis`)."""
        return axis_by_name(self.axis)

    def resolved_kernel_intensity(self) -> float:
        """Kernel memory-bound fraction: explicit value or axis default."""
        if self.kernel_memory_intensity is not None:
            return self.kernel_memory_intensity
        return self.swept_axis().default_kernel_intensity

    def stopping_rule(self) -> RseStoppingRule:
        return RseStoppingRule(
            threshold=self.rse_threshold,
            min_measurements=self.min_measurements,
            max_measurements=self.max_measurements,
            check_every=self.rse_check_every,
        )

    def pairs(self) -> list[tuple[float, float]]:
        """All ordered swept-axis frequency pairs (latencies are
        non-symmetric); SM pairs on the default axis, memory pairs on the
        memory axis."""
        return [
            (a, b)
            for a in self.frequencies
            for b in self.frequencies
            if a != b
        ]

    def memory_plan(self) -> tuple[float | None, ...]:
        """Memory clocks the campaign visits, in order.

        ``(None,)`` for legacy campaigns — the sentinel means "whatever the
        device booted at, never touched".
        """
        if self.memory_frequencies is None:
            return (None,)
        return self.memory_frequencies

    def locked_sm_plan(self) -> tuple[float, ...] | None:
        """Locked-SM facet plan of a multi-facet swept-axis campaign.

        ``None`` for single-facet campaigns (scalar or unset
        ``locked_sm_mhz``); a tuple — even of length one — opts into the
        faceted result layout (facet-keyed pairs, facet-tagged CSV names).
        """
        if isinstance(self.locked_sm_mhz, tuple):
            return self.locked_sm_mhz
        return None

    def facet_plan(self) -> tuple[float | None, ...]:
        """Facet coordinates the campaign visits, in order.

        The locked memory clocks of a core×memory grid campaign, the
        locked SM clocks of a multi-facet swept-axis campaign, or
        ``(None,)`` — the single implicit facet every other campaign has
        (whatever the swept axis's ``prepare_facet`` establishes).
        """
        if self.memory_frequencies is not None:
            return self.memory_frequencies
        plan = self.locked_sm_plan()
        if plan is not None:
            return plan
        return (None,)

    def grid_points(self) -> list[tuple[float, float, float | None]]:
        """The full core×memory campaign grid, memory-major.

        Each point is ``(init_sm, target_sm, memory)``; the memory
        coordinate is ``None`` for legacy campaigns.  The enumeration
        order is the execution (and job-index) order.
        """
        return [
            (a, b, m) for m in self.memory_plan() for (a, b) in self.pairs()
        ]

    def with_frequencies(self, freqs) -> "LatestConfig":
        return replace(self, frequencies=tuple(freqs))

    def with_memory_frequencies(self, freqs) -> "LatestConfig":
        return replace(
            self,
            memory_frequencies=None if freqs is None else tuple(freqs),
        )
