"""Batched pass-block execution of the per-pair measurement loop.

The scalar reference loop (:func:`repro.core.campaign.measure_pair_reference`)
runs one full measurement pass at a time: PTP handshake, settle, benchmark
kernel, frequency change, then the phase-3 evaluation — and only then
decides what the next pass looks like.  Almost all of that decision logic
is cheap scalar state, while almost all of the *work* is array math whose
per-pass fixed costs dominate at campaign scale.

This module restructures the loop around **pass blocks**:

1.  *Speculate.*  Up to ``B`` passes are simulated back to back under the
    assumption that every deferred evaluation will succeed with the current
    switch window.  Each pass performs exactly the scalar path's RNG draws
    and clock advances (the simulation side is untouched); only the pure
    array analysis — per-iteration boundary inversion, device-clock
    conversion, phase-3 detection and CI confirmation — is deferred.
    Throttle checks and settle failures depend on nothing deferred, so
    they are handled eagerly at the scalar cadence.  After every pass a
    :class:`~repro.machine.MachineCheckpoint` is appended to the block's
    **ledger**.

2.  *Batch.*  At block end the deferred kernels materialize straight into
    contiguous block buffers and
    :func:`repro.core.phase3.evaluate_switch_block_deferred` evaluates the
    whole block in one array sweep (bit-identical per pass to
    :func:`~repro.core.phase3.evaluate_switch`).

3.  *Resolve.*  The scalar control flow is replayed over the real
    outcomes.  While the speculation assumption holds this commits
    measurements; at the first divergence — a failed evaluation that grows
    the window, an abandon threshold, a mid-block stopping-rule hit — the
    machine is rolled back to the ledger checkpoint taken right after the
    diverging pass, i.e. to exactly the state the scalar loop would be in,
    and the loop re-plans from there.  A failed evaluation that changes
    *no* simulation state (no window growth, no abandon) is not a
    divergence at all: the speculated suffix remains valid and resolution
    simply keeps walking.

Because every RNG draw happens in scalar order and every discarded suffix
is rolled back through the ledger, the batched loop is bit-identical to the
scalar reference — same measurements, outlier labels, and CSV bytes — for
every block size, which ``tests/test_core_passblock.py`` asserts across
architectures.

Scalar fallback
---------------
``measure_pair`` (the dispatcher in :mod:`repro.core.campaign`) routes to
the reference loop when ``config.pass_block_size`` is ``None`` or the
machine carries an active tracer (speculative passes would emit trace
events for work that is later rolled back; the reference loop's trace is
the meaningful one).  Within the batched loop itself, blocks degrade to
size 1 near stopping-rule boundaries — identical semantics, just without
batching gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.context import BenchContext
from repro.core.phase2 import RawSwitchData, run_switch_benchmark
from repro.core.phase3 import (
    block_scratch,
    evaluate_switch,
    evaluate_switch_block_deferred,
)
from repro.core.results import PairResult, SwitchingLatencyMeasurement
from repro.errors import MeasurementError
from repro.gpusim.thermal import ThrottleReasons
from repro.machine import MachineCheckpoint
from repro.stats.rse import RseStoppingRule

__all__ = ["PairBlockRunner", "measure_pair_blocked", "plan_block_size"]


def plan_block_size(
    n_measurements: int, rule: RseStoppingRule, cap: int
) -> int:
    """Passes to speculate so a stop check can only land on the last one.

    The stopping rule fires only when the measurement count reaches
    ``max_measurements`` or a multiple of ``check_every`` at or above
    ``min_measurements``; assuming every speculated pass yields a
    measurement, the distance to the nearest such count bounds the block.
    Failed passes only shorten the real distance, which is safe — the
    resolution walk re-checks the rule after every commit and rolls back
    on a genuine mid-block stop (possible only after thermal discards).
    """
    n = n_measurements
    d_max = max(rule.max_measurements - n, 1)
    first_checkable = max(rule.min_measurements, n + 1)
    next_multiple = -(-first_checkable // rule.check_every) * rule.check_every
    d_check = next_multiple - n
    return max(1, min(cap, d_max, d_check))


@dataclass
class _BlockEvent:
    """One speculated step of a block, with its post-state ledger entry."""

    kind: str  # "raw" | "settle-fail" | "throttle-thermal" | "throttle-power"
    raw: RawSwitchData | None
    checkpoint: MachineCheckpoint


def _evaluate_deferred_block(raws, bench, target_stats, cfg):
    """Materialize a block's deferred kernels into contiguous buffers.

    The per-kernel true-time end boundaries are device-clock converted
    directly into one ``(n_pass, n_sm, n_iter)`` matrix (no per-pass
    DeviceTimestamps, no starts matrices — back-to-back iterations make
    them shifted views of the ends), then the whole block is evaluated in
    one sweep.  Per-element arithmetic is identical to the scalar path's
    ``as_device_view`` + ``evaluate_switch`` chain.
    """
    if not raws:
        return []
    if len(raws) == 1:
        raws[0].materialize(bench.cuda)
        return [evaluate_switch(raws[0], target_stats, cfg)]

    gpu_clock = bench.device.gpu_clock
    deferreds = [raw.pending.handle.deferred for raw in raws]
    n_sm, n_iter = deferreds[0].cycles_shape
    ends = block_scratch("ends", (len(raws), n_sm, n_iter))
    start0_true = np.empty((len(raws), n_sm))
    for b, deferred in enumerate(deferreds):
        gpu_clock.convert_array(deferred.ends_true(), out=ends[b])
        start0_true[b] = deferred.sm_start_times
    start0 = gpu_clock.convert_array(start0_true)
    return evaluate_switch_block_deferred(
        start0, ends, [raw.ts_acc for raw in raws], target_stats, cfg
    )


class PairBlockRunner:
    """Speculate/resolve state machine of one pair's blocked loop.

    The blocked measurement loop factored into explicit phases, which
    :func:`measure_pair_blocked` drives to completion: speculate a block
    of passes, evaluate the block in one array sweep, resolve, repeat.
    Keeping the scalar decision logic in :meth:`resolve`, apart from the
    array evaluation, is what lets the blocked loop reproduce the scalar
    reference loop bit for bit.
    """

    def __init__(
        self,
        bench: BenchContext,
        init_mhz: float,
        target_mhz: float,
        phase1,
        probe,
        block_cap: int,
    ) -> None:
        # Imported here: campaign imports this module lazily from its own
        # measure_pair dispatcher.
        from repro.core.campaign import _initial_window_iters

        self.bench = bench
        self.cfg = bench.config
        self.machine = bench.machine
        self.kernel = phase1.kernel
        self.init_mhz = init_mhz
        self.target_mhz = target_mhz
        self.target_stats = phase1.stats_for(target_mhz)
        self.rule = self.cfg.stopping_rule()
        self.block_cap = block_cap
        self.pair = PairResult(
            init_mhz=float(init_mhz),
            target_mhz=float(target_mhz),
            axis=self.cfg.axis,
        )
        self.window_iters = _initial_window_iters(
            bench, init_mhz, target_mhz, probe, self.kernel
        )
        self.growths = 0
        self.consecutive_failures = 0
        self.passes = 0
        self.done = False
        self._events: list[_BlockEvent] = []

    # ------------------------------------------------------------------
    # 1. speculate: simulate up to one block of passes, deferring evaluation
    # ------------------------------------------------------------------
    def speculate(self) -> None:
        bench, cfg, machine = self.bench, self.cfg, self.machine
        block = plan_block_size(
            len(self.pair.measurements), self.rule, self.block_cap
        )
        events: list[_BlockEvent] = []
        spec_consecutive = self.consecutive_failures
        spec_passes = self.passes
        for _ in range(block):
            try:
                raw = run_switch_benchmark(
                    bench, self.init_mhz, self.target_mhz, self.kernel,
                    self.window_iters, defer_timestamps=True,
                )
            except MeasurementError:
                spec_consecutive += 1
                events.append(
                    _BlockEvent("settle-fail", None, machine.checkpoint())
                )
                if spec_consecutive >= cfg.max_consecutive_failures:
                    break
                continue
            spec_passes += 1

            # Throttle handling (paper Sec. VI) depends only on the NVML
            # poll taken during the pass — nothing deferred — so it runs
            # eagerly at the exact scalar cadence.  SW_POWER_CAP is masked
            # on the power-cap axis (it is the measured signal there).
            if spec_passes % cfg.throttle_check_every == 0:
                reasons = raw.throttle_reasons
                if reasons & (
                    ThrottleReasons.SW_POWER_CAP & ~bench.axis.benign_throttle
                ):
                    events.append(
                        _BlockEvent("throttle-power", raw, machine.checkpoint())
                    )
                    break
                if reasons & (
                    ThrottleReasons.SW_THERMAL | ThrottleReasons.HW_THERMAL
                ):
                    bench.host.sleep(cfg.throttle_backoff_s)
                    events.append(
                        _BlockEvent("throttle-thermal", raw, machine.checkpoint())
                    )
                    continue

            spec_consecutive = 0  # speculation assumes the pass evaluates ok
            events.append(_BlockEvent("raw", raw, machine.checkpoint()))
        self._events = events

    @property
    def pending_raws(self) -> list[RawSwitchData]:
        """The speculated block's deferred measurement passes, in order."""
        return [e.raw for e in self._events if e.kind == "raw"]

    # ------------------------------------------------------------------
    # 3. resolve: replay the scalar control flow over real outcomes
    # ------------------------------------------------------------------
    def resolve(self, evaluations) -> None:
        """Walk the speculated block against its per-pass evaluations.

        ``evaluations`` must hold one :class:`SwitchEvaluation` per entry
        of :attr:`pending_raws`, in order.
        """
        cfg, machine, pair = self.cfg, self.machine, self.pair
        events = self._events
        self._events = []
        evaluations = iter(evaluations)
        for index, event in enumerate(events):
            is_last = index == len(events) - 1

            if event.kind == "settle-fail":
                pair.n_failed_attempts += 1
                self.consecutive_failures += 1
                if self.consecutive_failures >= cfg.max_consecutive_failures:
                    pair.skipped = True
                    pair.skip_reason = "initial-frequency-never-settled"
                    if not is_last:
                        machine.restore(event.checkpoint)
                    self.done = True
                    break
                continue

            if event.kind == "throttle-power":
                # Power events always terminate speculation, so the machine
                # already sits at this event's checkpoint.
                self.passes += 1
                pair.skipped = True
                pair.skip_reason = "power-throttled"
                self.done = True
                break

            if event.kind == "throttle-thermal":
                self.passes += 1
                drop = min(cfg.throttle_discard_count, len(pair.measurements))
                if drop:
                    del pair.measurements[-drop:]
                pair.n_throttle_discards += drop
                continue

            # kind == "raw"
            self.passes += 1
            ev = next(evaluations)
            if ev.ok:
                self.consecutive_failures = 0
                raw = event.raw
                pair.measurements.append(
                    SwitchingLatencyMeasurement(
                        latency_s=float(ev.latency_s),
                        ts_acc=raw.ts_acc,
                        te_acc=float(ev.te_acc),
                        n_valid_sm=ev.n_valid_sm,
                        window_iterations=self.window_iters,
                        ground_truth_s=raw.ground_truth_latency_s,
                        ground_truth_outlier=raw.ground_truth_outlier,
                    )
                )
                if self.rule.should_stop(
                    [m.latency_s for m in pair.measurements]
                ):
                    if not is_last:
                        machine.restore(event.checkpoint)
                    self.done = True
                    break
                continue

            # Failed evaluation: scalar bookkeeping, then decide whether the
            # speculated suffix is still valid.
            pair.n_failed_attempts += 1
            self.consecutive_failures += 1
            if ev.window_too_short and self.growths < cfg.max_window_retries:
                self.window_iters = int(
                    math.ceil(self.window_iters * cfg.window_growth_factor)
                )
                self.growths += 1
                pair.n_window_growths += 1
                self.consecutive_failures = 0
                # The suffix ran with the stale window — divergence.
                if not is_last:
                    machine.restore(event.checkpoint)
                break
            if self.consecutive_failures >= cfg.max_consecutive_failures:
                if not pair.measurements:
                    pair.skipped = True
                    pair.skip_reason = "no-viable-measurements"
                if not is_last:
                    machine.restore(event.checkpoint)
                self.done = True
                break
            # Plain failure: consumes no draws and no time, so the
            # speculated suffix is exactly what the scalar loop would have
            # run next — keep walking, no rollback.
            continue

    # ------------------------------------------------------------------
    def finalize(self) -> PairResult:
        """The finished pair, with the Algorithm-3 outlier labelling."""
        from repro.core.campaign import _MIN_FOR_OUTLIER_FILTER
        from repro.clustering.adaptive import adaptive_dbscan

        pair = self.pair
        if len(pair.measurements) >= _MIN_FOR_OUTLIER_FILTER:
            pair.outliers = adaptive_dbscan(
                [m.latency_s for m in pair.measurements],
                self.cfg.outlier_config,
            )
        return pair


def measure_pair_blocked(
    bench: BenchContext,
    init_mhz: float,
    target_mhz: float,
    phase1,
    probe,
    block_cap: int,
) -> PairResult:
    """Pass-block batched equivalent of ``measure_pair_reference``."""
    runner = PairBlockRunner(
        bench, init_mhz, target_mhz, phase1, probe, block_cap
    )
    while not runner.done:
        runner.speculate()
        evaluations = _evaluate_deferred_block(
            runner.pending_raws, bench, runner.target_stats, runner.cfg
        )
        runner.resolve(evaluations)
    return runner.finalize()
