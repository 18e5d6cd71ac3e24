"""The LATEST per-pair measurement loop and probe stage (paper Sec. VI).

The execution engine (:mod:`repro.exec.engine`) orchestrates a campaign:
phase 1 once per facet, then every frequency pair of the campaign's
swept axis (:mod:`repro.core.axis` — SM clocks by default, memory clocks
with ``config.axis="memory"``) on its own replica machine.  This module
holds the pieces it runs on those replicas:

* :func:`probe_windows`, the probe stage sizing the switch window
  ("tenfold the longest switching latency of these few tested pairs",
  Sec. V),
* :func:`measure_pair`: repeat phases 2+3 until the relative standard
  error of the collected latencies drops below the threshold (checked
  every 25 passes), with throttle checks every five passes — thermal
  throttling discards the newest five measurements and backs off ten
  seconds, power throttling skips the pair entirely — followed by
  adaptive DBSCAN outlier labelling per pair (Algorithm 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.clustering.adaptive import adaptive_dbscan
from repro.core.config import LatestConfig
from repro.core.context import BenchContext
from repro.core.phase1 import Phase1Result
from repro.core.phase2 import run_switch_benchmark
from repro.core.phase3 import evaluate_switch
from repro.core.results import PairResult, SwitchingLatencyMeasurement
from repro.errors import MeasurementError
from repro.gpusim.thermal import ThrottleReasons

__all__ = [
    "ProbeInfo",
    "facet_skip_reason",
    "measure_pair",
    "measure_pair_reference",
    "probe_windows",
]

#: minimum number of measurements before outlier filtering is meaningful
_MIN_FOR_OUTLIER_FILTER = 12


def facet_skip_reason(
    phase1: "Phase1Result | None",
    sm_key: tuple[float, float],
    valid: set,
    facet_fail_reason: str,
) -> str | None:
    """Why a grid point cannot be measured at its facet (None = measurable).

    The single source of truth for the engine's skip semantics.
    ``phase1=None`` means the facet's clock never settled — the locked
    memory clock of a grid campaign, or the locked SM clock of a
    memory-axis campaign, named by ``facet_fail_reason``; ``valid`` is
    the caller's precomputed ``set(phase1.valid_pairs)`` so dense grids
    stay O(P).
    """
    if phase1 is None:
        return facet_fail_reason
    if sm_key in valid:
        return None
    return (
        phase1.unreachable.get(sm_key[0])
        or phase1.unreachable.get(sm_key[1])
        or "statistically-indistinguishable"
    )


@dataclass(frozen=True)
class ProbeInfo:
    """Window-sizing information from the probe stage."""

    max_latency_s: float
    median_latency_s: float
    pair_latencies: tuple[tuple[float, float, float], ...]  # (init, tgt, lat)


def _probe_pairs(
    config: LatestConfig, phase1: Phase1Result
) -> list[tuple[float, float]]:
    """Pick representative pairs spanning small/medium/high levels."""
    valid = phase1.valid_pairs
    if not valid:  # callers guard on valid_pairs; direct calls get the error
        raise MeasurementError("no statistically distinguishable frequency pairs")
    freqs = sorted(config.frequencies)
    lo, hi = freqs[0], freqs[-1]
    mid = freqs[len(freqs) // 2]
    preferred = [(lo, hi), (hi, lo), (mid, hi), (hi, mid), (lo, mid)]
    chosen = [p for p in preferred if p in set(valid)]
    for p in valid:
        if len(chosen) >= config.probe_pair_count:
            break
        if p not in chosen:
            chosen.append(p)
    return chosen[: config.probe_pair_count]


def probe_windows(bench: BenchContext, phase1: Phase1Result) -> ProbeInfo:
    """Estimate the switch-window size from a few probe measurements."""
    cfg = bench.config
    kernel = phase1.kernel
    results: list[tuple[float, float, float]] = []
    for init, target in _probe_pairs(cfg, phase1):
        window_s = cfg.probe_window_s
        latency = None
        for _ in range(cfg.max_window_retries + 1):
            iters = _iters_for_window(bench, window_s, init, target, kernel)
            try:
                raw = run_switch_benchmark(bench, init, target, kernel, iters)
            except MeasurementError:
                continue
            ev = evaluate_switch(raw, phase1.stats_for(target), cfg)
            if ev.ok:
                latency = ev.latency_s
                break
            if ev.window_too_short:
                window_s *= cfg.window_growth_factor
        if latency is not None:
            results.append((init, target, latency))
    if not results:
        raise MeasurementError("all probe measurements failed")
    lats = np.asarray([r[2] for r in results])
    return ProbeInfo(
        max_latency_s=float(lats.max()),
        median_latency_s=float(np.median(lats)),
        pair_latencies=tuple(results),
    )


def _iters_for_window(
    bench: BenchContext, window_s: float, init: float, target: float, kernel
) -> int:
    """Iterations needed to keep measuring for ``window_s``.

    Sized with the *shortest* iteration duration of the pair (highest
    frequency — the axis contract guarantees duration is decreasing in
    the swept clock) so the window never undershoots in time.
    """
    iter_s = bench.axis.iteration_duration_s(bench, kernel, max(init, target))
    return max(50, int(math.ceil(window_s / iter_s)))


def _initial_window_iters(
    bench: BenchContext,
    init_mhz: float,
    target_mhz: float,
    probe: ProbeInfo,
    kernel,
) -> int:
    cfg = bench.config
    base = (
        probe.max_latency_s
        if cfg.window_policy == "probe-max"
        else probe.median_latency_s
    )
    window_s = max(cfg.switch_window_factor * base, 2e-3)
    return _iters_for_window(bench, window_s, init_mhz, target_mhz, kernel)


def measure_pair(
    bench: BenchContext,
    init_mhz: float,
    target_mhz: float,
    phase1: Phase1Result,
    probe: ProbeInfo,
) -> PairResult:
    """Measure one frequency pair until the RSE stopping rule fires.

    The execution engine runs it against a per-pair replica machine, in
    process or in a worker process.

    Dispatches to the batched pass-block pipeline
    (:mod:`repro.core.passblock`) unless ``config.pass_block_size`` is
    ``None`` — both paths produce bit-identical results; the scalar loop
    below is the reference implementation.
    """
    block = bench.config.pass_block_size
    if block is not None:
        from repro.core.passblock import measure_pair_blocked

        return measure_pair_blocked(
            bench, init_mhz, target_mhz, phase1, probe, block
        )
    return measure_pair_reference(bench, init_mhz, target_mhz, phase1, probe)


def measure_pair_reference(
    bench: BenchContext,
    init_mhz: float,
    target_mhz: float,
    phase1: Phase1Result,
    probe: ProbeInfo,
) -> PairResult:
    """The scalar reference loop: one pass simulated, evaluated, decided.

    Retained verbatim as the semantic definition of the per-pair
    measurement procedure; ``tests/test_core_passblock.py`` asserts the
    batched pipeline reproduces it bit for bit.
    """
    cfg = bench.config
    kernel = phase1.kernel
    target_stats = phase1.stats_for(target_mhz)
    rule = cfg.stopping_rule()

    pair = PairResult(
        init_mhz=float(init_mhz), target_mhz=float(target_mhz), axis=cfg.axis
    )
    window_iters = _initial_window_iters(bench, init_mhz, target_mhz, probe, kernel)
    growths = 0
    consecutive_failures = 0
    passes = 0

    while True:
        try:
            raw = run_switch_benchmark(
                bench, init_mhz, target_mhz, kernel, window_iters
            )
        except MeasurementError:
            pair.n_failed_attempts += 1
            consecutive_failures += 1
            if consecutive_failures >= cfg.max_consecutive_failures:
                pair.skipped = True
                pair.skip_reason = "initial-frequency-never-settled"
                break
            continue
        passes += 1

        # Throttle handling (paper Sec. VI): every five passes.  On the
        # power-cap axis SW_POWER_CAP is the measured signal itself
        # (axis.benign_throttle), not a reason to abandon the pair.
        if passes % cfg.throttle_check_every == 0:
            reasons = raw.throttle_reasons
            if reasons & (
                ThrottleReasons.SW_POWER_CAP & ~bench.axis.benign_throttle
            ):
                pair.skipped = True
                pair.skip_reason = "power-throttled"
                break
            if reasons & (ThrottleReasons.SW_THERMAL | ThrottleReasons.HW_THERMAL):
                drop = min(cfg.throttle_discard_count, len(pair.measurements))
                if drop:
                    del pair.measurements[-drop:]
                pair.n_throttle_discards += drop
                bench.host.sleep(cfg.throttle_backoff_s)
                continue

        ev = evaluate_switch(raw, target_stats, cfg)
        if ev.ok:
            consecutive_failures = 0
            pair.measurements.append(
                SwitchingLatencyMeasurement(
                    latency_s=float(ev.latency_s),
                    ts_acc=raw.ts_acc,
                    te_acc=float(ev.te_acc),
                    n_valid_sm=ev.n_valid_sm,
                    window_iterations=window_iters,
                    ground_truth_s=raw.ground_truth_latency_s,
                    ground_truth_outlier=raw.ground_truth_outlier,
                )
            )
            if rule.should_stop([m.latency_s for m in pair.measurements]):
                break
            continue

        # Failed evaluation: grow the window when the latency escaped
        # it ("repeated with a ten-times longer workload", Sec. V);
        # otherwise simply repeat phases two and three.
        pair.n_failed_attempts += 1
        consecutive_failures += 1
        if ev.window_too_short and growths < cfg.max_window_retries:
            window_iters = int(
                math.ceil(window_iters * cfg.window_growth_factor)
            )
            growths += 1
            pair.n_window_growths += 1
            consecutive_failures = 0
        elif consecutive_failures >= cfg.max_consecutive_failures:
            if not pair.measurements:
                pair.skipped = True
                pair.skip_reason = "no-viable-measurements"
            break

    if len(pair.measurements) >= _MIN_FOR_OUTLIER_FILTER:
        pair.outliers = adaptive_dbscan(
            [m.latency_s for m in pair.measurements], cfg.outlier_config
        )
    return pair
