"""Scalar oracles of the three batched hot paths.

Each function here is the original one-at-a-time formulation of a step
that ``src/`` now runs only in batched or vectorized form.  They are the
semantic definitions the equivalence tests compare against bit for bit:

* :func:`measure_pair_reference` — the per-pair loop, one pass simulated,
  evaluated and decided at a time; ``tests/test_core_passblock.py`` runs
  whole campaigns through it by monkeypatching
  ``repro.exec.worker.measure_pair``;
* :func:`evaluate_switch_reference` — one ``SampleStats`` + Welch CI per
  candidate SM (``tests/test_core_phase3_vectorized.py``);
* :func:`integrate_iterations_reference` — iteration boundaries by
  explicit cycle accounting (``tests/test_gpusim_sm.py``).

They are test code: nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import math

import numpy as np

from repro.clustering.adaptive import adaptive_dbscan
from repro.core.campaign import (
    _MIN_FOR_OUTLIER_FILTER,
    ProbeInfo,
    _initial_window_iters,
)
from repro.core.config import LatestConfig
from repro.core.context import BenchContext
from repro.core.phase1 import Phase1Result
from repro.core.phase2 import RawSwitchData, run_switch_benchmark
from repro.core.phase3 import (
    SwitchEvaluation,
    _classify,
    _detect,
    _finish,
    _suffix_stats,
    evaluate_switch,
)
from repro.core.results import PairResult, SwitchingLatencyMeasurement
from repro.errors import MeasurementError
from repro.gpusim.sm import KernelTimestamps
from repro.gpusim.thermal import ThrottleReasons
from repro.gpusim.trajectory import FrequencyTrajectory
from repro.stats.descriptive import SampleStats
from repro.stats.intervals import difference_ci


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


def evaluate_switch_reference(
    raw: RawSwitchData,
    target_stats: SampleStats,
    cfg: LatestConfig,
) -> SwitchEvaluation:
    """Scalar reference: one SampleStats + Welch CI per candidate SM.

    This is the original formulation of the confirmation step.  It is kept
    (like :func:`repro.gpusim.sm.integrate_iterations_reference`) so the
    equivalence tests can assert that the vectorized path produces
    identical statuses, latencies and reasons.
    """
    diffs, ends, ts, has_post, detected, first = _detect(raw, target_stats, cfg)
    n_sm, n_iter = diffs.shape
    status, short, _ = _classify(has_post, detected, first, n_iter, cfg)

    tail_mean, tail_std, n_tail = _suffix_stats(
        diffs, (first + 1).tolist(), list(range(n_sm))
    )
    confirm_rows = np.flatnonzero(detected & ~short)
    valid = np.zeros(n_sm, dtype=bool)
    tol = cfg.tolerance_rel * target_stats.mean
    for i in confirm_rows:
        tail = SampleStats(
            n=n_tail[i],
            mean=tail_mean[i],
            std=tail_std[i],
            minimum=0.0,
            maximum=0.0,
        )
        lb, hb = difference_ci(tail, target_stats, cfg.confidence)
        if (lb < 0.0 < hb) or abs(tail.mean - target_stats.mean) < tol:
            valid[i] = True

    return _finish(
        ends[None], [ts], status[None], has_post[None], detected[None],
        short[None], first[None], valid[None],
    )[0]


def integrate_iterations_reference(
    trajectory: FrequencyTrajectory,
    sm_start_times: np.ndarray,
    cycles: np.ndarray,
) -> KernelTimestamps:
    """Scalar reference implementation (one iteration at a time).

    Advances each iteration through trajectory segments by explicit cycle
    accounting.  Used by the property-based tests to validate
    :func:`integrate_iterations`; O(n_sm × n_iter × n_seg), so keep inputs
    small.
    """
    sm_start_times = np.asarray(sm_start_times, dtype=np.float64)
    cycles = np.asarray(cycles, dtype=np.float64)
    n_sm, n_iter = cycles.shape
    segs = list(trajectory.iter_from(float(sm_start_times.min())))
    starts = np.empty((n_sm, n_iter))
    ends = np.empty((n_sm, n_iter))
    for i in range(n_sm):
        t = float(sm_start_times[i])
        for k in range(n_iter):
            starts[i, k] = t
            remaining = float(cycles[i, k])
            while remaining > 0.0:
                seg = next(s for s in segs if s.t_end > t)
                f = seg.freq_hz
                capacity = (seg.t_end - t) * f
                if remaining <= capacity:
                    t += remaining / f
                    remaining = 0.0
                else:
                    remaining -= capacity
                    t = seg.t_end
            ends[i, k] = t
    return KernelTimestamps(starts_true=starts, ends_true=ends)
