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
  adaptive DBSCAN outlier labelling per pair (Algorithm 3).  The passes
  run in speculated blocks (:mod:`repro.core.passblock`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.clustering.adaptive import adaptive_dbscan
from repro.core.config import (
    MAX_WINDOW_RETRIES,
    PROBE_PAIR_COUNT,
    SWITCH_WINDOW_FACTOR,
    WINDOW_GROWTH_FACTOR,
    LatestConfig,
)
from repro.core.context import BenchContext
from repro.core.passblock import run_pass_blocks
from repro.core.phase1 import Phase1Result
from repro.core.phase2 import run_switch_benchmark
from repro.core.phase3 import evaluate_switch
from repro.core.results import PairResult
from repro.errors import MeasurementError

__all__ = [
    "ProbeInfo",
    "facet_skip_reason",
    "measure_pair",
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
        if len(chosen) >= PROBE_PAIR_COUNT:
            break
        if p not in chosen:
            chosen.append(p)
    return chosen[:PROBE_PAIR_COUNT]


def probe_windows(bench: BenchContext, phase1: Phase1Result) -> ProbeInfo:
    """Estimate the switch-window size from a few probe measurements."""
    cfg = bench.config
    kernel = phase1.kernel
    latencies: list[float] = []
    for init, target in _probe_pairs(cfg, phase1):
        window_s = cfg.probe_window_s
        latency = None
        for _ in range(MAX_WINDOW_RETRIES + 1):
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
                window_s *= WINDOW_GROWTH_FACTOR
        if latency is not None:
            latencies.append(latency)
    if not latencies:
        raise MeasurementError("all probe measurements failed")
    lats = np.asarray(latencies)
    return ProbeInfo(
        max_latency_s=float(lats.max()),
        median_latency_s=float(np.median(lats)),
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
    window_s = max(SWITCH_WINDOW_FACTOR * base, 2e-3)
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
    process or in a worker process.  Phases 2 and 3 repeat in pass blocks
    (:func:`repro.core.passblock.run_pass_blocks`) from the probe-sized
    switch window; pairs with enough measurements then get the
    Algorithm-3 outlier labelling.
    """
    window_iters = _initial_window_iters(
        bench, init_mhz, target_mhz, probe, phase1.kernel
    )
    pair = run_pass_blocks(bench, init_mhz, target_mhz, phase1, window_iters)
    if len(pair.measurements) >= _MIN_FOR_OUTLIER_FILTER:
        pair.outliers = adaptive_dbscan(
            [m.latency_s for m in pair.measurements]
        )
    return pair
