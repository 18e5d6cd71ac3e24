"""Profile post-processing: the campaign stage breakdown.

``latest-bench --profile OUT.pstats`` dumps a raw cProfile capture; this
module condenses it into the handful of numbers a perf PR actually needs
— where campaign time went, by pipeline stage — so regressions are
attributable without opening the dump in a viewer.

Stages are anchored on well-known functions (cumulative time, matched on
``(file basename, function name)``):

===========  =========================================================
stage        anchor(s)
===========  =========================================================
calibration  ``calibrate_facet`` + ``_calibrate_on_driver``
             (whole per-facet calibrations: facet clock, phase 1,
             probe — the stage the calibration cache eliminates)
phase1       ``run_phase1`` (characterization sweeps, per facet)
probe        ``_probe_windows`` (window-sizing probe passes)
batch-step   ``measure_pair_blocked`` (per-pair pass-block loops)
stream       ``StreamDispatcher.emit`` + ``ResultAccumulator.on_event``
             (campaign event dispatch + index-keyed result assembly)
===========  =========================================================

Stages may nest — phase 1 and the probe run inside each facet's engine
calibration — so the rows are overlapping attributions against total
time, not a partition of it.
"""

from __future__ import annotations

import os
import pstats

__all__ = ["STAGE_ANCHORS", "render_stage_breakdown", "stage_times"]

#: stage name -> (file basename, function name) anchors, cumtimes summed
STAGE_ANCHORS: dict[str, tuple[tuple[str, str], ...]] = {
    "calibration": (
        ("worker.py", "calibrate_facet"),
        ("engine.py", "_calibrate_on_driver"),
    ),
    "phase1": (("phase1.py", "run_phase1"),),
    "probe": (("campaign.py", "_probe_windows"),),
    "batch-step": (("passblock.py", "measure_pair_blocked"),),
    "stream": (
        ("stream.py", "emit"),
        ("results.py", "on_event"),
    ),
}


def stage_times(stats_path: str) -> tuple[dict[str, float], float]:
    """Per-stage cumulative seconds and the capture's total time."""
    stats = pstats.Stats(stats_path)
    by_stage = {name: 0.0 for name in STAGE_ANCHORS}
    for (filename, _line, funcname), entry in stats.stats.items():
        base = os.path.basename(filename)
        cumtime = entry[3]
        for stage, anchors in STAGE_ANCHORS.items():
            if (base, funcname) in anchors:
                by_stage[stage] += cumtime
    return by_stage, stats.total_tt


def render_stage_breakdown(
    stats_path: str, cache_stats: "dict | None" = None
) -> str:
    """The stderr summary printed after ``--profile`` dumps its stats.

    ``cache_stats`` (the hit/miss/install counters of
    :func:`repro.core.calibcache.last_run_stats`, when a calibration
    cache was attached) appends one line relating the calibration stage's
    time to how much of it the cache elided this run.
    """
    by_stage, total = stage_times(stats_path)
    lines = [f"stage breakdown (total {total:.3f} s; stages may nest):"]
    for stage, seconds in by_stage.items():
        share = 100.0 * seconds / total if total > 0 else 0.0
        lines.append(f"  {stage:<11} {seconds:9.3f} s  {share:5.1f}%")
    if cache_stats is not None:
        lines.append(
            "  calibration cache: "
            f"{cache_stats.get('hits', 0)} hit(s), "
            f"{cache_stats.get('misses', 0)} miss(es), "
            f"{cache_stats.get('installs', 0)} installed"
        )
    return "\n".join(lines)
