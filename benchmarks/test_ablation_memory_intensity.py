"""A-5: ablation of the kernel ``memory_intensity`` on the memory axis.

The memory-axis campaign can only detect a memory-clock switch through
the roofline stall: a fraction ``beta`` of each iteration's cycle budget
is memory-bound, so iteration time stretches by
``(1 - beta) + beta * f_ref / f_mem`` at reduced memory clocks.  This
bench sweeps ``beta`` and scores detection quality against the injected
``MemoryLatencyProfile`` ground truth, exposing both failure regimes:

* ``beta = 0``: iteration times ignore the memory clock entirely —
  phase 1 rejects every pair as statistically indistinguishable and the
  campaign measures nothing (the methodology's own guard rail);
* tiny ``beta``: pairs squeak past the phase-1 CI test, but the
  per-iteration stretch is so close to the noise floor that phase 3
  mis-detects — relative errors approach 100 %;
* moderate-to-high ``beta``: errors collapse to a few percent and stay
  flat, which is why the memory axis defaults to ``beta = 0.70``.
"""

from __future__ import annotations

import numpy as np

from repro import LatestConfig, make_machine, run_campaign

_SEED = 4242
_MEMORY_LADDER = (1215.0, 810.0, 405.0)  # the A100 HBM P-states
_INTENSITIES = (0.0, 0.01, 0.05, 0.30, 0.70)


def _ablation_config(beta: float) -> LatestConfig:
    return LatestConfig(
        frequencies=_MEMORY_LADDER,
        axis="memory",
        kernel_memory_intensity=beta,
        record_sm_count=4,
        min_measurements=4,
        max_measurements=8,
        rse_check_every=2,
        warmup_kernels=1,
        warmup_kernel_duration_s=0.05,
        measure_kernel_duration_s=0.08,
        delay_iterations=150,
        confirm_iterations=150,
        probe_window_s=0.4,
        settle_chunk_s=0.08,
    )


def run_ablation(intensities=_INTENSITIES, seed=_SEED) -> list[dict]:
    """One small memory-axis campaign per intensity; returns score rows."""
    rows = []
    for beta in intensities:
        machine = make_machine("A100", seed=seed)
        result = run_campaign(machine, _ablation_config(beta))
        n_pairs = len(result.pairs)
        measured = list(result.iter_measured())
        rel_errors: list[float] = []
        for pair in measured:
            lat = pair.latencies_s()
            truth = pair.ground_truths_s()
            finite = np.isfinite(truth)
            if finite.any():
                rel_errors.extend(
                    np.abs(lat[finite] - truth[finite]) / truth[finite]
                )
        rows.append(
            {
                "memory_intensity": beta,
                "phase1_valid_pairs": (
                    len(result.phase1.valid_pairs)
                    if result.phase1 is not None
                    else 0
                ),
                "measured_pairs": len(measured),
                "total_pairs": n_pairs,
                "median_rel_error": (
                    round(float(np.median(rel_errors)), 4)
                    if rel_errors
                    else None
                ),
            }
        )
    return rows


def test_memory_intensity_ablation():
    rows = run_ablation()
    by_beta = {row["memory_intensity"]: row for row in rows}

    # beta = 0: the methodology's phase-1 guard rejects everything.
    assert by_beta[0.0]["phase1_valid_pairs"] == 0
    assert by_beta[0.0]["measured_pairs"] == 0

    # High beta: the full pair set measures with small errors.
    strong = by_beta[0.70]
    assert strong["measured_pairs"] == strong["total_pairs"] == 6
    assert strong["median_rel_error"] < 0.15

    # Tiny-but-nonzero beta passes phase 1 yet mis-detects massively —
    # the regime the default intensity must stay far away from.
    weak = by_beta[0.01]
    if weak["median_rel_error"] is not None:
        assert weak["median_rel_error"] > 2 * strong["median_rel_error"]
