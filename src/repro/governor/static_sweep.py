"""Static frequency tuning sweep (paper Sec. III context).

The works the paper builds on (hipBone/Stream on MI100 and A100, the
DGX-A100 study) found that "operating at approximately 75 % of the maximum
frequency represents an optimal balance between significant energy savings
and minimal performance penalties".  This module sweeps static SM
frequencies over a phased application and locates the energy-optimal and
EDP-optimal points — the baseline dynamic tuning must beat, and the origin
of the governor's memory-phase frequency targets.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.errors import ConfigError
from repro.governor.app_model import PhasedApplication
from repro.governor.policies import StaticGovernor
from repro.governor.simulate import GovernorRunResult, simulate_governor

__all__ = ["StaticPoint", "StaticSweepResult", "static_frequency_sweep"]


@dataclass(frozen=True)
class StaticPoint:
    """Outcome of running the whole application at one fixed clock."""

    freq_mhz: float
    freq_ratio: float        # relative to the device maximum
    time_s: float
    energy_j: float
    runtime_penalty: float   # vs. the max-clock run
    energy_savings: float    # vs. the max-clock run


@dataclass
class StaticSweepResult:
    """All sweep points plus the optima."""

    points: list[StaticPoint]

    def point_at_ratio(self, ratio: float) -> StaticPoint:
        return min(self.points, key=lambda p: abs(p.freq_ratio - ratio))


def static_frequency_sweep(
    app: PhasedApplication,
    ratios: tuple[float, ...] = (0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 1.0),
) -> StaticSweepResult:
    """Run the application at each static clock ratio."""
    if not ratios:
        raise ConfigError("sweep needs at least one frequency ratio")
    f_max = app.spec.max_sm_frequency_mhz
    baseline: GovernorRunResult | None = None
    points: list[StaticPoint] = []
    for ratio in sorted(ratios, reverse=True):
        freq = app.spec.nearest_supported_clock(f_max * ratio)
        # Static tuning applies the clock before the application starts
        # (paper Sec. III: "applies a configuration at the beginning of an
        # application execution"), so the run begins on it.
        run = simulate_governor(app, StaticGovernor(freq), start_freq_mhz=freq)
        if baseline is None:
            baseline = run
        points.append(
            StaticPoint(
                freq_mhz=freq,
                freq_ratio=freq / f_max,
                time_s=run.total_time_s,
                energy_j=run.total_energy_j,
                runtime_penalty=run.runtime_penalty_vs(baseline),
                energy_savings=run.energy_savings_vs(baseline),
            )
        )
    return StaticSweepResult(points=points)
