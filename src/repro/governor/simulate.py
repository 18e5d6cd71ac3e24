"""Energy/runtime simulation of a governor over a phased application.

The model exposes the failure mode from the paper's introduction: "too
often frequency change may lead to most of the time spent on performing
the change".  A switch requested at a phase boundary completes only after
the measured switching latency; until then the device keeps running at the
old clock.  When the latency outlives the phase, the *next* phase starts
on the stale frequency and inherits the pending transition — the
"undefined state" hazard that COUNTDOWN documents for sub-500 us regions
and that grows by orders of magnitude on GPUs.

Work accounting integrates each phase's progress piecewise over the actual
frequency timeline: progress rate at frequency ``f`` is
``1 / phase.duration_at(f)`` of the phase per second; energy accrues at
the device power-model rate for the active frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.governor.app_model import PhasedApplication
from repro.gpusim.thermal import ThermalModel

__all__ = ["PhaseOutcome", "GovernorRunResult", "simulate_governor"]


@dataclass(frozen=True)
class PhaseOutcome:
    """Accounting for one executed phase."""

    requested_mhz: float
    duration_s: float
    energy_j: float
    switched: bool
    switch_latency_s: float
    stale_time_s: float  # time spent below/above the requested frequency
    rationale: str


@dataclass
class GovernorRunResult:
    """Aggregate outcome of one governor run."""

    governor_name: str
    outcomes: list[PhaseOutcome] = field(default_factory=list)

    @property
    def total_time_s(self) -> float:
        return sum(o.duration_s for o in self.outcomes)

    @property
    def total_energy_j(self) -> float:
        return sum(o.energy_j for o in self.outcomes)

    @property
    def n_switches(self) -> int:
        return sum(1 for o in self.outcomes if o.switched)

    @property
    def stale_time_s(self) -> float:
        """Total time executed at a frequency other than the requested one."""
        return sum(o.stale_time_s for o in self.outcomes)

    def energy_savings_vs(self, baseline: "GovernorRunResult") -> float:
        """Fractional energy saved relative to a baseline run."""
        if baseline.total_energy_j == 0:
            raise ConfigError("baseline consumed no energy")
        return 1.0 - self.total_energy_j / baseline.total_energy_j

    def runtime_penalty_vs(self, baseline: "GovernorRunResult") -> float:
        """Fractional runtime extension relative to a baseline run."""
        if baseline.total_time_s == 0:
            raise ConfigError("baseline took no time")
        return self.total_time_s / baseline.total_time_s - 1.0


def simulate_governor(
    app: PhasedApplication,
    governor,
    start_freq_mhz: float | None = None,
) -> GovernorRunResult:
    """Run ``governor`` over ``app``; returns the accounting."""
    thermal = ThermalModel(app.spec, enabled=True)
    actual_mhz = (
        start_freq_mhz
        if start_freq_mhz is not None
        else app.spec.max_sm_frequency_mhz
    )
    requested_mhz = actual_mhz
    t = 0.0
    pending: tuple[float, float] | None = None  # (completion time, freq)
    result = GovernorRunResult(governor_name=getattr(governor, "name", "?"))

    for phase in app.phases:
        decision = governor.decide(phase, requested_mhz)
        switched = decision.switched and decision.target_mhz != requested_mhz
        latency = decision.predicted_latency_s if switched else 0.0
        if switched:
            # A new request supersedes any still-pending transition.
            requested_mhz = decision.target_mhz
            pending = (t + latency, decision.target_mhz)

        remaining = 1.0  # fraction of the phase's work left
        phase_t0 = t
        energy = 0.0
        stale = 0.0
        while remaining > 1e-12:
            f = actual_mhz
            rate = 1.0 / phase.duration_at(f)
            t_finish = remaining / rate
            if pending is not None and pending[0] > t:
                dt = min(t_finish, pending[0] - t)
            else:
                if pending is not None:
                    actual_mhz = pending[1]
                    pending = None
                    continue
                dt = t_finish
            energy += thermal.power_watts(f, 1.0) * dt
            if f != requested_mhz:
                stale += dt
            remaining -= rate * dt
            t += dt
            if pending is not None and t >= pending[0] - 1e-15:
                actual_mhz = pending[1]
                pending = None

        result.outcomes.append(
            PhaseOutcome(
                requested_mhz=requested_mhz,
                duration_s=t - phase_t0,
                energy_j=energy,
                switched=switched,
                switch_latency_s=latency,
                stale_time_s=stale,
                rationale=decision.rationale,
            )
        )
    return result
