"""Energy accounting for the simulated device.

The paper's whole motivation is energy: DVFS runtimes trade switching
overhead against power savings, and "too often frequency change may lead
to most of the time spent on performing the change".  The energy meter
integrates the thermal model's power curve over the device's actual
frequency trajectory and load timeline, exposing the same counter the real
driver offers through ``nvmlDeviceGetTotalEnergyConsumption``.

Energy is integrated lazily: the meter walks busy intervals (recorded at
kernel finalization) and the frequency trajectory between its last update
and the query time, so queries are cheap and exact regardless of how much
simulated time passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.gpusim.thermal import ThermalModel

__all__ = ["EnergyMeter"]


@dataclass
class _BusyInterval:
    t_start: float
    t_end: float


@dataclass
class EnergyMeter:
    """Integrates board power over time for one device.

    Parameters
    ----------
    thermal:
        Supplies the power model (works whether or not thermal simulation
        is enabled — power draw is always defined).
    dvfs:
        The clock domain whose effective frequency drives dynamic power.
    start_time:
        Epoch of the counter.

    The figures are *uncapped* by the power-limit axis: the meter
    integrates ``dvfs.effective_freq_at``, which includes the thermal and
    software power caps applied to the SM domain but not the enforced
    power-limit cap that kernel integration folds in
    (:func:`repro.gpusim.sm.merge_cap_segments`).  Under a lowered power
    limit the meter therefore charges the locked clock's power, not the
    capped clock's.  The memory power term is a linear share of the
    budget (:meth:`~repro.gpusim.thermal.ThermalModel.power_watts`), not a
    model of the memory subsystem.
    """

    thermal: ThermalModel
    dvfs: "DvfsClockDomain"  # noqa: F821 - avoid import cycle
    start_time: float = 0.0
    #: memory clock domain; its transitions shift board power, so its
    #: events become integration boundaries too.  ``None`` (or a domain
    #: that never left its start event) integrates exactly as before.
    mem_dvfs: "DvfsClockDomain | None" = None  # noqa: F821
    _energy_j: float = 0.0
    _integrated_until: float = field(default=None)  # type: ignore[assignment]
    _busy: list[_BusyInterval] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self._integrated_until is None:
            self._integrated_until = self.start_time

    # ------------------------------------------------------------------
    def record_busy(self, t_start: float, t_end: float) -> None:
        """Register a kernel execution window (called at finalization)."""
        if t_end < t_start:
            raise SimulationError("busy interval ends before it starts")
        if self._busy and t_start < self._busy[-1].t_end - 1e-12:
            t_start = self._busy[-1].t_end
            if t_end <= t_start:
                return
        self._busy.append(_BusyInterval(t_start, t_end))

    def _load_at(self, t: float) -> float:
        # Busy intervals are appended in order; scan from the back since
        # integration advances monotonically.
        for interval in reversed(self._busy):
            if interval.t_start <= t < interval.t_end:
                return 1.0
            if interval.t_end <= t:
                break
        return 0.0

    def _mem_active(self) -> bool:
        """True when the memory domain has events that can shape power."""
        return self.mem_dvfs is not None and len(self.mem_dvfs._event_times) > 1

    def _boundaries(self, t0: float, t1: float) -> list[float]:
        points = {t0, t1}
        for interval in self._busy:
            if t0 < interval.t_start < t1:
                points.add(interval.t_start)
            if t0 < interval.t_end < t1:
                points.add(interval.t_end)
        trajectory = self.dvfs.trajectory(t0)
        for seg in trajectory.segments:
            if t0 < seg.t_start < t1:
                points.add(seg.t_start)
        if self._mem_active():
            for seg in self.mem_dvfs.trajectory(t0).segments:
                if t0 < seg.t_start < t1:
                    points.add(seg.t_start)
        return sorted(points)

    def integrate_to(self, t: float) -> float:
        """Advance the counter to time ``t``; returns total joules."""
        t0 = self._integrated_until
        if t < t0 - 1e-12:
            raise SimulationError("energy meter cannot run backwards")
        if t <= t0:
            return self._energy_j
        mem_active = self._mem_active()
        boundaries = self._boundaries(t0, t)
        for lo, hi in zip(boundaries, boundaries[1:]):
            mid = 0.5 * (lo + hi)
            freq = self.dvfs.effective_freq_at(mid)
            load = self._load_at(mid)
            mem_freq = (
                self.mem_dvfs.effective_freq_at(mid) if mem_active else None
            )
            self._energy_j += self.thermal.power_watts(freq, load, mem_freq) * (
                hi - lo
            )
        self._integrated_until = t
        return self._energy_j

    def total_energy_j(self, t: float) -> float:
        """NVML-style total energy consumption since the epoch."""
        return self.integrate_to(t)

    # ------------------------------------------------------------------
    # machine-checkpoint support
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        """Capture the meter for :meth:`repro.machine.Machine.checkpoint`.

        ``_busy`` is append-only and its intervals are never mutated after
        insertion, so the snapshot records only its length.
        """
        return (self._energy_j, self._integrated_until, len(self._busy))

    def restore_state(self, state: tuple) -> None:
        energy_j, integrated_until, n_busy = state
        self._energy_j = energy_j
        self._integrated_until = integrated_until
        del self._busy[n_busy:]

    def average_power_w(self, t: float) -> float:
        span = t - self.start_time
        if span <= 0:
            return 0.0
        return self.total_energy_j(t) / span
