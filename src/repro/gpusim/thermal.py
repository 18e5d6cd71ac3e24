"""Thermal and power model with NVML-style throttle reasons.

The methodology must survive two hardware self-defence mechanisms the paper
calls out explicitly (Sec. VI): *thermal* throttling — handled by discarding
the latest measurements and backing off for ten seconds — and *power*
throttling — which makes a frequency pair unmeasurable and skips it.

The model is a first-order thermal RC circuit: the die temperature relaxes
exponentially toward ``ambient + power * resistance`` with time constant
``tau``.  Power is a convex function of SM frequency under load plus an
idle floor.  Crossing the slowdown temperature raises ``SW_THERMAL`` and
caps the SM clock; exceeding the board power limit raises ``SW_POWER_CAP``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.gpusim.spec import GpuSpec

__all__ = ["ThrottleReasons", "ThermalModel", "ThermalState"]


class ThrottleReasons(enum.IntFlag):
    """Bitmask mirroring ``nvmlClocksThrottleReasons``."""

    NONE = 0x0
    GPU_IDLE = 0x1
    APPLICATIONS_CLOCKS_SETTING = 0x2
    SW_POWER_CAP = 0x4
    HW_SLOWDOWN = 0x8
    SYNC_BOOST = 0x10
    SW_THERMAL = 0x20
    HW_THERMAL = 0x40
    HW_POWER_BRAKE = 0x80


@dataclass
class ThermalState:
    """Mutable thermal bookkeeping for one device."""

    temperature_c: float
    last_update: float
    reasons: ThrottleReasons = ThrottleReasons.NONE


@dataclass
class ThermalModel:
    """First-order thermal RC model bound to a :class:`GpuSpec`.

    Parameters
    ----------
    spec:
        Device whose TDP/temperature envelope applies.
    ambient_c:
        Inlet temperature.  The paper's Karolina experiments only analysed
        front-row GPUs "to avoid thermal impact"; raising this reproduces
        the back-row situation.
    resistance_c_per_w:
        Steady-state degrees above ambient per watt dissipated.
    tau_s:
        Thermal time constant of die + heatsink.
    power_limit_w:
        Board power limit; ``None`` uses the spec TDP.
    enabled:
        When False the device stays at ambient and never throttles — the
        default for statistical experiments, matching the paper's choice of
        thermally unconstrained GPUs.
    """

    spec: GpuSpec
    ambient_c: float = 30.0
    resistance_c_per_w: float = 0.115
    tau_s: float = 35.0
    power_limit_w: float | None = None
    enabled: bool = False
    #: share of the dynamic power band attributed to the memory subsystem;
    #: scales roughly linearly with the memory clock around the reference
    memory_power_fraction: float = 0.18

    def __post_init__(self) -> None:
        if self.power_limit_w is None:
            self.power_limit_w = self.spec.tdp_watts

    # ------------------------------------------------------------------
    def initial_state(self, t: float) -> ThermalState:
        return ThermalState(temperature_c=self.ambient_c, last_update=t)

    def power_watts(
        self, freq_mhz: float, load: float, mem_freq_mhz: float | None = None
    ) -> float:
        """Board power at ``freq_mhz`` under fractional SM ``load``.

        Dynamic power scales ~ f * V(f)^2; with the near-linear V-f curves
        of these parts that is well approximated by f^2.4 normalized to TDP
        at the maximum clock.  ``mem_freq_mhz`` (when given and away from
        the reference memory clock) adds the memory subsystem's roughly
        linear clock sensitivity: downclocked memory returns power to the
        budget, overclocked memory spends it.  At the reference clock the
        term is skipped outright, so single-memory-clock campaigns see
        bit-identical power numbers.
        """
        f_rel = freq_mhz / self.spec.max_sm_frequency_mhz
        dynamic = (self.spec.tdp_watts - self.spec.idle_power_watts) * (
            f_rel**2.4
        )
        power = self.spec.idle_power_watts + load * dynamic
        if (
            mem_freq_mhz is not None
            and mem_freq_mhz != self.spec.memory_frequency_mhz
        ):
            mem_rel = mem_freq_mhz / self.spec.memory_frequency_mhz
            delta = (
                self.memory_power_fraction
                * (self.spec.tdp_watts - self.spec.idle_power_watts)
                * (mem_rel - 1.0)
            )
            power = max(power + delta, 0.2 * self.spec.idle_power_watts)
        return power

    def steady_temperature(self, power_w: float) -> float:
        return self.ambient_c + self.resistance_c_per_w * power_w

    def advance(
        self,
        state: ThermalState,
        t: float,
        freq_mhz: float,
        load: float,
        mem_freq_mhz: float | None = None,
    ) -> ThermalState:
        """Evolve ``state`` to time ``t`` under constant (freq, load)."""
        dt = t - state.last_update
        if dt < 0:
            raise ValueError("thermal state cannot move backwards in time")
        if not self.enabled:
            state.last_update = t
            state.reasons = ThrottleReasons.NONE
            return state
        power = self.power_watts(freq_mhz, load, mem_freq_mhz)
        t_inf = self.steady_temperature(power)
        decay = math.exp(-dt / self.tau_s)
        state.temperature_c = t_inf + (state.temperature_c - t_inf) * decay
        state.last_update = t

        reasons = ThrottleReasons.NONE
        if state.temperature_c >= self.spec.slowdown_temp_c:
            reasons |= ThrottleReasons.SW_THERMAL
        if power >= self.power_limit_w:
            reasons |= ThrottleReasons.SW_POWER_CAP
        state.reasons = reasons
        return state

    def thermal_cap_mhz(self, state: ThermalState) -> float | None:
        """SM clock cap while thermally throttled, else ``None``."""
        if not self.enabled:
            return None
        over = state.temperature_c - self.spec.slowdown_temp_c
        if over < 0:
            return None
        # ~3 ladder steps of derating per degree over the slowdown point.
        derate = min(0.5, 0.02 * (1.0 + over))
        return self.spec.max_sm_frequency_mhz * (1.0 - derate)

    def sustainable_clock_mhz(
        self, limit_w: "float | np.ndarray", load: float = 1.0
    ) -> "float | np.ndarray":
        """Highest SM clock whose board power stays within ``limit_w``.

        The pure inversion of the ``f^2.4`` dynamic-power model, clipped to
        the maximum SM clock; independent of :attr:`enabled` and of the
        board's own :attr:`power_limit_w`, so the power-cap measurement
        axis can map any requested limit to the clock it enforces.
        Accepts an array of limits (vectorized for segment folding).
        """
        limit_w = np.asarray(limit_w, dtype=np.float64)
        idle, tdp = self.spec.idle_power_watts, self.spec.tdp_watts
        budget = np.maximum(0.0, (limit_w - idle) / max(load, 1e-9))
        f_rel = (budget / max(tdp - idle, 1e-9)) ** (1.0 / 2.4)
        capped = self.spec.max_sm_frequency_mhz * np.minimum(1.0, f_rel)
        return capped if capped.ndim else float(capped)

    def power_cap_mhz(self, freq_mhz: float, load: float) -> float | None:
        """Highest sustainable clock if ``freq_mhz`` exceeds the power limit."""
        if not self.enabled or self.power_watts(freq_mhz, load) < self.power_limit_w:
            return None
        return self.sustainable_clock_mhz(self.power_limit_w, load)
