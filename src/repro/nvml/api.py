"""NVML session and device-handle objects.

The API shape intentionally follows NVML (``nvmlDeviceGetHandleByIndex``,
``nvmlDeviceSetGpuLockedClocks``, ...) with pythonic naming.  Errors raise
:class:`~repro.errors.NvmlError` with NVML-style codes.

Driver-call costs are drawn from a lognormal around a per-call-type median;
an occasional scheduling hiccup stretches a call by milliseconds.  Those
hiccups land inside measured switching latencies and are one of the outlier
sources the paper's DBSCAN filter (Sec. V-C) removes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, NvmlError
from repro.gpusim.device import GpuDevice
from repro.gpusim.dvfs import TransitionRecord
from repro.gpusim.thermal import ThrottleReasons

__all__ = ["NvmlCallCosts", "NvmlDeviceHandle", "NvmlSession"]


@dataclass(frozen=True)
class NvmlCallCosts:
    """CPU-side latency model for NVML entry points (seconds)."""

    query_median_s: float = 25e-6
    query_sigma_log: float = 0.30
    set_clocks_median_s: float = 120e-6
    set_clocks_sigma_log: float = 0.35
    hiccup_prob: float = 0.002
    hiccup_scale_s: float = 2e-3

    def sample(
        self, rng: np.random.Generator, kind: str = "query"
    ) -> float:
        if kind == "set":
            median, sigma = self.set_clocks_median_s, self.set_clocks_sigma_log
        else:
            median, sigma = self.query_median_s, self.query_sigma_log
        cost = median * float(np.exp(sigma * rng.standard_normal()))
        if rng.random() < self.hiccup_prob:
            cost += float(rng.exponential(self.hiccup_scale_s))
        return cost


class NvmlSession:
    """An initialized NVML library instance (``nvmlInit`` .. ``nvmlShutdown``)."""

    def __init__(self, machine, call_costs: NvmlCallCosts | None = None) -> None:
        self.machine = machine
        self.call_costs = call_costs or NvmlCallCosts()
        self._initialized = True

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        self._initialized = False

    def __enter__(self) -> "NvmlSession":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def _check(self) -> None:
        if not self._initialized:
            raise NvmlError("NVML_ERROR_UNINITIALIZED", "session is shut down")

    def _spend(self, kind: str = "query") -> None:
        self.machine.host.busy(self.call_costs.sample(self.machine.host.rng, kind))

    # ------------------------------------------------------------------
    def device_count(self) -> int:
        self._check()
        self._spend()
        return len(self.machine.devices)

    def device_get_handle_by_index(self, index: int) -> "NvmlDeviceHandle":
        self._check()
        self._spend()
        if not 0 <= index < len(self.machine.devices):
            raise NvmlError(
                "NVML_ERROR_INVALID_ARGUMENT", f"no device at index {index}"
            )
        return NvmlDeviceHandle(self, self.machine.devices[index])


class NvmlDeviceHandle:
    """Handle to one GPU, exposing the management calls the tool needs."""

    def __init__(self, session: NvmlSession, device: GpuDevice) -> None:
        self.session = session
        self.device = device

    # -- identity ------------------------------------------------------
    def name(self) -> str:
        self.session._check()
        self.session._spend()
        return self.device.spec.name

    def driver_version(self) -> str:
        self.session._check()
        self.session._spend()
        return self.device.spec.driver_version

    # -- clocks --------------------------------------------------------
    def supported_memory_clocks(self) -> tuple[float, ...]:
        """Memory P-state ladder, descending (NVML order)."""
        self.session._check()
        self.session._spend()
        return self.device.spec.supported_memory_clocks_mhz

    def supported_graphics_clocks(
        self, memory_clock_mhz: float | None = None
    ) -> tuple[float, ...]:
        """SM clock ladder for a memory clock, descending (NVML order)."""
        self.session._check()
        self.session._spend()
        spec = self.device.spec
        if memory_clock_mhz is not None:
            try:
                spec.validate_memory_clock(memory_clock_mhz)
            except ConfigError:
                raise NvmlError(
                    "NVML_ERROR_INVALID_ARGUMENT",
                    f"unsupported memory clock {memory_clock_mhz} MHz",
                ) from None
        return spec.supported_clocks_mhz

    def set_memory_locked_clocks(
        self, min_mhz: float, max_mhz: float
    ) -> TransitionRecord | None:
        """Lock the memory clock (``nvmlDeviceSetMemoryLockedClocks``)."""
        self.session._check()
        if min_mhz > max_mhz:
            raise NvmlError(
                "NVML_ERROR_INVALID_ARGUMENT",
                f"min {min_mhz} MHz exceeds max {max_mhz} MHz",
            )
        self.session._spend("set")
        return self.device.set_memory_locked_clocks(max_mhz)

    def reset_memory_locked_clocks(self) -> None:
        self.session._check()
        self.session._spend("set")
        self.device.reset_memory_locked_clocks()

    def set_gpu_locked_clocks(
        self, min_mhz: float, max_mhz: float
    ) -> TransitionRecord | None:
        """Lock the SM clock range (``nvmlDeviceSetGpuLockedClocks``).

        The methodology always locks a single frequency
        (``min == max``); the returned ground-truth record is simulator
        introspection unavailable on real hardware (may be ``None`` when
        the device is idle).
        """
        self.session._check()
        if min_mhz > max_mhz:
            raise NvmlError(
                "NVML_ERROR_INVALID_ARGUMENT",
                f"min {min_mhz} MHz exceeds max {max_mhz} MHz",
            )
        self.session._spend("set")
        return self.device.set_locked_clocks(max_mhz)

    def reset_gpu_locked_clocks(self) -> None:
        self.session._check()
        self.session._spend("set")
        self.device.reset_locked_clocks()

    def clock_info_sm_mhz(self) -> float:
        self.session._check()
        self.session._spend()
        return self.device.current_sm_clock_mhz()

    def clock_info_mem_mhz(self) -> float:
        self.session._check()
        self.session._spend()
        return self.device.current_memory_clock_mhz()

    # -- power limits --------------------------------------------------
    def supported_power_limits_w(self) -> tuple[float, ...]:
        """Settable power-limit ladder in watts, descending."""
        self.session._check()
        self.session._spend()
        return self.device.spec.supported_power_limits_w

    def set_power_limit(self, limit_w: float) -> TransitionRecord | None:
        """Set the board power limit
        (``nvmlDeviceSetPowerManagementLimit``).

        The returned ground-truth record is simulator introspection
        unavailable on real hardware; the new limit is enforced only after
        the power controller's re-target latency.
        """
        self.session._check()
        if limit_w <= 0:
            raise NvmlError(
                "NVML_ERROR_INVALID_ARGUMENT",
                f"power limit must be positive, got {limit_w} W",
            )
        self.session._spend("set")
        return self.device.set_power_limit(limit_w)

    def reset_power_limit(self) -> None:
        """Return the power limit to the TDP default."""
        self.session._check()
        self.session._spend("set")
        self.device.reset_power_limit()

    def power_limit_w(self) -> float:
        """Requested power limit (``nvmlDeviceGetPowerManagementLimit``)."""
        self.session._check()
        self.session._spend()
        return self.device.current_power_limit_w()

    def enforced_power_limit_w(self) -> float:
        """Limit currently enforced (``nvmlDeviceGetEnforcedPowerLimit``)."""
        self.session._check()
        self.session._spend()
        return self.device.enforced_power_limit_w()

    # -- sensors -------------------------------------------------------
    def current_clocks_throttle_reasons(self) -> ThrottleReasons:
        self.session._check()
        self.session._spend()
        return self.device.throttle_reasons()

    def temperature_c(self) -> float:
        self.session._check()
        self.session._spend()
        return self.device.temperature_c()

    def power_usage_w(self) -> float:
        self.session._check()
        self.session._spend()
        return self.device.power_usage_w()
