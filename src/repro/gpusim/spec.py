"""GPU hardware specifications (paper Table I).

A :class:`GpuSpec` carries everything the simulator and the NVML layer need:
the SM count, the supported SM clock ladder for the default memory clock,
the idle clock the device falls back to without load, and the device timer
granularity.  Since the core×memory extension it also carries the supported
*memory*-clock ladder: ``memory_frequency_mhz`` stays the reference (boot)
memory clock the paper's Table I reports, and ``memory_clocks_mhz`` lists
the lockable memory P-states (defaulting to just the reference clock).

The three concrete specs reproduce Table I of the paper:

=====================  ============  ==========  ==========
Model                  RTX Quadro    A100 SXM4   GH200
=====================  ============  ==========  ==========
Architecture           Turing        Ampere      Hopper
SM count               72            108         132
Memory clock [MHz]     7001          1215        2619
Max SM clock [MHz]     2100          1410        1980
Nominal SM clock       1440          1095        1980
Min SM clock [MHz]     300           210         345
SM clock steps         120           81          110
=====================  ============  ==========  ==========
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "GpuSpec",
    "snap_to_ladder",
    "RTX_QUADRO_6000",
    "A100_SXM4",
    "GH200",
    "GPU_MODELS",
    "lookup_spec",
]


def snap_to_ladder(ascending: tuple[float, ...], x: float) -> float:
    """The entry of an ascending ladder nearest to ``x``.

    Scalar twin of ``ladder[np.argmin(np.abs(ladder - x))]`` over the
    descending (NVML-ordered) ladder, result for result: ``argmin`` keeps
    the first minimum, i.e. the *largest* entry at the minimum distance.
    The float distances ``|c - x|`` never shrink moving away from ``x``
    on either side, so the entries at the minimum distance form runs next
    to the bisection point: the lower neighbour when it is strictly
    nearer, otherwise the top of the run that starts at the upper
    neighbour (longer than one entry only when ``x`` is so far off the
    ladder that the subtraction rounds the spacing away).  A NaN ``x``
    bisects past the top, as its all-NaN ``argmin`` picks index 0.
    """
    i = bisect_right(ascending, x)
    n = len(ascending)
    if i < n:
        d_up = abs(ascending[i] - x)
        if i == 0 or d_up <= abs(ascending[i - 1] - x):
            while i + 1 < n and abs(ascending[i + 1] - x) == d_up:
                i += 1
            return ascending[i]
    return ascending[i - 1]


@dataclass(frozen=True)
class GpuSpec:
    """Static description of a GPU model.

    Frequencies are in MHz to match NVML conventions; durations in seconds.
    """

    name: str
    architecture: str
    sm_count: int
    driver_version: str
    memory_frequency_mhz: float
    min_sm_frequency_mhz: float
    max_sm_frequency_mhz: float
    nominal_sm_frequency_mhz: float
    #: step count as reported in paper Table I (the generated ladder can
    #: differ by one entry: NVIDIA ladders are 15 MHz-stepped, and e.g. the
    #: RTX Quadro 6000's 300..2100 MHz span holds 121 steps while the paper
    #: reports 120)
    sm_frequency_steps: int
    idle_sm_frequency_mhz: float
    sm_frequency_step_mhz: float = 15.0
    timer_granularity_s: float = 1e-6
    # Thermal envelope
    tdp_watts: float = 300.0
    idle_power_watts: float = 45.0
    slowdown_temp_c: float = 86.0
    shutdown_temp_c: float = 95.0
    # Per-SM execution noise (fractional std-dev of per-iteration cycles)
    iteration_noise_rel: float = 0.002
    #: lockable memory clocks (P-states); empty means only the reference
    #: clock ``memory_frequency_mhz`` exists (the paper's fixed-memory setup)
    memory_clocks_mhz: tuple[float, ...] = ()
    #: settable board power limits in watts (``nvidia-smi -pl`` accepts a
    #: continuous range on real boards; campaigns sweep a discrete ladder
    #: of representative operating points).  Empty means only the TDP
    #: default exists and the power-cap measurement axis has nothing to
    #: sweep.
    power_limits_w: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.sm_count <= 0:
            raise ConfigError(f"{self.name}: sm_count must be positive")
        if not (
            self.min_sm_frequency_mhz
            <= self.nominal_sm_frequency_mhz
            <= self.max_sm_frequency_mhz
        ):
            raise ConfigError(f"{self.name}: inconsistent SM frequency range")
        if self.sm_frequency_steps < 2:
            raise ConfigError(f"{self.name}: need at least two frequency steps")
        if self.memory_frequency_mhz <= 0:
            raise ConfigError(f"{self.name}: memory clock must be positive")
        if any(f <= 0 for f in self.memory_clocks_mhz):
            raise ConfigError(f"{self.name}: memory ladder clocks must be positive")
        if any(w <= self.idle_power_watts for w in self.power_limits_w):
            # A limit at or below idle power inverts to a 0 MHz
            # sustainable clock — nothing could ever run under it (real
            # boards reject -pl values below their minimum for the same
            # reason).
            raise ConfigError(
                f"{self.name}: power limits must exceed the "
                f"{self.idle_power_watts:g} W idle power"
            )
        if any(w > self.tdp_watts for w in self.power_limits_w):
            raise ConfigError(
                f"{self.name}: power limits above the {self.tdp_watts:g} W "
                f"TDP are not settable"
            )

    @cached_property
    def supported_clocks_mhz(self) -> tuple[float, ...]:
        """The SM clock ladder, descending (NVML ordering).

        NVIDIA SM ladders step by 15 MHz; the ladder spans
        [min, max] inclusive, which reproduces every frequency appearing in
        the paper's heatmaps.  Cached: the DVFS layer consults the ladder
        on every locked-clocks request and ramp step.
        """
        ladder = np.arange(
            self.min_sm_frequency_mhz,
            self.max_sm_frequency_mhz + self.sm_frequency_step_mhz / 2,
            self.sm_frequency_step_mhz,
        )
        return tuple(float(f) for f in ladder[::-1])

    @cached_property
    def _clock_ladder_array(self) -> np.ndarray:
        return np.asarray(self.supported_clocks_mhz)

    @cached_property
    def _clock_ladder_ascending(self) -> tuple[float, ...]:
        return self.supported_clocks_mhz[::-1]

    def nearest_supported_clock(self, freq_mhz: float) -> float:
        """Snap ``freq_mhz`` to the closest ladder entry.

        The scalar twin of :meth:`nearest_supported_clocks`, by bisection
        (:func:`snap_to_ladder`): the DVFS layer snaps every locked-clocks
        request and ramp step.
        """
        return snap_to_ladder(self._clock_ladder_ascending, freq_mhz)

    def nearest_supported_clocks(self, freqs_mhz: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`nearest_supported_clock`.

        Tie-breaking: the first ladder entry (NVML order, descending) at
        minimum distance.
        """
        clocks = self._clock_ladder_array
        freqs_mhz = np.asarray(freqs_mhz, dtype=np.float64)
        idx = np.abs(clocks[None, :] - freqs_mhz[:, None]).argmin(axis=1)
        return clocks[idx]

    def validate_clock(self, freq_mhz: float, tolerance_mhz: float = 0.5) -> float:
        """Return the ladder entry matching ``freq_mhz`` or raise.

        NVML rejects locked-clock requests outside the supported list; the
        simulated driver does the same so that methodology code cannot
        silently request impossible configurations.
        """
        nearest = self.nearest_supported_clock(freq_mhz)
        if abs(nearest - freq_mhz) > tolerance_mhz:
            raise ConfigError(
                f"{self.name}: {freq_mhz} MHz is not a supported SM clock "
                f"(nearest: {nearest} MHz)"
            )
        return nearest

    # ------------------------------------------------------------------
    # memory-clock domain
    # ------------------------------------------------------------------
    @cached_property
    def supported_memory_clocks_mhz(self) -> tuple[float, ...]:
        """The memory clock ladder, descending (NVML ordering).

        Always contains the reference clock ``memory_frequency_mhz``; the
        other entries come from ``memory_clocks_mhz``.  Memory ladders are
        short, discrete P-state lists rather than 15 MHz staircases.
        """
        clocks = {float(self.memory_frequency_mhz)}
        clocks.update(float(f) for f in self.memory_clocks_mhz)
        return tuple(sorted(clocks, reverse=True))

    @cached_property
    def _memory_ladder_array(self) -> np.ndarray:
        return np.asarray(self.supported_memory_clocks_mhz)

    @cached_property
    def _memory_ladder_ascending(self) -> tuple[float, ...]:
        return self.supported_memory_clocks_mhz[::-1]

    def nearest_supported_memory_clock(self, freq_mhz: float) -> float:
        """Snap ``freq_mhz`` to the closest memory-ladder entry."""
        return snap_to_ladder(self._memory_ladder_ascending, freq_mhz)

    def nearest_supported_memory_clocks(self, freqs_mhz: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`nearest_supported_memory_clock`."""
        clocks = self._memory_ladder_array
        freqs_mhz = np.asarray(freqs_mhz, dtype=np.float64)
        idx = np.abs(clocks[None, :] - freqs_mhz[:, None]).argmin(axis=1)
        return clocks[idx]

    def validate_memory_clock(
        self, freq_mhz: float, tolerance_mhz: float = 0.5
    ) -> float:
        """Return the memory-ladder entry matching ``freq_mhz`` or raise."""
        nearest = self.nearest_supported_memory_clock(freq_mhz)
        if abs(nearest - freq_mhz) > tolerance_mhz:
            raise ConfigError(
                f"{self.name}: {freq_mhz} MHz is not a supported memory clock "
                f"(nearest: {nearest} MHz)"
            )
        return nearest

    # ------------------------------------------------------------------
    # power-limit domain
    # ------------------------------------------------------------------
    @cached_property
    def supported_power_limits_w(self) -> tuple[float, ...]:
        """The settable power-limit ladder in watts, descending.

        Always contains the TDP (the boot/default limit); the remaining
        entries come from ``power_limits_w``.  Like memory P-states these
        are a short discrete list of operating points, not a staircase.
        """
        limits = {float(self.tdp_watts)}
        limits.update(float(w) for w in self.power_limits_w)
        return tuple(sorted(limits, reverse=True))

    @cached_property
    def _power_ladder_array(self) -> np.ndarray:
        return np.asarray(self.supported_power_limits_w)

    @cached_property
    def _power_ladder_ascending(self) -> tuple[float, ...]:
        return self.supported_power_limits_w[::-1]

    def nearest_supported_power_limit(self, limit_w: float) -> float:
        """Snap ``limit_w`` to the closest power-ladder entry."""
        return snap_to_ladder(self._power_ladder_ascending, limit_w)

    def nearest_supported_power_limits(self, limits_w: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`nearest_supported_power_limit`."""
        limits = self._power_ladder_array
        limits_w = np.asarray(limits_w, dtype=np.float64)
        idx = np.abs(limits[None, :] - limits_w[:, None]).argmin(axis=1)
        return limits[idx]

    def validate_power_limit(
        self, limit_w: float, tolerance_w: float = 0.5
    ) -> float:
        """Return the power-ladder entry matching ``limit_w`` or raise."""
        nearest = self.nearest_supported_power_limit(limit_w)
        if abs(nearest - limit_w) > tolerance_w:
            raise ConfigError(
                f"{self.name}: {limit_w} W is not a supported power limit "
                f"(nearest: {nearest} W)"
            )
        return nearest


RTX_QUADRO_6000 = GpuSpec(
    name="RTX Quadro 6000",
    architecture="Turing",
    sm_count=72,
    driver_version="530.41.03",
    memory_frequency_mhz=7001.0,
    min_sm_frequency_mhz=300.0,
    max_sm_frequency_mhz=2100.0,
    nominal_sm_frequency_mhz=1440.0,
    sm_frequency_steps=120,
    idle_sm_frequency_mhz=300.0,
    tdp_watts=260.0,
    idle_power_watts=30.0,
    # GDDR6 exposes a real multi-entry memory ladder (nvidia-smi -q -d
    # SUPPORTED_CLOCKS on Turing Quadro parts).
    memory_clocks_mhz=(7001.0, 6251.0, 5001.0, 810.0, 405.0),
    # Representative -pl operating points within the board's settable
    # range; each entry below TDP caps the sustainable SM clock at a
    # distinct level, which is what the power-cap axis sweeps.
    power_limits_w=(260.0, 215.0, 175.0, 140.0),
)

A100_SXM4 = GpuSpec(
    name="A100 SXM-4",
    architecture="Ampere",
    sm_count=108,
    driver_version="550.54.15",
    memory_frequency_mhz=1215.0,
    min_sm_frequency_mhz=210.0,
    max_sm_frequency_mhz=1410.0,
    nominal_sm_frequency_mhz=1095.0,
    sm_frequency_steps=81,
    idle_sm_frequency_mhz=210.0,
    tdp_watts=400.0,
    idle_power_watts=55.0,
    # HBM2 boots locked at 1215 MHz; the lower entries model the reduced
    # P-states the 2-D core×memory campaigns sweep (paper Sec. VII names
    # the memory domain as the next measurement axis).
    memory_clocks_mhz=(1215.0, 810.0, 405.0),
    power_limits_w=(400.0, 330.0, 270.0, 220.0),
)

GH200 = GpuSpec(
    name="GH200",
    architecture="Hopper",
    sm_count=132,
    driver_version="545.23.08",
    memory_frequency_mhz=2619.0,
    min_sm_frequency_mhz=345.0,
    max_sm_frequency_mhz=1980.0,
    nominal_sm_frequency_mhz=1980.0,
    sm_frequency_steps=110,
    idle_sm_frequency_mhz=345.0,
    tdp_watts=700.0,
    idle_power_watts=75.0,
    memory_clocks_mhz=(2619.0, 1593.0, 810.0),
    power_limits_w=(700.0, 560.0, 450.0, 360.0),
)

GPU_MODELS: dict[str, GpuSpec] = {
    "rtx6000": RTX_QUADRO_6000,
    "rtx_quadro_6000": RTX_QUADRO_6000,
    "a100": A100_SXM4,
    "a100_sxm4": A100_SXM4,
    "gh200": GH200,
}


def lookup_spec(model: str) -> GpuSpec:
    """Resolve a user-facing model name to a :class:`GpuSpec`."""
    key = model.strip().lower().replace("-", "_").replace(" ", "_")
    try:
        return GPU_MODELS[key]
    except KeyError:
        raise ConfigError(
            f"unknown GPU model {model!r}; known: {sorted(set(GPU_MODELS))}"
        ) from None
