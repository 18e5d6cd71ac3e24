"""The artificial iterative microbenchmark kernel.

Paper Sec. V: "a microbenchmark kernel consists of the same arithmetic
instruction repeated multiple times in each performed iteration", with
timestamp reads as the first and last instruction of every iteration, on
every SM.  The kernel keeps the device busy (so clocks hold their locked
frequency) while making per-iteration runtime a direct probe of the SM
clock.

``cycles_per_iteration`` controls the measurement granularity trade-off the
paper discusses: iterations must be as short as possible (they set the
resolution of the switching-latency estimate) yet long enough for runtime
differences between neighbouring frequencies to exceed timer quantization
and execution noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import ConfigError
from repro.gpusim.device import KernelLaunchSpec
from repro.gpusim.spec import GpuSpec

__all__ = ["MicrobenchmarkKernel"]


@dataclass(frozen=True)
class MicrobenchmarkKernel:
    """Launch-ready description of the artificial workload.

    Parameters
    ----------
    n_iterations:
        Timed iterations per SM.
    cycles_per_iteration:
        Mean SM cycles consumed by one iteration (the repeated arithmetic
        instruction block).
    sm_count:
        SMs to occupy/record; ``None`` = all SMs on the device.
    """

    n_iterations: int
    cycles_per_iteration: float
    sm_count: int | None = None
    label: str = "microbench"
    #: untimed workloads (fillers, warm-up load) whose per-iteration
    #: timestamps are never read; simulated at aggregate fidelity
    aggregate: bool = False
    #: memory-bound fraction of the iteration cycle budget; makes iteration
    #: time respond to the memory clock in core×memory campaigns (inert at
    #: the reference memory clock)
    memory_intensity: float = 0.30

    def __post_init__(self) -> None:
        if self.n_iterations <= 0:
            raise ConfigError("n_iterations must be positive")
        if self.cycles_per_iteration < 1000:
            raise ConfigError(
                "cycles_per_iteration below 1000 cycles cannot exceed timer "
                "granularity on any supported device"
            )
        if not 0.0 <= self.memory_intensity < 1.0:
            raise ConfigError("memory_intensity must be in [0, 1)")

    def launch_spec(self) -> KernelLaunchSpec:
        """The device-side launch description (built once per kernel)."""
        return self._launch_spec

    @cached_property
    def _launch_spec(self) -> KernelLaunchSpec:
        # cached_property writes straight into __dict__, past the frozen
        # dataclass guard; the memo is not a field (fingerprints and
        # equality ignore it).
        return KernelLaunchSpec(
            n_iterations=self.n_iterations,
            cycles_per_iteration=self.cycles_per_iteration,
            sm_count=self.sm_count,
            label=self.label,
            aggregate=self.aggregate,
            memory_intensity=self.memory_intensity,
        )

    def iteration_duration_s(self, freq_mhz: float) -> float:
        """Expected duration of one iteration at ``freq_mhz``."""
        return self.cycles_per_iteration / (freq_mhz * 1e6)

    def duration_s(self, freq_mhz: float) -> float:
        """Expected kernel duration at a constant ``freq_mhz``."""
        return self.n_iterations * self.iteration_duration_s(freq_mhz)

    @classmethod
    def sized_for(
        cls,
        spec: GpuSpec,
        iteration_duration_s: float = 60e-6,
        total_duration_s: float = 0.25,
        sm_count: int | None = None,
        label: str = "microbench",
        memory_intensity: float = 0.30,
    ) -> "MicrobenchmarkKernel":
        """Build a kernel with a given per-iteration duration at max clock.

        ``iteration_duration_s`` is evaluated at the device's maximum SM
        frequency, so iterations only get longer at lower clocks.
        """
        cycles = iteration_duration_s * spec.max_sm_frequency_mhz * 1e6
        n_iter = max(1, int(round(total_duration_s / iteration_duration_s)))
        return cls(
            n_iterations=n_iter,
            cycles_per_iteration=cycles,
            sm_count=sm_count,
            label=label,
            memory_intensity=memory_intensity,
        )

    def scaled(self, iteration_factor: float = 1.0, length_factor: float = 1.0):
        """A derived kernel with scaled iteration size and/or count.

        Implements the paper's fallback rules: grow the per-iteration
        workload when frequency pairs are statistically indistinguishable,
        or grow the iteration count tenfold when a switching latency was not
        captured within the benchmark window.
        """
        return MicrobenchmarkKernel(
            n_iterations=max(1, int(round(self.n_iterations * length_factor))),
            cycles_per_iteration=self.cycles_per_iteration * iteration_factor,
            sm_count=self.sm_count,
            label=self.label,
            memory_intensity=self.memory_intensity,
        )
