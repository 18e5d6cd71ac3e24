"""Simulated machine: one host CPU plus one or more GPUs on a shared timeline.

This is the top-level factory most users start from::

    from repro.machine import make_machine

    machine = make_machine("A100", seed=42)
    ctx = machine.cuda_context()          # CUDA-like runtime
    nvml = machine.nvml()                 # NVML-like management session
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.gpusim.device import GpuDevice
from repro.gpusim.spec import GpuSpec, lookup_spec
from repro.gpusim.thermal import ThermalModel
from repro.simtime.clock import VirtualClock
from repro.simtime.host import HostCpu, SleepModel

__all__ = ["Machine", "MachineBlueprint", "MachineCheckpoint", "make_machine"]


def _machine_rng(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    """Machine-stream generator: SFC64 behind the numpy Generator API.

    The simulator burns tens of millions of draws per campaign (iteration
    cycle matrices above all); SFC64 generates roughly twice as fast as the
    default PCG64 with ample statistical quality for a physical-noise
    model, and it seeds from the same :class:`~numpy.random.SeedSequence`
    streams, so blueprint replication and the exec engine's per-pair
    spawn-key derivation are unchanged.
    """
    return np.random.Generator(np.random.SFC64(seed_seq))


@dataclass(frozen=True)
class MachineCheckpoint:
    """A restorable snapshot of a machine's simulation state.

    One entry of the pass-block runner's RNG draw-order ledger
    (:mod:`repro.core.passblock`): taken at a pass boundary, it captures
    every piece of mutable state a speculative measurement pass can touch —
    the true clock, each generator's bit-generator state, hardware-timer
    monotonic guards, the DVFS event timeline, thermal bookkeeping.
    Restoring rewinds the machine to exactly the state an unspeculated run
    would be in, which is what makes speculative pass blocks safe to
    discard.  Checkpoints are cheap (list copies of event timelines plus a
    handful of scalars) and single-use by convention, though restoring one
    twice is supported.
    """

    clock_now: float
    host_rng_state: dict
    machine_rng_state: dict
    os_clock_last_read: float
    device_states: tuple


@dataclass(frozen=True)
class MachineBlueprint:
    """Everything needed to rebuild a :func:`make_machine` machine.

    The campaign execution engine ships blueprints to worker processes so
    each frequency-pair job can materialize an identical machine with its
    own deterministic random stream (a :class:`numpy.random.SeedSequence`
    derived from ``entropy``).  Machines constructed by hand (not via
    :func:`make_machine`) carry no blueprint and cannot be replicated.
    """

    gpu_model: GpuSpec
    n_gpus: int
    entropy: "int | None"
    #: spawn key of the master SeedSequence (non-empty when the machine
    #: was seeded with a spawned SeedSequence rather than a plain int)
    seed_spawn_key: tuple[int, ...]
    hostname: str
    thermal_enabled: bool
    ambient_c: float
    power_limit_w: float | None
    sleep_model: SleepModel | None
    unit_seeds: tuple[int, ...] | None
    start_time: float

    def build(
        self,
        seed: "int | np.random.SeedSequence | None" = None,
        start_time: float | None = None,
    ) -> "Machine":
        """Rebuild the machine, optionally with a derived seed/epoch.

        Without overrides this reproduces the original machine exactly
        (same streams, same start time).  Worker processes pass a spawned
        :class:`~numpy.random.SeedSequence` and the campaign epoch.
        """
        if seed is None:
            seed = np.random.SeedSequence(
                entropy=self.entropy, spawn_key=self.seed_spawn_key
            )
        return make_machine(
            self.gpu_model,
            n_gpus=self.n_gpus,
            seed=seed,
            hostname=self.hostname,
            thermal_enabled=self.thermal_enabled,
            ambient_c=self.ambient_c,
            power_limit_w=self.power_limit_w,
            sleep_model=self.sleep_model,
            unit_seeds=list(self.unit_seeds) if self.unit_seeds else None,
            start_time=self.start_time if start_time is None else start_time,
        )


@dataclass
class Machine:
    """A simulated node: true timeline, host CPU, and GPU devices."""

    clock: VirtualClock
    host: HostCpu
    devices: list[GpuDevice]
    hostname: str = "simnode01"
    rng: np.random.Generator = field(default_factory=np.random.default_rng)
    #: construction record for process-pool replication (None when the
    #: machine was assembled by hand)
    blueprint: MachineBlueprint | None = None

    def device(self, index: int = 0) -> GpuDevice:
        try:
            return self.devices[index]
        except IndexError:
            raise ConfigError(
                f"device index {index} out of range (machine has "
                f"{len(self.devices)} GPUs)"
            ) from None

    def cuda_context(self, device_index: int = 0):
        from repro.cuda.runtime import CudaContext

        return CudaContext(self.host, self.device(device_index))

    # ------------------------------------------------------------------
    # checkpoint / rollback (pass-block ledger support)
    # ------------------------------------------------------------------
    def checkpoint(self) -> MachineCheckpoint:
        """Snapshot all mutable simulation state (see MachineCheckpoint).

        Every device must be quiescent (no pending kernels): campaign code
        checkpoints at pass boundaries, right after ``synchronize()``.
        """
        return MachineCheckpoint(
            clock_now=self.clock.now,
            host_rng_state=self.host.rng.bit_generator.state,
            machine_rng_state=self.rng.bit_generator.state,
            os_clock_last_read=self.host.os_clock._last_read,
            device_states=tuple(d.snapshot_state() for d in self.devices),
        )

    def restore(self, cp: MachineCheckpoint) -> None:
        """Rewind the machine to a checkpoint taken earlier on it."""
        self.clock._restore(cp.clock_now)
        self.host.rng.bit_generator.state = cp.host_rng_state
        self.rng.bit_generator.state = cp.machine_rng_state
        self.host.os_clock._last_read = cp.os_clock_last_read
        for device, state in zip(self.devices, cp.device_states):
            device.restore_state(state)

    def nvml(self):
        from repro.nvml.api import NvmlSession

        return NvmlSession(self)


def make_machine(
    gpu_model: str | GpuSpec = "A100",
    n_gpus: int = 1,
    seed: "int | np.random.SeedSequence | None" = 0,
    hostname: str = "simnode01",
    thermal_enabled: bool = False,
    ambient_c: float = 30.0,
    power_limit_w: float | None = None,
    sleep_model: SleepModel | None = None,
    unit_seeds: list[int] | None = None,
    start_time: float = 0.0,
) -> Machine:
    """Build a simulated machine.

    Parameters
    ----------
    gpu_model:
        Model name (``"A100"``, ``"GH200"``, ``"RTX6000"``) or an explicit
        :class:`GpuSpec`.
    n_gpus:
        Number of identical GPUs (multi-GPU nodes, paper Sec. VII-C).
    seed:
        Master seed; every stochastic component derives from it.  A
        :class:`numpy.random.SeedSequence` may be passed directly (the
        execution engine derives per-pair sequences this way).
    thermal_enabled / ambient_c / power_limit_w:
        Thermal-model controls.  Disabled by default (the paper's
        front-row, thermally unconstrained configuration).
    unit_seeds:
        Per-device manufacturing serials.  Defaults to ``100 + index`` so
        each GPU on a node exhibits distinct unit-level variability.
    """
    if n_gpus < 1:
        raise ConfigError("machine needs at least one GPU")
    spec = gpu_model if isinstance(gpu_model, GpuSpec) else lookup_spec(gpu_model)
    master = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    host_ss, *gpu_ss = master.spawn(1 + n_gpus)

    clock = VirtualClock(start=start_time)
    host = HostCpu(
        clock,
        rng=_machine_rng(host_ss),
        sleep_model=sleep_model,
    )
    if unit_seeds is None:
        unit_seeds = [100 + i for i in range(n_gpus)]
    if len(unit_seeds) != n_gpus:
        raise ConfigError("unit_seeds length must match n_gpus")

    devices = []
    for i in range(n_gpus):
        thermal = ThermalModel(
            spec,
            ambient_c=ambient_c,
            power_limit_w=power_limit_w,
            enabled=thermal_enabled,
        )
        devices.append(
            GpuDevice(
                spec,
                clock,
                rng=_machine_rng(gpu_ss[i]),
                index=i,
                unit_seed=unit_seeds[i],
                thermal=thermal,
            )
        )
    blueprint = MachineBlueprint(
        gpu_model=spec,
        n_gpus=n_gpus,
        entropy=master.entropy,
        seed_spawn_key=tuple(master.spawn_key),
        hostname=hostname,
        thermal_enabled=thermal_enabled,
        ambient_c=ambient_c,
        power_limit_w=power_limit_w,
        sleep_model=sleep_model,
        unit_seeds=tuple(unit_seeds),
        start_time=start_time,
    )
    return Machine(
        clock=clock,
        host=host,
        devices=devices,
        hostname=hostname,
        rng=_machine_rng(master.spawn(1)[0]),
        blueprint=blueprint,
    )
