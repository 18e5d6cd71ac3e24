"""Job payloads shipped between the campaign driver and worker processes.

Everything here must stay picklable: payloads cross a process boundary
when the executor runs with ``workers > 1``.  The expensive shared inputs
— the campaign configuration, the machine blueprint, the phase-1
characterizations and the probe window estimate — travel **once per
worker process** inside a :class:`CampaignPayload` (via the pool
initializer), not once per job: a :class:`PairJob` is three numbers.  The
per-pair seed stream is derived inside the worker from the blueprint and
the pair index, so jobs carry no RNG state either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.campaign import ProbeInfo
from repro.core.config import LatestConfig
from repro.core.phase1 import Phase1Result
from repro.core.results import PairResult
from repro.errors import ConfigError
from repro.exec.faults import FaultPlan
from repro.machine import MachineBlueprint

__all__ = [
    "CampaignPayload",
    "PairJob",
    "PairJobResult",
    "SupervisionPolicy",
    "calibration_seed_sequence",
    "pair_seed_sequence",
]

#: spawn-key namespace for per-pair streams — far above the handful of
#: children ``make_machine`` spawns from the same root entropy, so pair
#: streams can never collide with the host/device/machine streams
_PAIR_STREAM_OFFSET = 0x5041_4952  # "PAIR"
#: spawn-key marker separating core×memory grid jobs from legacy pair jobs
_MEMORY_STREAM_OFFSET = 0x4D45_4D00  # "MEM\0"
#: spawn-key marker separating non-default measurement axes from the
#: (marker-free) legacy sm_core streams
_AXIS_STREAM_OFFSET = 0x4158_4953  # "AXIS"
#: spawn-key marker separating multi-facet (locked-SM) swept-axis jobs
#: from single-facet jobs of the same axis
_FACET_STREAM_OFFSET = 0x4641_4345  # "FACE"
#: spawn-key namespace of per-facet *calibration* streams (the replica
#: calibration scheme of multi-facet engine campaigns) — disjoint from
#: every pair-measurement stream by the leading marker
_CALIB_STREAM_OFFSET = 0x4341_4C42  # "CALB"


def calibration_seed_sequence(
    blueprint: MachineBlueprint,
    device_index: int,
    facet_index: int,
    axis: str = "sm_core",
) -> np.random.SeedSequence:
    """The deterministic seed stream of one facet's calibration replica.

    Multi-facet engine campaigns calibrate each facet (facet-clock
    preparation, phase 1, probe) on its own replica machine seeded from
    this stream — a pure function of the blueprint and the facet's grid
    position, independent of execution order and process boundaries, so
    parallel facet calibration is provably bit-identical to sequential
    and the result is content-addressable per facet
    (:mod:`repro.core.calibcache`).  The leading ``CALB`` marker keeps
    these streams disjoint from every :func:`pair_seed_sequence` stream.
    """
    from repro.core.axis import axis_stream_id

    key = blueprint.seed_spawn_key + (
        _CALIB_STREAM_OFFSET,
        device_index,
        axis_stream_id(axis),
        facet_index,
    )
    return np.random.SeedSequence(entropy=blueprint.entropy, spawn_key=key)


def pair_seed_sequence(
    blueprint: MachineBlueprint,
    device_index: int,
    pair_index: int,
    memory_index: int | None = None,
    axis: str = "sm_core",
    facet_index: int | None = None,
) -> np.random.SeedSequence:
    """The deterministic seed stream of one pair job.

    Derived from the campaign machine's root entropy (and spawn key, when
    the machine itself was seeded with a spawned sequence) plus the job's
    position in the campaign grid — independent of execution order, worker
    count, and process boundaries.  Legacy jobs (``memory_index=None``,
    default axis) keep the exact pre-extension spawn key; core×memory
    jobs add a marker and the memory-clock coordinate; non-default-axis
    jobs add the axis marker and the axis's registry id
    (:func:`repro.core.axis.axis_stream_id`), single-facet jobs keeping
    the exact PR-4 key and multi-facet jobs adding a facet marker plus
    the locked-SM facet's position — no stream of one kind can ever
    collide with another.
    """
    if axis != "sm_core":
        from repro.core.axis import axis_stream_id

        key = blueprint.seed_spawn_key + (
            _PAIR_STREAM_OFFSET,
            device_index,
            _AXIS_STREAM_OFFSET,
            axis_stream_id(axis),
        )
        if facet_index is not None:
            key += (_FACET_STREAM_OFFSET, facet_index)
        key += (pair_index,)
    elif memory_index is None:
        key = blueprint.seed_spawn_key + (
            _PAIR_STREAM_OFFSET, device_index, pair_index,
        )
    else:
        key = blueprint.seed_spawn_key + (
            _PAIR_STREAM_OFFSET,
            device_index,
            _MEMORY_STREAM_OFFSET,
            memory_index,
            pair_index,
        )
    return np.random.SeedSequence(entropy=blueprint.entropy, spawn_key=key)


@dataclass(frozen=True)
class CampaignPayload:
    """Per-campaign state shared by every pair job of one executor run.

    Shipped to each worker process exactly once through the pool
    initializer; the in-process path passes it by reference.
    """

    blueprint: MachineBlueprint
    config: LatestConfig
    #: phase-1 result of every prepared facet, keyed by the facet
    #: coordinate (memory clock of a core×memory grid, locked SM clock of
    #: a multi-facet swept-axis sweep, ``None`` for a single-facet
    #: campaign)
    phase1_by_facet: dict[float | None, Phase1Result]
    #: probe estimates of every prepared facet, keyed like
    #: ``phase1_by_facet``
    probe_by_facet: dict[float | None, ProbeInfo]
    #: virtual time at which every pair machine starts (the driver clock
    #: right after phase 1 + probe) — common to all jobs so results do not
    #: depend on scheduling
    epoch: float
    #: the campaign's fault-injection spec
    #: (:attr:`SupervisionPolicy.inject_faults`), which workers fire
    inject_faults: str | None = None


@dataclass(frozen=True)
class PairJob:
    """One grid point's measurement work order (intentionally tiny).

    ``index`` is the job's flat position in the campaign's facet-major
    grid (for legacy campaigns this equals the pair's position in
    ``config.pairs()``); the facet coordinate rides along so workers can
    lock the right P-state (``memory_mhz``, core×memory grids) or SM
    clock (``locked_sm_mhz``, multi-facet swept-axis sweeps) and derive
    the right seed stream, and ``axis`` names the swept clock domain the
    frequencies belong to.
    """

    index: int
    init_mhz: float
    target_mhz: float
    memory_mhz: float | None = None
    memory_index: int | None = None
    axis: str = "sm_core"
    locked_sm_mhz: float | None = None
    locked_sm_index: int | None = None
    #: supervision retry counter — NEVER part of the seed derivation, so
    #: a retried job reproduces its result bit for bit; fault-injection
    #: actions are attempt-gated on it (:mod:`repro.exec.faults`)
    attempt: int = 0

    @property
    def facet(self) -> float | None:
        """The job's facet coordinate, whichever kind it is."""
        return self.memory_mhz if self.memory_mhz is not None else self.locked_sm_mhz


@dataclass
class PairJobResult:
    """What a worker sends back for one pair."""

    index: int
    pair: PairResult
    #: virtual seconds the pair machine consumed (driver clock bookkeeping)
    elapsed_virtual_s: float


@dataclass(frozen=True)
class SupervisionPolicy:
    """Driver-side recovery policy for one campaign's job dispatch.

    The execution settings a campaign runs under and that no result
    depends on; shared by the in-process and process-pool dispatch
    paths.  ``job_timeout_s`` is the wall-clock deadline of one
    dispatched unit (``None`` disables deadlines); only the process-pool
    path can enforce it, so the engine dispatches every campaign with a
    deadline on the pool.  Retries are bounded: a unit that fails more
    than ``max_job_retries`` times is quarantined — its pairs become
    recorded skip reasons instead of aborting the campaign.
    """

    #: wall-clock seconds one pair job may run before it counts as hung
    #: and is retried on a rebuilt pool; ``None`` disables deadlines (the
    #: default — a pair's cost is set at run time by the RSE stopping
    #: rule, so opting in means sizing it to the host)
    job_timeout_s: float | None = None
    #: times a crashed/timed-out/transport-failed unit is retried before
    #: its pairs are quarantined; retries are bit-identical by the
    #: engine's determinism contract, so a transient fault loses nothing
    max_job_retries: int = 2
    #: exponential-backoff base between retries of the same unit
    #: (``base * 2**(attempt-1)``, capped), in real seconds
    retry_backoff_s: float = 0.25
    retry_backoff_max_s: float = 10.0
    #: deterministic fault-injection spec for the recovery test harness
    #: (:mod:`repro.exec.faults`); ``None`` (production) injects nothing
    inject_faults: str | None = None

    def __post_init__(self) -> None:
        if self.job_timeout_s is not None and not self.job_timeout_s > 0:
            raise ConfigError("job_timeout_s must be positive (or None)")
        if self.max_job_retries < 0:
            raise ConfigError("max_job_retries must be >= 0")
        if self.retry_backoff_s < 0 or self.retry_backoff_max_s < 0:
            raise ConfigError("retry backoff times must be >= 0")
        # Parse eagerly so a malformed spec fails when the policy is
        # built, not inside a worker process.
        FaultPlan.parse(self.inject_faults)

    def backoff_for(self, attempts: int) -> float:
        """Exponential backoff before re-dispatching a failed unit."""
        if attempts <= 0 or self.retry_backoff_s <= 0:
            return 0.0
        return min(
            self.retry_backoff_s * 2.0 ** (attempts - 1),
            self.retry_backoff_max_s,
        )
