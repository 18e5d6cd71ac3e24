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
from repro.machine import MachineBlueprint

__all__ = [
    "CampaignPayload",
    "PairJob",
    "PairJobResult",
    "ProbeCostModel",
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
    initializer; the in-process path passes it by reference.  ``phase1``
    and ``probe`` are the legacy (or first-facet) inputs; core×memory
    campaigns additionally carry one phase-1/probe per memory clock.
    """

    blueprint: MachineBlueprint
    config: LatestConfig
    phase1: Phase1Result
    probe: ProbeInfo
    #: virtual time at which every pair machine starts (the driver clock
    #: right after phase 1 + probe) — common to all jobs so results do not
    #: depend on scheduling
    epoch: float
    #: per-facet phase-1 results of a faceted campaign, keyed by the facet
    #: coordinate (memory clock of a core×memory grid, locked SM clock of
    #: a multi-facet swept-axis sweep)
    phase1_by_memory: "dict | None" = None
    #: per-facet probe estimates of a faceted campaign
    probe_by_memory: "dict | None" = None

    def phase1_for(self, facet: float | None) -> Phase1Result:
        if facet is None or self.phase1_by_memory is None:
            return self.phase1
        return self.phase1_by_memory[facet]

    def probe_for(self, facet: float | None) -> ProbeInfo:
        if facet is None or self.probe_by_memory is None:
            return self.probe
        return self.probe_by_memory[facet]


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

    Derived from the resilience fields of
    :class:`~repro.core.config.LatestConfig`; shared by the in-process
    and process-pool dispatch paths.  ``timeout_factor`` maps a unit's
    expected *virtual* cost (probe-latency cost model) to a wall-clock
    deadline; ``None`` disables deadlines.  Retries are bounded: a unit
    that fails more than ``max_retries`` times is quarantined — its pairs
    become recorded skip reasons instead of aborting the campaign.
    """

    timeout_factor: float | None = None
    timeout_floor_s: float = 5.0
    max_retries: int = 2
    backoff_s: float = 0.25
    backoff_max_s: float = 10.0
    #: result-poll tick of the supervised collect loops (also bounds
    #: shutdown-signal latency)
    poll_s: float = 0.05

    @classmethod
    def from_config(cls, config: LatestConfig) -> "SupervisionPolicy":
        return cls(
            timeout_factor=config.job_timeout_factor,
            timeout_floor_s=config.job_timeout_floor_s,
            max_retries=config.max_job_retries,
            backoff_s=config.retry_backoff_s,
            backoff_max_s=config.retry_backoff_max_s,
        )

    def timeout_for(self, cost_virtual_s: float) -> float | None:
        """Wall-clock deadline for a unit of the given expected cost."""
        if self.timeout_factor is None:
            return None
        return self.timeout_floor_s + self.timeout_factor * max(
            cost_virtual_s, 0.0
        )

    def backoff_for(self, attempts: int) -> float:
        """Exponential backoff before re-dispatching a failed unit."""
        if attempts <= 0 or self.backoff_s <= 0:
            return 0.0
        return min(self.backoff_s * 2.0 ** (attempts - 1), self.backoff_max_s)


class ProbeCostModel:
    """Deterministic pair-cost estimates for straggler-aware dispatch.

    Longer switching latencies mean longer settle phases, larger windows
    after growth, and more virtual seconds per pass, so the probe
    latencies are the natural cost model.  An exact probe match wins;
    otherwise pairs sharing a probed target frequency are averaged
    (latency depends mostly on the target band); otherwise the probe
    median scaled by the relative frequency distance stands in.  Only the
    *ordering* matters — the merge is index-keyed, so dispatch order never
    affects results.  The probe lookup tables build once per campaign,
    not once per job, so sorting a dense pair grid stays O(P log P).

    ``fixed_pass_s`` folds the facet's per-pass fixed work — the delay
    and confirmation iterations at the facet's locked-SM iteration
    duration — into every estimate.  The probe latency alone is a fine
    *within*-facet ranking but a wrong *cross*-facet one: on the memory
    and power axes a slow locked-SM facet makes every pass longer
    regardless of its switching latency, so without the additive facet
    term a multi-facet sort interleaves facets by latency and starts the
    slow facet's pairs too late.
    """

    def __init__(
        self, probe: ProbeInfo | None, fixed_pass_s: float = 0.0
    ) -> None:
        self._probe = probe
        self._fixed_pass_s = float(fixed_pass_s)
        self._by_pair: dict[tuple[float, float], float] = {}
        self._by_target: dict[float, float] = {}
        self._span = 0.0
        if probe is not None and probe.pair_latencies:
            self._by_pair = {
                (i, t): lat for i, t, lat in probe.pair_latencies
            }
            targets: dict[float, list[float]] = {}
            for (i, t), lat in self._by_pair.items():
                targets.setdefault(t, []).append(lat)
                self._span = max(self._span, abs(t - i))
            self._by_target = {
                t: float(np.mean(lats)) for t, lats in targets.items()
            }

    def cost(self, init_mhz: float, target_mhz: float) -> float:
        if not self._by_pair:
            return abs(target_mhz - init_mhz) + self._fixed_pass_s
        exact = self._by_pair.get((init_mhz, target_mhz))
        if exact is not None:
            return exact + self._fixed_pass_s
        same_target = self._by_target.get(target_mhz)
        if same_target is not None:
            return same_target + self._fixed_pass_s
        distance = abs(target_mhz - init_mhz)
        scale = distance / self._span if self._span > 0 else 1.0
        return (
            self._probe.median_latency_s * (0.5 + scale) + self._fixed_pass_s
        )


