"""Worker-side measurement entry points and replica construction.

Everything in this module runs (or can run) inside a worker process:
the pool initializer installs the shared :class:`CampaignPayload` once
per process, the ``worker_*`` entry points measure a dispatch unit or
calibrate a facet, and :func:`run_pair_job` reconstructs a job's
machine from the campaign blueprint with its deterministic per-pair
seed stream before measuring it.  The
driver-side orchestration (job building, supervision wiring, stream
emission) lives in :mod:`repro.exec.engine`; keeping the worker side
separate means the code a pool initializer must import carries no
dispatch-loop baggage.

A per-process *skeleton cache* keeps the deterministic, immutable parts
of the machine build — the per-pair latency-model structures — alive
across jobs, so replica construction cost is paid once per
(architecture, unit seed) rather than once per job.  Sharing the cache
never changes results, only construction cost.
"""

from __future__ import annotations

from repro.core.calibcache import FacetCalibration
from repro.core.campaign import measure_pair, probe_windows
from repro.core.context import BenchContext
from repro.core.phase1 import run_phase1
from repro.core.results import PairResult
from repro.exec.faults import fault_plan
from repro.exec.jobs import (
    CampaignPayload,
    PairJob,
    PairJobResult,
    calibration_seed_sequence,
    pair_seed_sequence,
)
from repro.machine import MachineBlueprint

__all__ = [
    "calibrate_facet",
    "fire_worker_faults",
    "run_pair_job",
    "worker_calibrate",
    "worker_init",
    "worker_run_unit",
]


#: per-process shared state installed by the pool initializer
_WORKER_PAYLOAD: CampaignPayload | None = None
#: per-process skeleton cache: (architecture, unit_seed) -> pair-model dict
_WORKER_SKELETON: dict = {}


def worker_init(payload: CampaignPayload) -> None:
    global _WORKER_PAYLOAD
    _WORKER_PAYLOAD = payload
    _WORKER_SKELETON.clear()


def fire_worker_faults(jobs, payload, in_process: bool = False) -> None:
    """Trigger any injected worker faults gating this unit's jobs.

    Lives outside :func:`run_pair_job` so the measurement entry point
    stays pure; every dispatch front-end (pool worker, in-process runner)
    calls it right before measuring.  ``in_process=True`` downgrades
    ``kill`` to an exception — the in-process runner shares the driver
    process, and a fault harness must never take down the campaign
    driver itself.
    """
    plan = fault_plan(payload.inject_faults)
    if plan is None:
        return
    for job in jobs:
        plan.fire_worker(job, in_process=in_process)


def worker_run_unit(jobs: list[PairJob]) -> list[PairJobResult]:
    """Pool unit entry point: each job measured independently."""
    assert _WORKER_PAYLOAD is not None, "pool initializer did not run"
    fire_worker_faults(jobs, _WORKER_PAYLOAD)
    return [
        run_pair_job(job, _WORKER_PAYLOAD, _WORKER_SKELETON) for job in jobs
    ]


def calibrate_facet(
    blueprint: MachineBlueprint,
    config,
    facet_index: int,
    facet: float | None,
    start_time: float,
) -> FacetCalibration:
    """Run one facet's calibration on an independent replica machine.

    How every engine campaign calibrates each facet: the machine is
    rebuilt from the blueprint with the facet's own
    :func:`~repro.exec.jobs.calibration_seed_sequence` stream, booted at
    the campaign's start time, and runs facet-clock preparation, phase 1
    and the probe — a pure function of
    ``(blueprint, config, facet_index, facet, start_time)``, so parallel
    dispatch, sequential execution, and cache replay are all
    bit-identical.
    """
    seed = calibration_seed_sequence(
        blueprint, config.device_index, facet_index, config.axis
    )
    machine = blueprint.build(seed=seed, start_time=start_time)
    bench = BenchContext(machine, config)
    t0 = machine.clock.now
    if not bench.prepare_facet_clock(facet):
        return FacetCalibration(
            facet_index=facet_index,
            facet=facet,
            prepared=False,
            phase1=None,
            probe=None,
            elapsed_virtual_s=machine.clock.now - t0,
        )
    phase1 = run_phase1(bench)
    probe = probe_windows(bench, phase1) if phase1.valid_pairs else None
    return FacetCalibration(
        facet_index=facet_index,
        facet=facet,
        prepared=True,
        phase1=phase1,
        probe=probe,
        elapsed_virtual_s=machine.clock.now - t0,
    )


def worker_calibrate(args: tuple) -> FacetCalibration:
    """Process-pool entry point for :func:`calibrate_facet`.

    ``args`` is the ``(blueprint, config, facet_index, facet,
    start_time)`` tuple — calibration dispatch ships its few jobs whole
    rather than through a pool initializer (a campaign has facets in the
    units, not the thousands).
    """
    return calibrate_facet(*args)


def run_pair_job(
    job: PairJob,
    payload: CampaignPayload,
    skeleton: dict | None = None,
) -> PairJobResult:
    """Execute one pair job on a replica machine.

    ``skeleton`` (optional) is a process-lifetime cache of deterministic
    machine-build products shared across jobs; passing it never changes
    results, only replica construction cost.  Core×memory jobs lock and
    settle their memory P-state before measuring, against the phase-1
    characterization taken at that same clock.
    """
    seed = pair_seed_sequence(
        payload.blueprint,
        payload.config.device_index,
        job.index,
        job.memory_index,
        job.axis,
        facet_index=job.locked_sm_index,
    )
    machine = payload.blueprint.build(seed=seed, start_time=payload.epoch)
    if skeleton is not None:
        for device in machine.devices:
            key = (device.spec.architecture, device.unit_seed)
            device.latency_model.use_shared_cache(
                skeleton.setdefault(key, {})
            )
            # Memory pair models live in their own cache: SM and memory
            # pairs can share numerically identical frequency keys.
            device.mem_latency_model.use_shared_cache(
                skeleton.setdefault(key + ("memory",), {})
            )
    bench = BenchContext(machine, payload.config)
    t0 = machine.clock.now
    # The facet clock first: the locked memory P-state of a grid job, or
    # the locked SM clock of a memory-/power-axis job (a fresh replica
    # machine boots unlocked, so every worker must restore the campaign
    # facet).
    if not bench.prepare_facet_clock(job.facet):
        pair = PairResult(
            init_mhz=float(job.init_mhz),
            target_mhz=float(job.target_mhz),
            skipped=True,
            skip_reason=bench.axis.facet_fail_reason,
            axis=job.axis,
        )
    else:
        pair = measure_pair(
            bench,
            job.init_mhz,
            job.target_mhz,
            payload.phase1_by_facet[job.facet],
            payload.probe_by_facet[job.facet],
        )
    pair.memory_mhz = job.memory_mhz
    pair.locked_sm_mhz = job.locked_sm_mhz
    return PairJobResult(
        index=job.index,
        pair=pair,
        elapsed_virtual_s=machine.clock.now - t0,
    )
