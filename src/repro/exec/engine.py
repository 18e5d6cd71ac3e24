"""The campaign executor: phase 1 once, pairs fanned out deterministically.

Execution model
---------------
Every facet of a campaign (the single implicit facet, each memory clock
of a core×memory grid, each locked SM clock of a facet sweep) is
calibrated — phase 1 + probe — on an independent replica machine
rebuilt from the blueprint with the facet's own
:func:`~repro.exec.jobs.calibration_seed_sequence` stream, making every
facet calibration a pure function of ``(blueprint, config, facet_index,
facet, start_time)`` — so cold campaigns dispatch them *in parallel*
across the process pool with results provably bit-identical to
sequential execution, and warm campaigns replay them from the
persistent calibration cache
(:mod:`repro.core.calibcache`, ``--calibration-cache DIR``) without a
single phase-1 or probe pass.  The driver clock then advances by each
facet's recorded calibration time in facet order, so the campaign epoch
(and with it every pair seed stream) is identical however the
calibrations were obtained.  Every valid grid point then
becomes a :class:`~repro.exec.jobs.PairJob`: a handful of numbers (flat
grid index, SM frequencies, and — for 2-D campaigns — the memory-clock
coordinate).  All heavy shared inputs — config, blueprint, per-facet
phase-1 statistics, probe window estimates, campaign epoch — travel once
per worker process as a :class:`~repro.exec.jobs.CampaignPayload` through
the pool initializer, never inside jobs.

Workers rebuild the machine from the blueprint (same GPU spec, same unit
seed, same thermal configuration) with a seed stream derived from the
pair index, and run the unchanged :func:`repro.core.campaign.measure_pair`
loop; the worker-side entry points and replica construction live in
:mod:`repro.exec.worker` (re-exported here), including the per-process
skeleton cache that amortizes replica construction cost across jobs.

Jobs are submitted in grid-index order and collected as they complete
(a pair's cost is set at run time by the RSE stopping rule, so there is
nothing to rank by in advance).  Results leave the executor as
**completion-order** :class:`~repro.core.stream.PairMeasured` events on
the campaign event stream (:mod:`repro.core.stream`), each carrying its
flat grid index; because jobs share no mutable state and every stream
consumer — the :class:`~repro.core.results.ResultAccumulator` that
assembles the :class:`CampaignResult`, the journal, incremental CSV
output — keys on that index, the result (per-pair measurements, outlier
labels, CSV bytes) is bit-identical for every worker count and
submission order; scheduling only changes wall-clock time.

``workers == 1`` (the default of :func:`run_campaign`, the one campaign
entry point) executes the jobs in-process (no pool, no pickling) but
through the same job pipeline, so it reproduces ``workers == N`` exactly.

Process pools use the ``fork`` start method where available (Linux) so
workers inherit the loaded modules; ``spawn`` elsewhere.

One driver
----------
:class:`CampaignExecutor` is the only code that opens a campaign's
journal, measures its pairs in-process and records them on the stream.
:meth:`~CampaignExecutor.run` walks the seam prepare → measure → record →
finish → close (:class:`PreparedCampaign`); the asyncio service
(:mod:`repro.service`) walks the same methods, measuring one shard per
:meth:`~CampaignExecutor.measure_units` call on a fleet thread and
recording each shard on its event loop.  Only the order in which units
run differs, and the result does not depend on it.

Fault tolerance
---------------
Dispatch is **supervised** (:class:`~repro.exec.jobs.SupervisionPolicy`,
with the generic retry/deadline/quarantine loops living in
:mod:`repro.exec.supervise`): a unit (one job) that crashes its
worker, times out against ``config.job_timeout_s``, or fails
result transport is retried on a rebuilt pool with exponential
backoff — announced as a :class:`~repro.core.stream.PairRetried` event —
and because replica seed streams derive only from grid indices, a retry
is *bit-identical* to an undisturbed run.  A unit that keeps failing past
``config.max_job_retries`` is quarantined: its pairs become recorded skip
reasons (the same skip machinery phase 1 uses) instead of aborting the
campaign.  With a journal attached
(:class:`~repro.core.journal.CampaignJournal`, subscribed as a
:class:`~repro.core.journal.JournalSink`), completed pairs are recorded
in batches of up to :data:`RECORD_BATCH` with one fsync per batch,
SIGINT/SIGTERM drain in-flight units and raise
:class:`~repro.errors.CampaignInterrupted`, and ``resume=True``
validates the campaign fingerprint, replays the journaled pairs as
synthetic stream events, and measures only the rest — reconstructing the
identical :class:`CampaignResult`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field

from repro.core.calibcache import (
    CalibrationCache,
    FacetCalibration,
    calibration_fingerprint,
)
from repro.core.campaign import facet_skip_reason
from repro.core.journal import (
    CampaignJournal,
    JournalSink,
    ShutdownGuard,
    campaign_fingerprint,
    campaign_synopsis,
    replay_events,
)
# Unused here since calibration moved to calibrate_facet; kept importable
# as an engine attribute because perfbench/spans.py and the warm-cache
# tests patch it by name.
from repro.core.phase1 import run_phase1  # noqa: F401
from repro.core.config import LatestConfig
from repro.core.context import BenchContext
from repro.core.csvio import write_campaign_csvs
from repro.core.results import CampaignResult, PairResult, ResultAccumulator
from repro.core.stream import (
    CampaignFinished,
    CampaignStarted,
    FacetPrepared,
    PairMeasured,
    PairRetried,
    PairSkipped,
    StreamDispatcher,
)
from repro.errors import CampaignInterrupted, ConfigError
from repro.exec.faults import FaultPlan
from repro.exec.jobs import (
    CampaignPayload,
    PairJob,
    PairJobResult,
    SupervisionPolicy,
)
from repro.exec.supervise import (
    mp_context,
    run_units_inprocess,
    run_units_pool,
)
from repro.exec.worker import (
    calibrate_facet,
    fire_worker_faults,
    run_pair_job,
    worker_calibrate,
    worker_init,
    worker_run_unit,
)
from repro.machine import Machine

__all__ = [
    "RECORD_BATCH",
    "CampaignExecutor",
    "PreparedCampaign",
    "fire_worker_faults",
    "mp_context",
    "run_campaign",
    "run_pair_job",
]

#: Landed results per :meth:`CampaignExecutor.record` call in engine
#: dispatch, hence per journal fsync.  A power loss costs at most one
#: batch of unsynced pairs (re-measured on resume).  At 32, the 552
#: pairs of perfbench's ``pair_sweep_durable`` take 18 fsyncs instead of
#: 552 and its ``journal`` layer falls from 0.24 to 0.02 s (seed 7, 2
#: CPUs), so a larger batch can save little; the durable path's rest is
#: file creation in the CSV sink, which no batch size changes.
RECORD_BATCH = 32


@dataclass
class PreparedCampaign:
    """Everything :meth:`CampaignExecutor.prepare` settles before dispatch.

    The carrier of the prepare → measure → record → finish seam:
    ``prepare`` opens the journal, builds the event stream, emits the
    campaign-start events, calibrates every facet, and plans the job
    grid.  A driver — the executor's own :meth:`~CampaignExecutor.run`
    or the asyncio service tier (:mod:`repro.service`) — then measures
    ``todo`` in whatever units and order it likes with
    :meth:`~CampaignExecutor.measure_units`, hands each landed batch to
    :meth:`~CampaignExecutor.record`, and calls
    :meth:`~CampaignExecutor.finish` and :meth:`~CampaignExecutor.close`.
    Because the clock advance in ``finish`` sums costs in grid-index
    order, the result is bit-identical for every dispatch interleaving.
    """

    #: per-worker shared inputs (blueprint, config, calibrations, epoch)
    payload: CampaignPayload
    #: every valid grid point, facet-major index order
    jobs: list
    #: planned driver-side skips, already emitted as ``PairSkipped``
    skips: list
    #: the jobs still to measure (``jobs`` minus journal replays)
    todo: list
    #: the campaign event stream (accumulator, journal, then extra sinks)
    dispatch: StreamDispatcher
    #: the stream sink that assembles the ``CampaignResult``
    accumulator: ResultAccumulator
    #: the open journal, closed by :meth:`CampaignExecutor.close`
    journal: "CampaignJournal | None" = None
    #: per-index virtual cost; prefilled with replayed pairs, grown by
    #: :meth:`CampaignExecutor.record`, summed in index order by ``finish``
    elapsed_by_index: dict = field(default_factory=dict)
    #: per-campaign replica-skeleton cache of the in-process runner
    #: (values are deterministic per key, so concurrent service shards
    #: at worst duplicate work)
    skeleton: dict = field(default_factory=dict)
    #: driver clock at campaign start (wall-virtual origin)
    t_begin: float = 0.0
    #: the campaign's locked-SM facet plan (``None`` when single-facet)
    sm_facets: tuple = None
    #: the driver-side bench context (axis observables for ``finish``)
    bench_driver: BenchContext = None
    #: journaled pairs replayed before live dispatch
    n_loaded: int = 0


class CampaignExecutor:
    """Deterministic (optionally parallel) campaign execution.

    Parameters
    ----------
    machine:
        Campaign machine built by :func:`repro.machine.make_machine` (it
        must carry a blueprint so workers can replicate it).
    config:
        Campaign configuration; CSV output (if any) is written by the
        driver after the merge.
    workers:
        Process count.  ``1`` runs the job pipeline in-process; any value
        produces the identical :class:`CampaignResult`.
    journal:
        Optional directory for a durable
        :class:`~repro.core.journal.CampaignJournal`.  Completed pairs
        are recorded in batches of up to :data:`RECORD_BATCH`, one fsync
        each; SIGINT/SIGTERM then drain in-flight work, record it and
        raise :class:`~repro.errors.CampaignInterrupted` instead of
        losing the campaign.
    resume:
        Reopen an existing journal (fingerprint-validated), replay its
        pairs, and measure only the rest.  The reconstructed
        :class:`CampaignResult` is bit-identical to an uninterrupted run.
    sinks:
        Extra :class:`~repro.core.stream.CampaignSink` consumers attached
        to the campaign event stream (:mod:`repro.core.stream`).  The
        engine emits ``PairMeasured`` events in *completion order*; each
        carries its flat grid index, so index-keyed sinks reorder
        deterministically (the result accumulator and the journal both
        do).
    """

    def __init__(
        self,
        machine: Machine,
        config: LatestConfig,
        workers: int = 1,
        journal: "str | None" = None,
        resume: bool = False,
        sinks=(),
    ) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if machine.blueprint is None:
            raise ConfigError(
                "campaign executor needs a machine built by make_machine() "
                "(hand-assembled machines carry no replication blueprint)"
            )
        if resume and journal is None:
            raise ConfigError(
                "resume=True needs the journal directory of the "
                "interrupted campaign (--journal DIR --resume)"
            )
        self.machine = machine
        self.config = config
        self.workers = workers
        self.journal_dir = None if journal is None else str(journal)
        self.resume = bool(resume)
        self.sinks = tuple(sinks)

    # ------------------------------------------------------------------
    def _build_jobs(
        self, phase1_by_facet: dict
    ) -> tuple[list[PairJob], list[tuple[int, PairResult]]]:
        """Valid grid points become jobs; the rest become planned skips.

        Job indices are flat positions in the facet-major campaign grid
        (``config.facet_plan()`` × ``config.pairs()``), which for legacy
        campaigns reduces to the pair's position in ``config.pairs()`` —
        the seed-stream contract of PR 1 is untouched.  Skips come back
        as ``(index, PairResult)`` in grid order, ready to emit as
        :class:`~repro.core.stream.PairSkipped` events.
        """
        axis = self.config.swept_axis()
        facet_plan = self.config.facet_plan()
        grid = self.config.memory_frequencies is not None
        sm_pairs = self.config.pairs()

        jobs: list[PairJob] = []
        skips: list[tuple[int, PairResult]] = []
        for facet_index, facet in enumerate(facet_plan):
            phase1 = phase1_by_facet.get(facet)
            valid = set(phase1.valid_pairs) if phase1 is not None else set()
            sm_facet = None if grid or facet is None else float(facet)
            for pair_index, (init, target) in enumerate(sm_pairs):
                sm_key = (float(init), float(target))
                index = facet_index * len(sm_pairs) + pair_index
                reason = facet_skip_reason(
                    phase1, sm_key, valid, axis.facet_fail_reason
                )
                if reason is not None:
                    skips.append(
                        (
                            index,
                            PairResult(
                                init_mhz=sm_key[0],
                                target_mhz=sm_key[1],
                                skipped=True,
                                skip_reason=reason,
                                memory_mhz=facet if grid else None,
                                locked_sm_mhz=sm_facet,
                                axis=axis.name,
                            ),
                        )
                    )
                    continue
                jobs.append(
                    PairJob(
                        index=index,
                        init_mhz=sm_key[0],
                        target_mhz=sm_key[1],
                        memory_mhz=facet if grid else None,
                        memory_index=facet_index if grid else None,
                        axis=axis.name,
                        locked_sm_mhz=sm_facet,
                        locked_sm_index=(
                            None if sm_facet is None else facet_index
                        ),
                    )
                )
        return jobs, skips

    def _run_facet_calibrations(
        self, todo: list, t_begin: float
    ) -> list[FacetCalibration]:
        """Run replica calibrations, in parallel when possible.

        Each entry of ``todo`` is ``(facet_index, facet)``.  Because every
        replica calibration is a pure function of its arguments, the two
        dispatch paths — in-process loop and per-campaign process pool —
        are interchangeable: results are bit-identical, only wall-clock
        time differs.
        """
        if not todo:
            return []
        blueprint = self.machine.blueprint
        args = [
            (blueprint, self.config, i, facet, t_begin) for i, facet in todo
        ]
        if self.workers == 1 or len(args) <= 1:
            return [calibrate_facet(*a) for a in args]
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(args)),
            mp_context=mp_context(),
        ) as pool:
            return list(pool.map(worker_calibrate, args))

    def _calibrate_facets(
        self, dispatch: StreamDispatcher
    ) -> tuple[dict, dict]:
        """Calibrate every facet and emit its ``FacetPrepared`` event.

        Each facet calibrates on its own replica machine (see the module
        docs), in parallel when workers allow.  When the config names a
        calibration cache, each facet's calibration is first looked up
        by its content fingerprint — which includes the calibration start
        time, so a reused machine mid-timeline simply keys differently —
        and, on a miss, installed after measuring.  The driver clock then
        advances by every facet's recorded calibration time in facet
        order, so the campaign epoch — and every result byte — is the
        same whether the calibrations ran sequentially, in parallel, or
        came from the cache.

        Returns ``(phase1_by_facet, probe_by_facet)``.
        """
        machine, config = self.machine, self.config
        facet_plan = config.facet_plan()
        t_begin = machine.clock.now
        cache = None
        if config.calibration_cache is not None:
            cache = CalibrationCache(config.calibration_cache)
        keys: dict[int, str] = {}
        calibrations: dict[int, FacetCalibration] = {}
        hits: set[int] = set()
        if cache is not None:
            for facet_index, facet in enumerate(facet_plan):
                keys[facet_index] = calibration_fingerprint(
                    config, machine.blueprint, facet_index, facet, t_begin
                )
                entry = cache.get(keys[facet_index])
                if entry is not None:
                    calibrations[facet_index] = entry
                    hits.add(facet_index)
        todo = [
            (i, facet)
            for i, facet in enumerate(facet_plan)
            if i not in calibrations
        ]
        for cal in self._run_facet_calibrations(todo, t_begin):
            calibrations[cal.facet_index] = cal
            if cache is not None:
                cache.install(keys[cal.facet_index], cal)
        for facet_index in range(len(facet_plan)):
            machine.clock.advance(calibrations[facet_index].elapsed_virtual_s)
        phase1_by_facet: dict = {}
        probe_by_facet: dict = {}
        for facet_index, facet in enumerate(facet_plan):
            cal = calibrations[facet_index]
            if not cal.prepared:
                dispatch.emit(
                    FacetPrepared(
                        facet_index=facet_index,
                        facet=facet,
                        prepared=False,
                        cache_hit=facet_index in hits,
                    )
                )
                continue
            phase1_by_facet[facet] = cal.phase1
            probe_by_facet[facet] = cal.probe
            dispatch.emit(
                FacetPrepared(
                    facet_index=facet_index,
                    facet=facet,
                    prepared=True,
                    phase1=cal.phase1,
                    probe=cal.probe,
                    cache_hit=facet_index in hits,
                )
            )
        return phase1_by_facet, probe_by_facet

    # ------------------------------------------------------------------
    def run(self) -> CampaignResult:
        """Run the whole campaign: prepare, measure, finish, close."""
        prep = self.prepare()
        try:
            self._execute(prep)
            return self.finish(prep)
        finally:
            self.close(prep)

    def prepare(self) -> PreparedCampaign:
        """Open the journal and stream, calibrate, plan, replay.

        The first stage of the seam (see :class:`PreparedCampaign`):
        opens the executor's journal (fingerprint-validated and loaded on
        ``resume``), builds the event stream — the result accumulator,
        the journal sink, then :attr:`sinks` — emits ``CampaignStarted``,
        runs the per-facet calibrations (``FacetPrepared``), plans the
        job grid (``PairSkipped`` for planned skips), replays journaled
        pairs as synthetic events, and returns the carrier with the
        ``todo`` jobs a driver measures.  The journal is closed again if
        any of this raises.
        """
        machine, config = self.machine, self.config
        journal: CampaignJournal | None = None
        if self.journal_dir is not None:
            journal = CampaignJournal.open(
                self.journal_dir,
                campaign_fingerprint(config, machine.blueprint),
                resume=self.resume,
                synopsis=campaign_synopsis(config, machine.blueprint),
            )
        try:
            return self._plan(journal)
        except BaseException:
            if journal is not None:
                journal.close()
            raise

    def _plan(self, journal: "CampaignJournal | None") -> PreparedCampaign:
        """:meth:`prepare` after the journal is open."""
        loaded = journal.load() if self.resume else {}
        accumulator = ResultAccumulator()
        dispatch = StreamDispatcher(
            accumulator,
            JournalSink(journal) if journal is not None else None,
            *self.sinks,
        )
        machine, config = self.machine, self.config
        t_begin = machine.clock.now
        facet_plan = config.facet_plan()
        sm_facets = config.locked_sm_plan()

        bench_driver = BenchContext(machine, config)
        dispatch.emit(
            CampaignStarted(
                gpu_name=bench_driver.device.spec.name,
                architecture=bench_driver.device.spec.architecture,
                hostname=machine.hostname,
                device_index=config.device_index,
                frequencies=config.frequencies,
                axis=config.axis,
                facet_plan=facet_plan,
                n_pairs=len(config.pairs()),
                memory_frequencies=config.memory_frequencies,
                locked_sm_frequencies=sm_facets,
                resumed=bool(loaded),
            )
        )

        phase1_by_facet, probe_by_facet = self._calibrate_facets(dispatch)
        payload = CampaignPayload(
            blueprint=machine.blueprint,
            config=config,
            phase1_by_facet=phase1_by_facet,
            probe_by_facet=probe_by_facet,
            epoch=machine.clock.now,
        )

        jobs, skips = self._build_jobs(phase1_by_facet)
        for index, pair in skips:
            dispatch.emit(PairSkipped(index=index, pair=pair))
        # Resume: journaled pairs replay as synthetic events before any
        # live measurement (their results are the only ones those grid
        # indices can ever produce — see the journal module docs); only
        # the remainder is dispatched.
        dispatch.emit_all(replay_events(loaded))
        todo = (
            jobs
            if not loaded
            else [job for job in jobs if job.index not in loaded]
        )
        # Per-index virtual cost, summed in index order by finish() so
        # the driver clock advance is bit-identical at any completion
        # order.  Prefilled with the replayed pairs.
        elapsed_by_index: dict[int, float] = {
            index: elapsed for index, (_, elapsed) in loaded.items()
        }
        return PreparedCampaign(
            payload=payload,
            jobs=jobs,
            skips=skips,
            todo=todo,
            dispatch=dispatch,
            accumulator=accumulator,
            journal=journal,
            elapsed_by_index=elapsed_by_index,
            t_begin=t_begin,
            sm_facets=sm_facets,
            bench_driver=bench_driver,
            n_loaded=len(loaded),
        )

    def _execute(self, prep: PreparedCampaign) -> None:
        """Measure ``prep.todo`` as supervised one-job units and record them.

        Units run in process when ``workers == 1`` (or there is at most
        one job), and on a process pool otherwise.  A job deadline
        always takes the pool, a one-process pool at ``workers == 1``,
        since only a pool worker can be killed when it hangs.

        Landed results are recorded in batches of up to
        :data:`RECORD_BATCH`, one journal fsync each.  The open batch is
        recorded before a ``PairRetried`` event and when dispatch ends,
        so the event order is the landing order and an interrupt or an
        error leaves every landed result in the journal.  With a journal
        or injected faults the dispatch loops drain gracefully once
        SIGINT/SIGTERM arrives, and the early return becomes
        :class:`~repro.errors.CampaignInterrupted`.
        """
        jobs = prep.todo
        driver_plan = FaultPlan.parse(self.config.inject_faults)
        merged_count = prep.n_loaded
        batch: list[PairJobResult] = []

        def flush() -> None:
            if batch:
                results = batch[:]
                batch.clear()
                self.record(prep, results)

        def on_result(unit_results) -> None:
            nonlocal merged_count
            for res in unit_results:
                batch.append(res)
                if len(batch) >= RECORD_BATCH:
                    flush()
                merged_count += 1
                if driver_plan is not None:
                    driver_plan.fire_driver(merged_count)

        def on_retry(*retry) -> None:
            flush()
            self.record(prep, (), (retry,))

        guard = (
            ShutdownGuard()
            if prep.journal is not None or driver_plan is not None
            else None
        )
        with ExitStack() as stack:
            stack.callback(flush)
            if guard is not None:
                stack.enter_context(guard)
            if self.config.job_timeout_s is None and (
                self.workers == 1 or len(jobs) <= 1
            ):
                self.measure_units(
                    prep, [[job] for job in jobs], guard, on_result, on_retry
                )
            else:
                run_units_pool(
                    [[job] for job in jobs],
                    SupervisionPolicy.from_config(self.config),
                    guard,
                    on_result,
                    workers=self.workers,
                    fn=worker_run_unit,
                    initializer=worker_init,
                    initargs=(prep.payload,),
                    on_retry=on_retry,
                )
        if guard is not None and guard.requested:
            prep.dispatch.interrupt()
            hint = (
                f"journal at {self.journal_dir} holds every finished pair; "
                "rerun with --resume to continue"
                if prep.journal is not None
                else "no journal attached, partial results were discarded"
            )
            raise CampaignInterrupted(
                f"campaign interrupted after {merged_count} of "
                f"{len(prep.jobs)} measured pairs; {hint}",
                journal_dir=self.journal_dir,
            )

    def measure_units(
        self,
        prep: PreparedCampaign,
        units,
        guard: ShutdownGuard | None = None,
        on_result=None,
        on_retry=None,
    ) -> list[PairJobResult]:
        """Measure job units in this process under supervision.

        The one in-process runner: each unit (a list of jobs) fires its
        injected worker faults, then measures every job on a blueprint
        replica through the campaign's skeleton cache; retries and
        quarantine follow ``config``'s supervision policy.  ``on_result``
        fires as each unit lands and ``on_retry(unit, attempt, cause)``
        before each re-dispatch; pass what they report to :meth:`record`.
        ``run`` passes one-job units; the service passes one shard per
        call from a fleet thread.
        """
        payload, skeleton = prep.payload, prep.skeleton

        def measure(unit_jobs):
            fire_worker_faults(unit_jobs, payload, in_process=True)
            return [run_pair_job(job, payload, skeleton) for job in unit_jobs]

        return run_units_inprocess(
            units,
            SupervisionPolicy.from_config(self.config),
            guard,
            on_result if on_result is not None else (lambda results: None),
            measure,
            on_retry=on_retry,
        )

    def record(self, prep: PreparedCampaign, results, retries=()) -> None:
        """Emit landed work on the campaign stream (the one place).

        ``retries`` holds ``(unit, attempt, cause)`` triples as
        :meth:`measure_units` reports them; each becomes a
        ``PairRetried`` event, all before the ``PairMeasured`` event of
        each result, whose virtual cost lands in ``prep.elapsed_by_index``.
        One call is one durable group
        (:meth:`~repro.core.stream.StreamDispatcher.emit_group`): the
        journal fsyncs once, and the sinks after it see the call's
        events only then.
        """
        events = [
            PairRetried(
                indices=tuple(job.index for job in unit),
                attempt=attempt,
                cause=cause,
            )
            for unit, attempt, cause in retries
        ]
        for res in results:
            prep.elapsed_by_index[res.index] = res.elapsed_virtual_s
            events.append(
                PairMeasured(
                    index=res.index,
                    pair=res.pair,
                    elapsed_virtual_s=res.elapsed_virtual_s,
                )
            )
        prep.dispatch.emit_group(events)

    def finish(self, prep: PreparedCampaign) -> CampaignResult:
        """Close the timeline and assemble the result (last seam stage).

        Sums every measured pair's virtual cost in grid-index order,
        advances the driver clock once, emits ``CampaignFinished``, and
        assembles the :class:`CampaignResult` from the accumulator —
        writing CSVs when the config asks for them.
        """
        machine, config = self.machine, self.config
        total_elapsed = 0.0
        for index in sorted(prep.elapsed_by_index):
            total_elapsed += prep.elapsed_by_index[index]
        if total_elapsed > 0.0:
            machine.clock.advance(total_elapsed)

        prep.dispatch.emit(
            CampaignFinished(
                wall_virtual_s=machine.clock.now - prep.t_begin,
                locked_sm_mhz=(
                    None
                    if prep.sm_facets is not None
                    else config.swept_axis().locked_complement_mhz(
                        prep.bench_driver
                    )
                ),
            )
        )
        result = prep.accumulator.result()
        if config.output_dir is not None:
            write_campaign_csvs(config.output_dir, result)
        return result

    def close(self, prep: PreparedCampaign) -> None:
        """Release the campaign's journal (safe after any stage)."""
        if prep.journal is not None:
            prep.journal.close()


def run_campaign(
    machine: Machine,
    config: LatestConfig,
    workers: int = 1,
    journal: "str | None" = None,
    resume: bool = False,
    sinks=(),
) -> CampaignResult:
    """Run a campaign through the execution engine (see module docs).

    Pairs are measured on per-pair replica machines with deterministic
    seed streams, so the result is identical for every worker count
    (1, 4, ...); ``workers=1`` runs in-process.  The per-pair inner loop
    runs in speculated pass blocks (:mod:`repro.core.passblock`).  With
    ``config.memory_frequencies`` set, the campaign sweeps the full
    core×memory grid: the SM pair grid is re-characterized and measured
    once per locked memory clock.

    ``journal`` names a directory for a durable
    :class:`~repro.core.journal.CampaignJournal`; completed pairs are
    recorded in batches of up to :data:`RECORD_BATCH`, one fsync each,
    and SIGINT/SIGTERM become a graceful, resumable stop.  ``resume=True`` continues an interrupted campaign
    bit-identically.  ``sinks`` attaches extra consumers to the campaign
    event stream (:mod:`repro.core.stream`) — progress reporting,
    incremental CSV output, service feeds.
    """
    return CampaignExecutor(
        machine,
        config,
        workers=workers,
        journal=journal,
        resume=resume,
        sinks=sinks,
    ).run()
