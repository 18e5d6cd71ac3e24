"""Supervised dispatch rounds shared by the engine's execution tiers.

The machinery that makes campaign dispatch fault-tolerant lives here,
decoupled from both the measurement entry points and any particular
transport: per-unit bookkeeping (:class:`UnitState`), retry/backoff/
quarantine decisions against a :class:`~repro.exec.jobs.SupervisionPolicy`,
deadline enforcement, and the two generic dispatch loops —
:func:`run_units_inprocess` (shares the driver process) and
:func:`run_units_pool` (per-round ``ProcessPoolExecutor``) — which
converge on identical retry and quarantine behavior.

The loops are transport-generic by injection: the caller
(:class:`~repro.exec.engine.CampaignExecutor`) passes the measurement
callables (``measure`` in-process; ``fn``/``initializer`` for pool
workers, both from :mod:`repro.exec.worker`), so this module never
imports the engine or the worker entry points.

Supervision is observable through the campaign event stream: the
``on_retry`` hook (wired to :class:`~repro.core.stream.PairRetried` by
the executor) fires whenever a failed unit is about to be re-dispatched —
never for quarantine (terminal, reported through ``on_result`` as skip
reasons) and never for innocent requeues (no failure occurred).
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace as dc_replace

from repro.core.results import PairResult
from repro.exec.jobs import PairJob, PairJobResult, SupervisionPolicy

__all__ = [
    "UnitState",
    "kill_pool_processes",
    "mp_context",
    "quarantine_results",
    "run_units_inprocess",
    "run_units_pool",
]


def mp_context():
    """The multiprocessing context every repro process pool should use.

    ``fork`` where available (Linux — workers inherit loaded modules),
    ``spawn`` elsewhere.  Public so sweeps and external drivers share one
    start-method policy instead of reaching into engine internals.
    """
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    return multiprocessing.get_context(method)


class UnitState:
    """Supervision bookkeeping for one dispatch unit (a job list)."""

    __slots__ = ("jobs", "attempts", "cost", "deadline")

    def __init__(self, jobs: list[PairJob], cost: float = 0.0) -> None:
        self.jobs = jobs
        self.attempts = 0
        self.cost = cost
        #: wall-clock deadline of the current dispatch (None = no timeout)
        self.deadline: float | None = None

    def jobs_for_attempt(self) -> list[PairJob]:
        if self.attempts == 0:
            return self.jobs
        return [dc_replace(job, attempt=self.attempts) for job in self.jobs]


def quarantine_results(
    jobs: list[PairJob], attempts: int, cause: str
) -> list[PairJobResult]:
    """Skip results for a unit that exhausted its retry budget.

    A persistently failing grid point becomes a recorded skip reason —
    the same machinery phase 1 uses for unreachable pairs — instead of
    aborting the whole campaign.  Zero virtual cost: the pair never
    measured, so the campaign clock must not advance for it.
    """
    lines = str(cause).strip().splitlines()
    summary = (lines[-1] if lines else str(cause))[:200]
    reason = f"quarantined after {attempts} failed attempts: {summary}"
    out: list[PairJobResult] = []
    for job in jobs:
        pair = PairResult(
            init_mhz=float(job.init_mhz),
            target_mhz=float(job.target_mhz),
            skipped=True,
            skip_reason=reason,
            memory_mhz=job.memory_mhz,
            locked_sm_mhz=job.locked_sm_mhz,
            axis=job.axis,
        )
        pair.n_retries = attempts
        out.append(
            PairJobResult(index=job.index, pair=pair, elapsed_virtual_s=0.0)
        )
    return out


def kill_pool_processes(pool: ProcessPoolExecutor) -> None:
    """Tear down a pool whose workers cannot be trusted to exit (hangs)."""
    procs = list((getattr(pool, "_processes", None) or {}).values())
    for proc in procs:
        proc.terminate()
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=1.0)


def run_units_inprocess(
    units,
    policy: SupervisionPolicy,
    guard,
    on_result,
    measure,
    on_retry=None,
) -> list[PairJobResult]:
    """Supervised in-process execution (``workers == 1``).

    ``measure(jobs)`` is the caller's measurement callable (fault hooks
    included).  Shares the driver process, so supervision covers
    exceptions only: injected kills are downgraded to exceptions and
    per-unit deadlines cannot preempt (there is no worker to kill).
    Retries and quarantine behave exactly like the pool path.
    """
    collected: list[PairJobResult] = []
    for unit in units:
        if guard is not None and guard.requested:
            break
        attempts = 0
        while True:
            jobs = (
                unit
                if attempts == 0
                else [dc_replace(job, attempt=attempts) for job in unit]
            )
            try:
                results = measure(jobs)
            except Exception as exc:
                attempts += 1
                cause = f"worker-error: {type(exc).__name__}: {exc}"
                if attempts > policy.max_retries:
                    results = quarantine_results(unit, attempts, cause)
                    break
                if on_retry is not None:
                    on_retry(unit, attempts, cause)
                time.sleep(policy.backoff_for(attempts))
                continue
            break
        for res in results:
            res.pair.n_retries = attempts
        collected.extend(results)
        on_result(results)
    return collected


def run_units_pool(
    units,
    costs,
    policy: SupervisionPolicy,
    guard,
    on_result,
    *,
    workers: int,
    fn,
    initializer,
    initargs,
    on_retry=None,
) -> list[PairJobResult]:
    """Supervised dispatch over per-round ``ProcessPoolExecutor``s.

    ``fn`` is the worker unit entry point and ``initializer(*initargs)``
    installs per-process shared state (the campaign payload).  Each round
    submits every outstanding unit with a wall-clock deadline derived
    from its expected cost.  A crashed pool (``BrokenProcessPool``) or an
    expired deadline tears the round's pool down and re-dispatches the
    survivors on a fresh one; units that keep failing past
    ``policy.max_retries`` are quarantined.  A shutdown signal stops
    submissions, drains running units, and returns what completed.
    """
    collected: list[PairJobResult] = []

    def complete(state: UnitState, results) -> None:
        for res in results:
            res.pair.n_retries = state.attempts
        collected.extend(results)
        on_result(results)

    def note_failure(state: UnitState, cause: str, retry) -> None:
        state.attempts += 1
        if state.attempts > policy.max_retries:
            complete(
                state,
                quarantine_results(state.jobs, state.attempts, cause),
            )
        else:
            if on_retry is not None:
                on_retry(state.jobs, state.attempts, cause)
            retry.append(state)

    todo = [UnitState(unit, cost) for unit, cost in zip(units, costs)]
    while todo and not (guard is not None and guard.requested):
        backoff = max(
            (policy.backoff_for(state.attempts) for state in todo),
            default=0.0,
        )
        if backoff > 0.0:
            time.sleep(backoff)
        retry: list[UnitState] = []
        requeue: list[UnitState] = []
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(todo)),
            mp_context=mp_context(),
            initializer=initializer,
            initargs=initargs,
        )
        killed = False
        try:
            future_of = {}
            for state in todo:
                future = pool.submit(fn, state.jobs_for_attempt())
                timeout = policy.timeout_for(state.cost)
                state.deadline = (
                    None
                    if timeout is None
                    else time.monotonic() + timeout
                )
                future_of[future] = state
            remaining = set(future_of)
            while remaining:
                done, _ = wait(
                    remaining,
                    timeout=policy.poll_s,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    remaining.discard(future)
                    state = future_of[future]
                    try:
                        complete(state, future.result())
                    except BrokenProcessPool:
                        broken = True
                        note_failure(state, "worker-crash", retry)
                    except Exception as exc:
                        note_failure(
                            state,
                            f"worker-error: {type(exc).__name__}: {exc}",
                            retry,
                        )
                if broken:
                    # The pool is dead and the executor cannot say
                    # which unit killed it: every in-flight unit takes
                    # an attempt bump (bounded collateral — see
                    # DESIGN.md) and a seat on the rebuilt pool.
                    for future in remaining:
                        state = future_of[future]
                        try:
                            complete(state, future.result(timeout=0))
                        except Exception:
                            note_failure(state, "worker-crash", retry)
                    remaining.clear()
                    break
                now = time.monotonic()
                expired = {
                    future
                    for future in remaining
                    if future_of[future].deadline is not None
                    and now > future_of[future].deadline
                }
                if expired:
                    # A unit blew its deadline (hung worker).  The
                    # pool cannot cancel a running call, so kill the
                    # whole pool; innocent bystanders requeue at their
                    # current attempt count.
                    for future in list(remaining):
                        state = future_of[future]
                        if future.done():
                            remaining.discard(future)
                            try:
                                complete(state, future.result())
                            except Exception:
                                note_failure(
                                    state, "worker-crash", retry
                                )
                            continue
                        if future in expired:
                            note_failure(state, "job-timeout", retry)
                        else:
                            requeue.append(state)
                    remaining.clear()
                    kill_pool_processes(pool)
                    killed = True
                    break
                if guard is not None and guard.requested:
                    # Graceful drain: cancel what never started, let
                    # running units finish and collect them.
                    for future in list(remaining):
                        if future.cancel():
                            remaining.discard(future)
        finally:
            if not killed:
                pool.shutdown(wait=True, cancel_futures=True)
        todo = retry + requeue
    return collected
