"""The campaign service: submit / status / events / cancel on one loop.

:class:`CampaignService` is the long-lived front end over the batch
pipeline.  Each submitted :class:`~repro.service.requests.
CampaignRequest` becomes one campaign task on the event loop that drives
a :class:`~repro.exec.engine.CampaignExecutor` through its seam
(:class:`~repro.exec.engine.PreparedCampaign`).  The executor journals,
measures and records; the service only shards, schedules, cancels and
reports status:

1. **Prepare** runs in an executor thread (calibration is real
   simulation work; the loop never blocks): the executor opens the
   campaign's journal and event stream — the service's progress counter
   and event bridge ride on it as sinks — and emits ``CampaignStarted``,
   ``FacetPrepared`` (through the shared calibration cache when one is
   configured), ``PairSkipped``, and journal replays.
2. **Dispatch**: the remaining jobs are cut into facet-homogeneous
   shards, each billed its pair count, and submitted to
   the :class:`~repro.service.scheduler.FairShareScheduler` — the
   deficit-round-robin core multiplexes every live campaign's shards
   over one shared :class:`~repro.service.scheduler.WorkerFleet`, so
   concurrent tenants progress in proportion to their weights.  Each
   shard is one :meth:`~repro.exec.engine.CampaignExecutor.measure_units`
   call on a fleet thread, so retries and quarantine behave exactly as
   engine dispatch; the loop thread hands each finished shard to
   :meth:`~repro.exec.engine.CampaignExecutor.record`, retries before
   measurements.
3. **Finish** (executor thread again) sums virtual costs in grid-index
   order and assembles the :class:`~repro.core.results.CampaignResult`.

Because pair measurement is a pure function of ``(blueprint, config,
grid index)`` and the clock advance is index-ordered, *any*
interleaving of concurrent campaigns yields each campaign's exact
standalone result — CSV bytes and ``wall_virtual_s`` included.  That
bit-identity is the service's core invariant (pinned by
``tests/test_service.py``).

Durability: with a ``journal_root``, every campaign journals under
``<journal_root>/<campaign_id>/`` with its ``request.json`` beside it;
a finished campaign writes ``result.json``.  A service restarted over
the same root resumes every campaign that has a request but no result
— replaying journaled pairs and measuring only the rest, bit-identical
to the uninterrupted run (the journal fingerprint validates the
request → config mapping).  One supervision policy and one calibration
cache serve every campaign; a request chooses only its CSV
``output_dir``.
"""

from __future__ import annotations

import asyncio
import json
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro.core.stream import (
    CampaignEvent,
    CampaignFinished,
    CampaignSink,
    PairMeasured,
    PairRetried,
    PairSkipped,
)
from repro.errors import ConfigError, ReproError, ServiceUnavailable
from repro.exec.engine import CampaignExecutor
# Unused here since shards measure through CampaignExecutor.measure_units;
# kept importable as service attributes because perfbench/spans.py wraps
# them by name.
from repro.exec.supervise import run_units_inprocess  # noqa: F401
from repro.exec.worker import run_pair_job  # noqa: F401
from repro.service.bridge import EventBroadcast, QueueBridgeSink
from repro.service.requests import CampaignRequest
from repro.service.scheduler import FairShareScheduler, WorkerFleet

__all__ = ["CampaignService", "CampaignStatus"]


@dataclass
class CampaignStatus:
    """One campaign's externally visible state snapshot."""

    campaign_id: str
    tenant: str
    #: ``queued`` → ``preparing`` → ``running`` → ``finishing`` →
    #: ``finished`` | ``cancelled`` | ``failed``
    state: str
    total_pairs: int = 0
    measured: int = 0
    skipped: int = 0
    replayed: int = 0
    retried: int = 0
    #: whether journaled pairs were replayed (restart recovery)
    resumed: bool = False
    #: set on ``finished``
    wall_virtual_s: float | None = None
    #: set on ``failed``
    error: str | None = None

    def to_wire(self) -> dict:
        """JSON-ready dict (the socket protocol's status payload)."""
        return asdict(self)


class _CounterSink(CampaignSink):
    """Per-campaign progress counters, fed straight off the stream."""

    def __init__(self, status: CampaignStatus) -> None:
        self.status = status

    def on_event(self, event: CampaignEvent) -> None:
        status = self.status
        if isinstance(event, PairMeasured):
            status.measured += 1
            if event.replayed:
                status.replayed += 1
        elif isinstance(event, PairSkipped):
            status.skipped += 1
        elif isinstance(event, PairRetried):
            status.retried += 1
        elif isinstance(event, CampaignFinished):
            status.wall_virtual_s = event.wall_virtual_s


@dataclass
class _Campaign:
    """Internal per-campaign record around its live status."""

    #: ``None`` for a journaled campaign whose request no longer parses
    request: "CampaignRequest | None"
    broadcast: EventBroadcast
    status: CampaignStatus
    result: object = None
    task: "asyncio.Task | None" = None
    cancel_requested: bool = False
    done: asyncio.Event = field(default_factory=asyncio.Event)


def _atomic_json(path: Path, payload: dict) -> None:
    """Write-then-rename so a crash never leaves a truncated marker."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)


class CampaignService:
    """Multi-tenant campaign execution on one asyncio event loop.

    Parameters
    ----------
    fleet_size:
        Worker-fleet slots shared by every campaign (the fair-share
        multiplexing width).
    journal_root:
        Directory holding one journal per campaign.  Enables durable
        progress and :meth:`start`-time crash recovery; ``None`` runs
        campaigns in memory only.
    calibration_cache:
        One calibration cache directory shared across all tenants.
    shard_pairs:
        Pair jobs per scheduler shard — the fair-share preemption
        granularity.  Smaller shards interleave tenants more finely at
        slightly more scheduling overhead; results are identical either
        way.
    policy:
        One retry and fault-injection policy for every campaign
        (``None``: the default policy).  It may not set a job deadline:
        shards run on fleet threads, which a deadline cannot pre-empt.
    """

    def __init__(
        self,
        fleet_size: int = 2,
        journal_root: "str | Path | None" = None,
        calibration_cache: "str | None" = None,
        shard_pairs: int = 4,
        policy: "SupervisionPolicy | None" = None,  # noqa: F821 - annotation only
    ) -> None:
        if policy is not None and policy.job_timeout_s is not None:
            raise ConfigError(
                "the service policy cannot set job_timeout_s: shards run "
                "on fleet threads, which a deadline cannot pre-empt"
            )
        self.fleet = WorkerFleet(fleet_size)
        self.scheduler = FairShareScheduler(self.fleet)
        self.journal_root = (
            None if journal_root is None else Path(journal_root)
        )
        self.calibration_cache = calibration_cache
        self.policy = policy
        self.shard_pairs = max(1, int(shard_pairs))
        self._campaigns: dict[str, _Campaign] = {}
        self._tenant_active: dict[str, int] = {}
        self._draining = False
        self._stopped = False
        self._next_id = 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> list[str]:
        """Start dispatch and resume any journaled in-flight campaigns.

        Returns the ids of resumed campaigns.  A campaign directory is
        in-flight when it holds a ``request.json`` but no
        ``result.json`` — i.e. the previous service died (or was
        killed) before ``finish``; its journaled pairs replay and only
        the remainder is measured.  An in-flight ``request.json`` that
        no longer parses or builds is admitted as a ``failed`` campaign
        whose status error names the error; it is not resumed.
        """
        self.scheduler.start()
        resumed: list[str] = []
        if self.journal_root is not None and self.journal_root.is_dir():
            for entry in sorted(self.journal_root.iterdir()):
                request_file = entry / "request.json"
                if not request_file.is_file():
                    continue
                if (entry / "result.json").is_file():
                    continue
                try:
                    request = CampaignRequest.from_json(
                        request_file.read_text()
                    )
                except (ReproError, ValueError, TypeError) as exc:
                    self._admit_unreadable(entry.name, exc)
                    continue
                resumed.append(
                    self._admit(
                        request,
                        campaign_id=entry.name,
                        resume=(entry / "meta.json").is_file(),
                    )
                )
        return resumed

    async def drain(self) -> None:
        """Stop accepting submissions and wait for live campaigns."""
        self._draining = True
        await asyncio.gather(
            *(c.done.wait() for c in self._campaigns.values())
        )

    async def stop(self, drain: bool = True) -> None:
        """Shut down: optionally drain, else cancel, then stop workers."""
        self._draining = True
        if not drain:
            for campaign_id, campaign in list(self._campaigns.items()):
                if not campaign.done.is_set():
                    await self.cancel(campaign_id)
        await self.drain()
        await self.scheduler.close()
        self.fleet.close()
        self._stopped = True

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    async def submit(self, request: CampaignRequest) -> str:
        """Accept one campaign; returns its id immediately."""
        if self._draining or self._stopped:
            raise ServiceUnavailable(
                "service is draining; new campaigns are not accepted"
            )
        return self._admit(request)

    def status(self, campaign_id: "str | None" = None):
        """One campaign's status, or every campaign's (id order)."""
        if campaign_id is not None:
            return replace(self._get(campaign_id).status)
        return [
            replace(self._campaigns[cid].status)
            for cid in sorted(self._campaigns)
        ]

    def events(self, campaign_id: str):
        """Async iterator over the campaign's stream (history included)."""
        return self._get(campaign_id).broadcast.aiter()

    async def result(self, campaign_id: str):
        """Wait for the campaign and return its ``CampaignResult``.

        Raises the campaign's failure, or :class:`ServiceUnavailable`
        for a cancelled campaign (there is no result to return).
        """
        campaign = self._get(campaign_id)
        await campaign.done.wait()
        if campaign.status.state == "finished":
            return campaign.result
        if campaign.status.state == "failed":
            raise ServiceUnavailable(
                f"campaign {campaign_id} failed: {campaign.status.error}"
            )
        raise ServiceUnavailable(f"campaign {campaign_id} was cancelled")

    async def cancel(self, campaign_id: str) -> bool:
        """Request cancellation; waits for the campaign to wind down.

        Returns ``True`` if the campaign was cancelled, ``False`` if it
        had already reached a terminal state.  Cancellation is
        cooperative at shard granularity: in-flight shards finish on
        their worker threads (their results are discarded), pending
        shards never run, and the journal keeps everything measured so
        far — a journaled cancelled campaign resumes on restart.
        """
        campaign = self._get(campaign_id)
        if campaign.done.is_set():
            return False
        campaign.cancel_requested = True
        await campaign.done.wait()
        return campaign.status.state == "cancelled"

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _get(self, campaign_id: str) -> _Campaign:
        campaign = self._campaigns.get(campaign_id)
        if campaign is None:
            raise ServiceUnavailable(f"unknown campaign {campaign_id!r}")
        return campaign

    def _new_id(self) -> str:
        while True:
            campaign_id = f"c{self._next_id:04d}"
            self._next_id += 1
            if campaign_id not in self._campaigns and not (
                self.journal_root is not None
                and (self.journal_root / campaign_id).exists()
            ):
                return campaign_id

    def _admit(
        self,
        request: CampaignRequest,
        campaign_id: "str | None" = None,
        resume: bool = False,
    ) -> str:
        if campaign_id is None:
            campaign_id = self._new_id()
        campaign = _Campaign(
            request=request,
            broadcast=EventBroadcast(asyncio.get_event_loop()),
            status=CampaignStatus(
                campaign_id=campaign_id,
                tenant=request.tenant,
                state="queued",
            ),
        )
        self._campaigns[campaign_id] = campaign
        self._tenant_active[request.tenant] = (
            self._tenant_active.get(request.tenant, 0) + 1
        )
        self.scheduler.register(request.tenant, weight=request.weight)
        if self.journal_root is not None:
            directory = self.journal_root / campaign_id
            directory.mkdir(parents=True, exist_ok=True)
            _atomic_json(
                directory / "request.json",
                json.loads(request.to_json()),
            )
        campaign.task = asyncio.ensure_future(
            self._run_campaign(campaign, resume=resume)
        )
        return campaign_id

    def _admit_unreadable(self, campaign_id: str, exc: Exception) -> None:
        """Record a journaled campaign whose request no longer parses."""
        campaign = _Campaign(
            request=None,
            broadcast=EventBroadcast(asyncio.get_event_loop()),
            status=CampaignStatus(
                campaign_id=campaign_id,
                tenant="",
                state="failed",
                error=f"unreadable request.json: {type(exc).__name__}: {exc}",
            ),
        )
        campaign.broadcast.close(interrupted=True)
        campaign.done.set()
        self._campaigns[campaign_id] = campaign

    def _build_shards(self, prep) -> list[list]:
        """Facet-homogeneous job chunks of at most ``shard_pairs`` jobs."""
        shards: list[list] = []
        run: list = []
        for job in prep.todo:
            if run and (
                job.facet != run[-1].facet
                or len(run) >= self.shard_pairs
            ):
                shards.append(run)
                run = []
            run.append(job)
        if run:
            shards.append(run)
        return shards

    async def _run_campaign(self, campaign: _Campaign, resume: bool) -> None:
        loop = asyncio.get_event_loop()
        request = campaign.request
        status = campaign.status
        executor = prep = None
        interrupted = False
        try:
            status.state = "preparing"
            status.resumed = resume

            def prepare_stage():
                """Machine build + engine prepare (fleet thread)."""
                executor = CampaignExecutor(
                    request.build_machine(),
                    request.build_config(),
                    journal=(
                        None
                        if self.journal_root is None
                        else self.journal_root / status.campaign_id
                    ),
                    resume=resume,
                    sinks=(
                        _CounterSink(status),
                        QueueBridgeSink(campaign.broadcast),
                    ),
                    policy=self.policy,
                    calibration_cache=self.calibration_cache,
                    output_dir=request.output_dir,
                )
                return executor, executor.prepare()

            executor, prep = await loop.run_in_executor(
                self.fleet.executor, prepare_stage
            )
            status.total_pairs = len(prep.jobs) + len(prep.skips)
            status.state = "running"

            def shard_fn(shard_jobs):
                def fn():
                    retries: list = []
                    results = executor.measure_units(
                        prep,
                        [shard_jobs],
                        on_retry=lambda *retry: retries.append(retry),
                    )
                    return results, retries

                return fn

            pending = {
                self.scheduler.submit(
                    request.tenant, len(shard), shard_fn(shard)
                )
                for shard in self._build_shards(prep)
            }
            while pending:
                if campaign.cancel_requested:
                    interrupted = True
                    break
                finished, pending = await asyncio.wait(
                    pending,
                    timeout=0.05,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                for future in finished:
                    executor.record(prep, *future.result())
            if campaign.cancel_requested:
                # Covers a cancel that landed during prepare (or between
                # the last shard and finish) as well as mid-dispatch.
                interrupted = True
            if interrupted:
                # Cooperative cancel: pending shards never run; shards
                # already on a worker thread finish there but their
                # results are dropped (the journal only holds pairs
                # whose events were emitted — resume re-measures the
                # rest bit-identically).
                for future in pending:
                    future.cancel()
                prep.dispatch.interrupt()
                status.state = "cancelled"
                return

            status.state = "finishing"
            campaign.result = await loop.run_in_executor(
                self.fleet.executor, executor.finish, prep
            )
            if self.journal_root is not None:
                _atomic_json(
                    self.journal_root / status.campaign_id / "result.json",
                    {
                        "campaign_id": status.campaign_id,
                        "tenant": request.tenant,
                        "wall_virtual_s": campaign.result.wall_virtual_s,
                        "n_pairs": len(campaign.result.pairs),
                    },
                )
            status.state = "finished"
        except Exception as exc:
            status.state = "failed"
            status.error = f"{type(exc).__name__}: {exc}"
            interrupted = True
        finally:
            if prep is not None:
                executor.close(prep)
            campaign.broadcast.close(interrupted=interrupted)
            remaining = self._tenant_active.get(request.tenant, 1) - 1
            if remaining <= 0:
                self._tenant_active.pop(request.tenant, None)
                self.scheduler.unregister(request.tenant)
            else:
                self._tenant_active[request.tenant] = remaining
            campaign.done.set()
