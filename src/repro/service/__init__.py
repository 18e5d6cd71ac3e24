"""Campaign-as-a-service: the asyncio front end over the execution engine.

This package turns the batch campaign pipeline into a long-lived
multi-tenant service (ROADMAP item 1).  The layering, bottom to top:

:mod:`repro.service.requests`
    :class:`CampaignRequest` — a JSON-serializable campaign description
    (tenant, fair-share weight, machine recipe, config kwargs) that
    round-trips losslessly so in-flight requests survive a service
    restart.
:mod:`repro.service.scheduler`
    :class:`DeficitRoundRobin` — the pure, synchronous fair-share core —
    wrapped by :class:`FairShareScheduler`, the asyncio dispatch loop
    that multiplexes shard execution over one shared
    :class:`WorkerFleet` of executor threads.
:mod:`repro.service.bridge`
    :class:`EventBroadcast` + :class:`QueueBridgeSink` — the
    thread-safe bridge that republishes each campaign's typed
    :mod:`repro.core.stream` events onto per-subscriber
    :class:`asyncio.Queue`\\ s (history replayed to late subscribers).
:mod:`repro.service.service`
    :class:`CampaignService` — submit / status / events / cancel /
    drain, journal-backed crash recovery, one shared calibration
    cache across tenants.  In-process callers use it directly.
:mod:`repro.service.server` / :mod:`repro.service.client`
    A JSON-lines unix-socket server and the matching
    :class:`SocketClient`.
:mod:`repro.service.cli`
    The ``repro`` console entry point (``serve`` / ``submit`` /
    ``status`` / ``events`` / ``cancel``).

Every campaign runs through a :class:`repro.exec.engine.CampaignExecutor`,
the one code path that journals, measures and records
(:class:`repro.exec.engine.PreparedCampaign`): the service only decides
*when* each facet-chunked shard runs, never *how* a pair is measured or
recorded — which is why any interleaving of concurrent campaigns
reproduces each campaign's standalone result bit for bit.
"""

from repro.service.requests import CampaignRequest
from repro.service.scheduler import (
    DeficitRoundRobin,
    FairShareScheduler,
    Shard,
    WorkerFleet,
)
from repro.service.bridge import EventBroadcast, QueueBridgeSink
from repro.service.service import CampaignService, CampaignStatus

__all__ = [
    "CampaignRequest",
    "CampaignService",
    "CampaignStatus",
    "DeficitRoundRobin",
    "EventBroadcast",
    "FairShareScheduler",
    "QueueBridgeSink",
    "Shard",
    "WorkerFleet",
]
