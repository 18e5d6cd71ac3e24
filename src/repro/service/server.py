"""JSON-lines unix-socket server for :class:`CampaignService`.

Protocol: the client sends exactly one JSON object per connection and
reads JSON-object lines back.

Operations (``op`` field):

``ping``
    Liveness probe → ``{"ok": true, "pong": true}``.
``submit``
    ``{"op": "submit", "request": {...CampaignRequest fields...}}`` →
    ``{"ok": true, "campaign_id": "c0001"}``.
``status``
    Optional ``campaign_id`` → one or a list of status payloads
    (:meth:`~repro.service.service.CampaignStatus.to_wire`).
``events``
    Required ``campaign_id`` → an acknowledgement line, then one
    ``{"event": {...}}`` line per campaign event (history first, live
    after), then ``{"done": true, "interrupted": <bool>}``.
``cancel``
    Required ``campaign_id`` → ``{"ok": true, "cancelled": <bool>}``.

Any failure returns ``{"ok": false, "error": "<message>"}`` and closes
the connection.  Events cross the wire as flat JSON (``event_to_wire``)
— the typed in-process stream stays on the Python side; wire clients
get the scalar payload every dashboard needs.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

from repro.core.stream import (
    CampaignEvent,
    CampaignFinished,
    CampaignStarted,
    FacetPrepared,
    PairMeasured,
    PairRetried,
    PairSkipped,
)
from repro.errors import ReproError
from repro.service.requests import CampaignRequest
from repro.service.service import CampaignService

__all__ = ["ServiceServer", "event_to_wire"]


def event_to_wire(event: CampaignEvent) -> dict:
    """Flatten one typed stream event into a JSON-serializable dict."""
    if isinstance(event, CampaignStarted):
        return {
            "type": "campaign_started",
            "gpu_name": event.gpu_name,
            "hostname": event.hostname,
            "axis": event.axis,
            "n_pairs": event.n_pairs,
            "n_facets": len(event.facet_plan),
            "resumed": event.resumed,
        }
    if isinstance(event, FacetPrepared):
        return {
            "type": "facet_prepared",
            "facet_index": event.facet_index,
            "facet": event.facet,
            "prepared": event.prepared,
            "cache_hit": event.cache_hit,
        }
    if isinstance(event, PairMeasured):
        pair = event.pair
        return {
            "type": "pair_measured",
            "index": event.index,
            "init_mhz": pair.init_mhz,
            "target_mhz": pair.target_mhz,
            "skipped": pair.skipped,
            "skip_reason": pair.skip_reason,
            "n_measurements": pair.n_measurements,
            "elapsed_virtual_s": event.elapsed_virtual_s,
            "replayed": event.replayed,
        }
    if isinstance(event, PairSkipped):
        return {
            "type": "pair_skipped",
            "index": event.index,
            "init_mhz": event.pair.init_mhz,
            "target_mhz": event.pair.target_mhz,
            "skip_reason": event.pair.skip_reason,
        }
    if isinstance(event, PairRetried):
        return {
            "type": "pair_retried",
            "indices": list(event.indices),
            "attempt": event.attempt,
            "cause": event.cause,
        }
    if isinstance(event, CampaignFinished):
        return {
            "type": "campaign_finished",
            "wall_virtual_s": event.wall_virtual_s,
            "locked_sm_mhz": event.locked_sm_mhz,
        }
    return {"type": type(event).__name__}  # forward compatibility


class ServiceServer:
    """Serve one :class:`CampaignService` on a unix socket."""

    def __init__(self, service: CampaignService, socket_path: str | Path) -> None:
        self.service = service
        self.socket_path = Path(socket_path)
        self._server: "asyncio.AbstractServer | None" = None

    async def start(self) -> None:
        """Bind the socket (replacing a stale one) and begin serving."""
        if self.socket_path.exists():
            self.socket_path.unlink()
        self._server = await asyncio.start_unix_server(
            self._handle, path=str(self.socket_path)
        )

    async def close(self) -> None:
        """Stop accepting connections and remove the socket file."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.socket_path.exists():
            self.socket_path.unlink()

    # ------------------------------------------------------------------
    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                message = json.loads(line)
                await self._dispatch(message, writer)
            except (ReproError, ValueError, KeyError, TypeError) as exc:
                await self._send(
                    writer, {"ok": False, "error": str(exc) or repr(exc)}
                )
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-stream; nothing to clean up
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _send(self, writer: asyncio.StreamWriter, payload: dict) -> None:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()

    async def _dispatch(self, message: dict, writer) -> None:
        op = message.get("op")
        if op == "ping":
            await self._send(writer, {"ok": True, "pong": True})
        elif op == "submit":
            request = CampaignRequest.from_json(
                json.dumps(message["request"])
            )
            campaign_id = await self.service.submit(request)
            await self._send(
                writer, {"ok": True, "campaign_id": campaign_id}
            )
        elif op == "status":
            campaign_id = message.get("campaign_id")
            status = self.service.status(campaign_id)
            payload = (
                [s.to_wire() for s in status]
                if isinstance(status, list)
                else status.to_wire()
            )
            await self._send(writer, {"ok": True, "status": payload})
        elif op == "events":
            campaign_id = message["campaign_id"]
            stream = self.service.events(campaign_id)  # validates the id
            await self._send(
                writer, {"ok": True, "campaign_id": campaign_id}
            )
            async for event in stream:
                await self._send(writer, {"event": event_to_wire(event)})
            broadcast = self.service._get(campaign_id).broadcast
            await self._send(
                writer,
                {"done": True, "interrupted": broadcast.interrupted},
            )
        elif op == "cancel":
            cancelled = await self.service.cancel(message["campaign_id"])
            await self._send(
                writer, {"ok": True, "cancelled": cancelled}
            )
        else:
            await self._send(
                writer, {"ok": False, "error": f"unknown op {op!r}"}
            )
