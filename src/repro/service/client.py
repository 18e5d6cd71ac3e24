"""Unix-socket client for the campaign service.

:class:`SocketClient` speaks the JSON-lines protocol of
:mod:`repro.service.server` over a unix socket, one connection per call,
behind the four service verbs (submit / status / events / cancel) plus a
liveness ``ping``.  ``events`` yields the flat wire dicts
(:func:`~repro.service.server.event_to_wire`); statuses arrive as wire
dicts too.  This is what the ``repro`` CLI uses.  In-process callers use
:class:`~repro.service.service.CampaignService` directly: its ``events``
yields the typed :mod:`repro.core.stream` objects and ``result`` returns
the real :class:`~repro.core.results.CampaignResult`.

Every call raises :class:`~repro.errors.ServiceUnavailable` on a refused
operation (draining service, unknown campaign id, server-side error).
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

from repro.errors import ServiceUnavailable
from repro.service.requests import CampaignRequest

__all__ = ["SocketClient"]


class SocketClient:
    """Unix-socket client speaking the JSON-lines service protocol."""

    def __init__(self, socket_path: str | Path) -> None:
        self.socket_path = str(socket_path)

    # ------------------------------------------------------------------
    async def _call(self, message: dict) -> dict:
        """One request → one response line (non-streaming ops)."""
        reader, writer = await asyncio.open_unix_connection(
            self.socket_path
        )
        try:
            writer.write(json.dumps(message).encode() + b"\n")
            await writer.drain()
            line = await reader.readline()
        finally:
            writer.close()
            await writer.wait_closed()
        if not line:
            raise ServiceUnavailable("service closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            raise ServiceUnavailable(
                response.get("error", "service error")
            )
        return response

    # ------------------------------------------------------------------
    async def ping(self) -> bool:
        """Liveness probe."""
        return bool((await self._call({"op": "ping"})).get("pong"))

    async def submit(self, request: CampaignRequest) -> str:
        """Submit one campaign; returns its id."""
        response = await self._call(
            {"op": "submit", "request": json.loads(request.to_json())}
        )
        return response["campaign_id"]

    async def status(self, campaign_id: "str | None" = None):
        """Status wire dict(s) — one campaign's, or every campaign's."""
        message: dict = {"op": "status"}
        if campaign_id is not None:
            message["campaign_id"] = campaign_id
        return (await self._call(message))["status"]

    async def events(self, campaign_id: str):
        """Async-iterate wire event dicts until the campaign ends."""
        reader, writer = await asyncio.open_unix_connection(
            self.socket_path
        )
        try:
            writer.write(
                json.dumps(
                    {"op": "events", "campaign_id": campaign_id}
                ).encode()
                + b"\n"
            )
            await writer.drain()
            ack = json.loads(await reader.readline() or b"{}")
            if not ack.get("ok"):
                raise ServiceUnavailable(
                    ack.get("error", "service error")
                )
            while True:
                line = await reader.readline()
                if not line:
                    return
                payload = json.loads(line)
                if payload.get("done"):
                    return
                yield payload["event"]
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def cancel(self, campaign_id: str) -> bool:
        """Cancel; ``True`` if the campaign ended cancelled."""
        response = await self._call(
            {"op": "cancel", "campaign_id": campaign_id}
        )
        return bool(response.get("cancelled"))
