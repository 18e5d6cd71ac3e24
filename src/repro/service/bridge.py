"""The thread ↔ event-loop bridge for campaign event streams.

The execution side of the service emits typed :mod:`repro.core.stream`
events from whatever thread is doing the work — ``prepare``/``finish``
run in an executor thread, per-shard results are emitted from the event
loop.  :class:`QueueBridgeSink` is the :class:`~repro.core.stream.
CampaignSink` that carries those events onto the loop: every
``on_event`` marshals through ``loop.call_soon_threadsafe`` (safe from
both loop and non-loop threads, FIFO per caller), where the
:class:`EventBroadcast` appends to the campaign's history and fans out
to every subscriber's :class:`asyncio.Queue`.

Subscribers may attach at any time: :meth:`EventBroadcast.subscribe`
preloads the new queue with the full history, so a late ``events``
client still sees the stream from ``CampaignStarted`` — in original
order, because history append and fan-out happen in one loop callback.
A closed stream is signalled by a ``None`` sentinel (events are never
``None``); :meth:`EventBroadcast.aiter` hides the sentinel behind an
async iterator.

The bridge never feeds back into measurement: publishing draws no RNG
and advances no virtual clock, so attaching zero or many subscribers
cannot change campaign results (the stream contract of
:mod:`repro.core.stream`).
"""

from __future__ import annotations

import asyncio

from repro.core.stream import CampaignEvent, CampaignSink

__all__ = ["EventBroadcast", "QueueBridgeSink"]


class EventBroadcast:
    """One campaign's event history plus its live subscriber queues."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self.history: list[CampaignEvent] = []
        self._queues: list[asyncio.Queue] = []
        self.closed = False
        #: the stream ended without ``CampaignFinished`` (cancel/crash)
        self.interrupted = False

    # -- producer side (any thread) ------------------------------------
    def publish(self, event: CampaignEvent) -> None:
        """Thread-safe: deliver one event on the loop, in call order."""
        self._loop.call_soon_threadsafe(self._deliver, event)

    def close(self, interrupted: bool = False) -> None:
        """Thread-safe: end the stream (sends the ``None`` sentinel)."""
        self._loop.call_soon_threadsafe(self._close, interrupted)

    def _deliver(self, event: CampaignEvent) -> None:
        if self.closed:  # late event after close: drop, stream is over
            return
        self.history.append(event)
        for queue in self._queues:
            queue.put_nowait(event)

    def _close(self, interrupted: bool) -> None:
        if self.closed:
            return
        self.closed = True
        self.interrupted = interrupted
        for queue in self._queues:
            queue.put_nowait(None)
        self._queues.clear()

    # -- consumer side (loop thread) -----------------------------------
    def subscribe(self) -> asyncio.Queue:
        """New subscriber queue, preloaded with the full history.

        Must be called on the loop thread (the service API layer).  The
        queue yields every event in emission order and then the ``None``
        end-of-stream sentinel.
        """
        queue: asyncio.Queue = asyncio.Queue()
        for event in self.history:
            queue.put_nowait(event)
        if self.closed:
            queue.put_nowait(None)
        else:
            self._queues.append(queue)
        return queue

    async def aiter(self):
        """Async-iterate the stream; ends when the campaign does."""
        queue = self.subscribe()
        while True:
            event = await queue.get()
            if event is None:
                return
            yield event


class QueueBridgeSink(CampaignSink):
    """The :class:`~repro.core.stream.CampaignSink` feeding a broadcast.

    Pass it to a :class:`~repro.exec.engine.CampaignExecutor` as one of
    its ``sinks`` (the stream already carries the result accumulator and
    the journal); it republishes every event onto the loop and flags the
    broadcast when the stream is interrupted.
    """

    def __init__(self, broadcast: EventBroadcast) -> None:
        self.broadcast = broadcast

    def on_event(self, event: CampaignEvent) -> None:
        """Republish the event onto the campaign's broadcast."""
        self.broadcast.publish(event)

    def on_interrupt(self) -> None:
        """End the broadcast flagged interrupted (no ``CampaignFinished``)."""
        self.broadcast.close(interrupted=True)
