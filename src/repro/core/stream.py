"""The campaign event stream: one typed, ordered result pipeline.

Every execution tier — the in-process and process-pool engine, the
service's thread fleet, and journal-resume replay — produces the same
stream of campaign events, and every consumer of campaign results is a
*sink* attached to it.  The stream is the seam incremental consumers
plug into: result accumulation
(:class:`~repro.core.results.ResultAccumulator`), the durable journal
(:class:`~repro.core.journal.JournalSink`), incremental CSV output
(:class:`~repro.core.csvio.CsvStreamSink`), live progress reporting
(:class:`ProgressSink`), and — the ROADMAP item-1 target — a service
front end streaming ``PairResult``s to clients as they land instead of
waiting for the last pair of a thousand-pair grid.

Event taxonomy
--------------
``CampaignStarted``
    First event, exactly once: campaign identity (device, hostname,
    frequencies, axis, facet plan).
``FacetPrepared``
    Once per facet coordinate, before any pair event of that facet: the
    facet clock settled (or not) and, when it did, the facet's phase-1
    characterization and probe window estimate.
``PairMeasured``
    One completed measurement-path result (including worker-side skips
    and quarantined units) with its flat grid index and virtual cost.
    ``replayed=True`` marks journal-resume replay of an earlier run's
    result — synthetic, already durable, emitted before any live event.
``PairSkipped``
    One driver-side *planned* skip, decided from the facet's phase-1
    characterization before dispatch.  Recomputable, hence never
    journaled.
``PairRetried``
    Supervision event: a dispatch unit failed (crash / timeout /
    transport) and will be retried.  Informational — the same grid
    indices still produce exactly one terminal pair event each.
``CampaignFinished``
    Last event, exactly once on a completed campaign (absent when the
    campaign is interrupted): the total virtual wall clock and the
    resolved locked-SM complement.

Ordering & determinism contract
-------------------------------
* ``CampaignStarted`` precedes everything; ``CampaignFinished`` follows
  everything.
* Every ``FacetPrepared`` (facet order) precedes every pair event: the
  engine prepares all facets up front.
* Exactly one terminal pair event (``PairMeasured`` or ``PairSkipped``)
  is emitted per flat grid index (``facet_index * n_pairs +
  pair_index``).  Planned ``PairSkipped`` events come in grid order;
  ``PairMeasured`` events come in *completion order*, which depends on
  the worker count — index-keyed sinks reorder them deterministically
  (what ``tests/test_stream.py`` pins with a hypothesis sweep).
* On resume, every replayed ``PairMeasured`` (index order) precedes
  every live one.
* Events are immutable and carry their payloads by reference; sinks
  must not mutate ``pair`` objects.
* The measurement timeline never observes the stream: emitting events
  advances no virtual clock and draws no RNG state, so a campaign with
  zero sinks, ten sinks, or a crashing-then-replaced sink produces
  bit-identical results (perfbench's ``stream.emit_s`` layer tracks
  the real-time cost).
* An interrupted campaign emits no ``CampaignFinished``; instead the
  driver calls :meth:`StreamDispatcher.interrupt` after the last
  delivered event, which fans out to every sink's ``on_interrupt``
  hook exactly once — the seam partial-output writers (e.g. the
  ``# interrupted`` summary footer of
  :class:`~repro.core.csvio.CsvStreamSink`) hang off.
* Durability first: a sink registered after the journal sees a live
  ``PairMeasured`` only once the journal has fsync'd it, so no
  downstream sink (CSV, progress, service bridge) ever shows a pair
  that a crash could still take out of the journal.

Sinks
-----
A sink is anything with an ``on_event(event)`` method
(:class:`CampaignSink` is the no-op base).  The
:class:`StreamDispatcher` fans each event out to its sinks in
registration order, synchronously, on the driver thread.  Sinks up to
and including the durable one (the journal) get each event at once.
Events emitted as one group (:meth:`StreamDispatcher.emit_group`, one
per recorded batch) reach the sinks after it only once the journal has
committed the group with one fsync; they still arrive in emission
order, so sink effects (journal append, CSV write) stay ordered with
respect to each other exactly as their events were emitted.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.campaign import ProbeInfo
    from repro.core.phase1 import Phase1Result
    from repro.core.results import PairResult

__all__ = [
    "CampaignEvent",
    "CampaignStarted",
    "FacetPrepared",
    "PairMeasured",
    "PairSkipped",
    "PairRetried",
    "CampaignFinished",
    "CampaignSink",
    "StreamDispatcher",
    "ProgressSink",
    "RecordingSink",
]


@dataclass(frozen=True)
class CampaignEvent:
    """Base class of every campaign stream event."""


@dataclass(frozen=True)
class CampaignStarted(CampaignEvent):
    """Campaign identity, emitted exactly once before everything else."""

    gpu_name: str
    architecture: str
    hostname: str
    device_index: int
    #: the swept-axis ladder (SM clocks, memory clocks, or power limits)
    frequencies: tuple[float, ...]
    #: swept clock domain (:mod:`repro.core.axis`)
    axis: str
    #: facet coordinates the campaign visits, in order (``(None,)`` for
    #: single-facet campaigns)
    facet_plan: tuple
    #: ordered swept-axis pairs per facet (``len`` = pairs per facet;
    #: flat grid index = ``facet_index * len(pairs) + pair_index``)
    n_pairs: int
    memory_frequencies: tuple[float, ...] | None = None
    locked_sm_frequencies: tuple[float, ...] | None = None
    #: whether journaled pairs will be replayed before live measurement
    resumed: bool = False


@dataclass(frozen=True)
class FacetPrepared(CampaignEvent):
    """One facet's clock settled (or failed to) and was characterized."""

    facet_index: int
    facet: float | None
    #: whether the facet clock could be locked; ``False`` means every
    #: pair of this facet becomes a planned skip
    prepared: bool
    phase1: "Phase1Result | None" = None
    probe: "ProbeInfo | None" = None
    #: the calibration came from the persistent calibration cache
    #: (:mod:`repro.core.calibcache`, engine tiers with
    #: ``--calibration-cache``) instead of being measured this run
    cache_hit: bool = False


@dataclass(frozen=True)
class PairMeasured(CampaignEvent):
    """One measurement-path pair result (durable; journal-eligible)."""

    #: flat position in the facet-major campaign grid
    index: int
    pair: "PairResult"
    #: virtual seconds the pair's machine consumed
    elapsed_virtual_s: float
    #: journal-resume replay of a previous run's result (already durable;
    #: a :class:`~repro.core.journal.JournalSink` must not re-append it)
    replayed: bool = False


@dataclass(frozen=True)
class PairSkipped(CampaignEvent):
    """One planned (driver-side, recomputable) skip."""

    index: int
    #: a :class:`~repro.core.results.PairResult` with ``skipped=True``
    pair: "PairResult"


@dataclass(frozen=True)
class PairRetried(CampaignEvent):
    """A dispatch unit failed and its grid indices will be re-measured."""

    indices: tuple[int, ...]
    #: the unit's failure count so far (1 = first retry upcoming)
    attempt: int
    cause: str = ""


@dataclass(frozen=True)
class CampaignFinished(CampaignEvent):
    """Terminal event of a completed (non-interrupted) campaign."""

    wall_virtual_s: float
    #: SM clock a single-facet non-default-axis campaign was locked at
    locked_sm_mhz: float | None = None


class CampaignSink:
    """Base sink: receives every event; override :meth:`on_event`.

    Sinks run synchronously on the driver thread, in emission order; a
    sink registered after the journal gets a group's events once the
    journal has fsync'd them (see :class:`StreamDispatcher`).  A sink
    must never mutate event payloads — the same ``PairResult`` object
    feeds every sink and the final
    :class:`~repro.core.results.CampaignResult`.
    """

    def on_event(self, event: CampaignEvent) -> None:  # pragma: no cover
        """Handle one event (default: ignore it)."""

    def on_interrupt(self) -> None:  # pragma: no cover
        """Campaign interrupted: no ``CampaignFinished`` will arrive.

        Called exactly once, after the last delivered event, when the
        campaign stops early (shutdown signal, service cancellation).
        Default: ignore it.  Sinks that write terminal artifacts use
        this to emit an explicitly-partial one instead of none.
        """


class StreamDispatcher:
    """Fan one campaign event stream out to many sinks, in order.

    ``None`` entries are dropped so call sites can pass optional sinks
    unconditionally.  A sink with a true ``durable`` attribute (the
    :class:`~repro.core.journal.JournalSink`) is the stream's commit
    point.  It and every sink before it get each event before
    :meth:`emit` returns.  The sinks after it get an event at once as
    well, except inside :meth:`emit_group`: there they get the group's
    events, in order, right after the durable sink has committed the
    group on its last event.  Every event passes through :meth:`emit`
    exactly once either way.
    """

    def __init__(self, *sinks: "CampaignSink | None") -> None:
        self.sinks: tuple[CampaignSink, ...] = tuple(
            s for s in sinks if s is not None
        )
        self._durable = [s for s in self.sinks if getattr(s, "durable", False)]
        split = (
            self.sinks.index(self._durable[-1]) + 1
            if self._durable
            else len(self.sinks)
        )
        self._front = self.sinks[:split]
        self._back = self.sinks[split:]
        #: events of the open group not yet delivered to ``_back``
        self._held: "list[CampaignEvent] | None" = None
        self._deferring = False

    def emit(self, event: CampaignEvent) -> None:
        """Deliver one event to every sink, in registration order."""
        for sink in self._front:
            sink.on_event(event)
        held = self._held
        if held is None:
            held = (event,)
        else:
            held.append(event)
            if self._deferring:
                return
            self._held = None
        for event in held:
            for sink in self._back:
                sink.on_event(event)

    def emit_group(self, events: Iterable[CampaignEvent]) -> None:
        """Deliver events as one durable group: one journal fsync.

        The durable sinks defer their commit until the group's last
        event; the sinks after them get the whole group, in order, once
        that commit has returned.  If a sink raises mid-group, the sinks
        after the durable one never see the group's uncommitted events.
        """
        events = list(events)
        self._held = []
        try:
            for n, event in enumerate(events, 1):
                self._defer(n < len(events))
                self.emit(event)
        finally:
            self._defer(False)
            self._held = None

    def _defer(self, deferring: bool) -> None:
        self._deferring = deferring
        for sink in self._durable:
            sink.defer_commit = deferring

    def emit_all(self, events: Iterable[CampaignEvent]) -> None:
        """Deliver a sequence of events, preserving their order."""
        for event in events:
            self.emit(event)

    def interrupt(self) -> None:
        """Notify every sink the stream ended without ``CampaignFinished``.

        Sinks are duck-typed (anything with ``on_event``), so the hook is
        looked up tolerantly: a sink without ``on_interrupt`` is skipped.
        """
        for sink in self.sinks:
            hook = getattr(sink, "on_interrupt", None)
            if hook is not None:
                hook()


class ProgressSink(CampaignSink):
    """Live one-line campaign progress for interactive runs (``--progress``).

    Rewrites one carriage-return-terminated status line per pair event —
    measured/skipped/replayed counts against the grid total, plus
    supervision retries — and finishes it with the virtual wall clock at
    ``CampaignFinished``.  Writes to ``out`` (default stderr) so the
    stream never pollutes parseable stdout output.
    """

    def __init__(self, out=None) -> None:
        self.out = out if out is not None else sys.stderr
        self.total = 0
        self.measured = 0
        self.skipped = 0
        self.replayed = 0
        self.retries = 0
        self._label = "campaign"

    # ------------------------------------------------------------------
    def _render(self, suffix: str = "") -> None:
        done = self.measured + self.skipped
        line = (
            f"\r[{self._label}] {done}/{self.total} pairs"
            f" ({self.measured} measured"
            + (f", {self.replayed} replayed" if self.replayed else "")
            + f", {self.skipped} skipped, {self.retries} retried)"
            + suffix
        )
        self.out.write(line)
        self.out.flush()

    def on_event(self, event: CampaignEvent) -> None:
        """Update the counters and redraw the progress line."""
        if isinstance(event, CampaignStarted):
            self.total = len(event.facet_plan) * event.n_pairs
            self._label = f"{event.axis} campaign"
            self._render()
        elif isinstance(event, PairMeasured):
            self.measured += 1
            if event.replayed:
                self.replayed += 1
            self._render()
        elif isinstance(event, PairSkipped):
            self.skipped += 1
            self._render()
        elif isinstance(event, PairRetried):
            self.retries += 1
            self._render()
        elif isinstance(event, CampaignFinished):
            self._render(
                suffix=f" — done in {event.wall_virtual_s:.2f} virtual s\n"
            )


@dataclass
class RecordingSink(CampaignSink):
    """Test/service utility: records every event in arrival order."""

    events: list[CampaignEvent] = field(default_factory=list)

    def on_event(self, event: CampaignEvent) -> None:
        """Append the event to the record."""
        self.events.append(event)

    def of_type(self, *types) -> list[CampaignEvent]:
        """The recorded events that are instances of ``types``."""
        return [e for e in self.events if isinstance(e, types)]
