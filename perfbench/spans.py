"""Layer spans and work counters for the benchmark's traced run.

The tracer times calls into each layer's public functions from outside
the program: :meth:`Tracer.install` replaces each function at the module
or class attribute its callers look up, and :meth:`Tracer.uninstall`
puts the originals back.  A function imported by name (``from m import
f``) is bound in the importing module, so it is wrapped there, not in
the module that defines it.

Every span records the time its thread spent in it.  A layer's *self
time* is the span's duration minus the child spans on the same thread,
so the fleet threads of the service never count one interval twice.
Work runs inside an *envelope* span (the campaign call on the main
thread, a scheduler shard or an engine prepare/finish on a fleet
thread); the envelope's own self time is the part of the work that no
layer span covers.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

#: layer name of envelope spans; its self time is the uncovered remainder
UNATTRIBUTED = "unattributed"


class Tracer:
    """Per-thread span stacks, summed self times, and exact counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        #: per-call observations (service queue waits, shard run times)
        self.samples: defaultdict = defaultdict(list)

    # -- spans ----------------------------------------------------------
    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {
                "stack": [],
                "self_ns": Counter(),
                "inclusive_ns": Counter(),
                "envelope_ns": 0,
            }
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def enter(self, layer: str) -> None:
        self._state()["stack"].append([layer, time.perf_counter_ns(), 0])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        state = self._local.state
        stack = state["stack"]
        layer, start, child_ns = stack.pop()
        duration = end - start
        state["self_ns"][layer] += duration - child_ns
        if not any(frame[0] == layer for frame in stack):
            state["inclusive_ns"][layer] += duration
        if stack:
            stack[-1][2] += duration
        elif layer == UNATTRIBUTED:
            state["envelope_ns"] += duration

    @contextmanager
    def span(self, layer: str):
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    def idle(self) -> bool:
        """True when the calling thread is inside no span."""
        return not self._state()["stack"]

    def inside(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self._state()["stack"])

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += int(n)

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    # -- results --------------------------------------------------------
    def reset(self) -> None:
        """Drop every total; call between repetitions, not inside one."""
        with self._lock:
            for state in self._threads:
                state["self_ns"].clear()
                state["inclusive_ns"].clear()
                state["envelope_ns"] = 0
            self.counts.clear()
            self.samples.clear()

    def _seconds(self, key: str) -> dict[str, float]:
        total: Counter = Counter()
        with self._lock:
            for state in self._threads:
                total.update(state[key])
        return {layer: ns / 1e9 for layer, ns in total.items()}

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer, summed over threads."""
        return self._seconds("self_ns")

    def inclusive_seconds(self) -> dict[str, float]:
        """Time inside each layer's outermost spans, children included."""
        return self._seconds("inclusive_ns")

    def envelope_seconds(self) -> float:
        with self._lock:
            return sum(s["envelope_ns"] for s in self._threads) / 1e9

    # -- patching -------------------------------------------------------
    def wrap(self, owner, name: str, layer: str | None, before=None, after=None):
        """Replace ``owner.name`` by a spanned, counted wrapper.

        ``before(args, kwargs)`` and ``after(result, args)`` are counter
        hooks run outside the span.  ``layer=None`` only counts.
        """
        original = getattr(owner, name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if layer is None:
                result = original(*args, **kwargs)
            else:
                tracer.enter(layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.exit()
            if after is not None:
                after(result, args)
            return result

        setattr(owner, name, traced)
        self._patches.append((owner, name, original))

    def wrap_envelope(self, owner, name: str) -> None:
        """Open an envelope around ``owner.name`` when no span is open.

        Used for work a fleet thread picks up; on a thread that is
        already inside an envelope the call is passed through untimed.
        """
        original = getattr(owner, name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.idle():
                return original(*args, **kwargs)
            with tracer.span(UNATTRIBUTED):
                return original(*args, **kwargs)

        setattr(owner, name, traced)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def install(self) -> None:
        """Wrap every traced layer function (see the module docs)."""
        from repro import machine
        from repro.clustering import adaptive
        from repro.core import calibcache, campaign, csvio, journal, passblock, stream
        from repro.exec import engine
        from repro.gpusim import device, sm
        from repro.service import bridge, scheduler, service
        from repro.simtime import clock

        count = self.count

        def counted(name, n=1):
            return lambda args, kwargs: count(name, n)

        def sized(name):
            return lambda result, args: count(name, np.size(result))

        # gpusim: cycle draws, boundary integration, boundary inversion
        self.wrap(device, "sample_iteration_cycles", "gpusim.draw",
                  before=counted("gpusim.kernels"), after=sized("gpusim.normals_drawn"))
        self.wrap(device, "prepare_integration_from_boundaries", "gpusim.integrate")

        def not_yet_inverted(args, kwargs):
            pending = args[0]
            if pending._ends is None and pending.cycles_cum is not None:
                count("gpusim.elements_inverted", pending.cycles_cum.size)

        self.wrap(sm.PendingIntegration, "ends_true", "gpusim.invert",
                  before=not_yet_inverted)
        self.wrap(clock.HardwareClock, "convert_array", "simtime.convert",
                  after=sized("simtime.elements_converted"))

        # phase 2 passes, phase 3 evaluation, pass-block rollbacks
        self.wrap(passblock, "run_switch_benchmark", "phase2.pass",
                  before=counted("phase2.passes_speculated"))
        self.wrap(passblock, "evaluate_switch_block_deferred", "phase3.eval",
                  after=lambda result, args: count("phase3.passes_evaluated", len(result)))
        self.wrap(passblock, "evaluate_switch", "phase3.eval",
                  before=counted("phase3.passes_evaluated"))
        self.wrap(machine.Machine, "restore", "passblock.restore",
                  before=counted("passblock.rollbacks"))

        # calibration (phase 1 + probes per facet) and the calibration cache
        self.wrap(engine, "calibrate_facet", "calibration",
                  before=counted("calibration.facets_run"))
        self.wrap(engine, "run_phase1", "calibration",
                  before=counted("calibration.facets_run"))
        if hasattr(engine.CampaignExecutor, "_calibrate_on_driver"):
            # The driver-scheme twin of calibrate_facet: phase 1 plus the
            # probe passes; its run_phase1 call is counted above.
            self.wrap(engine.CampaignExecutor, "_calibrate_on_driver", "calibration")

        def hit_or_miss(result, args):
            count("calibcache.misses" if result is None else "calibcache.hits")

        self.wrap(calibcache.CalibrationCache, "get", "calibcache", after=hit_or_miss)
        self.wrap(calibcache.CalibrationCache, "install", "calibcache")

        # outlier filtering (bound lazily by passblock, eagerly by campaign)
        self.wrap(adaptive, "adaptive_dbscan", "clustering.dbscan")
        self.wrap(campaign, "adaptive_dbscan", "clustering.dbscan")

        # event stream and its sinks
        self.wrap(stream.StreamDispatcher, "emit", "stream.emit",
                  before=counted("stream.events"))
        self.wrap(journal.JournalSink, "on_event", "journal")

        def journal_fsync(args, kwargs):
            if self.inside("journal"):
                count("journal.fsyncs")

        self.wrap(os, "fsync", None, before=journal_fsync)
        self.wrap(csvio.CsvStreamSink, "on_event", "csvio.write")
        self.wrap(engine, "write_campaign_csvs", "csvio.write")

        # supervised dispatch and the per-pair worker entry
        for owner in (engine, service):
            self.wrap(owner, "run_units_inprocess", "exec.dispatch",
                      after=lambda result, args: count("exec.units", len(args[0])))
            self.wrap(owner, "run_pair_job", "worker.pair")

        # service: scheduler queue wait, fleet busy time, event bridge
        tracer = self

        def traced_submit(original):
            @functools.wraps(original)
            def submit(self_, queue, cost, fn):
                submitted = time.perf_counter()

                def shard():
                    started = time.perf_counter()
                    tracer.sample("service.queue_wait_s", started - submitted)
                    try:
                        with tracer.span(UNATTRIBUTED):
                            return fn()
                    finally:
                        tracer.sample(
                            "service.shard_busy_s", time.perf_counter() - started
                        )

                count("service.shards")
                return original(self_, queue, cost, shard)

            return submit

        original_submit = scheduler.FairShareScheduler.submit
        scheduler.FairShareScheduler.submit = traced_submit(original_submit)
        self._patches.append((scheduler.FairShareScheduler, "submit", original_submit))
        self.wrap(bridge.EventBroadcast, "publish", "service.bridge_publish")
        self.wrap_envelope(engine.CampaignExecutor, "prepare")
        self.wrap_envelope(engine.CampaignExecutor, "finish")
