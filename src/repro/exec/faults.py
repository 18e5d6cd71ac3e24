"""Deterministic fault injection for the campaign execution engine.

The recovery machinery (worker supervision, retries, journal + resume)
is only trustworthy if every path is exercised under *reproducible*
faults.  A :class:`FaultPlan` is parsed from a spec string
(``--inject-faults``) that travels to worker processes inside the
campaign config, so driver and workers agree on exactly which job
triggers which fault — no timing, no randomness, no cross-process state.

Spec grammar
------------
Semicolon/comma-separated actions, each ``kind@index[*fires][:param]``:

``kill@K``
    The worker process running grid-index-``K``'s job calls
    ``os._exit(1)`` before measuring (a hard crash: ``BrokenProcessPool``
    on the process-pool path).
``hang@K[:SECONDS]``
    The job sleeps for ``SECONDS`` real seconds (default 3600) — long
    enough that the supervisor's per-job timeout fires first.
``raise@K``
    Raises :class:`FaultInjected` inside the measurement entry point (a
    crash *inside* the measure phases that surfaces as a worker error).
``interrupt@N``
    Fires on the **driver** after the ``N``-th pair result has been
    merged: sends ``SIGINT`` to the driver process itself, exercising the
    real graceful-shutdown signal path (drain, journal flush,
    :class:`~repro.errors.CampaignInterrupted`).

Every worker-side action is **attempt-gated**: it fires while the job's
retry attempt is below ``fires`` (default 1 — first attempt only), so a
retried job succeeds and the test suite can assert that recovery
converges to results bit-identical to a fault-free run.  ``raise@K*99``
makes a fault effectively permanent, driving the quarantine path.

Determinism note: faults never touch the measurement state.  Replica
machines derive their streams from the grid index alone, so a job retried
after a kill/hang/raise reproduces the exact result the fault-free run
would have produced.
"""

from __future__ import annotations

import os
import re
import signal
import time
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ConfigError

__all__ = ["FaultAction", "FaultInjected", "FaultPlan", "fault_plan"]


class FaultInjected(RuntimeError):
    """The error raised by ``raise@K`` fault actions."""


_KINDS = ("kill", "hang", "raise", "interrupt")

_ACTION_RE = re.compile(
    r"^(?P<kind>[a-z]+)@(?P<index>\d+)"
    r"(?:\*(?P<fires>\d+))?(?::(?P<param>[0-9.]+))?$"
)


@dataclass(frozen=True)
class FaultAction:
    """One parsed fault trigger."""

    kind: str
    index: int
    fires: int = 1
    param: float | None = None


class FaultPlan:
    """A parsed, deterministic set of fault triggers.

    Worker-side entry points call :meth:`fire_worker` with the jobs they
    are about to run; the driver calls :meth:`fire_driver` with the
    running count of merged pair results.  The driver-side interrupt
    latch is per-plan state, so parse one plan per campaign run
    (``FaultPlan.parse``) on the driver; workers may share the
    process-cached :func:`fault_plan`.
    """

    def __init__(self, actions: tuple[FaultAction, ...]) -> None:
        self.actions = actions
        self._interrupt_fired = False

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: "str | None") -> "FaultPlan | None":
        """Parse a spec string; ``None``/empty means no faults."""
        if not spec:
            return None
        actions = []
        for token in re.split(r"[;,]", spec):
            token = token.strip()
            if not token:
                continue
            match = _ACTION_RE.match(token)
            if match is None:
                raise ConfigError(
                    f"malformed fault action {token!r} (expected "
                    "kind@index[*fires][:param], e.g. kill@3 or hang@5:30)"
                )
            kind = match["kind"]
            if kind not in _KINDS:
                raise ConfigError(
                    f"unknown fault kind {kind!r} (choose from "
                    f"{', '.join(_KINDS)})"
                )
            fires = int(match["fires"]) if match["fires"] else 1
            if fires < 1:
                raise ConfigError(f"fault fire count must be >= 1: {token!r}")
            actions.append(
                FaultAction(
                    kind=kind,
                    index=int(match["index"]),
                    fires=fires,
                    param=float(match["param"]) if match["param"] else None,
                )
            )
        if not actions:
            return None
        return cls(tuple(actions))

    # ------------------------------------------------------------------
    def _matching(self, kind: str, index: int, attempt: int):
        for action in self.actions:
            if (
                action.kind == kind
                and action.index == index
                and attempt < action.fires
            ):
                return action
        return None

    def fire_worker(self, job, in_process: bool = False) -> None:
        """Trigger kill/hang/raise actions for one job, attempt-gated.

        Called at the top of the worker measurement entry points with the
        :class:`~repro.exec.jobs.PairJob` about to run (``job.attempt``
        carries the supervisor's retry count).  ``in_process=True``
        downgrades ``kill`` to :class:`FaultInjected` — the in-process
        runner shares the driver, and injected faults must never take the
        campaign driver down with them.
        """
        attempt = getattr(job, "attempt", 0)
        if self._matching("kill", job.index, attempt) is not None:
            if in_process:
                raise FaultInjected(
                    f"injected kill at job index {job.index} "
                    f"(attempt {attempt}, downgraded in-process)"
                )
            os._exit(1)
        action = self._matching("hang", job.index, attempt)
        if action is not None:
            time.sleep(action.param if action.param is not None else 3600.0)
        action = self._matching("raise", job.index, attempt)
        if action is not None:
            raise FaultInjected(
                f"injected fault at job index {job.index} "
                f"(attempt {attempt})"
            )

    def fire_driver(self, merged_count: int) -> None:
        """Driver-side trigger: SIGINT once ``merged_count`` reaches N."""
        if self._interrupt_fired:
            return
        for action in self.actions:
            if action.kind == "interrupt" and merged_count >= action.index:
                self._interrupt_fired = True
                os.kill(os.getpid(), signal.SIGINT)
                return


@lru_cache(maxsize=8)
def fault_plan(spec: "str | None") -> "FaultPlan | None":
    """Process-cached plan for worker entry points (specs are tiny)."""
    return FaultPlan.parse(spec)
