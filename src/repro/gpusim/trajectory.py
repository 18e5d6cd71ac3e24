"""Piecewise-constant SM frequency trajectories.

The DVFS clock domain compiles every event affecting the SM clock — wake-up
ramps, locked-clock requests completing, adaptation steps, throttle caps —
into a :class:`FrequencyTrajectory`: an ordered list of contiguous
:class:`Segment` intervals with constant frequency.  The SM execution engine
then integrates iteration cycles over those segments.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import SimulationError

__all__ = ["Segment", "FrequencyTrajectory"]


@dataclass(frozen=True)
class Segment:
    """A half-open interval ``[t_start, t_end)`` of constant SM frequency."""

    t_start: float
    t_end: float
    freq_mhz: float

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def freq_hz(self) -> float:
        return self.freq_mhz * 1e6


class FrequencyTrajectory:
    """An ordered, contiguous sequence of constant-frequency segments.

    The final segment may extend to ``+inf`` (the steady state after the
    last event), which is the common case for a kernel that keeps running
    after the clock stabilizes at the target frequency.
    """

    def __init__(self, segments: Iterable[Segment]) -> None:
        segs = list(segments)
        if not segs:
            raise SimulationError("trajectory needs at least one segment")
        for prev, cur in zip(segs, segs[1:]):
            if abs(prev.t_end - cur.t_start) > 1e-12:
                raise SimulationError(
                    f"trajectory gap: segment ends at {prev.t_end}, "
                    f"next starts at {cur.t_start}"
                )
            if cur.duration < 0:
                raise SimulationError("negative-duration segment")
        self.segments: list[Segment] = segs
        self._starts = [s.t_start for s in segs]

    # ------------------------------------------------------------------
    @classmethod
    def from_events(
        cls, t0: float, f0_mhz: float, events: Iterable[tuple[float, float]]
    ) -> "FrequencyTrajectory":
        """Build from a start state and a time-ordered ``(time, freq)`` list.

        Events at or before ``t0`` override the initial frequency; duplicate
        timestamps keep the last event.  The last segment is unbounded.
        """
        f = f0_mhz
        pending: list[tuple[float, float]] = []
        for t, freq in sorted(events, key=lambda e: e[0]):
            if t <= t0:
                f = freq
            else:
                pending.append((t, freq))

        segments: list[Segment] = []
        cur_t, cur_f = t0, f
        for t, freq in pending:
            if freq == cur_f:
                continue
            if t > cur_t:
                segments.append(Segment(cur_t, t, cur_f))
                cur_t = t
            cur_f = freq
        segments.append(Segment(cur_t, float("inf"), cur_f))

        # Same-timestamp event chains can leave adjacent equal-frequency
        # segments; merge them so freq_at/iter_from see canonical form.
        merged: list[Segment] = [segments[0]]
        for seg in segments[1:]:
            if seg.freq_mhz == merged[-1].freq_mhz:
                merged[-1] = Segment(
                    merged[-1].t_start, seg.t_end, seg.freq_mhz
                )
            else:
                merged.append(seg)
        return cls(merged)

    # ------------------------------------------------------------------
    @property
    def t_start(self) -> float:
        return self.segments[0].t_start

    @property
    def final_freq_mhz(self) -> float:
        return self.segments[-1].freq_mhz

    def freq_at(self, t: float) -> float:
        """Frequency in MHz at true time ``t``."""
        if t < self.t_start:
            raise SimulationError(f"time {t} precedes trajectory start")
        i = bisect_right(self._starts, t) - 1
        return self.segments[i].freq_mhz

    def iter_from(self, t: float) -> Iterator[Segment]:
        """Segments overlapping ``[t, inf)``, first one clipped to start at ``t``."""
        i = bisect_right(self._starts, t) - 1
        if i < 0:
            raise SimulationError(f"time {t} precedes trajectory start")
        first = self.segments[i]
        yield Segment(max(first.t_start, t), first.t_end, first.freq_mhz)
        yield from self.segments[i + 1 :]

    def __len__(self) -> int:
        return len(self.segments)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(
            f"[{s.t_start:.6f},{s.t_end:.6f})@{s.freq_mhz:g}MHz"
            for s in self.segments[:4]
        )
        more = "" if len(self.segments) <= 4 else f", ... {len(self.segments)} total"
        return f"FrequencyTrajectory({parts}{more})"
