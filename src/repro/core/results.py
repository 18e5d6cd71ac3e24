"""Result containers for switching-latency campaigns."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.clustering.adaptive import AdaptiveDbscanResult
from repro.errors import MeasurementError
from repro.stats.descriptive import SampleStats, summarize

__all__ = [
    "PairKey",
    "GridKey",
    "OutlierLabels",
    "SwitchingLatencyMeasurement",
    "PairResult",
    "CampaignResult",
    "ResultAccumulator",
]

#: (initial_mhz, target_mhz)
PairKey = tuple[float, float]
#: (initial_mhz, target_mhz, memory_mhz) — key form of core×memory campaigns
GridKey = tuple[float, float, float]


@dataclass(frozen=True)
class OutlierLabels:
    """Cluster labels restored from a persisted pair CSV.

    The lightweight stand-in for
    :class:`~repro.clustering.adaptive.AdaptiveDbscanResult` when a pair is
    loaded back from disk: the DBSCAN descent trace is not persisted, but
    the labels (and therefore the kept/outlier masks) round-trip exactly,
    so ``latencies_s(without_outliers=True)`` and a re-write of the CSV
    behave identically to the in-memory original.
    """

    labels: np.ndarray

    @property
    def outlier_mask(self) -> np.ndarray:
        return self.labels == -1

    @property
    def kept_mask(self) -> np.ndarray:
        return self.labels != -1

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1 if (self.labels >= 0).any() else 0

    @property
    def outlier_ratio(self) -> float:
        if self.labels.size == 0:
            return 0.0
        return float(self.outlier_mask.mean())


@dataclass(frozen=True)
class SwitchingLatencyMeasurement:
    """One accepted switching-latency measurement.

    ``ground_truth_s`` is simulator introspection: the actual injected
    latency for the transition (unavailable on physical hardware — used to
    validate the methodology itself).  ``ground_truth_outlier`` marks
    measurements whose transition draw included the driver-noise outlier
    process.
    """

    latency_s: float
    ts_acc: float
    te_acc: float
    n_valid_sm: int
    window_iterations: int
    ground_truth_s: float | None = None
    ground_truth_outlier: bool = False


@dataclass
class PairResult:
    """Everything measured for one (initial, target) swept-clock pair.

    ``axis`` names the swept clock domain the pair belongs to
    (:mod:`repro.core.axis`): ``init_mhz``/``target_mhz`` are SM clocks on
    the default ``"sm_core"`` axis, memory clocks on the ``"memory"``
    axis, and power limits in watts on the ``"power"`` axis.
    ``memory_mhz`` is the locked memory clock an *SM-axis* pair was
    measured at (``None`` in legacy fixed-memory campaigns and on the
    other axes, whose locked complement is the campaign-level SM clock).
    ``locked_sm_mhz`` is the SM-clock facet of a *multi-facet* swept-axis
    campaign (``None`` in single-facet campaigns, where the facet lives on
    the campaign result instead).
    """

    init_mhz: float
    target_mhz: float
    measurements: list[SwitchingLatencyMeasurement] = field(default_factory=list)
    outliers: "AdaptiveDbscanResult | OutlierLabels | None" = None
    skipped: bool = False
    skip_reason: str = ""
    n_failed_attempts: int = 0
    n_throttle_discards: int = 0
    n_window_growths: int = 0
    memory_mhz: float | None = None
    axis: str = "sm_core"
    locked_sm_mhz: float | None = None
    #: supervision bookkeeping: worker-level retries this pair survived
    #: (crash/timeout/transport failures — not measurement-loop retries,
    #: which are ``n_failed_attempts``).  Never affects measurements or
    #: CSV bytes; a retried job is bit-identical to an undisturbed one.
    n_retries: int = 0

    # ------------------------------------------------------------------
    @property
    def key(self) -> PairKey:
        return (self.init_mhz, self.target_mhz)

    @property
    def grid_key(self) -> "PairKey | GridKey":
        if self.memory_mhz is not None:
            return (self.init_mhz, self.target_mhz, self.memory_mhz)
        if self.locked_sm_mhz is not None:
            return (self.init_mhz, self.target_mhz, self.locked_sm_mhz)
        return (self.init_mhz, self.target_mhz)

    @property
    def increasing(self) -> bool:
        return self.target_mhz > self.init_mhz

    @property
    def n_measurements(self) -> int:
        return len(self.measurements)

    def latencies_s(self, without_outliers: bool = True) -> np.ndarray:
        """Measured latencies, optionally with DBSCAN outliers removed."""
        values = np.asarray([m.latency_s for m in self.measurements])
        if without_outliers and self.outliers is not None:
            return values[self.outliers.kept_mask]
        return values

    def ground_truths_s(self, without_outliers: bool = True) -> np.ndarray:
        values = np.asarray(
            [
                m.ground_truth_s if m.ground_truth_s is not None else np.nan
                for m in self.measurements
            ]
        )
        if without_outliers and self.outliers is not None:
            return values[self.outliers.kept_mask]
        return values

    def stats(self, without_outliers: bool = True) -> SampleStats:
        values = self.latencies_s(without_outliers)
        if values.size == 0:
            raise MeasurementError(
                f"pair {self.init_mhz:g}->{self.target_mhz:g} has no "
                f"{'kept ' if without_outliers else ''}measurements"
            )
        return summarize(values)

    def best_case_s(self, without_outliers: bool = True) -> float:
        """Minimum observed switching latency for this pair."""
        return self.stats(without_outliers).minimum

    def worst_case_s(self, without_outliers: bool = True) -> float:
        """Maximum observed switching latency for this pair."""
        return self.stats(without_outliers).maximum

    @property
    def n_clusters(self) -> int:
        return self.outliers.n_clusters if self.outliers is not None else 0


@dataclass
class CampaignResult:
    """Output of a full switching-latency campaign on one GPU.

    Legacy fixed-memory campaigns key ``pairs`` by ``(init, target)``;
    core×memory campaigns (``memory_frequencies`` set) key the dict by
    ``(init, target, memory)`` and carry one full SM pair grid per memory
    clock.  ``axis`` names the swept clock domain
    (:mod:`repro.core.axis`): on the ``"memory"`` axis ``frequencies``
    and all pair keys are memory clocks (power limits in watts on the
    ``"power"`` axis), measured at the locked SM clock ``locked_sm_mhz``.
    Multi-facet swept-axis campaigns (``locked_sm_frequencies`` set) key
    the dict by ``(init, target, locked_sm)`` and carry one full pair
    grid per locked SM clock — the transpose of the core×memory grid.
    """

    gpu_name: str
    architecture: str
    hostname: str
    device_index: int
    frequencies: tuple[float, ...]
    pairs: "dict[PairKey | GridKey, PairResult]"
    phase1: "Phase1Result | None" = None  # noqa: F821 - forward ref
    wall_virtual_s: float = 0.0
    memory_frequencies: tuple[float, ...] | None = None
    #: per-facet phase-1 characterizations of faceted campaigns, keyed by
    #: the facet coordinate — memory clocks for core×memory grids, locked
    #: SM clocks for multi-facet swept-axis sweeps (``phase1`` stays the
    #: first facet's result)
    phase1_by_memory: "dict | None" = None
    #: swept clock domain of the campaign (:mod:`repro.core.axis`)
    axis: str = "sm_core"
    #: SM clock a single-facet memory-/power-axis campaign was locked at
    #: (``None`` otherwise, including multi-facet sweeps)
    locked_sm_mhz: float | None = None
    #: locked-SM facet plan of a multi-facet swept-axis campaign
    locked_sm_frequencies: tuple[float, ...] | None = None

    # ------------------------------------------------------------------
    @property
    def swept_label(self) -> str:
        """Human label of the swept clock domain (for reports/CLI)."""
        from repro.core.axis import axis_by_name

        return axis_by_name(self.axis).describe()

    @property
    def facet_kind(self) -> str | None:
        """Human label of the campaign's facet dimension (``None`` when
        the campaign has a single implicit facet)."""
        if self.locked_sm_frequencies is not None:
            return "locked SM clock"
        if self.memory_frequencies is not None:
            return "memory clock"
        return None

    # ------------------------------------------------------------------
    def _resolve_memory(self, memory_mhz: float | None) -> float | None:
        """Pick the facet an accessor should read when one is required."""
        if self.memory_frequencies is None:
            if memory_mhz is not None:
                raise MeasurementError(
                    "campaign swept no memory clocks; omit memory_mhz"
                )
            return None
        if memory_mhz is not None:
            return float(memory_mhz)
        if len(self.memory_frequencies) == 1:
            return float(self.memory_frequencies[0])
        raise MeasurementError(
            "campaign swept multiple memory clocks "
            f"{self.memory_frequencies}; pass memory_mhz to select a facet"
        )

    def _resolve_locked_sm(self, locked_sm_mhz: float | None) -> float | None:
        """Pick the locked-SM facet an accessor should read, if any."""
        if self.locked_sm_frequencies is None:
            if locked_sm_mhz is not None:
                raise MeasurementError(
                    "campaign swept no locked-SM facets; omit locked_sm_mhz"
                )
            return None
        if locked_sm_mhz is not None:
            return float(locked_sm_mhz)
        if len(self.locked_sm_frequencies) == 1:
            return float(self.locked_sm_frequencies[0])
        raise MeasurementError(
            "campaign swept multiple locked SM clocks "
            f"{self.locked_sm_frequencies}; pass locked_sm_mhz to select "
            "a facet"
        )

    def pair(
        self,
        init_mhz: float,
        target_mhz: float,
        memory_mhz: float | None = None,
        locked_sm_mhz: float | None = None,
    ) -> PairResult:
        mem = self._resolve_memory(memory_mhz)
        # Resolved unconditionally: passing a locked-SM facet to a grid
        # campaign (or vice versa — the two facet kinds are mutually
        # exclusive) must raise, not be silently dropped.
        sm = self._resolve_locked_sm(locked_sm_mhz)
        facet = mem if mem is not None else sm
        key = (
            (float(init_mhz), float(target_mhz))
            if facet is None
            else (float(init_mhz), float(target_mhz), facet)
        )
        try:
            return self.pairs[key]
        except KeyError:
            raise MeasurementError(
                f"pair {init_mhz:g}->{target_mhz:g}"
                + (f" @ mem {mem:g} MHz" if mem is not None else "")
                + (
                    f" @ SM {facet:g} MHz"
                    if mem is None and facet is not None
                    else ""
                )
                + " not in campaign"
            ) from None

    def iter_measured(
        self,
        memory_mhz: "float | None" = ...,
        locked_sm_mhz: "float | None" = ...,
    ) -> Iterator[PairResult]:
        """Pairs that produced at least one measurement.

        ``memory_mhz`` restricts iteration to one memory facet of a
        core×memory campaign, ``locked_sm_mhz`` to one locked-SM facet of
        a multi-facet swept-axis campaign; the defaults (``...``) yield
        every facet.
        """
        for p in self.pairs.values():
            if p.skipped or p.n_measurements == 0:
                continue
            if memory_mhz is not ... and p.memory_mhz != memory_mhz:
                continue
            if locked_sm_mhz is not ... and p.locked_sm_mhz != locked_sm_mhz:
                continue
            yield p

    @property
    def n_measured_pairs(self) -> int:
        return sum(1 for _ in self.iter_measured())

    @property
    def skipped_pairs(self) -> list[PairResult]:
        return [p for p in self.pairs.values() if p.skipped]

    # ------------------------------------------------------------------
    def latency_matrix(
        self,
        statistic: str = "max",
        without_outliers: bool = True,
        memory_mhz: "float | None" = ...,
        locked_sm_mhz: "float | None" = ...,
    ) -> np.ndarray:
        """(init x target) latency grid in seconds; NaN where unmeasured.

        ``statistic``: "max" (worst case), "min" (best case), "mean" or
        "count".  Rows are initial frequencies, columns target frequencies,
        both in the campaign's frequency order — matching the orientation
        of the paper's Fig. 3 heatmaps.  Faceted campaigns produce one
        grid per facet: select it with ``memory_mhz`` (core×memory grids)
        or ``locked_sm_mhz`` (multi-facet swept-axis sweeps), required
        when more than one facet was swept.
        """
        if memory_mhz is ...:
            memory_mhz = self._resolve_memory(None)
        if locked_sm_mhz is ...:
            locked_sm_mhz = self._resolve_locked_sm(None)
        freqs = list(self.frequencies)
        grid = np.full((len(freqs), len(freqs)), np.nan)
        for p in self.iter_measured(memory_mhz, locked_sm_mhz):
            i = freqs.index(p.init_mhz)
            j = freqs.index(p.target_mhz)
            values = p.latencies_s(without_outliers)
            if values.size == 0:
                continue
            if statistic == "max":
                grid[i, j] = values.max()
            elif statistic == "min":
                grid[i, j] = values.min()
            elif statistic == "mean":
                grid[i, j] = values.mean()
            elif statistic == "count":
                grid[i, j] = values.size
            else:
                raise MeasurementError(f"unknown statistic {statistic!r}")
        return grid

    def all_latencies_s(self, without_outliers: bool = True) -> np.ndarray:
        """Every kept measurement across all pairs, concatenated."""
        chunks = [p.latencies_s(without_outliers) for p in self.iter_measured()]
        if not chunks:
            return np.empty(0)
        return np.concatenate(chunks)


class ResultAccumulator:
    """The sink that assembles a :class:`CampaignResult` from the stream.

    Every execution tier — in-process and process-pool engine, service
    thread fleet, journal-resume replay — emits the campaign event stream
    (:mod:`repro.core.stream`), and this sink is the *only* way a
    ``CampaignResult`` is built from a live campaign.  Pair events are
    keyed by flat grid index, so completion-order delivery accumulates
    to a grid-order ``pairs`` dict: iteration order (and therefore
    summary-CSV row order) is index order, independent of worker count
    or completion order.
    """

    def __init__(self) -> None:
        self._started: "object | None" = None
        self._finished: "object | None" = None
        self._pairs_by_index: dict[int, PairResult] = {}
        self._phase1_by_facet: dict = {}

    # ------------------------------------------------------------------
    def on_event(self, event) -> None:
        from repro.core import stream

        if isinstance(event, stream.CampaignStarted):
            self._started = event
        elif isinstance(event, stream.FacetPrepared):
            if event.phase1 is not None:
                self._phase1_by_facet[event.facet] = event.phase1
        elif isinstance(event, (stream.PairMeasured, stream.PairSkipped)):
            self._pairs_by_index[event.index] = event.pair
        elif isinstance(event, stream.CampaignFinished):
            self._finished = event

    # ------------------------------------------------------------------
    def result(self) -> CampaignResult:
        """Assemble the campaign result (requires ``CampaignFinished``)."""
        started, finished = self._started, self._finished
        if started is None or finished is None:
            raise MeasurementError(
                "campaign stream incomplete: "
                + ("no CampaignStarted event" if started is None
                   else "no CampaignFinished event")
            )
        return self._assemble(started, finished)

    def partial_result(self) -> CampaignResult:
        """Assemble whatever streamed so far (interrupt snapshots).

        Requires ``CampaignStarted``; when no ``CampaignFinished``
        arrived, substitutes a zero wall clock — the caller is expected
        to mark the artifact as partial (e.g. the ``# interrupted``
        summary footer of :class:`~repro.core.csvio.CsvStreamSink`).
        """
        if self._started is None:
            raise MeasurementError(
                "campaign stream incomplete: no CampaignStarted event"
            )
        from repro.core import stream

        finished = self._finished
        if finished is None:
            finished = stream.CampaignFinished(wall_virtual_s=0.0)
        return self._assemble(self._started, finished)

    def _assemble(self, started, finished) -> CampaignResult:
        pairs: "dict[PairKey | GridKey, PairResult]" = {}
        for index in sorted(self._pairs_by_index):
            pair = self._pairs_by_index[index]
            pairs[pair.grid_key] = pair
        single_facet = started.facet_plan == (None,)
        return CampaignResult(
            gpu_name=started.gpu_name,
            architecture=started.architecture,
            hostname=started.hostname,
            device_index=started.device_index,
            frequencies=started.frequencies,
            pairs=pairs,
            phase1=self._phase1_by_facet.get(started.facet_plan[0]),
            wall_virtual_s=finished.wall_virtual_s,
            memory_frequencies=started.memory_frequencies,
            phase1_by_memory=(
                None if single_facet else self._phase1_by_facet
            ),
            axis=started.axis,
            locked_sm_mhz=finished.locked_sm_mhz,
            locked_sm_frequencies=started.locked_sm_frequencies,
        )
