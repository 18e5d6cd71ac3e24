"""Campaign summaries reproducing Table II.

For every measured pair the *best case* is the minimum observed switching
latency and the *worst case* the maximum (outliers removed, as the paper
presents its results).  Table II then reports the min/mean/max of those
per-pair values across all pairs, with the pairs achieving the extremes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.results import CampaignResult
from repro.errors import MeasurementError

__all__ = ["CaseSummary", "Table2Row", "summarize_campaign", "summarize_by_memory"]


@dataclass(frozen=True)
class CaseSummary:
    """min/mean/max over per-pair case values (ms), with extreme pairs."""

    min_ms: float
    min_pair: tuple[float, float]
    mean_ms: float
    max_ms: float
    max_pair: tuple[float, float]


@dataclass(frozen=True)
class Table2Row:
    """One GPU's row block of Table II.

    ``axis`` labels the swept clock domain the pair frequencies belong to
    (:mod:`repro.core.axis`).
    """

    gpu_name: str
    worst: CaseSummary
    best: CaseSummary
    n_pairs: int
    axis: str = "sm_core"


def _case_summary(values_ms: np.ndarray, pairs: list) -> CaseSummary:
    i_min = int(np.argmin(values_ms))
    i_max = int(np.argmax(values_ms))
    return CaseSummary(
        min_ms=float(values_ms[i_min]),
        min_pair=pairs[i_min],
        mean_ms=float(values_ms.mean()),
        max_ms=float(values_ms[i_max]),
        max_pair=pairs[i_max],
    )


def summarize_campaign(
    result: CampaignResult,
    without_outliers: bool = True,
    memory_mhz: "float | None" = ...,
    locked_sm_mhz: "float | None" = ...,
) -> Table2Row:
    """Compute the Table II row block for one campaign.

    ``memory_mhz`` restricts the summary to one memory facet of a
    core×memory campaign, ``locked_sm_mhz`` to one locked-SM facet of a
    multi-facet swept-axis campaign; the default aggregates across every
    facet (per-pair extremes are still per grid point).
    """
    pairs = []
    worst_ms = []
    best_ms = []
    for p in result.iter_measured(memory_mhz, locked_sm_mhz):
        values = p.latencies_s(without_outliers)
        if values.size == 0:
            continue
        pairs.append(p.key)
        worst_ms.append(values.max() * 1e3)
        best_ms.append(values.min() * 1e3)
    if not pairs:
        raise MeasurementError("campaign has no measured pairs")
    return Table2Row(
        gpu_name=result.gpu_name,
        worst=_case_summary(np.asarray(worst_ms), pairs),
        best=_case_summary(np.asarray(best_ms), pairs),
        n_pairs=len(pairs),
        axis=result.axis,
    )


def summarize_by_memory(
    result: CampaignResult, without_outliers: bool = True
) -> dict[float | None, Table2Row]:
    """One Table II row block per campaign facet, in sweep order.

    Facets are the memory clocks of a core×memory campaign or the locked
    SM clocks of a multi-facet swept-axis campaign; legacy campaigns
    return a single entry keyed ``None``.  Facets whose pairs were all
    skipped (e.g. a memory clock that never settled) are omitted rather
    than raising.
    """
    out: dict[float | None, Table2Row] = {}
    if result.locked_sm_frequencies is not None:
        for sm in result.locked_sm_frequencies:
            try:
                out[sm] = summarize_campaign(
                    result, without_outliers, locked_sm_mhz=sm
                )
            except MeasurementError:
                continue
        return out
    plan = result.memory_frequencies or (None,)
    for mem in plan:
        try:
            out[mem] = summarize_campaign(result, without_outliers, mem)
        except MeasurementError:
            continue
    return out
