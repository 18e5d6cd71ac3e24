"""Heatmap grids of per-pair switching latencies (paper Fig. 3).

Rows are initial frequencies, columns target frequencies, matching the
orientation stated in the paper's figure caption.  Core×memory campaigns
render one grid per memory clock (:func:`heatmaps_by_memory`) — the
faceted view of the 2-D frequency domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.results import CampaignResult

__all__ = ["HeatmapGrid", "heatmap_from_campaign", "heatmaps_by_memory"]


@dataclass(frozen=True)
class HeatmapGrid:
    """A labelled latency grid in milliseconds."""

    frequencies_mhz: tuple[float, ...]
    values_ms: np.ndarray  # (init, target); NaN on the diagonal/unmeasured
    statistic: str
    gpu_name: str
    #: memory clock the grid was measured at (None: legacy fixed memory)
    memory_mhz: float | None = None
    #: swept clock domain the row/column frequencies belong to
    #: (:mod:`repro.core.axis`); ``"memory"`` grids hold memory-clock
    #: pairs, ``"power"`` grids power-limit pairs in watts
    axis: str = "sm_core"
    #: locked-SM facet of a multi-facet swept-axis campaign (None: single
    #: facet)
    locked_sm_mhz: float | None = None

    @property
    def facet_label(self) -> str:
        """Short label of the facet this grid was measured at ('' if none)."""
        if self.memory_mhz is not None:
            return f"@ mem {self.memory_mhz:g} MHz"
        if self.locked_sm_mhz is not None:
            return f"@ SM {self.locked_sm_mhz:g} MHz"
        return ""

    def value(self, init_mhz: float, target_mhz: float) -> float:
        i = self.frequencies_mhz.index(float(init_mhz))
        j = self.frequencies_mhz.index(float(target_mhz))
        return float(self.values_ms[i, j])

    @property
    def finite_values(self) -> np.ndarray:
        v = self.values_ms[np.isfinite(self.values_ms)]
        return v

    def column_means_ms(self) -> np.ndarray:
        """Mean per target frequency — the dominant pattern of Fig. 3."""
        return np.nanmean(self.values_ms, axis=0)

    def target_dominance_ratio(self) -> float:
        """Column-structure strength over row-structure strength.

        The paper observes "the target frequency has a much higher impact
        (visible row pattern in the heatmaps)": variance explained by
        column (target) means should exceed variance explained by row
        (init) means.  Values > 1 confirm target dominance.
        """
        v = self.values_ms
        finite = np.isfinite(v)
        grand = np.nanmean(v)
        col_var = np.nansum(
            (np.where(finite, np.nanmean(v, axis=0)[None, :], np.nan) - grand) ** 2
        )
        row_var = np.nansum(
            (np.where(finite, np.nanmean(v, axis=1)[:, None], np.nan) - grand) ** 2
        )
        if row_var == 0.0:
            return float("inf")
        return float(col_var / row_var)


def heatmap_from_campaign(
    result: CampaignResult,
    statistic: str = "max",
    without_outliers: bool = True,
    memory_mhz: "float | None" = ...,
    locked_sm_mhz: "float | None" = ...,
) -> HeatmapGrid:
    """Build the Fig. 3-style grid from a campaign.

    ``memory_mhz`` selects one facet of a core×memory campaign,
    ``locked_sm_mhz`` one locked-SM facet of a multi-facet swept-axis
    campaign (required when several facets were swept); the defaults
    cover legacy and single-facet campaigns.
    """
    grid_s = result.latency_matrix(
        statistic, without_outliers, memory_mhz, locked_sm_mhz
    )
    if memory_mhz is ...:
        memory_mhz = (
            result.memory_frequencies[0]
            if result.memory_frequencies is not None
            else None
        )
    if locked_sm_mhz is ...:
        locked_sm_mhz = (
            result.locked_sm_frequencies[0]
            if result.locked_sm_frequencies is not None
            else None
        )
    return HeatmapGrid(
        frequencies_mhz=tuple(float(f) for f in result.frequencies),
        values_ms=grid_s * 1e3,
        statistic=statistic,
        gpu_name=result.gpu_name,
        memory_mhz=memory_mhz,
        axis=result.axis,
        locked_sm_mhz=locked_sm_mhz,
    )


def heatmaps_by_memory(
    result: CampaignResult,
    statistic: str = "max",
    without_outliers: bool = True,
) -> dict[float | None, HeatmapGrid]:
    """One Fig. 3-style grid per campaign facet, in sweep order.

    Facets are the memory clocks of a core×memory campaign or the locked
    SM clocks of a multi-facet swept-axis campaign; legacy and
    single-facet campaigns return a single entry keyed ``None``.
    """
    if result.locked_sm_frequencies is not None:
        return {
            sm: heatmap_from_campaign(
                result, statistic, without_outliers, locked_sm_mhz=sm
            )
            for sm in result.locked_sm_frequencies
        }
    plan = result.memory_frequencies or (None,)
    return {
        mem: heatmap_from_campaign(result, statistic, without_outliers, mem)
        for mem in plan
    }
